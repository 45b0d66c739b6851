"""The benchmark's four workloads, each a sequence of seeded batches.

A batch is a short list of ``ExperimentConfig`` objects, one per protocol and
alphabet size ``n``, so that the ``n x t`` grid of a config never produces a
skipped cell.  Batch ``b`` of a run with seed ``s`` is a pure function of
``(workload, s, b)``: the program only ever sees the generated configs.
"""

from __future__ import annotations

import math

from disttest2p.cli import ExperimentConfig
from disttest2p.closeness import CTParams
from disttest2p.independence import ITParams

_PROBE_T = 10 ** 9  # a sample count that passes every precondition


def _closeness_t_min(n: int) -> int:
    return math.ceil(CTParams(n=n, t=_PROBE_T, eps=1.0).min_samples())


def _independence_t_min(n: int) -> int:
    return math.ceil(ITParams(n=n, m=n, t=_PROBE_T, eps=1.0, k=2).min_samples())


def batch_configs(workload: str, seed: int, batch: int) -> list[ExperimentConfig]:
    """The configs of batch ``batch`` of a run seeded with ``seed``."""
    s = (seed << 20) + batch
    if workload == "closeness-sweep":
        # t_min, 2 t_min and 4 t_min per n: the dense sign matrix dominates
        # at t_min, sampling/split/collisions at 4 t_min.  Twice the trials
        # at n=200 as at n=500, so the row-time median and 90th percentile
        # fall inside a cell instead of on the gap between two cells.
        configs = []
        for n, trials in ((200, 2), (500, 1)):
            t_min = _closeness_t_min(n)
            configs.append(ExperimentConfig(
                protocol="closeness", ns=(n,), ts=(t_min, 2 * t_min, 4 * t_min),
                epss=(1.0,), trials=trials, seed=s))
        return configs
    if workload == "secure-closeness":
        # Acceptance C4's calibrated cell (t = C*k*max(...) at k=4).
        return [ExperimentConfig(protocol="closeness-secure", ns=(200,),
                                 ts=(1095,), epss=(1.0,), ks=(4,), trials=2,
                                 seed=s)]
    if workload == "independence":
        # Twice the trials at n=20 as at n=100, so the row-time median and
        # 90th percentile fall inside one cell each.
        return [ExperimentConfig(protocol=protocol, ns=(n,), ms=(n,),
                                 ts=(_independence_t_min(n),), epss=(1.0,),
                                 ks=(2,), trials=trials, seed=s)
                for protocol in ("independence", "independence-oneway")
                for n, trials in ((20, 4), (100, 2))]
    if workload == "hardgen":
        # Acceptance C6's construction; the asymptotic defaults are out of
        # regime at desk scale, so m, beta and l_big are explicit.
        return [ExperimentConfig(protocol="hardgen", ns=(2000,), ts=(62,),
                                 epss=(1.0,), trials=10, seed=s,
                                 overrides={"m": 32, "beta": 8, "l_big": 62})]
    raise ValueError(f"unknown workload {workload!r}")


def expected_rows(cfg: ExperimentConfig) -> int:
    """Rows a config yields, not counting summaries (two families each)."""
    cells = len(cfg.ns) * len(cfg.ms) * len(cfg.ts) * len(cfg.epss) * len(cfg.ks)
    return 2 * cells * cfg.trials
