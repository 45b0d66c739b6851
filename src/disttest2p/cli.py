"""Experiment driver: parameter sweeps, calibration, instance files, CSV output.

Every row of every experiment is reproducible: the work for a (cell, trial,
family) triple depends only on the root seed mixed with those coordinates
(see :func:`disttest2p.harness.mix64`), so reruns with the same config are
byte-identical.  Wall-clock columns are left empty unless timing is
explicitly requested, for the same reason.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from . import dist
from .closeness import (
    CTParams,
    SecureCTParams,
    ct2p_insecure,
    ct2p_secure_reference,
    distinguish,
    far_instance,
    sample_floor,
    threshold_tau,
)
from .harness import ConfigError, Decision, Transcript, Verdict, check_eps, mix64
from .hardness import (
    GHDReductionParams,
    bhh_generate,
    bhh_reduce,
    ghd_generate_inputs,
    ghd_reduce,
)
from .independence import (
    ITParams,
    diagonal_distance,
    diagonal_joint,
    it2p,
    one_way_it2p,
    product_joint,
)

_EXPECTED = {"same": Decision.SAME, "far": Decision.FAR,
             "product": Decision.PRODUCT}

_FAMILY_CODE = {"same": 0, "far": 1, "product": 2}


@dataclass(frozen=True)
class Protocol:
    """One protocol the driver runs.

    ``instance(cell, family, params, rng)`` draws the two parties' inputs and
    ``runner(cell, alice, bob, params, seed)`` decides them.  Both look the
    testers up by their module-global names at call time, so a function
    rebound on this module (a tracer, a test double) is the one that runs.
    """

    params: type     # its init fields other than ``keys`` are the constants
    keys: tuple      # the grid coordinates the params class takes
    families: tuple
    instance: Callable
    runner: Callable


@functools.lru_cache(maxsize=4)  # no benchmark workload uses more laws
def _instance_law(law: str, n: int, m: int, eps: float):
    """The instance law ``uniform`` or ``far`` (closeness, over ``n``
    letters) or ``product`` or ``diagonal`` (independence, over ``n x m``),
    built once per process for each argument tuple and kept with its
    sampling tables.  Laws are immutable, so every row shares one; a refused
    law raises on each call, as a raise is never cached."""
    if law == "uniform":
        return dist.uniform_distribution(n)
    if law == "far":
        return far_instance(n, eps)
    if law == "product":
        return product_joint(dist.uniform_distribution(n),
                             dist.uniform_distribution(m))
    _check_far_eps(n, m, eps)
    return diagonal_joint(n, m)


def _closeness_samples(cell, family, params, rng):
    n, eps = cell["n"], cell["eps"]
    a = _instance_law("uniform", n, 0, 0.0)
    b = a if family == "same" else _instance_law("far", n, 0, eps)
    return dist.sample(a, cell["t"], rng), dist.sample(b, cell["t"], rng)


def _joint_samples(cell, family, params, rng):
    n, m = cell["n"], cell["m"]
    if family == "product":
        joint = _instance_law("product", n, m, 0.0)
    else:
        joint = _instance_law("diagonal", n, m, cell["eps"])
    return joint.sample_joint(cell["t"], rng)


def _check_far_eps(n: int, m: int, eps: float) -> None:
    """Refuse an eps beyond the independence far instance's distance."""
    bound = diagonal_distance(n, m)
    if eps > bound:
        raise ConfigError(f"eps={eps} is above {bound:.4g}, the distance of "
                          f"the far instance from product at n={n}, m={m}")


def _ghd_pair(case, params, rng):
    inp = ghd_generate_inputs(params.m, case, rng, beta=params.beta)
    return ghd_reduce(inp, params, rng)


def _ghd_verdict(cell, a_vec, b_vec, params, seed):
    """Classify a reduced GHD instance with the closeness threshold rule."""
    delta_sq = float(((a_vec.counts - b_vec.counts) ** 2).sum())
    tau = threshold_tau(cell["n"], cell["t"], cell["eps"])
    return Verdict(distinguish(delta_sq, tau), Transcript())


PROTOCOLS = {
    "closeness": Protocol(
        CTParams, ("n", "t", "eps"), ("same", "far"), _closeness_samples,
        lambda cell, *a: ct2p_insecure(*a)),
    "closeness-secure": Protocol(
        SecureCTParams, ("n", "t", "eps", "k"), ("same", "far"),
        _closeness_samples, lambda cell, *a: ct2p_secure_reference(*a)),
    "independence": Protocol(
        ITParams, ("n", "m", "t", "eps", "k"), ("product", "far"),
        _joint_samples, lambda cell, *a: it2p(*a)),
    "independence-oneway": Protocol(
        ITParams, ("n", "m", "t", "eps", "k"), ("product", "far"),
        _joint_samples, lambda cell, *a: one_way_it2p(*a)),
    "hardgen": Protocol(
        GHDReductionParams, ("n", "t"), ("same", "far"),
        lambda cell, family, params, rng: _ghd_pair(family.upper(), params, rng),
        _ghd_verdict),
}


def _check_overrides(protocol: str, overrides: dict) -> None:
    """Refuse names that are not constants (init fields off the grid) of the
    protocol's params class."""
    proto = PROTOCOLS[protocol]
    known = sorted(f.name for f in fields(proto.params)
                   if f.init and f.name not in proto.keys)
    for name in overrides:
        if name not in known:
            raise ConfigError(f"{protocol} has no constant {name!r} "
                              f"(known: {', '.join(known)})")


def make_params(protocol: str, cell: dict, overrides: dict):
    """The protocol's params for one grid cell; ConfigError if refused."""
    _check_overrides(protocol, overrides)
    proto = PROTOCOLS[protocol]
    if "eps" in cell and "eps" not in proto.keys:  # hardgen's verdict reads it
        check_eps(cell["eps"])
    return proto.params(**{key: cell[key] for key in proto.keys}, **overrides)


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str
    ns: tuple
    ts: tuple
    epss: tuple
    ms: tuple = (0,)
    ks: tuple = (1,)
    trials: int = 1
    seed: int = 0
    overrides: dict = field(default_factory=dict)
    timing: bool = False

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        _check_overrides(self.protocol, self.overrides)
        for name, grid in (("n", self.ns), ("t", self.ts), ("eps", self.epss),
                           ("m", self.ms), ("k", self.ks)):
            if len(grid) == 0:
                raise ConfigError(f"empty grid for {name}")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")


@dataclass(frozen=True)
class ResultRow:
    protocol: str
    n: int
    m: int
    t: int
    eps: float
    k: int
    trial: object
    family: str
    status: str
    verdict: str = ""
    success: object = ""
    plaintext_bits: object = ""
    secure_bits: object = ""
    lambda_mean: object = ""
    wall_ms: object = ""
    reason: str = ""


COLUMNS = [f.name for f in fields(ResultRow)]


def _run_one(cfg: ExperimentConfig, cell_index: int, cell: dict, trial: int,
             family: str) -> ResultRow:
    proto = PROTOCOLS[cfg.protocol]
    row_seed = mix64(cfg.seed, cell_index, trial, _FAMILY_CODE[family])
    rng = np.random.default_rng(row_seed)
    base = dict(protocol=cfg.protocol, trial=trial, family=family, **cell)
    start = time.perf_counter()
    try:
        params = make_params(cfg.protocol, cell, cfg.overrides)
        alice, bob = proto.instance(cell, family, params, rng)
        verdict = proto.runner(cell, alice, bob, params, mix64(row_seed, 1))
    except ConfigError as err:
        return ResultRow(**base, status="skipped", reason=str(err))
    elapsed = (time.perf_counter() - start) * 1000
    lam = verdict.lambda_mean
    return ResultRow(**base, status="ok", verdict=verdict.decision.value,
                     success=int(verdict.decision == _EXPECTED[family]),
                     plaintext_bits=verdict.transcript.total_bits,
                     secure_bits=verdict.transcript.modeled_secure_bits,
                     lambda_mean="" if lam is None else f"{lam:.3f}",
                     wall_ms=f"{elapsed:.1f}" if cfg.timing else "")


def run_experiment(cfg: ExperimentConfig):
    """Yield ResultRows cell by cell: (trial, family) rows, then summaries."""
    families = PROTOCOLS[cfg.protocol].families
    grid = itertools.product(cfg.ns, cfg.ms, cfg.ts, cfg.epss, cfg.ks)
    for ci, (n, m, t, eps, k) in enumerate(grid):
        cell = dict(n=n, m=m, t=t, eps=eps, k=k)
        try:  # validated up front so a skipped row quotes the precondition
            make_params(cfg.protocol, cell, cfg.overrides)
        except ConfigError as err:
            for family in families:
                yield ResultRow(protocol=cfg.protocol, **cell, trial="",
                                family=family, status="skipped",
                                reason=str(err))
            continue
        rows = [_run_one(cfg, ci, cell, trial, family)
                for trial in range(cfg.trials) for family in families]
        yield from rows
        for family in families:
            ok = [r for r in rows if r.family == family and r.status == "ok"]
            summary = {}  # rows all skipped at run time: no rate, no bits
            if ok:
                summary = dict(
                    success=f"{sum(r.success for r in ok) / len(ok):.4f}",
                    plaintext_bits=_geomean([r.plaintext_bits for r in ok]),
                    secure_bits=_geomean([r.secure_bits for r in ok]))
            yield ResultRow(protocol=cfg.protocol, **cell, trial="summary",
                            family=family, status="summary", **summary)


def _geomean(values) -> str:
    positive = [v for v in values if isinstance(v, (int, float)) and v > 0]
    if not positive:
        return "0"
    # Logs relative to the smallest value: equal values give it back exactly.
    lo = min(positive)
    mean_log = sum(math.log(v / lo) for v in positive) / len(positive)
    return f"{lo * math.exp(mean_log):.1f}"


def rows_to_csv(rows, columns=COLUMNS, header=None) -> str:
    """CSV of the rows' ``columns``, headed by ``header`` (default: their names)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns if header is None else header)
    writer.writerows([getattr(row, c) for c in columns] for row in rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Calibration

_GRIDS = {
    "closeness": [
        {"c_alpha": 1 / 16}, {"c_alpha": 1 / 32}, {"c_alpha": 1 / 8},
        {"c_alpha": 1 / 16, "c_split": 2.0},
    ],
    "independence": [
        {"big_c": 100.0, "c2": 24.0, "c_eps": 1.35},
        {"big_c": 100.0, "c2": 16.0, "c_eps": 1.35},
        {"big_c": 100.0, "c2": 24.0, "c_eps": 1.0},
        {"big_c": 50.0, "c2": 16.0, "c_eps": 1.2},
    ],
}


def calibrate(protocol: str, n: int, eps: float, seed: int, trials: int = 60,
              k: int = 2):
    """Grid-search constants; returns (constants, same_rate, far_rate) or None.

    Feasibility means both instance-family success rates reach 0.75 at the
    precondition-minimal sample count for the candidate constants; a family
    whose rows were all skipped has no rate and makes the candidate infeasible.
    A bad (n, eps, k) is refused first, at the default constants and a huge t.
    """
    if protocol not in _GRIDS:
        raise ConfigError(f"no calibration defined for {protocol!r}")
    probe = dict(n=n, m=n, t=2 ** 62, eps=eps, k=k)
    make_params(protocol, probe, {})
    baseline = CTParams.big_c * sample_floor(n, eps)  # closeness's bound
    if protocol == "closeness" and baseline > n ** 2:
        raise ConfigError(
            f"alphabet n={n} too small to calibrate: the precondition sample "
            f"bound {baseline:.0f} exceeds the domain scale n^2={n ** 2}")
    if protocol == "independence":
        _check_far_eps(n, n, eps)
    best = None
    for consts in _GRIDS[protocol]:
        try:
            t = math.ceil(make_params(protocol, probe, consts).min_samples())
        except ConfigError:
            continue
        cfg = ExperimentConfig(protocol=protocol, ns=(n,), ms=(n,), ts=(t,),
                               epss=(eps,), ks=(k,), trials=trials, seed=seed,
                               overrides=consts)
        rates = [row.success for row in run_experiment(cfg)
                 if row.status == "summary"]
        if not rates or "" in rates:
            continue
        rates = [float(rate) for rate in rates]
        if min(rates) >= 0.75 and (
                best is None or min(rates) > min(best[1:])):
            best = (consts, *rates)
    return best


def fixture_to_text(constants: dict) -> str:
    return "".join(f"{name},{value!r}\n" for name, value in sorted(constants.items()))


def _constants(pairs, source: str) -> dict:
    """``--set`` and ``--constants`` alike: ``(name, value text)`` pairs read
    as floats, refusing a name given twice or a value that is not a number."""
    out = {}
    for name, value in pairs:
        if name in out:
            raise ConfigError(f"constant {name!r} given twice {source}")
        try:
            out[name] = float(value)
        except ValueError:
            raise ConfigError(f"{value!r} is not a number") from None
    return out


def _split(item: str, sep: str, what: str) -> tuple:
    name, found, value = item.partition(sep)
    if not found:
        raise ConfigError(f"bad {what} {item!r}, expected NAME{sep}VALUE")
    return name, value


def fixture_from_text(text: str) -> dict:
    lines = [line.strip() for line in text.splitlines()]
    return _constants((_split(line, ",", "constants line") for line in lines
                       if line and not line.startswith("#")),
                      "in the constants file")


def _read_constants(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return fixture_from_text(fh.read())
    except UnicodeDecodeError as err:
        raise ConfigError(f"constants file {path!r} is not UTF-8 text "
                          f"(byte {err.start})") from None


# ---------------------------------------------------------------------------
# Instance files

_HARD_CASES = {"ghd": ("SAME", "FAR"), "bhh": ("PRODUCT", "FAR")}


def write_hard_instance(path: str, kind: str, case: str, n: int, t: int,
                        seed: int, overrides: dict | None = None) -> None:
    """Write a GHD (SAME or FAR) or BHH (PRODUCT or FAR) instance file."""
    if kind not in _HARD_CASES:
        raise ConfigError(f"unknown hard-instance kind {kind!r}")
    if case not in _HARD_CASES[kind]:
        raise ConfigError(f"{kind} case must be "
                          f"{' or '.join(_HARD_CASES[kind])}, not {case!r}")
    rng = np.random.default_rng(mix64(seed, 0xF11E))
    try:
        if kind == "ghd":
            params = make_params("hardgen", dict(n=n, t=t), overrides or {})
            a_vec, b_vec = _ghd_pair(case, params, rng)
            texts = [dist.occurrence_to_text(v) for v in (a_vec, b_vec)]
        else:
            if overrides:
                raise ConfigError("bhh instances take no constants")
            inst = bhh_generate(n, 1 if case == "PRODUCT" else 0, rng)
            texts = ["".join(f"{i} {int(v)}\n" for i, v in enumerate(s.letters))
                     for s in bhh_reduce(inst, t, rng)]
    except ValueError as err:  # the generators' own argument checks
        raise ConfigError(str(err)) from err
    lines = [f"case={case} n={n} t={t} seed={seed}",
             "A", texts[0].rstrip("\n"), "B", texts[1].rstrip("\n")]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argparse front end

def _parse_overrides(pairs) -> dict:
    return _constants((_split(pair, "=", "override") for pair in pairs), "in --set")


def _m_k_grids(protocol: str, m, k, default_k: int) -> dict:
    """``ms`` and ``ks`` from ``--m``/``--k`` (None when absent); a flag the
    protocol's grid lacks is refused instead of ignored."""
    for name, given in (("m", m), ("k", k)):
        if given is not None and name not in PROTOCOLS[protocol].keys:
            raise ConfigError(f"{protocol} takes no --{name}")
    return dict(ms=(0,) if m is None else tuple(m),
                ks=(default_k,) if k is None else tuple(k))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disttest2p",
        description="Two-party distribution testing experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    sets = argparse.ArgumentParser(add_help=False)
    sets.add_argument("--set", action="append", default=[],
                      metavar="NAME=VALUE", help="override a protocol constant")

    trials = argparse.ArgumentParser(add_help=False, parents=[seed, sets])
    trials.add_argument("--n", type=int, required=True)
    trials.add_argument("--t", type=int, required=True)
    trials.add_argument("--eps", type=float, default=1.0)
    trials.add_argument("--k", type=int, default=None,
                        help="security/repetition parameter (default 2)")
    trials.add_argument("--trials", type=int, default=20)
    trials.add_argument("--out", type=str, default="-")

    close = subs.add_parser("closeness", parents=[trials],
                            help="closeness tester trials")
    close.add_argument("--secure", action="store_true")
    indep = subs.add_parser("independence", parents=[trials],
                            help="independence tester trials")
    indep.add_argument("--m", type=int, required=True)
    indep.add_argument("--one-way", action="store_true")

    hard = subs.add_parser("hardgen", parents=[seed, sets],
                           help="emit a hard-instance file")
    hard.add_argument("--kind", choices=("ghd", "bhh"), default="ghd")
    hard.add_argument("--case", choices=("SAME", "FAR", "PRODUCT"), required=True,
                      help="ghd: SAME or FAR; bhh: PRODUCT or FAR")
    hard.add_argument("--n", type=int, required=True)
    hard.add_argument("--t", type=int, required=True)
    hard.add_argument("--out", type=str, required=True)

    run = subs.add_parser("run", parents=[seed, sets],
                          help="grid sweep with CSV report")
    run.add_argument("--protocol", choices=PROTOCOLS, required=True)
    run.add_argument("--n", type=int, nargs="+", required=True)
    run.add_argument("--m", type=int, nargs="+", default=None)
    run.add_argument("--t", type=int, nargs="+", required=True)
    run.add_argument("--eps", type=float, nargs="+", default=[1.0])
    run.add_argument("--k", type=int, nargs="+", default=None)
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--out", type=str, default="-")
    run.add_argument("--constants", type=str, default=None,
                     help="fixture file of constant overrides")
    run.add_argument("--timing", action="store_true")

    cal = subs.add_parser("calibrate", parents=[seed],
                          help="grid-search protocol constants")
    cal.add_argument("--protocol", choices=tuple(_GRIDS), required=True)
    cal.add_argument("--n", type=int, required=True)
    cal.add_argument("--eps", type=float, default=1.0)
    cal.add_argument("--k", type=int, default=None,
                     help="independence only (default 2)")
    cal.add_argument("--trials", type=int, default=60)
    cal.add_argument("--out", type=str, default="-")
    return parser


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


_TRIAL_COLUMNS = ["trial", "family", "verdict", "plaintext_bits", "secure_bits"]


def _simple_trials(args, protocol: str, columns: list) -> str:
    """Per-trial CSV of the closeness and independence subcommands."""
    m = getattr(args, "m", None)
    grids = _m_k_grids(protocol, None if m is None else [m],
                       None if args.k is None else [args.k], default_k=2)
    cfg = ExperimentConfig(protocol=protocol, ns=(args.n,), ts=(args.t,),
                           epss=(args.eps,), trials=args.trials, seed=args.seed,
                           overrides=_parse_overrides(args.set), **grids)
    rows = list(run_experiment(cfg))
    skipped = [row.reason for row in rows if row.status == "skipped"]
    if skipped:
        raise ConfigError(skipped[0])
    return rows_to_csv([row for row in rows if row.status == "ok"], columns,
                       ["instance" if c == "family" else c for c in columns])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "closeness":
            protocol = "closeness-secure" if args.secure else "closeness"
            _emit(_simple_trials(args, protocol, _TRIAL_COLUMNS), args.out)
        elif args.command == "independence":
            protocol = "independence-oneway" if args.one_way else "independence"
            _emit(_simple_trials(args, protocol, _TRIAL_COLUMNS + ["lambda_mean"]),
                  args.out)
        elif args.command == "hardgen":
            write_hard_instance(args.out, args.kind, args.case, args.n, args.t,
                                args.seed, _parse_overrides(args.set))
        elif args.command == "run":
            overrides = _parse_overrides(args.set)
            if args.constants:
                overrides = {**_read_constants(args.constants), **overrides}
            if args.m is None and "m" in PROTOCOLS[args.protocol].keys:
                raise ConfigError(f"{args.protocol} needs --m")
            grids = _m_k_grids(args.protocol, args.m, args.k, default_k=1)
            cfg = ExperimentConfig(protocol=args.protocol, ns=tuple(args.n),
                                   ts=tuple(args.t), epss=tuple(args.eps),
                                   trials=args.trials, seed=args.seed,
                                   overrides=overrides, timing=args.timing,
                                   **grids)
            _emit(rows_to_csv(run_experiment(cfg)), args.out)
        elif args.command == "calibrate":
            # calibrate sets m = n itself: only run's --k rule applies
            k = None if args.k is None else [args.k]
            (k,) = _m_k_grids(args.protocol, None, k, default_k=2)["ks"]
            got = calibrate(args.protocol, args.n, args.eps, args.seed,
                            trials=args.trials, k=k)
            if got is None:
                sys.stderr.write(
                    "calibration infeasible: no grid point reached 0.75/0.75\n")
                return 3
            constants, same_rate, far_rate = got
            _emit(fixture_to_text(constants)
                  + f"# rates,{same_rate:.3f},{far_rate:.3f}\n", args.out)
    except (ConfigError, OSError) as err:  # OSError: --constants or --out path
        sys.stderr.write(f"config error: {err}\n")
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
