"""Experiment driver: parameter sweeps, calibration, instance files, CSV output.

Every row of every experiment is reproducible: the work for a (cell, trial,
family) triple depends only on the root seed mixed with those coordinates
(see :func:`disttest2p.harness.mix64`), so reruns with the same config are
byte-identical regardless of worker scheduling.  Wall-clock columns are left
empty unless timing is explicitly requested, for the same reason.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import dist
from .closeness import (
    CTParams,
    SecureCTParams,
    ct2p_insecure,
    ct2p_secure_reference,
    distinguish,
    far_instance,
    threshold_tau,
)
from .harness import ConfigError, Decision, mix64
from .hardness import (
    GHDReductionParams,
    bhh_generate,
    bhh_reduce,
    ghd_generate_inputs,
    ghd_reduce,
)
from .independence import ITParams, diagonal_joint, it2p, one_way_it2p, product_joint

PROTOCOLS = ("closeness", "closeness-secure", "independence",
             "independence-oneway", "hardgen")

_FAMILIES = {
    "closeness": ("same", "far"),
    "closeness-secure": ("same", "far"),
    "independence": ("product", "far"),
    "independence-oneway": ("product", "far"),
    "hardgen": ("same", "far"),
}

_EXPECTED = {"same": Decision.SAME, "far": Decision.FAR,
             "product": Decision.PRODUCT}

_FAMILY_CODE = {"same": 0, "far": 1, "product": 2}

COLUMNS = ["protocol", "n", "m", "t", "eps", "k", "trial", "family", "status",
           "verdict", "success", "plaintext_bits", "secure_bits",
           "lambda_mean", "wall_ms", "reason"]


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
    workers: int = 1

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
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

    def fields(self) -> list:
        return [getattr(self, c) for c in COLUMNS]


def _filtered(overrides: dict, cls) -> dict:
    valid = set(cls.__dataclass_fields__)
    return {k: v for k, v in overrides.items() if k in valid}


def _run_one(cfg: ExperimentConfig, cell_index: int, cell: dict, trial: int,
             family: str) -> ResultRow:
    row_seed = mix64(cfg.seed, cell_index, trial, _FAMILY_CODE[family])
    rng = np.random.default_rng(row_seed)
    protocol_seed = mix64(row_seed, 1)
    n, m, t, eps, k = (cell["n"], cell["m"], cell["t"], cell["eps"], cell["k"])
    base = dict(protocol=cfg.protocol, n=n, m=m, t=t, eps=eps, k=k,
                trial=trial, family=family)
    start = time.perf_counter()
    try:
        lam = ""
        if cfg.protocol in ("closeness", "closeness-secure"):
            a = dist.uniform_distribution(n)
            b = a if family == "same" else far_instance(n, eps)
            alice = dist.sample(a, t, rng)
            bob = dist.sample(b, t, rng)
            if cfg.protocol == "closeness":
                params = CTParams(n=n, t=t, eps=eps,
                                  **_filtered(cfg.overrides, CTParams))
                verdict = ct2p_insecure(alice, bob, params, protocol_seed)
            else:
                params = SecureCTParams(n=n, t=t, eps=eps, k=k,
                                        **_filtered(cfg.overrides, SecureCTParams))
                verdict = ct2p_secure_reference(alice, bob, params, protocol_seed)
            decision = verdict.decision
            plaintext = verdict.transcript.total_bits
            secure = verdict.transcript.modeled_secure_bits
        elif cfg.protocol in ("independence", "independence-oneway"):
            joint = (product_joint(dist.uniform_distribution(n),
                                   dist.uniform_distribution(m))
                     if family == "product" else diagonal_joint(n, m))
            alice, bob = joint.sample_joint(t, rng)
            params = ITParams(n=n, m=m, t=t, eps=eps, k=k,
                              **_filtered(cfg.overrides, ITParams))
            run = it2p if cfg.protocol == "independence" else one_way_it2p
            verdict = run(alice, bob, params, protocol_seed)
            decision = verdict.decision
            plaintext = verdict.transcript.total_bits
            secure = verdict.transcript.modeled_secure_bits
            lam = f"{verdict.lambda_mean:.3f}"
        else:  # hardgen: classify reduced instances with the threshold rule
            params = GHDReductionParams(n=n, t=t,
                                        **_filtered(cfg.overrides,
                                                    GHDReductionParams))
            case = family.upper()
            inp = ghd_generate_inputs(params.m, case, rng, beta=params.beta)
            a_vec, b_vec = ghd_reduce(inp, params, rng)
            delta_sq = float(((a_vec.counts - b_vec.counts) ** 2).sum())
            decision = distinguish(delta_sq, threshold_tau(n, t, eps))
            plaintext = secure = 0
    except ConfigError as err:
        return ResultRow(**base, status="skipped", reason=str(err))
    elapsed = (time.perf_counter() - start) * 1000
    return ResultRow(**base, status="ok", verdict=decision.value,
                     success=int(decision == _EXPECTED[family]),
                     plaintext_bits=plaintext, secure_bits=secure,
                     lambda_mean=lam,
                     wall_ms=f"{elapsed:.1f}" if cfg.timing else "")


def _skip_reason(cfg: ExperimentConfig, cell: dict) -> str | None:
    """Validate a cell's params eagerly so skips carry the precondition text."""
    try:
        if cfg.protocol == "closeness":
            CTParams(n=cell["n"], t=cell["t"], eps=cell["eps"],
                     **_filtered(cfg.overrides, CTParams))
        elif cfg.protocol == "closeness-secure":
            SecureCTParams(n=cell["n"], t=cell["t"], eps=cell["eps"],
                           k=cell["k"], **_filtered(cfg.overrides, SecureCTParams))
        elif cfg.protocol in ("independence", "independence-oneway"):
            ITParams(n=cell["n"], m=cell["m"], t=cell["t"], eps=cell["eps"],
                     k=cell["k"], **_filtered(cfg.overrides, ITParams))
        else:
            GHDReductionParams(n=cell["n"], t=cell["t"],
                               **_filtered(cfg.overrides, GHDReductionParams))
    except ConfigError as err:
        return str(err)
    return None


def run_experiment(cfg: ExperimentConfig):
    """Yield ResultRows in (cell, trial, family) order, then summary rows."""
    cells = []
    for n in cfg.ns:
        for m in cfg.ms:
            for t in cfg.ts:
                for eps in cfg.epss:
                    for k in cfg.ks:
                        cells.append(dict(n=n, m=m, t=t, eps=eps, k=k))

    tasks = []
    skipped = {}
    for ci, cell in enumerate(cells):
        reason = _skip_reason(cfg, cell)
        if reason is not None:
            skipped[ci] = reason
            continue
        for trial in range(cfg.trials):
            for family in _FAMILIES[cfg.protocol]:
                tasks.append((ci, cell, trial, family))

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(
                lambda args: _run_one(cfg, args[0], args[1], args[2], args[3]),
                tasks))
    else:
        results = [_run_one(cfg, *task) for task in tasks]

    by_key = {}
    for (ci, cell, trial, family), row in zip(tasks, results):
        by_key[(ci, trial, family)] = row

    for ci, cell in enumerate(cells):
        if ci in skipped:
            for family in _FAMILIES[cfg.protocol]:
                yield ResultRow(protocol=cfg.protocol, n=cell["n"], m=cell["m"],
                                t=cell["t"], eps=cell["eps"], k=cell["k"],
                                trial="", family=family, status="skipped",
                                reason=skipped[ci])
            continue
        for trial in range(cfg.trials):
            for family in _FAMILIES[cfg.protocol]:
                yield by_key[(ci, trial, family)]
        for family in _FAMILIES[cfg.protocol]:
            rows = [by_key[(ci, trial, family)] for trial in range(cfg.trials)]
            ok = [r for r in rows if r.status == "ok"]
            rate = sum(r.success for r in ok) / len(ok) if ok else 0.0
            yield ResultRow(
                protocol=cfg.protocol, n=cell["n"], m=cell["m"], t=cell["t"],
                eps=cell["eps"], k=cell["k"], trial="summary", family=family,
                status="summary", verdict="",
                success=f"{rate:.4f}",
                plaintext_bits=_geomean([r.plaintext_bits for r in ok]),
                secure_bits=_geomean([r.secure_bits for r in ok]))


def _geomean(values) -> str:
    positive = [v for v in values if isinstance(v, (int, float)) and v > 0]
    if not positive:
        return "0"
    return f"{math.exp(sum(math.log(v) for v in positive) / len(positive)):.1f}"


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow(row.fields())
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Calibration

_CLOSENESS_GRID = [
    {"c_alpha": 1 / 16}, {"c_alpha": 1 / 32}, {"c_alpha": 1 / 8},
    {"c_alpha": 1 / 16, "c_split": 2.0},
]

_INDEPENDENCE_GRID = [
    {"big_c": 100.0, "c2": 24.0, "c_eps": 1.35},
    {"big_c": 100.0, "c2": 16.0, "c_eps": 1.35},
    {"big_c": 100.0, "c2": 24.0, "c_eps": 1.0},
    {"big_c": 50.0, "c2": 16.0, "c_eps": 1.2},
]


def calibrate(protocol: str, n: int, eps: float, seed: int, trials: int = 60,
              k: int = 2):
    """Grid-search constants; returns (constants, same_rate, far_rate) or None.

    Feasibility means both instance-family success rates reach 0.75 at the
    precondition-minimal sample count for the candidate constants.
    """
    baseline = 8.0 * max(n ** (2 / 3) * eps ** (-4 / 3),
                         math.sqrt(n) * eps ** (-2))
    if baseline > n ** 2:
        raise ConfigError(
            f"alphabet n={n} too small to calibrate: the precondition sample "
            f"bound {baseline:.0f} exceeds the domain scale n^2={n ** 2}")
    if protocol == "closeness":
        grid = _CLOSENESS_GRID

        def rates(consts):
            probe = dict(n=n, t=10 ** 9, eps=eps, **consts)
            t = math.ceil(CTParams(**probe).min_samples())
            cfg = ExperimentConfig(protocol="closeness", ns=(n,), ts=(t,),
                                   epss=(eps,), trials=trials, seed=seed,
                                   overrides=consts)
            return _summary_rates(cfg)
    elif protocol == "independence":
        grid = _INDEPENDENCE_GRID

        def rates(consts):
            probe = ITParams(n=n, m=n, t=10 ** 9, eps=eps, k=k, **consts)
            t = math.ceil(probe.min_samples())
            cfg = ExperimentConfig(protocol="independence", ns=(n,), ms=(n,),
                                   ts=(t,), epss=(eps,), ks=(k,),
                                   trials=trials, seed=seed, overrides=consts)
            return _summary_rates(cfg)
    else:
        raise ConfigError(f"no calibration defined for {protocol!r}")

    best = None
    for consts in grid:
        try:
            got = rates(consts)
        except ConfigError:
            continue
        if got is None:
            continue
        lo = min(got)
        if lo >= 0.75 and (best is None or lo > best[3]):
            best = (consts, got[0], got[1], lo)
    if best is None:
        return None
    return best[0], best[1], best[2]


def _summary_rates(cfg: ExperimentConfig):
    rates = {}
    for row in run_experiment(cfg):
        if row.status == "summary":
            rates[row.family] = float(row.success)
        elif row.status == "skipped":
            return None
    families = _FAMILIES[cfg.protocol]
    return tuple(rates[f] for f in families)


def fixture_to_text(constants: dict) -> str:
    return "".join(f"{name},{value!r}\n" for name, value in sorted(constants.items()))


def fixture_from_text(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, value = line.split(",", 1)
        out[name] = float(value)
    return out


# ---------------------------------------------------------------------------
# Instance files

def write_hard_instance(path: str, kind: str, case: str, n: int, t: int,
                        seed: int, overrides: dict | None = None) -> None:
    rng = np.random.default_rng(mix64(seed, 0xF11E))
    lines = [f"case={case} n={n} t={t} seed={seed}"]
    if kind == "ghd":
        params = GHDReductionParams(n=n, t=t, **(overrides or {}))
        inp = ghd_generate_inputs(params.m, case, rng, beta=params.beta)
        a_vec, b_vec = ghd_reduce(inp, params, rng)
        lines.append("A")
        lines.append(dist.occurrence_to_text(a_vec).rstrip("\n"))
        lines.append("B")
        lines.append(dist.occurrence_to_text(b_vec).rstrip("\n"))
    elif kind == "bhh":
        bit = 1 if case == "PRODUCT" else 0
        inst = bhh_generate(n, bit, rng)
        alice, bob = bhh_reduce(inst, t, rng)
        lines.append("A")
        lines.append("".join(f"{i} {int(v)}\n"
                             for i, v in enumerate(alice.letters)).rstrip("\n"))
        lines.append("B")
        lines.append("".join(f"{i} {int(v)}\n"
                             for i, v in enumerate(bob.letters)).rstrip("\n"))
    else:
        raise ConfigError(f"unknown hard-instance kind {kind!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argparse front end

def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--trials", type=int, default=20)
    sub.add_argument("--out", type=str, default="-")
    sub.add_argument("--set", action="append", default=[], metavar="NAME=VALUE",
                     help="override a protocol constant")


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"bad override {pair!r}, expected NAME=VALUE")
        name, value = pair.split("=", 1)
        number = float(value)
        out[name] = int(number) if number.is_integer() else number
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disttest2p",
        description="Two-party distribution testing experiments")
    subs = parser.add_subparsers(dest="command", required=True)

    close = subs.add_parser("closeness", help="closeness tester trials")
    close.add_argument("--n", type=int, required=True)
    close.add_argument("--t", type=int, required=True)
    close.add_argument("--eps", type=float, default=1.0)
    close.add_argument("--secure", action="store_true")
    close.add_argument("--k", type=int, default=2)
    _add_common(close)

    indep = subs.add_parser("independence", help="independence tester trials")
    indep.add_argument("--n", type=int, required=True)
    indep.add_argument("--m", type=int, required=True)
    indep.add_argument("--t", type=int, required=True)
    indep.add_argument("--eps", type=float, default=1.0)
    indep.add_argument("--k", type=int, default=2)
    indep.add_argument("--one-way", action="store_true")
    _add_common(indep)

    hard = subs.add_parser("hardgen", help="emit a hard-instance file")
    hard.add_argument("--kind", choices=("ghd", "bhh"), default="ghd")
    hard.add_argument("--case", choices=("SAME", "FAR", "PRODUCT"), required=True)
    hard.add_argument("--n", type=int, required=True)
    hard.add_argument("--t", type=int, required=True)
    hard.add_argument("--seed", type=int, default=0)
    hard.add_argument("--out", type=str, required=True)
    hard.add_argument("--set", action="append", default=[], metavar="NAME=VALUE")

    run = subs.add_parser("run", help="grid sweep with CSV report")
    run.add_argument("--protocol", choices=PROTOCOLS, required=True)
    run.add_argument("--n", type=int, nargs="+", required=True)
    run.add_argument("--m", type=int, nargs="+", default=[0])
    run.add_argument("--t", type=int, nargs="+", required=True)
    run.add_argument("--eps", type=float, nargs="+", default=[1.0])
    run.add_argument("--k", type=int, nargs="+", default=[1])
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", type=str, default="-")
    run.add_argument("--constants", type=str, default=None,
                     help="fixture file of constant overrides")
    run.add_argument("--set", action="append", default=[], metavar="NAME=VALUE")
    run.add_argument("--timing", action="store_true")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--calibrate", action="store_true",
                     help="calibrate constants for the first grid cell "
                          "instead of sweeping")

    cal = subs.add_parser("calibrate", help="grid-search protocol constants")
    cal.add_argument("--protocol", choices=("closeness", "independence"),
                     required=True)
    cal.add_argument("--n", type=int, required=True)
    cal.add_argument("--eps", type=float, default=1.0)
    cal.add_argument("--k", type=int, default=2)
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--trials", type=int, default=60)
    cal.add_argument("--out", type=str, default="-")
    return parser


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _simple_trials(args, secure_or_oneway: bool, protocol_pair) -> str:
    """Shared body of the closeness/independence subcommands."""
    protocol = protocol_pair[1] if secure_or_oneway else protocol_pair[0]
    m = getattr(args, "m", 0)
    cfg = ExperimentConfig(protocol=protocol, ns=(args.n,), ms=(m,),
                           ts=(args.t,), epss=(args.eps,),
                           ks=(getattr(args, "k", 1),), trials=args.trials,
                           seed=args.seed, overrides=_parse_overrides(args.set))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["trial", "instance", "verdict", "plaintext_bits", "secure_bits"]
    if protocol.startswith("independence"):
        header.append("lambda_mean")
    writer.writerow(header)
    for row in run_experiment(cfg):
        if row.status == "skipped":
            raise ConfigError(row.reason)
        if row.status != "ok":
            continue
        record = [row.trial, row.family, row.verdict, row.plaintext_bits,
                  row.secure_bits]
        if protocol.startswith("independence"):
            record.append(row.lambda_mean)
        writer.writerow(record)
    return buf.getvalue()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "closeness":
            text = _simple_trials(args, args.secure,
                                  ("closeness", "closeness-secure"))
            _emit(text, args.out)
        elif args.command == "independence":
            text = _simple_trials(args, args.one_way,
                                  ("independence", "independence-oneway"))
            _emit(text, args.out)
        elif args.command == "hardgen":
            write_hard_instance(args.out, args.kind, args.case, args.n, args.t,
                                args.seed, _parse_overrides(args.set))
        elif args.command == "run":
            overrides = _parse_overrides(args.set)
            if args.constants:
                with open(args.constants) as fh:
                    overrides = {**fixture_from_text(fh.read()), **overrides}
            if args.calibrate:
                base = args.protocol.split("-")[0]
                got = calibrate(base, args.n[0], args.eps[0], args.seed,
                                trials=args.trials, k=args.k[0])
                if got is None:
                    sys.stderr.write("calibration infeasible: no grid point "
                                     "reached 0.75/0.75\n")
                    return 3
                constants, same_rate, far_rate = got
                _emit(fixture_to_text(constants)
                      + f"# rates,{same_rate:.3f},{far_rate:.3f}\n", args.out)
                return 0
            cfg = ExperimentConfig(protocol=args.protocol, ns=tuple(args.n),
                                   ms=tuple(args.m), ts=tuple(args.t),
                                   epss=tuple(args.eps), ks=tuple(args.k),
                                   trials=args.trials, seed=args.seed,
                                   overrides=overrides, timing=args.timing,
                                   workers=args.workers)
            _emit(rows_to_csv(run_experiment(cfg)), args.out)
        elif args.command == "calibrate":
            got = calibrate(args.protocol, args.n, args.eps, args.seed,
                            trials=args.trials, k=args.k)
            if got is None:
                sys.stderr.write(
                    "calibration infeasible: no grid point reached 0.75/0.75\n")
                return 3
            constants, same_rate, far_rate = got
            text = fixture_to_text(constants) + \
                f"# rates,{same_rate:.3f},{far_rate:.3f}\n"
            _emit(text, args.out)
    except ConfigError as err:
        sys.stderr.write(f"config error: {err}\n")
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
