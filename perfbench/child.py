"""One benchmark child process: set up, run one workload closed-loop, report.

The parent (``run.py``) starts this script once per measured pass.  One
caller runs the batches in order with ``workers=1``; the next row starts
only when the previous one has returned.  The child prints one JSON object
on stdout:

- ``first_row``: CLOCK_MONOTONIC time at which the first row started, so the
  parent can take set-up time from its own clock reading at spawn;
- ``run_s``: wall time spent inside ``run_experiment`` calls;
- ``row_ms``: wall time of each row, in ms;
- ``rows``: one ``[protocol, family, success, plaintext_bits, secure_bits,
  lambda_mean]`` list per ok row;
- ``csv_sha256``: digest of the ``rows_to_csv`` output (timing off);
- ``errors``: failed correctness checks and exceptions;
- ``layers``: per-layer metrics, on a traced pass only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import disttest2p  # noqa: E402  (the checkout's source, not an installed copy)
import workloads  # noqa: E402
from disttest2p import cli  # noqa: E402
from disttest2p.closeness import SecureCTParams  # noqa: E402
from disttest2p.harness import polylog_charge  # noqa: E402
from disttest2p.independence import ITParams  # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def expected_secure_bits(row) -> int:
    """The trusted evaluator's closed form ``gate_count * polylog_charge``.

    Recomputed from the row's parameters exactly as the ``CircuitSpec`` of
    ``ct2p_secure_reference`` and ``it2p`` declares it.
    """
    if row.protocol == "closeness-secure":
        p = SecureCTParams(n=row.n, t=row.t, eps=row.eps, k=row.k)
        gates = p.votes * (math.ceil(p.t_prime / p.cap_level) + p.bernoulli_trials)
        entries = 2 * p.votes * p.n * p.t_prime ** 2
    elif row.protocol == "independence":
        p = ITParams(n=row.n, m=row.m, t=row.t, eps=row.eps, k=row.k)
        gates = p.votes * max(1, math.ceil(p.t_prime * p.ell_target / p.n))
        entries = 2 * 3 * p.votes * p.t_prime + p.n
    else:
        return 0
    return gates * polylog_charge(64, entries)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--start", type=int, default=0,
                        help="index of the first batch")
    parser.add_argument("--step", type=int, default=1,
                        help="distance between the batch indices run")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds of row time to run for")
    parser.add_argument("--min-rows", type=int, default=1)
    parser.add_argument("--batches", type=int, default=None,
                        help="run exactly this many batches, ignoring the budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=str, default=None,
                        help="file the traced pass writes its spans to")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    print(json.dumps(run(parse_args(argv))))
    return 0


def run(args) -> dict:
    if Path(disttest2p.__file__).resolve().parent != ROOT / "src" / "disttest2p":
        raise SystemExit(f"imported disttest2p from {disttest2p.__file__}, "
                         f"not from this checkout")
    trace = uninstall = None
    if args.trace:
        import tracing
        trace = tracing.Trace()
        uninstall = tracing.install(trace)

    # Each row is timed at the _run_one boundary, at full clock resolution
    # (the program's wall_ms column is rounded to 0.1 ms).  Set-up ends when
    # the first row starts.
    run_one = cli._run_one
    row_ms = []
    first_row = None

    def timed_row(*row_args):
        nonlocal first_row
        started = now()
        if first_row is None:
            first_row = started
        try:
            return run_one(*row_args)
        finally:
            row_ms.append((now() - started) * 1000.0)

    cli._run_one = timed_row
    try:
        out = run_batches(args)
    finally:
        cli._run_one = run_one
        if uninstall is not None:
            uninstall()
    out.update(first_row=first_row, row_ms=row_ms,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if trace is not None:
        out["layers"] = tracing.layer_metrics(trace, out["attempted"])
        if args.spans:
            tracing.dump_spans(trace, args.spans)
    return out


def run_batches(args) -> dict:
    """Run batches closed-loop until the budget (or batch count) is reached."""
    rows, errors, digest = [], [], hashlib.sha256()
    attempted = failed = batches = 0
    run_s = 0.0
    secure_bits = {}
    while True:
        if args.batches is not None:
            if batches >= args.batches:
                break
        elif batches and run_s >= args.budget and attempted >= args.min_rows:
            break
        index = args.start + batches * args.step
        for cfg in workloads.batch_configs(args.workload, args.seed, index):
            started = now()
            try:
                result = list(cli.run_experiment(cfg))
            except Exception:  # a raising row loses its whole config
                run_s += now() - started
                lost = workloads.expected_rows(cfg)
                attempted += lost
                failed += lost
                errors.append(f"batch {index} {cfg.protocol}: "
                              + traceback.format_exc().strip().splitlines()[-1])
                traceback.print_exc(file=sys.stderr)
                continue
            run_s += now() - started
            digest.update(cli.rows_to_csv(result).encode())
            for r in result:
                if r.status == "summary":
                    continue
                attempted += 1
                if r.status != "ok":
                    failed += 1
                    continue
                key = (r.protocol, r.n, r.m, r.t, r.eps, r.k)
                if key not in secure_bits:
                    secure_bits[key] = expected_secure_bits(r)
                if r.secure_bits != secure_bits[key]:
                    errors.append(
                        f"{r.protocol} n={r.n} t={r.t} trial {r.trial} "
                        f"{r.family}: secure_bits {r.secure_bits} != closed "
                        f"form {secure_bits[key]}")
                rows.append([r.protocol, r.family, r.success, r.plaintext_bits,
                             r.secure_bits, r.lambda_mean])
        batches += 1
    return {"run_s": run_s, "batches": batches, "attempted": attempted,
            "failed": failed, "rows": rows, "csv_sha256": digest.hexdigest(),
            "errors": errors}


if __name__ == "__main__":
    sys.exit(main())
