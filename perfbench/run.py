"""disttest2p benchmark: end-to-end metrics per workload, per-layer on request.

Usage (from the root of a checkout)::

    python3 perfbench/run.py                      # all workloads, untraced
    python3 perfbench/run.py --workload hardgen --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1

An untraced pass (``--trace 0``) starts ``CHILDREN`` child processes one
after another.  Each sets up from scratch and runs every ``CHILDREN``-th
batch of the workload for its share of ``--seconds``.  Set-up time and
peak RSS are medians over the children; the row metrics pool their rows.

A traced pass (``--trace 1``) runs the workload untraced for a third of
``--seconds``, then the same batches traced, then the same batches untraced
again.  It reports the per-layer metrics of the traced child and the tracing
overhead, and checks that all three CSV outputs are byte-identical.

Every pass checks the outputs: no row skipped or raised, per-family success
at least 0.70 where the acceptance gates set that floor, and secure bits
equal to the trusted evaluator's closed form.  The last line of stdout is
one JSON object; the exit code is 1 if a check failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# The per-family success floor of acceptance gates C3/C4/C5.  hardgen is a
# lower-bound instance: its success is ~0.55 by design and only reported.
FLOORED = ("closeness-sweep", "secure-closeness", "independence")
SUCCESS_FLOOR = 0.70

CHILDREN = 5      # untraced children per pass; set-up time is their median
MIN_ROWS = 100    # rows per untraced pass, so ten lie beyond the 90th percentile
DEADLINE_S = 170  # a pass must end within 180 seconds


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(extra: list, deadline: float) -> dict:
    """Run child.py to completion and return its JSON report."""
    spawned = now()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *map(str, extra)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["first_row"] is None:
        raise BenchError("child ran no row")
    report["setup_s"] = report["first_row"] - spawned
    return report


def geomean(values) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def check_rows(workload: str, rows: list) -> list:
    """Per-family success floors; returns the failed checks."""
    if workload not in FLOORED:
        return []
    by_family = defaultdict(list)
    for protocol, family, success, *_ in rows:
        by_family[(protocol, family)].append(success)
    errors = []
    for (protocol, family), outcomes in sorted(by_family.items()):
        rate = sum(outcomes) / len(outcomes)
        if rate < SUCCESS_FLOOR:
            errors.append(f"{protocol} {family}: success {rate:.3f} over "
                          f"{len(outcomes)} rows < {SUCCESS_FLOOR}")
    return errors


def untraced_pass(workload: str, seed: int, seconds: float, deadline: float):
    reports = [run_child(["--workload", workload, "--seed", seed,
                          "--start", c, "--step", CHILDREN,
                          "--budget", seconds / CHILDREN,
                          "--min-rows", math.ceil(MIN_ROWS / CHILDREN)],
                         deadline)
               for c in range(CHILDREN)]
    rows = [row for r in reports for row in r["rows"]]
    walls = [ms for r in reports for ms in r["row_ms"]]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "rows_per_s": len(walls) / sum(r["run_s"] for r in reports),
        "row_ms_p50": statistics.median(walls),
        "row_ms_p90": statistics.quantiles(walls, n=10)[-1] if walls[1:] else walls[0],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "success_rate": sum(row[2] for row in rows) / len(rows) if rows else 0.0,
    }
    return reports, rows, metrics


def traced_pass(workload: str, seed: int, seconds: float, deadline: float):
    base = ["--workload", workload, "--seed", seed]
    first = run_child(base + ["--budget", seconds / 3,
                              "--min-rows", math.ceil(MIN_ROWS / CHILDREN)],
                      deadline)
    replay = ["--batches", first["batches"]]
    OUT.mkdir(exist_ok=True)
    traced = run_child(base + replay + [
        "--trace", 1, "--spans", OUT / f"spans-{workload}-seed{seed}.jsonl"],
        deadline)
    again = run_child(base + replay, deadline)
    reports = [first, traced, again]
    errors = []
    if len({r["csv_sha256"] for r in reports}) != 1:
        errors.append("CSV output differs between the untraced, traced and "
                      "repeated untraced runs")
    rows = traced["rows"]
    untraced_s = (first["run_s"] + again["run_s"]) / 2
    ok_bits = [(row[3], row[4]) for row in rows]
    lambdas = [float(row[5]) for row in rows if row[5] != ""]
    oneway = [row[3] for row in rows if row[0] == "independence-oneway"]
    metrics = dict(traced["layers"])
    metrics.update({
        "harness.plaintext_bits": geomean(p for p, _ in ok_bits),
        "harness.secure_bits": geomean(s for _, s in ok_bits),
        "independence.lambda_mean": statistics.fmean(lambdas) if lambdas else 0.0,
        "independence.oneway_payload_bits":
            statistics.fmean(oneway) if oneway else 0.0,
        "cli.rows": traced["attempted"],
        "bench.trace_overhead_frac": (traced["run_s"] - untraced_s) / untraced_s,
    })
    return reports, rows, metrics, errors


def measure(workload: str, seed: int, seconds: float, trace: int,
            deadline: float) -> dict:
    """One pass over one workload, as the result object printed last."""
    if trace:
        reports, rows, metrics, errors = traced_pass(workload, seed, seconds,
                                                     deadline)
        declared = SPEC["per_layer"]
        counted = reports[1:2]
    else:
        reports, rows, metrics = untraced_pass(workload, seed, seconds, deadline)
        errors = []
        declared = SPEC["end_to_end"]
        counted = reports
    errors += [e for r in reports for e in r["errors"]]
    errors += check_rows(workload, rows)
    attempted = sum(r["attempted"] for r in counted)
    failed = sum(r["failed"] for r in counted)
    if failed:
        errors.append(f"{failed} of {attempted} rows were skipped or raised")
    if set(metrics) != {m["name"] for m in declared}:
        raise BenchError("computed metrics do not match BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "errors": errors,
    }


def environment() -> str:
    import ctypes
    import os
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(lib), symbol, None)
            if getter is not None:
                threads = getter()
                break
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists():
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
    else:
        ref = "none (not a git checkout)"
    return (f"env: python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas.get('name')} {blas.get('version')} threads {threads}, "
            f"nproc {os.cpu_count()}, git HEAD {ref}")


def report(workload: str, result: dict, trace: int) -> None:
    declared = {m["name"]: m for m in SPEC["per_layer" if trace else "end_to_end"]}
    print(f"{workload}: {result['attempted']} rows, {result['failed']} failed, "
          f"{'correct' if result['correct'] else 'INCORRECT'}")
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']:14.4f} {metric['unit']:12s} "
              f"({declared[name]['better']} is better)")
    for error in result["errors"][:10]:
        print(f"  check failed: {error}")
    if len(result["errors"]) > 10:
        print(f"  ... and {len(result['errors']) - 10} more failed checks")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="disttest2p benchmark")
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "disttest2p" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Byte-compile first, so no child pays for it in its set-up time.
    compileall.compile_dir(ROOT / "src", quiet=1)
    print(environment())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = now() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace,
                                    deadline)
            report(name, results[name], args.trace)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"benchmark did not complete: {err}", file=sys.stderr)
        return 2
    if len(names) == 1:
        summary = dict(results[names[0]])
        summary.pop("errors")
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
