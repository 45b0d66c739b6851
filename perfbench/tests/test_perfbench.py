"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from disttest2p import cli, closeness, independence, sketch  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_spec_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


def test_traced_layer_names_are_declared():
    declared = {m["name"] for m in SPEC["per_layer"]}
    emitted = set(tracing.layer_metrics(tracing.Trace(), rows=1))
    assert emitted <= declared, sorted(emitted - declared)


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0])
    trace = tracing.Trace(clock=lambda: next(ticks))
    outer = trace.begin("outer")        # 0 .. 10
    first = trace.begin("first")        # 1 .. 4
    inner = trace.begin("inner")        # 2 .. 3
    trace.end(inner)
    trace.end(first)
    second = trace.begin("first")       # 5 .. 7
    trace.end(second)
    trace.end(outer)
    self_ms = trace.self_ms()
    assert self_ms["outer"] == pytest.approx(1000.0 * (10 - 3 - 2))
    assert self_ms["first"] == pytest.approx(1000.0 * ((3 - 1) + 2))
    assert self_ms["inner"] == pytest.approx(1000.0)
    assert trace.calls() == {"outer": 1, "first": 2, "inner": 1}
    assert trace.spans[inner][1] == first


def test_every_target_resolves_and_every_lookup_site_is_wrapped():
    originals = {target: tracing.resolve(target)[2]
                 for _, target, _ in tracing.TARGETS}
    uninstall = tracing.install(tracing.Trace())
    try:
        for target, original in originals.items():
            owner, attr, current = tracing.resolve(target)
            assert current is not original, target
            assert current.__wrapped__ is original, target
            assert tracing.lookup_sites(original) == [], target
        # The rebinding reaches the ``from .x import f`` copies.
        assert closeness.l2_sketch.__wrapped__ is originals["disttest2p.sketch:l2_sketch"]
        assert independence.collision_norm_estimate.__wrapped__ is \
            originals["disttest2p.sketch:collision_norm_estimate"]
        assert cli.one_way_it2p.__wrapped__ is \
            originals["disttest2p.independence:one_way_it2p"]
    finally:
        uninstall()
    for target, original in originals.items():
        assert tracing.resolve(target)[2] is original, target
    assert sketch.l2_sketch is originals["disttest2p.sketch:l2_sketch"]


def test_a_renamed_target_fails_loudly():
    with pytest.raises(AttributeError):
        tracing.resolve("disttest2p.sketch:no_such_function")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_batch_of_each_workload_runs_traced_and_untraced(workload):
    original = cli._run_one
    plain = child.run(child.parse_args(
        ["--workload", workload, "--seed", "7", "--batches", "1"]))
    traced = child.run(child.parse_args(
        ["--workload", workload, "--seed", "7", "--batches", "1", "--trace", "1"]))
    for report in (plain, traced):
        assert report["attempted"] > 0
        assert report["failed"] == 0
        assert report["errors"] == []
        assert len(report["row_ms"]) == report["attempted"]
    assert plain["csv_sha256"] == traced["csv_sha256"]
    assert traced["layers"]["cli.row.self_ms"] > 0
    assert cli._run_one is original  # nothing left wrapped


def test_command_prints_the_declared_metrics_as_its_last_line():
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hardgen",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared}


def test_command_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for name in ("run.py", "child.py", "workloads.py", "tracing.py"):
        shutil.copy(HERE / name, bare / "perfbench" / name)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hardgen",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
