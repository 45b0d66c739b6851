"""Outside-in tracing of disttest2p: timing wrappers around public functions.

:func:`install` rebinds each traced function under every name it is looked
up by.  The modules use ``from .x import f``, so ``closeness.l2_sketch`` and
``independence.collision_norm_estimate`` are rebound too, not only the
defining module's attribute.  Methods are wrapped on their class.  A target
that no longer resolves raises, so a rename under ``src/`` fails loudly
instead of silently dropping a layer.

Each call becomes a span (name, parent span, start, end, row key of the
enclosing ``cli._run_one``).  Spans stay in memory until the workload ends.
A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np


class Trace:
    """In-memory spans and counters of one traced workload."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, parent index or None, start, end, row key]
        self.stack = []
        self.row = None
        self.counts = Counter()
        self.cache = None  # sign-matrix cache statistics at the last sketch

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, parent, self.clock(), None, self.row])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = self.clock()
        self.stack.pop()

    def self_ms(self) -> dict:
        """Total self time in ms per span name."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = defaultdict(float)
        for (name, _, start, end, _), child in zip(self.spans, covered):
            totals[name] += (end - start - child) * 1000.0
        return totals

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)


# --- counters observed at the layer boundaries ------------------------------

def _length(vector) -> int:
    return int(np.asarray(getattr(vector, "counts", vector)).size)


def cache_info():
    """Statistics of the dense sketch's sign-matrix cache, or None without it."""
    cached = getattr(importlib.import_module("disttest2p.sketch"),
                     "_sign_matrix", None)
    return cached.cache_info() if hasattr(cached, "cache_info") else None


def _observe_sketch(trace, args, sketch):
    size = sketch.counters.size
    trace.counts["sketch.counters"] += size
    before, trace.cache = trace.cache, cache_info()
    if trace.cache is None:  # without a cache every call builds the signs
        built = 1
    else:
        built = trace.cache.misses - before.misses
        trace.counts["sketch.sign_cache.hits"] += trace.cache.hits - before.hits
        trace.counts["sketch.sign_cache.misses"] += built
    # Signs computed per build: rows x columns.
    trace.counts["sketch.sign_entries"] += built * size * _length(args[0])


def _observe_rotation(trace, args, result):
    trace.counts["sketch.rotation_dim_sum"] += args[0].n
    trace.counts["sketch.rotation_applies"] += 1


def _observe_split_matrix(trace, args, result):
    trace.counts["dist.split_occurrence_matrix.row_arrays"] += args[0].n * args[1]


def _observe_channel(trace, args, result):
    trace.counts["harness.messages"] += len(result[2].messages)


def _observe_votes(trace, args, votes):
    params = args[2]
    for vote in votes:
        trace.counts["closeness.votes"] += 1
        trace.counts["closeness.clamped"] += vote.clamped
        trace.counts["closeness.headroom_far"] += vote.headroom <= 0
        if vote.headroom > 0 and not vote.clamped:
            trace.counts["closeness.bernoulli_draws"] += params.bernoulli_trials


def _observe_repetition(trace, args, rep):
    trace.counts["independence.repetitions"] += 1
    trace.counts["independence.abstained"] += rep.abstained


def _observe_reduction(trace, args, result):
    a, b = result
    trace.counts["hardness.letters_emitted"] += int(
        ((a.counts > 0) | (b.counts > 0)).sum())


# (span name, "module:qualname", observer).  Spans are named after the
# defining module; ``__post_init__`` spans are named after their class.
TARGETS = (
    ("sketch.l2_sketch", "disttest2p.sketch:l2_sketch", _observe_sketch),
    ("sketch.collision_norm_estimate",
     "disttest2p.sketch:collision_norm_estimate", None),
    ("sketch.estimate_distance_sq", "disttest2p.sketch:estimate_distance_sq", None),
    ("sketch.RoundedRotation.apply", "disttest2p.sketch:RoundedRotation.apply",
     _observe_rotation),
    ("dist.sample", "disttest2p.dist:sample", None),
    ("dist.split_samples", "disttest2p.dist:split_samples", None),
    ("dist.split_occurrence_matrix", "disttest2p.dist:split_occurrence_matrix",
     _observe_split_matrix),
    ("harness.run_protocol", "disttest2p.harness:run_protocol", _observe_channel),
    ("harness.trusted_evaluate", "disttest2p.harness:trusted_evaluate", None),
    ("harness.derive_seed", "disttest2p.harness:SharedRandomness.derive_seed", None),
    ("closeness.ct2p_insecure", "disttest2p.closeness:ct2p_insecure", None),
    ("closeness.secure_reference_votes",
     "disttest2p.closeness:secure_reference_votes", _observe_votes),
    ("closeness.capped_split_adjustment",
     "disttest2p.closeness:capped_split_adjustment", None),
    ("independence.sample_joint",
     "disttest2p.independence:JointDistribution.sample_joint", None),
    ("independence.run_repetition", "disttest2p.independence:run_repetition",
     _observe_repetition),
    ("independence.indices_set_vector",
     "disttest2p.independence:indices_set_vector", None),
    ("independence.one_way_it2p", "disttest2p.independence:one_way_it2p", None),
    ("hardness.GHDReductionParams",
     "disttest2p.hardness:GHDReductionParams.__post_init__", None),
    ("hardness.ghd_generate_inputs", "disttest2p.hardness:ghd_generate_inputs",
     None),
    ("hardness.ghd_reduce", "disttest2p.hardness:ghd_reduce", _observe_reduction),
    ("cli.row", "disttest2p.cli:_run_one", None),
    ("cli.run_experiment", "disttest2p.cli:run_experiment", None),
)


def _span_wrapper(trace, name, fn, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = trace.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            trace.end(index)
        if observe is not None:
            observe(trace, args, result)
        return result
    return wrapper


def _row_wrapper(trace, fn):
    """``_run_one(cfg, cell_index, cell, trial, family)``: keys its subtree."""
    @functools.wraps(fn)
    def wrapper(cfg, cell_index, cell, trial, family):
        trace.row = (cfg.seed, cell_index, trial, family)
        index = trace.begin("cli.row")
        try:
            return fn(cfg, cell_index, cell, trial, family)
        finally:
            trace.end(index)
            trace.row = None
    return wrapper


def _experiment_wrapper(trace, fn):
    """``run_experiment`` is a generator; the span covers draining it."""
    @functools.wraps(fn)
    def wrapper(cfg):
        index = trace.begin("cli.run_experiment")
        try:
            rows = list(fn(cfg))
        finally:
            trace.end(index)
        return iter(rows)
    return wrapper


def resolve(target: str):
    """``(owner, attribute, original)``; raises if the target is gone."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def lookup_sites(original) -> list:
    """Every (module, name) of the loaded disttest2p modules bound to ``original``."""
    modules = [module for name, module in sorted(sys.modules.items())
               if name == "disttest2p" or name.startswith("disttest2p.")]
    return [(module, name) for module in modules
            for name, value in vars(module).items() if value is original]


def install(trace: Trace):
    """Wrap every target; returns a function that restores the originals."""
    importlib.import_module("disttest2p.cli")  # loads every module
    trace.cache = cache_info()
    saved = []
    for name, target, observe in TARGETS:
        owner, attr, original = resolve(target)
        if name == "cli.row":
            wrapper = _row_wrapper(trace, original)
        elif name == "cli.run_experiment":
            wrapper = _experiment_wrapper(trace, original)
        else:
            wrapper = _span_wrapper(trace, name, original, observe)
        sites = [(owner, attr)] if isinstance(owner, type) else lookup_sites(original)
        for site, site_attr in sites:
            saved.append((site, site_attr, original))
            setattr(site, site_attr, wrapper)

    def uninstall():
        for site, site_attr, original in reversed(saved):
            setattr(site, site_attr, original)
    return uninstall


def layer_metrics(trace: Trace, rows: int) -> dict:
    """Per-row self times and counts, plus ratios, from a finished trace."""
    self_ms = trace.self_ms()
    calls = trace.calls()
    counts = trace.counts
    per_row = 1.0 / max(rows, 1)
    out = {}
    for name, _, _ in TARGETS:
        out[f"{name}.self_ms"] = self_ms.get(name, 0.0) * per_row
    for name in ("sketch.l2_sketch", "dist.split_samples", "harness.derive_seed",
                 "independence.run_repetition", "hardness.GHDReductionParams"):
        out[f"{name}.calls"] = calls[name] * per_row
    for name in ("sketch.counters", "sketch.sign_entries",
                 "sketch.sign_cache.hits", "sketch.sign_cache.misses",
                 "dist.split_occurrence_matrix.row_arrays", "harness.messages",
                 "closeness.bernoulli_draws", "hardness.letters_emitted"):
        out[name] = counts[name] * per_row
    out["sketch.rotation_dim"] = _ratio(counts["sketch.rotation_dim_sum"],
                                        counts["sketch.rotation_applies"])
    out["closeness.clamped_frac"] = _ratio(counts["closeness.clamped"],
                                           counts["closeness.votes"])
    out["closeness.headroom_far_frac"] = _ratio(counts["closeness.headroom_far"],
                                                counts["closeness.votes"])
    out["independence.abstain_frac"] = _ratio(counts["independence.abstained"],
                                              counts["independence.repetitions"])
    return out


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def dump_spans(trace: Trace, path) -> None:
    """One JSON array per span: name, parent index, start, end, row key."""
    with open(path, "w") as fh:
        for span in trace.spans:
            fh.write(json.dumps(span) + "\n")
