"""Sketching, collision estimation, rounded rotations and wire payloads."""

import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import disttest2p.closeness as closeness
import disttest2p.sketch as sketch
from disttest2p.closeness import (
    CTParams,
    _decode_multiset,
    _decode_norm,
    _decode_verdict,
    _encode_multiset,
    ct2p_insecure,
    far_instance,
)
from disttest2p.dist import (
    OccurrenceVector,
    sample,
    uniform_distribution,
)
from disttest2p.harness import Decision, ProtocolError
from disttest2p.sketch import (
    L2Sketch,
    RoundedRotation,
    collision_norm_estimate,
    estimate_distance_sq,
    l2_sketch,
    sketch_from_bytes,
    sketch_width,
)
from laws import rng


def dense_l2_sketch(vector, alpha, delta, seed):
    """Reference sketch: i.i.d. +-1 sign rows, scaled so a group's sum of
    squared counters equals the mean of squared sign projections."""
    v = np.asarray(getattr(vector, "counts", vector), dtype=np.float64)
    groups, group_size = sketch_width(alpha, delta)
    bits = np.random.default_rng(seed).integers(
        0, 2, size=(groups * group_size, v.size), dtype=np.int8)
    counters = (2.0 * bits - 1.0) @ v / math.sqrt(group_size)
    return L2Sketch(counters, seed, alpha, delta, groups, group_size)


def stepwise_l2_sketch(vector, alpha, delta, seed):
    """Reference for the hashed sketch: Horner's rule reduced mod 2^31 - 1 at
    every step, so no intermediate value reaches 2^62, over every nonzero
    at once with one bincount."""
    v = np.asarray(vector, dtype=np.float64)
    groups, group_size = sketch_width(alpha, delta)
    prime = (1 << 31) - 1
    coeffs = np.random.default_rng(seed).integers(
        0, prime, size=(4, 2 * groups, 1), dtype=np.int64)
    nz = np.flatnonzero(v)
    h = coeffs[0]
    for c in coeffs[1:]:
        h = (h * nz + c) % prime
    buckets = h[:groups] % group_size + group_size * np.arange(groups)[:, None]
    signs = 1 - 2 * (h[groups:] & 1)
    counters = np.bincount(buckets.ravel(), weights=(signs * v[nz]).ravel(),
                           minlength=groups * group_size)
    return L2Sketch(counters, seed, alpha, delta, groups, group_size)


# coordinates per pass of l2_sketch at alpha=0.4, delta=0.2
_PASS = sketch._PASS_WORDS // (2 * sketch_width(0.4, 0.2)[0])


def estimate_norm_sq(s: L2Sketch) -> float:
    """``||X||^2`` from one sketch: the median over groups of the sums of
    squared counters (the distance estimate against a zero sketch)."""
    sq = s.counters.astype(np.float64) ** 2
    return float(np.median(sq.reshape(s.groups, s.group_size).sum(axis=1)))


def integer_vector_pairs():
    return st.integers(1, 60).flatmap(lambda n: st.tuples(
        *[st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n, max_size=n)
          for _ in range(2)]))


class TestL2Sketch:
    def test_identical_vectors_estimate_zero(self):
        v = rng(1).integers(0, 9, 30)
        sa = l2_sketch(v, 0.3, 0.1, seed=5)
        sb = l2_sketch(v, 0.3, 0.1, seed=5)
        assert estimate_distance_sq(sa, sb) == 0.0

    def test_symmetry(self):
        r = rng(2)
        x, y = r.integers(0, 9, 30), r.integers(0, 9, 30)
        sa = l2_sketch(x, 0.3, 0.1, seed=5)
        sb = l2_sketch(y, 0.3, 0.1, seed=5)
        assert estimate_distance_sq(sa, sb) == estimate_distance_sq(sb, sa)

    def test_mismatched_seeds_rejected(self):
        v = np.ones(10)
        with pytest.raises(ValueError):
            estimate_distance_sq(l2_sketch(v, 0.3, 0.1, 1),
                                 l2_sketch(v, 0.3, 0.1, 2))

    def test_linearity_exact(self):
        r = rng(3)
        for seed in range(10):
            x = r.integers(0, 50, 40)
            y = r.integers(0, 50, 40)
            sx = l2_sketch(x, 0.4, 0.2, seed)
            sy = l2_sketch(y, 0.4, 0.2, seed)
            sd = l2_sketch(x - y, 0.4, 0.2, seed)
            assert np.array_equal(sx.counters - sy.counters, sd.counters)

    def test_unit_coordinate_accuracy(self):
        # ||X - Y||^2 = 1; estimate within (1 +- 0.3) in >= 90% of seeded trials
        x = np.zeros(20)
        y = np.zeros(20)
        y[7] = 1
        hits = 0
        for seed in range(1000):
            est = estimate_distance_sq(l2_sketch(x, 0.3, 0.1, seed),
                                       l2_sketch(y, 0.3, 0.1, seed))
            hits += 0.7 <= est <= 1.3
        assert hits >= 900

    def test_two_point_accuracy(self):
        # X=(3,0), Y=(0,4): true squared distance 25, alpha = 0.2
        x = np.array([3, 0])
        y = np.array([0, 4])
        hits = 0
        for seed in range(1000):
            est = estimate_distance_sq(l2_sketch(x, 0.2, 0.1, seed),
                                       l2_sketch(y, 0.2, 0.1, seed))
            hits += 0.8 * 25 <= est <= 1.2 * 25
        assert hits >= 900

    def test_accuracy_against_exact_norm(self):
        # 50 random small pairs, failures bounded by delta + 0.03 per spec
        r = rng(4)
        alpha, delta = 0.25, 0.1
        failures = 0
        trials = 0
        for seed in range(50):
            x = r.integers(0, 12, 25)
            y = r.integers(0, 12, 25)
            true = float(((x - y) ** 2).sum())
            est = estimate_distance_sq(l2_sketch(x, alpha, delta, seed),
                                       l2_sketch(y, alpha, delta, seed))
            trials += 1
            failures += not ((1 - alpha) * true <= est <= (1 + alpha) * true)
        assert failures / trials <= delta + 0.03

    def test_width_formula(self):
        groups, group_size = sketch_width(0.1, 0.05)
        assert groups == 27 and group_size == 600

    def test_norm_estimate_of_single_sketch(self):
        v = np.zeros(40)
        v[3], v[11] = 3, 4
        hits = 0
        for seed in range(200):
            est = estimate_norm_sq(l2_sketch(v, 0.25, 0.1, seed))
            hits += 0.75 * 25 <= est <= 1.25 * 25
        assert hits >= 180

    def test_serialization_length(self):
        s = l2_sketch(np.ones(10), 0.5, 0.5, 0)
        blob = s.to_bytes()
        assert len(blob) == 4 + 8 * s.counters.size

    @given(integer_vector_pairs(), st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_linearity_property(self, pair, seed):
        x, y = (np.array(v, dtype=np.int64) for v in pair)
        sx, sy = l2_sketch(x, 0.4, 0.2, seed), l2_sketch(y, 0.4, 0.2, seed)
        assert np.array_equal(sx.counters - sy.counters,
                              l2_sketch(x - y, 0.4, 0.2, seed).counters)
        assert np.array_equal(sx.counters + sy.counters,
                              l2_sketch(x + y, 0.4, 0.2, seed).counters)

    @given(st.one_of(st.integers(0, 1625), st.integers(1626, 2 ** 16 - 1),
                     st.integers(2 ** 16, 10 ** 6)),
           st.lists(st.tuples(st.floats(0, 1), st.integers(-10 ** 6, 10 ** 6)),
                    max_size=40),
           st.integers(1, 10 ** 6), st.integers(0, 2 ** 64 - 1))
    @example(1625, [], 1, 0)
    @example(1626, [], 1, 0)
    @example(2 ** 16 - 1, [], 1, 0)
    @example(2 ** 16, [], 1, 0)
    @settings(max_examples=150, deadline=None)
    def test_deferred_reduction_matches_stepwise(self, top, entries, last, seed):
        # The largest nonzero coordinate in each regime of the hash (one
        # reduction mod 2^31 - 1 up to 1625, two below 2^16, three above);
        # int64 overflow would wrap silently and change the counters.
        v = np.zeros(top + 1)
        for where, value in entries:
            v[int(where * top)] = value
        v[top] = last
        assert np.array_equal(l2_sketch(v, 0.4, 0.2, seed).counters,
                              stepwise_l2_sketch(v, 0.4, 0.2, seed).counters)

    @given(st.integers(0, 3 * _PASS), st.integers(0, 10 ** 5),
           st.integers(0, 2 ** 32 - 1))
    @example(0, 0, 0)  # the all-zero vector: no pass, zero counters
    @example(_PASS, 0, 1)
    @example(_PASS + 1, 0, 2)
    @example(3 * _PASS, 10 ** 5, 3)
    @settings(max_examples=60, deadline=None)
    def test_passes_match_stepwise(self, nnz, spare, seed):
        # Nonzeros spanning up to three passes, with non-integer entries:
        # each counter adds its terms in coordinate order across the
        # passes, as one bincount over all of them does, bit for bit.
        r = rng(seed)
        v = np.zeros(nnz + spare)
        v[r.choice(v.size, nnz, replace=False)] = r.standard_normal(nnz) * 1e3
        got = l2_sketch(v, 0.4, 0.2, seed).counters
        assert got.tobytes() == \
            stepwise_l2_sketch(v, 0.4, 0.2, seed).counters.tobytes()
        assert nnz or not got.any()

    def test_one_pass_peak_memory(self):
        # The hashes of 10^5 nonzeros in one (2 * groups, nnz) array peaked
        # at 88.9 MB; in passes, the counters and one pass remain.
        v = np.ones(10 ** 5)
        tracemalloc.start()
        try:
            l2_sketch(v, 1 / 3, 0.05, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20

    @given(st.integers(1, 9), st.integers(1, 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_median_matches_numpy(self, groups, group_size, data):
        # At odd and even group counts: the middle sum, or the mean of the
        # two middle sums, exactly as np.median computes it
        counters = np.array(data.draw(st.lists(
            st.floats(-1e6, 1e6), min_size=groups * group_size,
            max_size=groups * group_size)))
        sa = L2Sketch(counters, 0, 0.5, 0.5, groups, group_size)
        sb = dataclasses.replace(sa, counters=np.zeros_like(counters))
        sums = (counters ** 2).reshape(groups, group_size).sum(axis=1)
        assert estimate_distance_sq(sa, sb) == float(np.median(sums))

    @given(integer_vector_pairs(), st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_distance_estimate_keeps_counters(self, pair, seed):
        sa, sb = (l2_sketch(np.array(v), 0.4, 0.2, seed) for v in pair)
        sa = sketch_from_bytes(sa.to_bytes(), sa)  # read-only, as received
        before = sa.counters.copy(), sb.counters.copy()
        got = estimate_distance_sq(sa, sb)
        assert np.array_equal(sa.counters, before[0])
        assert np.array_equal(sb.counters, before[1])
        assert got == estimate_norm_sq(
            dataclasses.replace(sa, counters=sa.counters - sb.counters))

    @given(integer_vector_pairs(), st.floats(0.2, 0.9), st.floats(0.01, 0.9),
           st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bytes_round_trip(self, pair, alpha, delta, seed):
        s = l2_sketch(np.array(pair[0]), alpha, delta, seed)
        payload = s.to_bytes()
        assert payload == struct.pack("<I", s.counters.size) + \
            s.counters.astype("<f8").tobytes()
        back = sketch_from_bytes(payload, s)
        assert back.to_bytes() == payload
        assert np.array_equal(back.counters, s.counters)
        assert (back.seed, back.alpha, back.delta, back.groups,
                back.group_size) == (seed, alpha, delta, s.groups, s.group_size)

    def test_group_sums_unbiased(self):
        # each group's sum of squared buckets has mean ||v||^2 and variance
        # at most 2 ||v||^4 / group_size
        v = rng(9).integers(-5, 6, 50)
        norm_sq = float(v @ v)
        groups, group_size = sketch_width(0.3, 0.1)
        sums = np.concatenate([
            (l2_sketch(v, 0.3, 0.1, seed).counters ** 2)
            .reshape(groups, group_size).sum(axis=1) for seed in range(300)])
        stderr = sums.std(ddof=1) / math.sqrt(sums.size)
        assert abs(sums.mean() - norm_sq) <= 3 * stderr
        assert sums.var(ddof=1) <= 1.1 * 2 * norm_sq ** 2 / group_size

    def test_sparse_long_vector_memory(self):
        v = np.zeros(10 ** 6)
        v[rng(10).choice(v.size, 100, replace=False)] = 1 + np.arange(100)
        tracemalloc.start()
        try:
            sk = l2_sketch(v, 0.05, 0.05, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2 ** 20
        assert sk.counters.size == 27 * 2400
        assert 0.95 <= estimate_norm_sq(sk) / float(v @ v) <= 1.05

    def test_length_beyond_hash_field_rejected(self):
        v = np.broadcast_to(np.float64(0), ((1 << 31) - 1,))
        with pytest.raises(ValueError):
            l2_sketch(v, 0.5, 0.5, 0)

    def test_verdict_law_matches_dense_reference(self, monkeypatch):
        # One group per sketch (sketch_delta=0.95) exposes the per-group law;
        # dense i.i.d. signs and hashed buckets must fail (1 +- alpha) at
        # the same rate and reach the same verdicts.
        n, seeds = 200, 200
        t = math.ceil(2 * CTParams(n=n, t=10 ** 9, eps=1.0).min_samples())
        params = CTParams(n=n, t=t, eps=1.0, sketch_delta=0.95)
        results = {}
        for name, build in (("hashed", l2_sketch), ("dense", dense_l2_sketch)):
            vectors, errors = [], []

            def recording_sketch(v, *args, build=build, vectors=vectors):
                vectors.append(np.asarray(getattr(v, "counts", v),
                                          dtype=np.float64))
                return build(v, *args)

            def recording_estimate(sa, sb, errors=errors, vectors=vectors):
                # Alice sketches before Bob, so the last two are (A_S, B_S).
                est = estimate_distance_sq(sa, sb)
                true = float(((vectors[-2] - vectors[-1]) ** 2).sum())
                errors.append(est / true - 1.0)
                return est

            monkeypatch.setattr(closeness, "l2_sketch", recording_sketch)
            monkeypatch.setattr(closeness, "estimate_distance_sq",
                                recording_estimate)
            verdicts = []
            for seed in range(seeds):
                r = rng(seed)
                a = sample(uniform_distribution(n), t, r)
                b = sample(uniform_distribution(n), t, r)
                c = sample(far_instance(n, 1.0), t, r)
                verdicts += [ct2p_insecure(a, b, params, seed).decision,
                             ct2p_insecure(a, c, params, seed).decision]
            errors = np.array(errors)
            results[name] = (verdicts, np.mean(np.abs(errors) > params.alpha),
                             errors.std())
        (v_hash, fail_hash, sd_hash), (v_dense, fail_dense, sd_dense) = \
            results["hashed"], results["dense"]
        agreement = np.mean([x is y for x, y in zip(v_hash, v_dense)])
        assert agreement >= 0.97
        assert abs(fail_hash - fail_dense) <= 0.06
        assert max(fail_hash, fail_dense) <= 1 / 3  # Chebyshev, one group
        assert 0.8 <= sd_hash / sd_dense <= 1.25
        assert v_hash[0::2].count(Decision.SAME) >= 0.9 * seeds
        assert v_hash[1::2].count(Decision.FAR) >= 0.9 * seeds


class TestWirePayloads:
    def test_multiset_round_trip(self):
        s = OccurrenceVector(np.array([0, 3, 0, 1, 7]))
        decoded = _decode_multiset(_encode_multiset(s), 5, 11)
        assert np.array_equal(decoded.counts, s.counts)

    def test_multiset_total_bound_is_inclusive(self):
        payload = _encode_multiset(OccurrenceVector(np.array([0, 3, 0, 1, 7])))
        assert _decode_multiset(payload, 5, 11).t == 11
        with pytest.raises(ProtocolError, match="more than 10 letters"):
            _decode_multiset(payload, 5, 10)

    @pytest.mark.parametrize("payload", [
        b"", b"\x01\x00", struct.pack("<I", 2) + struct.pack("<II", 1, 1),
        struct.pack("<III", 1, 1, 1) + b"\x00", struct.pack("<III", 1, 5, 1),
        struct.pack("<7I", 3, 3, 2, 3, 5, 1, 0),
        struct.pack("<III", 1, 1, 0),
        struct.pack("<5I", 2, 3, 1, 1, 1),
        struct.pack("<III", 1, 0, 2 ** 32 - 1),
        struct.pack("<5I", 2, 0, 2 ** 32 - 1, 4, 2 ** 32 - 1),
    ], ids=["empty", "short-count", "truncated", "trailing", "letter-ge-n",
            "repeated-letter", "zero-multiplicity", "descending",
            "multiplicity-above-t", "two-multiplicities-above-t"])
    def test_bad_multiset_rejected(self, payload):
        with pytest.raises(ProtocolError):
            _decode_multiset(payload, 5, 100)

    def test_sketch_width_mismatch_rejected(self):
        template = l2_sketch(np.ones(20), 0.3, 0.1, 0)
        short = l2_sketch(np.ones(20), 0.9, 0.9, 0).to_bytes()
        assert (len(short) - 4) // 8 < template.counters.size
        for payload in (short, template.to_bytes()[:-1],
                        template.to_bytes() + b"\x00", b"\x00\x00"):
            with pytest.raises(ProtocolError):
                sketch_from_bytes(payload, template)

    @given(st.one_of(st.binary(max_size=120),
                     st.builds(lambda count, body: struct.pack("<I", count) + body,
                               st.integers(0, 12), st.binary(max_size=100)),
                     st.lists(st.tuples(st.integers(0, 45), st.integers(0, 3)),
                              max_size=6).map(
                         lambda items: struct.pack("<I", len(items)) + b"".join(
                             struct.pack("<II", *item) for item in items))),
           st.integers(1, 40), st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_multiset_raises_only_protocol_error(self, payload, n,
                                                         max_total):
        try:
            decoded = _decode_multiset(payload, n, max_total)
        except ProtocolError:
            return
        assert decoded.counts.size == n
        assert decoded.t <= max_total
        # only the encoding of a multiset decodes, to that multiset
        assert _encode_multiset(decoded) == payload

    @given(st.one_of(st.binary(max_size=120),
                     st.builds(lambda count, body: struct.pack("<I", count) + body,
                               st.integers(0, 12), st.binary(max_size=100)),
                     st.lists(st.floats(), min_size=8, max_size=8).map(
                         lambda counters: struct.pack("<I8d", 8, *counters))))
    @settings(max_examples=200, deadline=None)
    @example(struct.pack("<I8d", 8, *[0.0] * 7, math.nan))
    @example(struct.pack("<I8d", 8, -math.inf, *[1.0] * 7))
    def test_fuzzed_sketch_raises_only_protocol_error(self, payload):
        template = l2_sketch(np.ones(5), 0.9, 0.9, 0)  # 8 counters, 68 bytes
        try:
            decoded = sketch_from_bytes(payload, template)
        except ProtocolError:
            return
        assert decoded.counters.size == template.counters.size
        assert np.isfinite(decoded.counters).all()

    @pytest.mark.parametrize("payload", [
        b"", struct.pack("<f", 0.5), struct.pack("<d", 0.5) + b"\x00",
        struct.pack("<d", math.nan), struct.pack("<d", -0.25),
        struct.pack("<d", 1.5), struct.pack("<d", math.inf),
    ], ids=["empty", "short", "trailing", "nan", "negative", "above-1", "inf"])
    def test_bad_norm_rejected(self, payload):
        with pytest.raises(ProtocolError):
            _decode_norm(payload)

    def test_norm_round_trip(self):
        for value in (0.0, 1e-300, 0.125, 1.0):
            assert _decode_norm(struct.pack("<d", value)) == value

    @pytest.mark.parametrize("payload", [
        b"", b"\x02", b"\xff", b"\x00\x00", b"\x01\x00", b"0", b"1",
    ], ids=["empty", "two", "ff", "two-bytes-same", "two-bytes-far",
            "ascii-0", "ascii-1"])
    def test_bad_verdict_rejected(self, payload):
        with pytest.raises(ProtocolError):
            _decode_verdict(payload)

    def test_nan_norm_ends_the_protocol(self, monkeypatch):
        # Bob refuses Alice's NaN norm message instead of gating on it
        monkeypatch.setattr(closeness, "collision_norm_estimate",
                            lambda counts: math.nan)
        r = np.random.default_rng(5)
        a, b = (sample(uniform_distribution(200), 274, r) for _ in range(2))
        with pytest.raises(ProtocolError, match="norm payload"):
            ct2p_insecure(a, b, CTParams(n=200, t=274, eps=1.0), seed=5)

    def test_verdict_bytes(self):
        assert _decode_verdict(b"\x00") is Decision.SAME
        assert _decode_verdict(b"\x01") is Decision.FAR


class TestCollisionEstimate:
    def test_all_same_letter(self):
        assert collision_norm_estimate(np.array([10, 0, 0])) == 1.0

    def test_two_distinct(self):
        assert collision_norm_estimate(np.array([1, 1])) == 0.0

    def test_too_few_samples(self):
        for letters in ([], [1]):
            counts = OccurrenceVector.from_letters(letters, 2)
            with pytest.raises(ValueError):
                collision_norm_estimate(counts)
            with pytest.raises(ValueError):
                collision_norm_estimate(counts.counts)

    @given(letters=st.lists(st.integers(0, 300), min_size=2, max_size=400),
           extra=st.integers(0, 50))
    def test_occurrence_vector_matches_letters(self, letters, extra):
        # the split alphabet's count vector, zero counts included, against
        # the bare counts of the letters present
        x = OccurrenceVector.from_letters(letters, 301 + extra)
        assert collision_norm_estimate(x) == collision_norm_estimate(
            np.unique(letters, return_counts=True)[1])

    @given(letters=st.lists(st.integers(0, 60_000), min_size=2, max_size=400),
           spread=st.sampled_from([1, 7, 60_000]))
    def test_matches_dense_count(self, letters, spread):
        # dense and sparse letter sets (the split samples and the pair codes)
        # against sum C(X_i, 2) / C(t, 2) over a dense bincount
        letters = np.array(letters) % spread
        counts = np.bincount(letters)
        t = letters.size
        want = float((counts * (counts - 1) // 2).sum()) / (t * (t - 1) / 2.0)
        assert collision_norm_estimate(counts) == want
        assert collision_norm_estimate(counts[counts > 0]) == want

    def test_unbiased_on_uniform(self):
        # uniform on 100 letters: ||p||^2 = 0.01; mean over 500 trials
        p = uniform_distribution(100)
        r = rng(5)
        estimates = [collision_norm_estimate(np.bincount(sample(p, 1000, r).letters))
                     for _ in range(500)]
        mean = np.mean(estimates)
        stderr = np.std(estimates) / np.sqrt(500)
        assert abs(mean - 0.01) < max(3 * stderr, 0.002)


class TestRoundedRotation:
    def test_zero_vector(self):
        rot = RoundedRotation(16, seed=3)
        assert not rot.apply(np.zeros(16)).any()

    def test_deterministic_rows(self):
        a = RoundedRotation(32, seed=9)
        b = RoundedRotation(32, seed=9)
        assert np.array_equal(a.matrix(), b.matrix())

    def test_near_isometry(self):
        r = rng(6)
        v = r.standard_normal(64)
        norm = float(v @ v)
        for seed in range(100):
            rv = RoundedRotation(64, seed).apply(v)
            assert abs(float(rv @ rv) / norm - 1.0) < 0.01

    def test_flatness(self):
        # max_i (Rv)_i^2 <= (||v||^2 / n) * K with K = 40, all of 100 seeds
        r = rng(7)
        v = r.standard_normal(64)
        bound = float(v @ v) / 64 * 40
        for seed in range(100):
            rv = RoundedRotation(64, seed).apply(v)
            assert np.max(rv ** 2) <= bound
