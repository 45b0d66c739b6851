"""Closeness testers: threshold math, protocol runs, secure reference parts."""

import itertools
import math

import numpy as np
import pytest

from disttest2p import dist
from disttest2p.closeness import (
    CTParams,
    SecureCTParams,
    capped_split_adjustment,
    ct2p_insecure,
    ct2p_secure_reference,
    distinguish,
    far_instance,
    secure_reference_f,
    secure_reference_votes,
    split_occurrences_from_matrix,
    threshold_tau,
)
from disttest2p.dist import (
    Multiset,
    OccurrenceVector,
    l1_distance,
    sample,
    split_occurrence_matrix,
    uniform_distribution,
)
from disttest2p.harness import (
    ConfigError,
    Decision,
    ProtocolError,
    SharedRandomness,
    Transcript,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestThreshold:
    def test_paper_substitution(self):
        assert threshold_tau(100, 1000, 1.0) == 5000 + 2000

    def test_zero_samples(self):
        assert threshold_tau(5, 0, 1.0) == 0.0

    def test_eps_two(self):
        assert threshold_tau(4, 4, 2.0) == 8 + 8

    def test_distinguish_boundary(self):
        assert distinguish(7000.0, 7000.0) is Decision.SAME
        assert distinguish(7001.0, 7000.0) is Decision.FAR
        assert distinguish(0.0, 123.0) is Decision.SAME

    def test_scale_invariance(self):
        r = rng(1)
        for _ in range(50):
            delta = float(r.uniform(0, 100))
            tau = float(r.uniform(0, 100))
            c = float(r.uniform(0.01, 100))
            assert distinguish(delta, tau) is distinguish(c * delta, c * tau)


class TestParams:
    def test_precondition_enforced(self):
        with pytest.raises(ConfigError):
            CTParams(n=200, t=10, eps=1.0)

    def test_alpha_clamped(self):
        p = CTParams(n=100, t=10 ** 4, eps=1.0)
        assert p.alpha == pytest.approx(1 / 3)

    def test_split_rate_formula(self):
        p = CTParams(n=200, t=274, eps=1.0)
        assert p.split_rate == pytest.approx(200 ** 2 / 274 ** 2)

    @pytest.mark.parametrize("override", [
        {"sketch_delta": 0.0}, {"sketch_delta": 1.0}, {"sketch_delta": 1.5},
        {"sketch_delta": math.nan}, {"c_alpha": math.nan}, {"c_alpha": 0.0},
        {"c_alpha": -1.0}, {"c_split": -1.0}, {"c_split": math.inf},
        {"big_c": 0.0}, {"big_c": math.nan},
    ])
    def test_bad_constants_refused(self, override):
        with pytest.raises(ConfigError):
            CTParams(n=200, t=300, eps=1.0, **override)

    @pytest.mark.parametrize("override", [
        {"big_c": 0.0}, {"big_c": math.nan}, {"c": -64.0}, {"c": math.inf},
        {"c_a": 0.0}, {"c_l": math.nan}, {"rotation_flatness": 0},
        {"rotation_flatness": math.nan}, {"votes": 2.5}, {"votes": -1},
    ])
    def test_bad_secure_constants_refused(self, override):
        with pytest.raises(ConfigError):
            SecureCTParams(n=200, t=1095, eps=1.0, k=4, **override)


class TestFarInstance:
    def test_exact_distance_paired(self):
        for eps in (0.25, 0.5, 1.0):
            q = far_instance(200, eps)
            assert l1_distance(uniform_distribution(200), q) == pytest.approx(eps)

    def test_large_eps_at_least_eps(self):
        q = far_instance(200, 1.5)
        assert l1_distance(uniform_distribution(200), q) >= 1.5


class TestCT2pInsecure:
    def test_wrong_sample_count_refused(self):
        params = CTParams(n=200, t=274, eps=1.0)
        p = uniform_distribution(200)
        with pytest.raises(ConfigError):
            ct2p_insecure(sample(p, 100, rng()), sample(p, 274, rng()), params, 0)

    def test_disagreeing_parties_raise(self, monkeypatch):
        import disttest2p.closeness as closeness
        monkeypatch.setattr(closeness, "run_protocol", lambda a, b: (
            Decision.SAME, Decision.FAR, Transcript()))
        params = CTParams(n=200, t=274, eps=1.0)
        p = uniform_distribution(200)
        with pytest.raises(ProtocolError):
            ct2p_insecure(sample(p, 274, rng(1)), sample(p, 274, rng(2)),
                          params, 0)

    def test_replay_bit_identical(self):
        params = CTParams(n=200, t=274, eps=1.0)
        p = uniform_distribution(200)
        a, b = sample(p, 274, rng(3)), sample(p, 274, rng(4))
        v1 = ct2p_insecure(a, b, params, seed=9)
        v2 = ct2p_insecure(a, b, params, seed=9)
        assert v1.decision == v2.decision
        assert v1.transcript.messages == v2.transcript.messages

    def test_communication_spread_small(self):
        # n=100, t=1e4: bits within 4x across 20 seeds
        params = CTParams(n=100, t=10 ** 4, eps=1.0)
        p = uniform_distribution(100)
        bits = []
        for seed in range(20):
            r = rng(100 + seed)
            v = ct2p_insecure(sample(p, 10 ** 4, r), sample(p, 10 ** 4, r),
                              params, seed)
            bits.append(v.transcript.total_bits)
        assert max(bits) <= 4 * min(bits)

    def test_doubling_t_shrinks_bits(self):
        # theory: 4x; accept [2.5, 6]
        p = uniform_distribution(200)

        def bits_at(t):
            params = CTParams(n=200, t=t, eps=1.0)
            r = rng(t)
            v = ct2p_insecure(sample(p, t, r), sample(p, t, r), params, seed=1)
            return v.transcript.total_bits

        ratio = bits_at(274) / bits_at(548)
        assert 2.5 <= ratio <= 6.0

    def test_four_point_slope(self):
        # log bits vs log t slope in [-2.6, -1.4] while alpha stays below its
        # clamp (communication saturates by design once alpha hits 1/3)
        p = uniform_distribution(200)
        ts = [274, 411, 617, 925]
        bits = []
        for t in ts:
            params = CTParams(n=200, t=t, eps=1.0)
            assert params.alpha < 1 / 3
            r = rng(t)
            v = ct2p_insecure(sample(p, t, r), sample(p, t, r), params, seed=2)
            bits.append(v.transcript.total_bits)
        slope = np.polyfit(np.log(ts), np.log(bits), 1)[0]
        assert -2.6 <= slope <= -1.4


def enumerate_adjustment_mean(a_count: int, buckets: int, capped_sq: float):
    """Exact E[delta_1] for one letter by enumerating bucket assignments."""
    total = 0.0
    for assign in itertools.product(range(buckets), repeat=a_count):
        row = np.bincount(np.array(assign, dtype=np.int64), minlength=buckets)
        total += float((row ** 2).sum()) - capped_sq
    return total / buckets ** a_count


class TestCappedSplitAdjustment:
    def test_no_split_no_cap(self):
        a = OccurrenceVector([2, 1])
        b = OccurrenceVector([0, 1])
        s_empty = Multiset.from_letters([], 2)
        assert capped_split_adjustment(a, b, s_empty, s_empty, 10, rng()) == 0.0

    def test_capped_only(self):
        # A=(4), B=(0), no split, L=2: 16 - 4 = 12 exactly
        a = OccurrenceVector([4])
        b = OccurrenceVector([0])
        s_empty = Multiset.from_letters([], 1)
        assert capped_split_adjustment(a, b, s_empty, s_empty, 2, rng()) == 12.0

    def test_split_enumeration_mean(self):
        # A=(4,0), B=(0,0), S={letter 0}, L=10: letter 0 splits into 2 buckets,
        # delta_1 = x^2 + (4-x)^2 - 16 with x ~ Binomial(4, 1/2).
        # Exact enumeration over the 16 assignments gives E[delta_1] = -6.
        exact = enumerate_adjustment_mean(4, 2, 16.0)
        assert exact == -6.0
        a = OccurrenceVector([4, 0])
        b = OccurrenceVector([0, 0])
        s_a = Multiset.from_letters([0], 2)
        s_empty = Multiset.from_letters([], 2)
        r = rng(5)
        draws = [capped_split_adjustment(a, b, s_a, s_empty, 10, r)
                 for _ in range(4000)]
        assert max(draws) <= 0.0
        assert np.mean(draws) == pytest.approx(exact, abs=0.2)

    def test_split_cap_identity_exact(self):
        # ||A' - B'||^2 + delta_1 == ||A_S - B_S||^2 for the same recast
        r = rng(6)
        for _ in range(100):
            n = int(r.integers(1, 31))
            a = OccurrenceVector(r.integers(0, 12, n))
            b = OccurrenceVector(r.integers(0, 12, n))
            s_a = Multiset.from_letters(r.integers(0, n, int(r.integers(0, 8))), n)
            s_b = Multiset.from_letters(r.integers(0, n, int(r.integers(0, 8))), n)
            level = int(r.integers(1, 10))
            buckets = 1 + s_a.union(s_b).counts
            max_buckets = int(buckets.max())
            am = split_occurrence_matrix(a, max_buckets, r)
            bm = split_occurrence_matrix(b, max_buckets, r)
            delta1 = capped_split_adjustment(a, b, s_a, s_b, level,
                                             a_matrix=am, b_matrix=bm)
            a_split = split_occurrences_from_matrix(am, buckets)
            b_split = split_occurrences_from_matrix(bm, buckets)
            split_sq = float(((a_split - b_split) ** 2).sum())
            capped_sq = float(((np.minimum(a.counts, level)
                                - np.minimum(b.counts, level)) ** 2).sum())
            assert capped_sq + delta1 == split_sq


class TestOccurrenceBounds:
    def test_occurrence_domination(self):
        # X_i <= 50 ln(n) max(1, (t1/t2) Y_i) for all i in >= 95% of trials
        n, t1, t2, trials = 100, 10 ** 4, 10 ** 4, 500
        r = rng(7)
        p = dist.Distribution(r.dirichlet(np.full(n, 0.3)))
        bound = 50 * math.log(n)
        good = 0
        for _ in range(trials):
            x = np.bincount(sample(p, t1, r).letters, minlength=n)
            y = np.bincount(sample(p, t2, r).letters, minlength=n)
            good += bool(np.all(x <= bound * np.maximum(1.0, (t1 / t2) * y)))
        assert good >= 0.95 * trials

    def test_capped_distance_bounded_by_split(self):
        # ||A'-B'||^2 <= 100 ln(n) ||A_S-B_S||^2 in >= 95% of trials, with
        # multisets of size t/L drawn from each distribution.
        n, t, trials = 100, 2000, 200
        level = 50
        r = rng(8)
        p = dist.Distribution(r.dirichlet(np.full(n, 0.2)))
        q = dist.Distribution(r.dirichlet(np.full(n, 0.2)))
        bound = 100 * math.log(n)
        good = 0
        for _ in range(trials):
            a = OccurrenceVector(np.bincount(sample(p, t, r).letters, minlength=n))
            b = OccurrenceVector(np.bincount(sample(q, t, r).letters, minlength=n))
            s_a = Multiset.from_letters(sample(p, t // level, r).letters, n)
            s_b = Multiset.from_letters(sample(q, t // level, r).letters, n)
            buckets = 1 + s_a.union(s_b).counts
            am = split_occurrence_matrix(a, int(buckets.max()), r)
            bm = split_occurrence_matrix(b, int(buckets.max()), r)
            a_split = split_occurrences_from_matrix(am, buckets)
            b_split = split_occurrences_from_matrix(bm, buckets)
            split_sq = float(((a_split - b_split) ** 2).sum())
            capped_sq = float(((np.minimum(a.counts, level)
                                - np.minimum(b.counts, level)) ** 2).sum())
            good += capped_sq <= bound * split_sq
        assert good >= 0.95 * trials


class TestSecureReference:
    def params(self):
        return SecureCTParams(n=200, t=1095, eps=1.0, k=4)

    def test_identical_samples_all_same_votes(self):
        params = self.params()
        p = uniform_distribution(200)
        letters = sample(p, params.t, rng(9)).letters
        votes = secure_reference_votes(letters, letters, params,
                                       SharedRandomness(3),
                                       shared_split_randomness=True)
        for vote in votes:
            assert vote.delta1 == 0.0
            assert vote.delta2 == 0.0
            assert vote.vote is Decision.SAME

    def test_evaluator_matches_direct_f(self):
        params = self.params()
        p = uniform_distribution(200)
        q = far_instance(200, 1.0)
        for trial in range(25):
            r = rng(400 + trial)
            a = sample(p, params.t, r)
            b = sample(p if trial % 2 else q, params.t, r)
            direct = secure_reference_f(a.letters, b.letters, params, trial)
            via = ct2p_secure_reference(a, b, params, trial)
            assert via.decision == direct

    def test_modeled_cost_positive_and_metered(self):
        params = self.params()
        p = uniform_distribution(200)
        r = rng(10)
        v = ct2p_secure_reference(sample(p, params.t, r),
                                  sample(p, params.t, r), params, 1)
        assert v.transcript.modeled_secure_bits > 0
        assert v.transcript.total_bits == 8 * (4 + 16)  # seed exchange only

    def test_headroom_nonpositive_forces_far_vote(self):
        # engineered: far-but-tiny tau via eps at the top of the range
        params = self.params()
        votes = secure_reference_votes(
            np.zeros(params.t, dtype=np.int64),
            np.full(params.t, 1, dtype=np.int64), params, SharedRandomness(1))
        # all mass on single clashing letters: enormous delta1, T <= 0 branch
        assert any(v.headroom <= 0 and v.vote is Decision.FAR for v in votes)
