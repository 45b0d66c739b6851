"""Closeness testers: threshold math, protocol runs, secure reference parts."""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from disttest2p import closeness, dist
from disttest2p.closeness import (
    CTParams,
    SecureCTParams,
    bernoulli_hits,
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
from disttest2p.sketch import RoundedRotation, haar_rotate


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
        {"c_a": 0.0}, {"c_l": math.nan}, {"c_a": -1.0}, {"c_l": math.inf},
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


def adjustment(a, b, s_a, s_b, level, r):
    """``capped_split_adjustment`` on recasts drawn from ``r``: the a matrix,
    then the b matrix, each with the union's largest bucket count."""
    max_buckets = int((1 + s_a.union(s_b).counts).max())
    am = split_occurrence_matrix(a, max_buckets, r)
    bm = split_occurrence_matrix(b, max_buckets, r)
    return capped_split_adjustment(a, b, s_a, s_b, level, am, bm)


class TestCappedSplitAdjustment:
    def test_no_split_no_cap(self):
        a = OccurrenceVector([2, 1])
        b = OccurrenceVector([0, 1])
        s_empty = Multiset.from_letters([], 2)
        assert adjustment(a, b, s_empty, s_empty, 10, rng()) == 0.0

    def test_capped_only(self):
        # A=(4), B=(0), no split, L=2: 16 - 4 = 12 exactly
        a = OccurrenceVector([4])
        b = OccurrenceVector([0])
        s_empty = Multiset.from_letters([], 1)
        assert adjustment(a, b, s_empty, s_empty, 2, rng()) == 12.0

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
        draws = [adjustment(a, b, s_a, s_empty, 10, r)
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
        # recast by one matrix, identical occurrences adjust by exactly 0
        x = OccurrenceVector(np.bincount(letters, minlength=200))
        s = Multiset.from_letters(letters[:params.splitset_size], 200)
        m = split_occurrence_matrix(x, int((1 + 2 * s.counts).max()), rng(3))
        assert capped_split_adjustment(x, x, s, s, params.cap_level, m, m) == 0.0
        # each party recasts on its own stream, so only delta2 vanishes
        for vote in secure_reference_votes(letters, letters, params,
                                           SharedRandomness(3)):
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


# ---------------------------------------------------------------------------
# The secure reference draws its rotation and Bernoulli trials in closed form.
# These tests hold the closed forms to the literal constructions they replace.


def loop_bernoulli_hits(biases, trials, rng):
    """Reference: ``trials`` uniform indices, then one coin per index."""
    idx = rng.integers(0, biases.size, trials)
    if bool((biases[idx] > 1.0).any()):
        return None
    return int((rng.random(trials) < biases[idx]).sum())


def qr_rotate(v, rng):
    """Reference: ``Rv`` through the explicit rounded Haar rotation."""
    return RoundedRotation(v.size, int(rng.integers(2 ** 63))).apply(v)


def reference_split_rows(x, max_buckets, rng):
    """Reference: one multinomial draw per bucket count, cut into one row
    array per (letter, bucket count)."""
    per_j = [x.counts.reshape(-1, 1)] + [
        rng.multinomial(x.counts, np.full(j, 1.0 / j))
        for j in range(2, max_buckets + 1)]
    return [[per_j[j][i] for j in range(max_buckets)] for i in range(x.n)]


def summary(draws):
    """Clamp count and the (mean, SE, variance, SE) of the unclamped hits."""
    hits = np.array([h for h in draws if h is not None], dtype=np.float64)
    dev_sq = (hits - hits.mean()) ** 2
    return (len(draws) - hits.size, hits.mean(), hits.std() / math.sqrt(hits.size),
            dev_sq.mean(), dev_sq.std() / math.sqrt(hits.size))


class TestClosedFormLaws:
    def test_bernoulli_hits_match_index_coin_loop(self):
        # n=10 with one clamped bias and B=5: no clamp w.p. 0.9^5 ~ 0.59
        biases = np.append(rng(11).uniform(0.05, 0.95, 9), 1.5)
        trials, reps = 5, 20_000
        new = [bernoulli_hits(biases, trials, r) for r in
               (rng(10_000 + i) for i in range(reps))]
        old = [loop_bernoulli_hits(biases, trials, r) for r in
               (rng(50_000 + i) for i in range(reps))]
        (c_new, m_new, sm_new, v_new, sv_new) = summary(new)
        (c_old, m_old, sm_old, v_old, sv_old) = summary(old)
        p_clamp = 1 - 0.9 ** trials
        clamp_se = math.sqrt(2 * p_clamp * (1 - p_clamp) / reps)
        assert abs(c_new - c_old) / reps <= 3 * clamp_se
        assert abs(c_new / reps - p_clamp) <= 3 * clamp_se / math.sqrt(2)
        assert abs(m_new - m_old) <= 3 * math.hypot(sm_new, sm_old)
        assert abs(v_new - v_old) <= 3 * math.hypot(sv_new, sv_old)
        p = biases[:9].mean()
        assert m_new == pytest.approx(trials * p, abs=3 * sm_new)
        assert v_new == pytest.approx(trials * p * (1 - p), abs=3 * sv_new)

    def test_bernoulli_hits_edge_cases(self):
        assert bernoulli_hits(np.full(4, 1.5), 3, rng()) is None
        assert bernoulli_hits(np.zeros(4), 3, rng()) == 0
        assert bernoulli_hits(np.ones(4), 3, rng()) == 3
        # one clamped index among 10^4: 10^4 trials miss it w.p. ~ e^-1
        clamps = sum(bernoulli_hits(np.append(np.zeros(9_999), 2.0),
                                    10 ** 4, rng(s)) is None for s in range(400))
        assert abs(clamps / 400 - (1 - math.exp(-1))) < 3 * 0.024

    def test_sphere_draw_matches_rounded_rotation(self):
        # the max coordinate (which sets the clamp) and the mass of the first
        # half of the coordinates follow the explicit rotation's law; the
        # norm is kept exactly, where the rounded matrix keeps it to ~1e-5
        n, seeds = 64, 1500
        v = rng(12).integers(-5, 6, n).astype(np.float64)
        norm_sq = float(v @ v)
        sphere = [haar_rotate(v, rng(s)) for s in range(seeds)]
        rounded = [RoundedRotation(n, 90_000 + s).apply(v) for s in range(seeds)]
        for stat in (lambda rv: float(np.max(rv ** 2)),
                     lambda rv: float(rv[:n // 2] @ rv[:n // 2])):
            assert stats.ks_2samp([stat(rv) for rv in sphere],
                                  [stat(rv) for rv in rounded]).pvalue > 0.01
        assert max(abs(float(rv @ rv) / norm_sq - 1) for rv in sphere) < 1e-12
        assert max(abs(float(rv @ rv) / norm_sq - 1) for rv in rounded) < 1e-3

    def test_secure_votes_law_matches_loop_form(self, monkeypatch):
        # C4's cell: per-vote delta_2 and the clamp rate of the closed forms
        # against the QR rotation and the index-then-coin loop
        params = SecureCTParams(n=200, t=1095, eps=1.0, k=4)
        p, q = uniform_distribution(200), far_instance(200, 1.0)
        instances = []
        for trial in range(40):
            r = rng(7_000 + trial)
            instances.append((sample(p, params.t, r).letters,
                              sample(p if trial % 2 else q, params.t, r).letters))

        def votes():
            out = []
            for trial, (a, b) in enumerate(instances):
                out += secure_reference_votes(a, b, params,
                                              SharedRandomness(trial))
            return [v for v in out if v.headroom > 0]

        new = votes()
        with monkeypatch.context() as m:
            m.setattr(closeness, "haar_rotate", qr_rotate)
            m.setattr(closeness, "bernoulli_hits", loop_bernoulli_hits)
            old = votes()
        assert [v.delta1 for v in new] == [v.delta1 for v in old]
        clamp_new = np.mean([v.clamped for v in new])
        clamp_old = np.mean([v.clamped for v in old])
        pooled = (clamp_new + clamp_old) / 2
        assert 0.05 < pooled < 0.95
        assert abs(clamp_new - clamp_old) <= \
            3 * math.sqrt(2 * pooled * (1 - pooled) / len(new))
        assert stats.ks_2samp([v.delta2 for v in new if not v.clamped],
                              [v.delta2 for v in old if not v.clamped]
                              ).pvalue > 0.01

    def test_split_matrix_rows_match_reference(self):
        r = rng(13)
        for _ in range(20):
            x = OccurrenceVector(r.integers(0, 40, int(r.integers(1, 30))))
            max_buckets = int(r.integers(1, 9))
            seed = int(r.integers(2 ** 32))
            m = split_occurrence_matrix(x, max_buckets, rng(seed))
            rows = reference_split_rows(x, max_buckets, rng(seed))
            for i in range(x.n):
                for j in range(1, max_buckets + 1):
                    got = m.row(i, j)
                    assert got.dtype == rows[i][j - 1].dtype
                    assert np.array_equal(got, rows[i][j - 1])
                    assert not got.flags.writeable
            letters = np.arange(x.n)[::2]
            assert np.array_equal(m.row(letters, max_buckets),
                                  [rows[i][max_buckets - 1] for i in letters])
