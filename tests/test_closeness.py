"""Closeness testers: threshold math, protocol runs, secure reference parts."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from disttest2p import closeness, dist
from disttest2p.closeness import (
    CTParams,
    SecureCTParams,
    SetVote,
    bernoulli_hits,
    capped_split_adjustment,
    ct2p_insecure,
    ct2p_secure_reference,
    distinguish,
    far_instance,
    norm_estimates_agree,
    secure_reference_f,
    secure_reference_votes,
    threshold_tau,
)
from disttest2p.dist import (
    OccurrenceVector,
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
from laws import (
    l1_distance,
    rates_agree,
    rng,
    split_occurrences_from_matrix,
)


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

    def test_min_samples_formula(self):
        # C max(n^(2/3) eps^(-4/3), sqrt(n) eps^(-2)), C = 8, at a cell where
        # each term is the larger
        assert CTParams(n=200, t=10 ** 6, eps=1.0).min_samples() == \
            pytest.approx(8 * 200 ** (2 / 3), rel=1e-12)
        assert CTParams(n=10, t=10 ** 6, eps=0.25).min_samples() == \
            pytest.approx(8 * math.sqrt(10) * 16, rel=1e-12)

    def test_secure_alphabet_of_two_builds_and_of_one_is_refused(self):
        # at n=1 every other rule passes (log n = 0 gives one Bernoulli trial)
        assert SecureCTParams(n=2, t=13, eps=1.0, k=1).t_prime == 13
        with pytest.raises(ConfigError, match="alphabet size"):
            SecureCTParams(n=1, t=13, eps=1.0, k=1)

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


class TestNormAgreement:
    def test_floor_at_three_samples(self):
        # the floor is 1/C(3, 2) = 1/3: an estimate of 0 reads as 1/3, which
        # agrees with 16/3 and with nothing above it
        floor = 1 / 3
        assert norm_estimates_agree(0.0, 16 * floor, 3)
        assert norm_estimates_agree(16 * floor, 0.0, 3)
        assert not norm_estimates_agree(0.0, math.nextafter(16 * floor, 6), 3)
        assert norm_estimates_agree(floor, 16 * floor, 3)


class TestFarInstance:
    def test_exact_distance_paired(self):
        for eps in (0.25, 0.5, 1.0):
            q = far_instance(200, eps)
            assert l1_distance(uniform_distribution(200), q) == pytest.approx(eps)

    def test_large_eps_at_least_eps(self):
        q = far_instance(200, 1.5)
        assert l1_distance(uniform_distribution(200), q) >= 1.5

    @pytest.mark.parametrize("n, eps", [
        (n, eps) for n in (*range(2, 13), 200)
        for eps in (1.1, 1.25, 1.5, 1.75, 1.9, 1.99) if eps <= 2 * (1 - 1 / n)])
    def test_large_eps_grid_at_least_eps(self, n, eps):
        # above eps = 1 the law is uniform on its first s letters, at exact
        # distance 2(1 - s/n) from uniform; compare that with eps exactly
        probs = far_instance(n, eps).probs
        s = np.count_nonzero(probs)
        assert np.array_equal(probs, np.r_[np.full(s, 1.0 / s), np.zeros(n - s)])
        assert 2 * (1 - Fraction(s, n)) >= Fraction(eps)

    @pytest.mark.parametrize("n, eps", [(1, 0.5), (2, 1.01), (3, 1.5),
                                        (5, 1.9), (200, 2.0)])
    def test_eps_beyond_the_farthest_law_refused(self, n, eps):
        # no law on n letters lies farther than 2(1 - 1/n) from uniform
        with pytest.raises(ConfigError, match=r"2\(1-1/n\)"):
            far_instance(n, eps)


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

    def test_split_set_size_clamped_at_t(self):
        # split_rate = t: Bob's Poisson draw passes t on about half the
        # seeds; the clamp keeps his multiset within Alice's bound t
        params = CTParams(n=10, t=30, eps=1.0, big_c=1.0, c_split=270.0)
        assert params.split_rate == params.t
        p = uniform_distribution(10)
        over = 0
        for seed in range(12):
            draw = SharedRandomness(seed).stream("bob-splitset").poisson(
                params.split_rate)
            over += draw > params.t
            r = rng(seed)
            ct2p_insecure(sample(p, 30, r), sample(p, 30, r), params, seed)
        assert over > 0

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


def adjustment(a, b, s, level, r):
    """``capped_split_adjustment`` on recasts drawn from ``r``: the a matrix,
    then the b matrix, each with the split multiset's largest bucket count."""
    max_buckets = 1 + int(s.counts.max())
    am = split_occurrence_matrix(a, max_buckets, r)
    bm = split_occurrence_matrix(b, max_buckets, r)
    return capped_split_adjustment(a, b, s, level, am, bm)


class TestCappedSplitAdjustment:
    def test_no_split_no_cap(self):
        a = OccurrenceVector([2, 1])
        b = OccurrenceVector([0, 1])
        s_empty = OccurrenceVector.from_letters([], 2)
        assert adjustment(a, b, s_empty, 10, rng()) == 0.0

    def test_capped_only(self):
        # A=(4), B=(0), no split, L=2: 16 - 4 = 12 exactly
        a = OccurrenceVector([4])
        b = OccurrenceVector([0])
        s_empty = OccurrenceVector.from_letters([], 1)
        assert adjustment(a, b, s_empty, 2, rng()) == 12.0

    def test_split_enumeration_mean(self):
        # A=(4,0), B=(0,0), S={letter 0}, L=10: letter 0 splits into 2 buckets,
        # delta_1 = x^2 + (4-x)^2 - 16 with x ~ Binomial(4, 1/2).
        # Exact enumeration over the 16 assignments gives E[delta_1] = -6.
        exact = enumerate_adjustment_mean(4, 2, 16.0)
        assert exact == -6.0
        a = OccurrenceVector([4, 0])
        b = OccurrenceVector([0, 0])
        s = OccurrenceVector.from_letters([0], 2)
        r = rng(5)
        draws = [adjustment(a, b, s, 10, r)
                 for _ in range(4000)]
        assert max(draws) <= 0.0
        assert np.mean(draws) == pytest.approx(exact, abs=0.2)


class TestStackedSplitAdjustment:
    @given(st.data())
    def test_identity_per_vote(self, data):
        # per vote, delta_1 = ||A_S - B_S||^2 - ||A' - B'||^2 exactly, the
        # split vectors read back from the same matrices
        votes, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 12))

        def counts(top):
            return np.array(data.draw(st.lists(
                st.integers(0, top), min_size=votes * n, max_size=votes * n)),
                dtype=np.int64).reshape(votes, n)
        a, b, s = counts(12), counts(12), counts(4)
        level = data.draw(st.integers(1, 10))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        am, bm = (split_occurrence_matrix(OccurrenceVector(x.ravel()),
                                          1 + int(s.max()), rng(seed + i))
                  for i, x in enumerate((a, b)))
        delta1 = capped_split_adjustment(a, b, s, level, am, bm)
        assert delta1.shape == (votes,)
        buckets = 1 + s
        cuts = np.cumsum(buckets.sum(axis=1))[:-1]
        a_split, b_split = (np.split(split_occurrences_from_matrix(
            matrix, buckets.ravel()), cuts) for matrix in (am, bm))
        for v in range(votes):
            capped = np.minimum(a[v], level) - np.minimum(b[v], level)
            diff = a_split[v] - b_split[v]
            assert delta1[v] == int(diff @ diff) - int(capped @ capped)


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
            s_a = OccurrenceVector.from_letters(sample(p, t // level, r).letters, n)
            s_b = OccurrenceVector.from_letters(sample(q, t // level, r).letters, n)
            buckets = 1 + s_a.counts + s_b.counts
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
        s = OccurrenceVector.from_letters(
            np.tile(letters[:params.splitset_size], 2), 200)
        m = split_occurrence_matrix(x, 1 + int(s.counts.max()), rng(3))
        assert capped_split_adjustment(x, x, s, params.cap_level, m, m) == 0.0
        # each party's matrix draws its own uniforms, so only delta2 vanishes
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
        assert v.transcript.modeled_secure_bits == params.secure_bits > 0
        assert v.transcript.total_bits == 8 * (4 + 16)  # seed exchange only

    def test_votes_count_their_blocks(self, monkeypatch):
        # vote j's S is the first splitset_size letters of both parties'
        # block j, and its A and B are the last t'//2 letters of each block
        params = self.params()
        tp, half, size = params.t_prime, params.t_prime // 2, params.splitset_size
        r = rng(12)
        a = sample(uniform_distribution(200), params.t, r).letters
        b = sample(far_instance(200, 1.0), params.t, r).letters
        seen = []
        adjust = closeness.capped_split_adjustment
        monkeypatch.setattr(closeness, "capped_split_adjustment",
                            lambda *args, **kw: seen.append(args[:3])
                            or adjust(*args, **kw))
        secure_reference_votes(a, b, params, SharedRandomness(2))
        [stacked] = seen  # one call takes every vote's (votes, n) counts
        assert all(got.shape == (params.votes, 200) for got in stacked)
        for j, (got_a, got_b, got_s) in enumerate(zip(*stacked)):
            block_a, block_b = a[j * tp:(j + 1) * tp], b[j * tp:(j + 1) * tp]
            for got, letters in ((got_a, block_a[tp - half:]),
                                 (got_b, block_b[tp - half:]),
                                 (got_s, np.concatenate((block_a[:size],
                                                         block_b[:size])))):
                assert np.array_equal(
                    got, OccurrenceVector.from_letters(letters, 200).counts)

    @pytest.mark.parametrize("party, position, letter", [
        (0, 0, 200), (1, 0, -1), (0, -1, -1), (1, -1, 200)])
    def test_letter_out_of_range_refused(self, party, position, letter):
        # the first letter of a split set and the last sample letter are read
        params = self.params()
        letters = [np.zeros(params.t, dtype=np.int64) for _ in range(2)]
        letters[party][position % (params.votes * params.t_prime)] = letter
        with pytest.raises(ValueError, match="letter out of range"):
            secure_reference_f(*letters, params, 0)

    def test_too_few_letters_refused(self):
        params = self.params()
        short = np.zeros(params.votes * params.t_prime - 1, dtype=np.int64)
        full = np.zeros(params.t, dtype=np.int64)
        for pair in ((short, full), (full, short)):
            with pytest.raises(ValueError, match="letters per party"):
                secure_reference_f(*pair, params, 0)

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


def rowwise(one):
    """Apply ``one(vector, *args)`` to each vector along the last axis."""
    def apply(v, *args):
        v = np.asarray(v)
        out = [one(row, *args) for row in v.reshape(-1, v.shape[-1])]
        return np.array(out).reshape(v.shape[:-1] + np.shape(out[0]))[()]
    return apply


@rowwise
def loop_bernoulli_hits(biases, trials, rng):
    """Reference: ``trials`` uniform indices, then one coin per index."""
    idx = rng.integers(0, biases.size, trials)
    if bool((biases[idx] > 1.0).any()):
        return math.nan
    return float((rng.random(trials) < biases[idx]).sum())


@rowwise
def qr_rotate(v, rng):
    """Reference: ``Rv`` through the explicit rounded Haar rotation."""
    return RoundedRotation(v.size, int(rng.integers(2 ** 63))).apply(v)


def reference_split_matrices(x, max_buckets, rng):
    """Reference: the eager split matrices, one multinomial draw per bucket
    count over every letter; entry ``j - 1`` is the ``(n, j)`` matrix."""
    return [np.asarray(x).reshape(-1, 1)] + [
        rng.multinomial(x, np.full(j, 1.0 / j)) for j in range(2, max_buckets + 1)]


class OneBucketTooMany:
    """Planted: a split matrix whose read splits each row at one bucket too
    many, ``floor(u (j + 1))``, so the extra bucket spills into the first
    bucket of the next row (the last row's spill is lost)."""

    def __init__(self, x, max_buckets, rng):
        self.matrix = split_occurrence_matrix(x, max_buckets + 1, rng)

    def rows(self, letters, buckets):
        buckets = np.asarray(buckets, dtype=np.int64)
        wide = self.matrix.rows(letters, buckets + 1)
        # entry p of row r moves back by r, onto the layout at j buckets
        shifted = np.arange(wide.size) - np.repeat(np.arange(buckets.size),
                                                   buckets + 1)
        total = int(buckets.sum())
        return np.bincount(shifted, weights=wide,
                           minlength=total + 1)[:total].astype(np.int64)


def rows_agree(new, old):
    """Two stacks of split rows agree in law: chi-square homogeneity over
    the rows' values, the values seen fewer than 10 times pooled, p > 0.001."""
    values, seen = np.unique(np.concatenate((new, old)), axis=0,
                             return_inverse=True)
    table = np.stack([np.bincount(part, minlength=len(values))
                      for part in np.split(seen.ravel(), [len(new)])])
    rare = table.sum(axis=0) < 10
    if rare.any():
        table = np.column_stack((table[:, ~rare], table[:, rare].sum(axis=1)))
    return stats.chi2_contingency(table).pvalue > 0.001


def reference_secure_votes(alice_letters, bob_letters, params, shared):
    """Reference: the secure votes one at a time, vote ``j`` on its own four
    streams ``(label, j)``, with eager split matrices and delta_1 summed over
    every letter's split row (the loop the batched votes replace)."""
    n, tp, level, reps = params.n, params.t_prime, params.cap_level, params.votes
    half, size, trials = tp // 2, params.splitset_size, params.bernoulli_trials
    tau = threshold_tau(n + 2 * size, half, params.eps)
    votes = []
    for j in range(reps):
        block_a = alice_letters[j * tp:(j + 1) * tp]
        block_b = bob_letters[j * tp:(j + 1) * tp]
        s = np.bincount(np.concatenate((block_a[:size], block_b[:size])),
                        minlength=n)
        a = np.bincount(block_a[tp - half:], minlength=n)
        b = np.bincount(block_b[tp - half:], minlength=n)
        buckets = 1 + s
        a_rows, b_rows = (reference_split_matrices(x, int(buckets.max()),
                                                   shared.stream(label, j))
                          for x, label in ((a, "alice-split"), (b, "bob-split")))
        capped = np.minimum(a, level) - np.minimum(b, level)
        delta1 = -int(capped @ capped)
        for m in set(buckets.tolist()):
            diff = a_rows[m - 1][buckets == m] - b_rows[m - 1][buckets == m]
            delta1 += int((diff * diff).sum())
        headroom = 2.0 * (tau - delta1)
        if headroom <= 0:
            votes.append(SetVote(delta1, 0.0, tau, headroom, False, Decision.FAR))
            continue
        rotated = haar_rotate(capped, shared.stream("rotation", j))
        biases = n * rotated ** 2 / (headroom * reps)
        hits = bernoulli_hits(biases, trials, shared.stream("bernoulli", j))
        if math.isnan(hits):
            votes.append(SetVote(delta1, 0.0, tau, headroom, True, Decision.FAR))
            continue
        delta2 = headroom * reps / trials * hits
        vote = Decision.FAR if delta1 + delta2 > tau else Decision.SAME
        votes.append(SetVote(delta1, delta2, tau, headroom, False, vote))
    return votes


def summary(draws):
    """Clamp count and the (mean, SE, variance, SE) of the unclamped hits."""
    draws = np.asarray(draws, dtype=np.float64)
    hits = draws[~np.isnan(draws)]
    dev_sq = (hits - hits.mean()) ** 2
    return (len(draws) - hits.size, hits.mean(), hits.std() / math.sqrt(hits.size),
            dev_sq.mean(), dev_sq.std() / math.sqrt(hits.size))


def law_mismatches(new, old):
    """What tells two lists of one family's votes apart: KS p <= 0.01 on
    delta_1 or on unclamped delta_2, or a FAR, clamp or headroom <= 0 rate
    more than 3 SE away."""
    def unclamped_delta2(votes):
        return [v.delta2 for v in votes if v.headroom > 0 and not v.clamped]
    found = []
    for name, stat in (("delta1", lambda votes: [v.delta1 for v in votes]),
                       ("delta2", unclamped_delta2)):
        if stats.ks_2samp(stat(new), stat(old)).pvalue <= 0.01:
            found.append(name)
    for name, flag in (("far", lambda v: v.vote is Decision.FAR),
                       ("clamp", lambda v: v.clamped),
                       ("headroom", lambda v: v.headroom <= 0)):
        if not rates_agree([flag(v) for v in new], [flag(v) for v in old]):
            found.append(name)
    return found


class TestClosedFormLaws:
    def test_bernoulli_hits_match_index_coin_loop(self):
        # n=10 with one clamped bias and B=5: no clamp w.p. 0.9^5 ~ 0.59
        biases = np.append(rng(11).uniform(0.05, 0.95, 9), 1.5)
        trials, reps = 5, 20_000
        new = bernoulli_hits(np.tile(biases, (reps, 1)), trials, rng(10_000))
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
        assert math.isnan(bernoulli_hits(np.full(4, 1.5), 3, rng()))
        assert bernoulli_hits(np.zeros(4), 3, rng()) == 0
        assert bernoulli_hits(np.ones(4), 3, rng()) == 3
        # one clamped index among 10^4: 10^4 trials miss it w.p. ~ e^-1
        clamps = sum(math.isnan(bernoulli_hits(np.append(np.zeros(9_999), 2.0),
                                               10 ** 4, rng(s))) for s in range(400))
        assert abs(clamps / 400 - (1 - math.exp(-1))) < 3 * 0.024
        # a stack of vectors gives one count per vector, NaN where clamped
        stacked = bernoulli_hits(np.array([np.zeros(4), np.ones(4),
                                           np.full(4, 1.5)]), 3, rng())
        assert stacked.shape == (3,) and list(stacked[:2]) == [0, 3]
        assert math.isnan(stacked[2])

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

    def test_batched_votes_law_matches_per_vote_loop(self, monkeypatch):
        # C4's cell, 300 instances per family: the batched votes against
        # the per-vote loop they replace, on the same instances, so only the
        # random streams differ.  The same check must catch split rows drawn
        # at one bucket too many (the extra bucket spilling into the next row).
        params = SecureCTParams(n=200, t=1095, eps=1.0, k=4)
        uniform = uniform_distribution(200)
        families = {"same": uniform, "far": far_instance(200, 1.0)}

        def votes(run):
            out = {}
            for f, (family, q) in enumerate(families.items()):
                out[family] = []
                for trial in range(60_000 + 1_000 * f, 60_300 + 1_000 * f):
                    r = rng(trial)
                    a, b = (sample(d, params.t, r).letters for d in (uniform, q))
                    out[family] += run(a, b, params, SharedRandomness(trial))
            return out

        old = votes(reference_secure_votes)
        new = votes(secure_reference_votes)
        with monkeypatch.context() as m:
            m.setattr(closeness, "split_occurrence_matrix", OneBucketTooMany)
            planted = votes(secure_reference_votes)
        for family in families:
            assert law_mismatches(new[family], old[family]) == [], family
        assert law_mismatches(planted["far"], old["far"]) != []

    def test_split_matrix_rows_match_reference(self):
        # per count and bucket number, 4,000 rows of one matrix against as
        # many eager multinomial rows: the same law, and a matrix splitting
        # at one bucket too many is told apart
        draws, r = 4_000, rng(13)
        planted = []
        for count in (1, 4, 9):
            x = OccurrenceVector(np.full(draws, count))
            reference = reference_split_matrices(x.counts, 5, r)
            for j in (2, 3, 5):
                letters, buckets = np.arange(draws), np.full(draws, j)
                new = split_occurrence_matrix(x, j, r).rows(letters, buckets)
                assert rows_agree(new.reshape(draws, j), reference[j - 1]), \
                    (count, j)
                bad = OneBucketTooMany(x, j, r).rows(letters, buckets)
                planted.append(rows_agree(bad.reshape(draws, j),
                                          reference[j - 1]))
        assert not any(planted)
