"""Independence tester: reduction laws, pairing, protocol end-to-end pieces."""

import math
import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from disttest2p.dist import (
    Distribution,
    IndexedSampleSet,
    Multiset,
    sample,
    split_map,
    uniform_distribution,
)
from disttest2p.harness import (
    ConfigError,
    Decision,
    ProtocolError,
    SharedRandomness,
)
from disttest2p.independence import (
    ITParams,
    _alice_pool,
    _decode_oneway,
    JointDistribution,
    conditioned,
    conditioned_rows,
    diagonal_joint,
    indices_set_vector,
    it2p,
    it2p_votes,
    one_way_it2p,
    product_joint,
    run_repetition,
    split_joint,
    usi_sample,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def minimal_params(n=20, m=20, eps=1.0, k=2, **kw):
    probe = ITParams(n=n, m=m, t=10 ** 9, eps=eps, k=k, **kw)
    t = math.ceil(probe.min_samples())
    return ITParams(n=n, m=m, t=t, eps=eps, k=k, **kw)


class TestConditioned:
    def test_full_alphabet_identity(self):
        p = Distribution([0.2, 0.3, 0.5])
        assert np.allclose(conditioned(p, [0, 1, 2]).probs, p.probs)

    def test_hand_renormalization(self):
        p = Distribution([0.2, 0.3, 0.5])
        assert np.allclose(conditioned(p, [0, 2]).probs, [2 / 7, 5 / 7])

    def test_point_mass_inside(self):
        p = Distribution([0.0, 1.0, 0.0])
        assert np.allclose(conditioned(p, [1, 2]).probs, [1.0, 0.0])

    def test_zero_mass_rejected(self):
        p = Distribution([0.0, 1.0])
        with pytest.raises(ValueError):
            conditioned(p, [0])


class TestUSISample:
    def test_full_cover(self):
        assert usi_sample(6, 3, 6, rng()) == 3

    def test_empty_first_set(self):
        assert usi_sample(6, 0, 3, rng()) == 0

    def test_mu_4_2_2_law(self):
        # enumerate all C(4,2)=6 subsets: P[|S1 ∩ S2| = 1] = 4/6
        draws = np.array([usi_sample(4, 2, 2, rng(100 + i)) for i in range(20000)])
        freq = (draws == 1).mean()
        assert abs(freq - 2 / 3) < 0.01
        expected = stats.hypergeom(4, 2, 2).pmf(1)
        assert expected == pytest.approx(2 / 3)

    def test_matches_direct_intersection_law(self):
        # Uniform subset of Gamma of the drawn size vs direct |Gamma ∩ U|:
        # chi-square p > 0.01 between the two histograms at 1e5 trials.
        n, a, b, trials = 8, 4, 4, 10 ** 5
        r = rng(2)
        gamma = np.arange(a)
        direct = np.empty(trials, dtype=np.int64)
        viamu = np.empty(trials, dtype=np.int64)
        for i in range(trials):
            u = r.choice(n, size=b, replace=False)
            direct[i] = np.intersect1d(gamma, u).size
            viamu[i] = usi_sample(n, a, b, r)
        table = np.array([np.bincount(direct, minlength=a + 1),
                          np.bincount(viamu, minlength=a + 1)])
        table = table[:, table.sum(axis=0) > 0]
        _, pvalue, _, _ = stats.chi2_contingency(table)
        assert pvalue > 0.01


def index_sets(samples, n):
    """Letter j's sample indices, for each j, from indices_set_vector."""
    order, boundaries = indices_set_vector(samples, n)
    assert boundaries.size == n + 1
    return [order[boundaries[j]:boundaries[j + 1]] for j in range(n)]


class TestIndicesSetVector:
    def test_direct_inversion(self):
        sets = index_sets(IndexedSampleSet(np.array([1, 0, 1]), 2), 2)
        assert list(sets[0]) == [1]
        assert list(sets[1]) == [0, 2]

    def test_empty(self):
        sets = index_sets(IndexedSampleSet(np.array([], dtype=np.int64), 3), 3)
        assert all(s.size == 0 for s in sets)

    def test_degenerate_single_letter(self):
        sets = index_sets(IndexedSampleSet(np.zeros(7, dtype=np.int64), 2), 2)
        assert sets[0].size == 7 and sets[1].size == 0

    def test_partition_property(self):
        r = rng(3)
        sets = index_sets(IndexedSampleSet(r.integers(0, 9, 200), 9), 9)
        seen = np.sort(np.concatenate(sets))
        assert np.array_equal(seen, np.arange(200))

    @given(n=st.sampled_from([1, 2, 9, 255, 256, 257, 70_000]),
           data=st.data())
    def test_matches_flatnonzero_reference(self, n, data):
        # every key width (8, 16 and 32 bits) against the per-letter scan
        letters = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                              max_size=300)), dtype=np.int64)
        order, boundaries = indices_set_vector(IndexedSampleSet(letters, n), n)
        assert boundaries.size == n + 1
        for j in (range(n) if n < 300 else np.unique(np.append(letters, 0))):
            assert np.array_equal(order[boundaries[j]:boundaries[j + 1]],
                                  np.flatnonzero(letters == j))


class TestJointDistribution:
    def test_diagonal_distance(self):
        joint = diagonal_joint(20, 20)
        assert joint.l1_to_product() == pytest.approx(2 * (1 - 1 / 20))

    def test_product_distance_zero(self):
        joint = product_joint(uniform_distribution(6), uniform_distribution(4))
        assert joint.l1_to_product() == pytest.approx(0.0)

    @pytest.mark.parametrize("joint", [
        diagonal_joint(100, 100),
        product_joint(uniform_distribution(20), uniform_distribution(20)),
        JointDistribution(np.array([[0.5, 0.0], [1e-300, 0.5]])),
    ])
    def test_sample_joint_matches_choice(self, joint):
        # the draw is Generator.choice's over the flattened cells, bit for bit
        ours, numpys = rng(8), rng(8)
        a, b = joint.sample_joint(40_000, ours)
        flat = numpys.choice(joint.n * joint.m, size=40_000,
                             p=joint.probs.ravel())
        assert np.array_equal(a.letters, flat // joint.m)
        assert np.array_equal(b.letters, flat % joint.m)
        assert ours.random() == numpys.random()

    def test_sample_joint_index_aligned(self):
        joint = diagonal_joint(10, 10)
        a, b = joint.sample_joint(500, rng(4))
        assert np.array_equal(b.letters, a.letters % 10)

    def test_marginals(self):
        joint = diagonal_joint(12, 4)
        assert np.allclose(joint.marginal_rows().probs, np.full(12, 1 / 12))
        assert np.allclose(joint.marginal_cols().probs, np.full(4, 1 / 4))


class TestAlphabetReductionLaws:
    def test_product_conditioning_exact(self):
        # for product joints the reduced pair is exactly equal: p-hat == q-hat
        r = rng(5)
        for n, m in [(8, 5), (12, 12), (6, 3)]:
            p1 = Distribution(r.dirichlet(np.ones(n)))
            p2 = Distribution(r.dirichlet(np.ones(m)))
            joint = product_joint(p1, p2)
            s_a = Multiset.from_letters(r.integers(0, n, 5), n)
            s_b = Multiset.from_letters(r.integers(0, m, 4), m)
            sm_a, sm_b = split_map(s_a, n), split_map(s_b, m)
            split = split_joint(joint, sm_a, sm_b)
            u = np.sort(r.choice(sm_a.total_letters, size=4, replace=False))
            p_hat = conditioned_rows(split, u)
            rows = conditioned(split.marginal_rows(), u)
            q_hat = product_joint(rows, split.marginal_cols())
            assert np.max(np.abs(p_hat.probs - q_hat.probs)) < 1e-12

    def test_diagonal_conditioning_stays_far(self):
        # sampled letter sets keep the reduced distance large >= 90% of draws
        r = rng(6)
        n = m = 12
        joint = diagonal_joint(n, m)
        good = 0
        trials = 200
        for _ in range(trials):
            s_a = Multiset.from_letters(r.integers(0, n, n), n)
            s_b = Multiset.from_letters(r.integers(0, m, m), m)
            sm_a, sm_b = split_map(s_a, n), split_map(s_b, m)
            split = split_joint(joint, sm_a, sm_b)
            ell = min(8, sm_a.total_letters)
            u = np.sort(r.choice(sm_a.total_letters, size=ell, replace=False))
            try:
                p_hat = conditioned_rows(split, u)
            except ValueError:
                continue  # zero-mass set; does not count against the rate
            rows = conditioned(split.marginal_rows(), u)
            q_hat = product_joint(rows, split.marginal_cols())
            distance = float(np.abs(p_hat.probs - q_hat.probs).sum())
            good += distance >= 0.5
        assert good >= 0.9 * trials

    def test_sampled_letter_mass_concentrates(self):
        # ||p||^2 <= U and ell >= 100 U n  =>  mass of U in [ell/4n, 4 ell/n]
        n, trials = 400, 500
        p = uniform_distribution(n)
        u_bound = 1.0 / n
        ell = int(100 * u_bound * n)
        r = rng(7)
        good = 0
        for _ in range(trials):
            u = r.choice(n, size=ell, replace=False)
            mass = float(p.probs[u].sum())
            good += ell / (4 * n) <= mass <= 4 * ell / n
        assert good >= 0.9 * trials


class TestRepetitionPipeline:
    def setup_method(self):
        self.params = minimal_params()
        self.shared = SharedRandomness(11)

    def run_one(self, joint, seed, rep=0):
        a, b = joint.sample_joint(self.params.t, rng(seed))
        tp = self.params.t_prime
        blocks_a = [a.letters[i * tp:(i + 1) * tp] for i in range(3)]
        blocks_b = [b.letters[i * tp:(i + 1) * tp] for i in range(3)]
        return run_repetition(rep, blocks_a[0], blocks_a[1], blocks_b[0],
                              blocks_b[1], blocks_b[2], self.params, self.shared)

    def test_subsets_disjoint_every_run(self):
        joint = product_joint(uniform_distribution(20), uniform_distribution(20))
        for seed in range(30):
            rep = self.run_one(joint, seed)
            if rep.abstained:
                continue
            combined = np.concatenate(rep.subsets)
            assert len(set(combined.tolist())) == combined.size

    def test_pool_indices_carry_chosen_letters(self):
        joint = diagonal_joint(20, 20)
        rep = self.run_one(joint, 3)
        assert not rep.abstained
        assert np.unique(rep.pool).size == rep.pool.size
        assert np.array_equal(np.unique(rep.a_letters), rep.live)

    def test_paired_sample_law_matches_reduced_joint(self):
        # For a fixed reduction (split multisets and letter set), the pairs
        # (A(j), B_p(j)) restricted to the letter set are distributed as the
        # reduced joint: TV < 0.05 over 1e5 accumulated paired draws.
        n = m = 10
        joint = diagonal_joint(n, m)
        r = rng(8)
        s_a = Multiset.from_letters(r.integers(0, n, n), n)
        s_b = Multiset.from_letters(r.integers(0, m, m), m)
        sm_a, sm_b = split_map(s_a, n), split_map(s_b, m)
        m_b = sm_b.total_letters
        chosen = np.sort(r.choice(sm_a.total_letters, size=8, replace=False))

        split = split_joint(joint, sm_a, sm_b)
        p_hat = conditioned_rows(split, chosen)

        codes = []
        wanted = 10 ** 5
        got = 0
        while got < wanted:
            a, b = joint.sample_joint(40000, r)
            a_split = np.asarray(
                sm_a.offsets[a.letters]
                + np.floor(r.random(a.t) * sm_a.bucket_counts[a.letters]),
                dtype=np.int64)
            b_split = np.asarray(
                sm_b.offsets[b.letters]
                + np.floor(r.random(b.t) * sm_b.bucket_counts[b.letters]),
                dtype=np.int64)
            mask = np.isin(a_split, chosen)
            batch = a_split[mask] * m_b + b_split[mask]
            codes.append(batch)
            got += batch.size
        codes = np.concatenate(codes)[:wanted]

        # reduced-joint probabilities mapped onto the same code space
        truth = np.zeros(sm_a.total_letters * m_b)
        for row_idx, row_letter in enumerate(chosen):
            truth[row_letter * m_b:(row_letter + 1) * m_b] = p_hat.probs[row_idx]
        hist = np.bincount(codes, minlength=truth.size) / wanted
        assert 0.5 * np.abs(hist - truth).sum() < 0.05


class TestAlicePool:
    """``_alice_pool`` in law against the sampler it replaced in IT2p:
    lambda = min(usi_sample(n_a, |Gamma|, ell), cap), then a uniform
    lambda-subset of Gamma."""

    def compare(self, params, split_block, block, trials=4000):
        n = params.n
        sm_a = split_map(Multiset.from_letters(
            split_block[:min(params.t_prime, n)], n), n)
        # the block avoids the split letters, so its recast, Gamma, is fixed
        gamma = np.unique(sm_a.offsets[block])
        n_a = sm_a.total_letters
        ell = min(params.ell_target, n_a)
        cap = math.ceil(100.0 * params.t_prime * ell / n)
        shared, r = SharedRandomness(77), rng(78)
        lam = np.zeros((2, trials), dtype=np.int64)
        hits = np.zeros((2, n_a))
        for i in range(trials):
            _, live, pool, letters = _alice_pool(i, split_block, block, params,
                                                 shared)
            assert np.array_equal(np.unique(letters), live)
            lam[0, i] = live.size
            hits[0, live] += 1
            lam[1, i] = min(usi_sample(n_a, gamma.size, ell, r), cap)
            hits[1, r.choice(gamma, size=lam[1, i], replace=False)] += 1
        hist = np.array([np.bincount(row, minlength=ell + 1) for row in lam])
        for counts in (hist, hits):  # frequencies agree within 3 SE
            p = counts.sum(axis=0) / (2 * trials)
            se = np.sqrt(p * (1 - p) * 2 / trials)
            assert np.all(np.abs(counts[0] - counts[1]) / trials <= 3 * se)
        return lam[0], cap

    def test_law_without_cap(self):
        params = minimal_params()  # t' = 888, ell = 24 of n_a = 40 letters
        split_block = np.zeros(params.t_prime, dtype=np.int64)
        block = rng(5).integers(1, params.n, params.t_prime)
        lam, cap = self.compare(params, split_block, block)
        assert lam.max() < cap and lam.std() > 1

    def test_law_when_the_cap_binds(self):
        # A valid ITParams caps at about 100 times the expected lambda, so
        # the cap binds only in far tails.  This stand-in (one sample per
        # set, n = 200, ell = 50) caps at 25, where lambda ~ 25 +- 3.
        params = types.SimpleNamespace(n=200, t_prime=1, ell_target=50)
        lam, cap = self.compare(params, np.zeros(1, dtype=np.int64),
                                np.arange(1, 101))
        assert cap == 25 and 0.3 < np.mean(lam == cap) < 0.7


class TestIT2P:
    def test_precondition_enforced(self):
        with pytest.raises(ConfigError):
            ITParams(n=20, m=20, t=100, eps=1.0, k=2)

    def test_m_larger_than_n_rejected(self):
        with pytest.raises(ConfigError):
            ITParams(n=10, m=20, t=10 ** 6, eps=1.0, k=2)

    @pytest.mark.parametrize("override", [
        {"big_c": 0.0}, {"big_c": math.nan}, {"c1": -16.0}, {"c1": math.inf},
        {"c2": 0.0}, {"c3": math.nan}, {"c_eps": -1.0}, {"c_eps": math.inf},
    ])
    def test_bad_constants_refused(self, override):
        with pytest.raises(ConfigError):
            ITParams(n=20, m=20, t=8000, eps=1.0, k=2, **override)

    def test_product_and_far_verdicts(self):
        params = minimal_params()
        prod = product_joint(uniform_distribution(20), uniform_distribution(20))
        diag = diagonal_joint(20, 20)
        ok_p = ok_f = 0
        for trial in range(40):
            r = rng(900 + trial)
            pa, pb = prod.sample_joint(params.t, r)
            da, db = diag.sample_joint(params.t, r)
            ok_p += it2p(pa, pb, params, trial).decision is Decision.PRODUCT
            ok_f += it2p(da, db, params, trial).decision is Decision.FAR
        assert ok_p >= 28 and ok_f >= 28

    def test_swap_symmetry_for_product(self):
        # swapping B_p and B_q blocks leaves the verdict law unchanged (3 sigma)
        params = minimal_params()
        prod = product_joint(uniform_distribution(20), uniform_distribution(20))
        tp = params.t_prime
        base = swapped = 0
        trials = 100
        for trial in range(trials):
            r = rng(3000 + trial)
            a, b = prod.sample_joint(params.t, r)
            letters = b.letters.copy()
            for i in range(params.votes):
                lo = (3 * i + 1) * tp
                mid = (3 * i + 2) * tp
                hi = (3 * i + 3) * tp
                letters[lo:mid], letters[mid:hi] = (b.letters[mid:hi].copy(),
                                                    b.letters[lo:mid].copy())
            b_swapped = IndexedSampleSet(letters, params.m)
            base += it2p(a, b, params, trial).decision is Decision.PRODUCT
            swapped += it2p(a, b_swapped, params, trial).decision is Decision.PRODUCT
        sigma = math.sqrt(trials * 0.5)
        assert abs(base - swapped) <= 3 * sigma

    def test_lambda_mean_reported(self):
        params = minimal_params()
        prod = product_joint(uniform_distribution(20), uniform_distribution(20))
        a, b = prod.sample_joint(params.t, rng(4))
        v = it2p(a, b, params, 0)
        assert v.lambda_mean is not None and v.lambda_mean > 0


class TestOneWay:
    def test_agreement_with_two_way(self):
        params = minimal_params()
        prod = product_joint(uniform_distribution(20), uniform_distribution(20))
        diag = diagonal_joint(20, 20)
        trials = 60
        for trial in range(trials):
            r = rng(5000 + trial)
            joint = prod if trial % 2 == 0 else diag
            a, b = joint.sample_joint(params.t, r)
            v1 = it2p(a, b, params, trial)
            v2 = one_way_it2p(a, b, params, trial)
            # one repetition code on both sides: the same votes and lambdas
            assert (v1.decision, v1.lambda_mean) == (v2.decision, v2.lambda_mean)

    def test_single_message_and_bit_budget(self):
        params = minimal_params()
        diag = diagonal_joint(20, 20)
        a, b = diag.sample_joint(params.t, rng(6))
        v = one_way_it2p(a, b, params, 0)
        assert len(v.transcript.messages) == 1
        assert v.transcript.messages[0][0] == "alice"
        # predicted: sum over repetitions of |I| (log2 n_split + log2 t') bits
        shared = SharedRandomness(0)
        reps = it2p_votes(a, b, params, shared)
        predicted = sum(
            r.pool.size * (math.ceil(math.log2(r.sm_a.total_letters))
                           + math.ceil(math.log2(params.t_prime)))
            for r in reps)
        assert v.transcript.total_bits <= 4 * max(predicted, 1)

    def test_empty_intersection_abstains(self):
        # degenerate: all of Alice's samples carry one letter, ell tiny, so the
        # sampled universe usually misses Gamma entirely -> lambda = 0 message
        params = ITParams(n=20, m=20, t=8000, eps=1.0, k=2, c2=0.0001)
        assert params.ell_target == 1
        a = IndexedSampleSet(np.zeros(8000, dtype=np.int64), 20)
        b = IndexedSampleSet(np.zeros(8000, dtype=np.int64), 20)
        for seed in range(50):
            v = one_way_it2p(a, b, params, seed)
            if v.lambda_mean == 0.0:
                assert v.decision is Decision.PRODUCT
                assert v.transcript.messages[0][1] == 4 + 4 * params.votes
                return
        pytest.fail("no run produced an empty intersection")


def oneway_rep(lam, pool, letters):
    """One repetition of the one-way wire format, as Alice encodes it."""
    if lam == 0:
        return struct.pack("<I", 0)
    return (struct.pack("<II", lam, len(pool))
            + np.asarray(pool, dtype="<u4").tobytes()
            + np.asarray(letters, dtype="<u2").tobytes())


class TestOneWayWire:
    def test_round_trip(self):
        payload = oneway_rep(0, [], []) + oneway_rep(2, [5, 0, 3], [7, 1, 7])
        (lam0, pool0, letters0), (lam1, pool1, letters1) = \
            _decode_oneway(payload, 2, 6)
        assert lam0 == 0 and pool0.size == 0 and letters0.size == 0
        assert lam1 == 2
        assert pool1.tolist() == [5, 0, 3] and letters1.tolist() == [7, 1, 7]

    @pytest.mark.parametrize("payload", [
        b"", b"\x01\x00", struct.pack("<I", 1),
        oneway_rep(1, [0, 1], [0, 0])[:-1],
        oneway_rep(1, [0, 1], [0, 0]) + b"\x00",
        oneway_rep(1, [0, 6], [0, 0]),
        oneway_rep(3, [0, 1], [0, 0]),
        oneway_rep(2, [1, 1, 2, 3], [7, 7, 8, 8]),
        oneway_rep(2, [1, 1, 1, 1], [7, 7, 7, 7]),
        oneway_rep(2, [0, 1, 2], [7, 7, 7]),
        oneway_rep(1, [0, 1], [3, 4]),
    ], ids=["empty", "short-header", "no-pool-size", "truncated-body",
            "trailing", "index-ge-t-prime", "pool-below-lambda",
            "repeated-index", "one-repeated-index", "letters-below-lambda",
            "letters-above-lambda"])
    def test_bad_payload_rejected(self, payload):
        with pytest.raises(ProtocolError):
            _decode_oneway(payload, 1, 6)

    @given(st.lists(st.one_of(
               st.binary(max_size=24),
               st.builds(lambda lam, pool: oneway_rep(lam, pool, pool),
                         st.integers(0, 4),
                         st.lists(st.integers(0, 9), max_size=6))),
               max_size=3).map(b"".join),
           st.integers(1, 3), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_payload_raises_only_protocol_error(self, payload, reps,
                                                       t_prime):
        try:
            decoded = _decode_oneway(payload, reps, t_prime)
        except ProtocolError:
            return
        assert len(decoded) == reps
        for lam, pool, letters in decoded:
            assert pool.size == letters.size >= lam
            assert pool.size == 0 or pool.max() < t_prime
            assert np.unique(pool).size == pool.size
            assert np.unique(letters).size == lam
