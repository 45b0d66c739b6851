"""Independence tester: reduction laws, pairing, protocol end-to-end pieces."""

import math
import struct
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from disttest2p import independence
from disttest2p.closeness import norm_estimates_agree, threshold_tau
from disttest2p.dist import (
    Distribution,
    IndexedSampleSet,
    OccurrenceVector,
    split_map,
    split_samples,
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
    _alice_half,
    _bob_half,
    _blocks,
    _decode_oneway,
    _evaluate,
    _repetitions,
    JointDistribution,
    diagonal_distance,
    diagonal_joint,
    far_joint,
    indices_set_vector,
    it2p,
    one_way_it2p,
    product_joint,
    run_repetition,
)
from disttest2p.sketch import collision_norm_estimate
from laws import (
    conditioned,
    conditioned_rows,
    it2p_votes,
    rates_agree,
    rng,
    split_joint,
    usi_sample,
)


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


def index_sets(letters, n):
    """Letter j's sample indices, for each j, from indices_set_vector."""
    order, boundaries = indices_set_vector(np.asarray(letters, dtype=np.int64), n)
    assert boundaries.size == n + 1
    return [order[boundaries[j]:boundaries[j + 1]] for j in range(n)]


class TestIndicesSetVector:
    def test_direct_inversion(self):
        sets = index_sets([1, 0, 1], 2)
        assert list(sets[0]) == [1]
        assert list(sets[1]) == [0, 2]

    def test_empty(self):
        sets = index_sets([], 3)
        assert all(s.size == 0 for s in sets)

    def test_degenerate_single_letter(self):
        sets = index_sets(np.zeros(7, dtype=np.int64), 2)
        assert sets[0].size == 7 and sets[1].size == 0

    def test_partition_property(self):
        r = rng(3)
        sets = index_sets(r.integers(0, 9, 200), 9)
        seen = np.sort(np.concatenate(sets))
        assert np.array_equal(seen, np.arange(200))

    @given(n=st.sampled_from([1, 2, 9, 255, 256, 257, 70_000]),
           data=st.data())
    def test_matches_flatnonzero_reference(self, n, data):
        # every key width (8, 16 and 32 bits) against the per-letter scan
        letters = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                              max_size=300)), dtype=np.int64)
        order, boundaries = indices_set_vector(letters, n)
        assert boundaries.size == n + 1
        for j in (range(n) if n < 300 else np.unique(np.append(letters, 0))):
            assert np.array_equal(order[boundaries[j]:boundaries[j + 1]],
                                  np.flatnonzero(letters == j))


def l1_to_product(cells):
    """Exact ell_1 distance of a matrix of fractions from the product of its
    marginals."""
    rows = [sum(row) for row in cells]
    cols = [sum(col) for col in zip(*cells)]
    return sum(abs(x - r * c) for row, r in zip(cells, rows)
               for x, c in zip(row, cols))


class TestJointDistribution:
    def test_diagonal_distance(self):
        joint = diagonal_joint(20, 20)
        assert joint.l1_to_product() == pytest.approx(2 * (1 - 1 / 20))

    def test_diagonal_distance_closed_form(self):
        # |P - p q^T| summed over the cells in exact fractions, as
        # l1_to_product sums it in floats, against 2 - 2 sum_j c_j^2 / n^2
        for n in range(1, 13):
            for m in range(1, n + 1):
                c = [sum(i % m == j for i in range(n)) for j in range(m)]
                exact = sum(abs(Fraction(i % m == j, n) - Fraction(c[j], n * n))
                            for i in range(n) for j in range(m))
                assert exact == 2 - Fraction(2 * sum(x * x for x in c), n * n)
                assert diagonal_distance(n, m) == float(exact)
                assert diagonal_joint(n, m).l1_to_product() == \
                    pytest.approx(float(exact), abs=1e-12)

    def test_product_distance_zero(self):
        joint = product_joint(uniform_distribution(6), uniform_distribution(4))
        assert joint.l1_to_product() == pytest.approx(0.0)

    @pytest.mark.parametrize("joint", [
        diagonal_joint(100, 100),
        product_joint(uniform_distribution(20), uniform_distribution(20)),
        JointDistribution(np.array([[0.5, 0.0], [1e-300, 0.5]])),
        product_joint(uniform_distribution(100), uniform_distribution(100)),
        far_joint(100, 100, 1.0),
        diagonal_joint(12, 5),
    ])
    def test_sample_joint_matches_choice(self, joint):
        # the draw is Generator.choice's over the flattened cells, bit for
        # bit, and stays so on a second draw from the law's held tables
        ours, numpys = rng(8), rng(8)
        for t in (40_000, 777):
            a, b = joint.sample_joint(t, ours)
            flat = numpys.choice(joint.n * joint.m, size=t,
                                 p=joint.probs.ravel())
            assert np.array_equal(a.letters, flat // joint.m)
            assert np.array_equal(b.letters, flat % joint.m)
        assert ours.random() == numpys.random()

    @pytest.mark.parametrize("probs", [
        [[0.5, -0.1], [0.3, 0.3]],
        [[0.25, 0.25], [0.25, 0.25 + 1e-6]],
        [0.5, 0.5],
        np.zeros((0, 3)),
        [[0.5, np.nan], [0.25, 0.25]],
    ], ids=["negative", "sum-off-by-1e-6", "1-d", "empty", "nan"])
    def test_bad_matrix_refused(self, probs):
        with pytest.raises(ValueError):
            JointDistribution(np.asarray(probs, dtype=np.float64))

    def test_probs_read_only(self):
        joint = JointDistribution(np.full((2, 3), 1 / 6))
        assert joint.probs.shape == (2, 3)
        with pytest.raises(ValueError):
            joint.probs[0, 0] = 1.0

    @pytest.mark.parametrize("joint", [
        product_joint(uniform_distribution(3), uniform_distribution(2)),
        diagonal_joint(4, 3),
    ], ids=["full", "sparse"])
    def test_sampler_holds_each_cells_row_and_column(self, joint):
        assert joint.sampler is joint.sampler  # built once, on the first read
        cells = np.flatnonzero(joint.probs)
        rows, cols = joint.sampler.cells
        assert np.array_equal(rows, cells // joint.m)
        assert np.array_equal(cols, cells % joint.m)

    def test_sample_joint_index_aligned(self):
        joint = diagonal_joint(10, 10)
        a, b = joint.sample_joint(500, rng(4))
        assert np.array_equal(b.letters, a.letters % 10)

    def test_marginals(self):
        joint = diagonal_joint(12, 4)
        assert np.allclose(joint.marginal_rows().probs, np.full(12, 1 / 12))
        assert np.allclose(joint.marginal_cols().probs, np.full(4, 1 / 4))

    @pytest.mark.parametrize("n, m", [(n, m) for n in range(2, 9)
                                      for m in range(2, n + 1)])
    def test_far_joint_distance_exact(self, n, m):
        # The mixture in exact fractions lies at exactly d; the float law
        # sits within 1e-12 of it, cell by cell and in its exact distance
        # from the product of its own exact marginals.
        bound = 2 - Fraction(2 * sum(x * x for x in
                                     [sum(i % m == j for i in range(n))
                                      for j in range(m)]), n * n)
        assert diagonal_distance(n, m) == float(bound)
        for d in (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, diagonal_distance(n, m)):
            if d > bound:
                continue
            w = Fraction(d) / bound
            diag = [[Fraction(i % m == j, n) for j in range(m)] for i in range(n)]
            cols = [sum(row[j] for row in diag) for j in range(m)]
            exact = [[(1 - w) * cols[j] / n + w * diag[i][j] for j in range(m)]
                     for i in range(n)]
            assert l1_to_product(exact) == Fraction(d)
            probs = far_joint(n, m, d).probs
            assert np.abs(probs - np.array(exact, dtype=float)).max() < 1e-12
            got = [[Fraction(float(x)) for x in row] for row in probs]
            assert abs(l1_to_product(got) - Fraction(d)) < 1e-12

    @pytest.mark.parametrize("n, m, d", [(20, 20, 0.0), (20, 20, -0.5),
                                         (20, 20, 1.91), (20, 20, math.nan),
                                         (1, 1, 0.5), (2, 2, 1.5)])
    def test_far_joint_refuses_unreachable_distance(self, n, m, d):
        with pytest.raises(ConfigError, match=f"{diagonal_distance(n, m):.4g}"):
            far_joint(n, m, d)


class TestAlphabetReductionLaws:
    def test_product_conditioning_exact(self):
        # for product joints the reduced pair is exactly equal: p-hat == q-hat
        r = rng(5)
        for n, m in [(8, 5), (12, 12), (6, 3)]:
            p1 = Distribution(r.dirichlet(np.ones(n)))
            p2 = Distribution(r.dirichlet(np.ones(m)))
            joint = product_joint(p1, p2)
            s_a = OccurrenceVector.from_letters(r.integers(0, n, 5), n)
            s_b = OccurrenceVector.from_letters(r.integers(0, m, 4), m)
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
            s_a = OccurrenceVector.from_letters(r.integers(0, n, n), n)
            s_b = OccurrenceVector.from_letters(r.integers(0, m, m), m)
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
        # ||p||^2 <= U and ell >= 100 U n  =>  mass of U in [ell/4n, 4 ell/n].
        # Half the letters weigh 0.1/n and half 1.9/n, so ||p||^2 n = 1.81; on
        # a uniform law every ell-subset has mass ell/n, in range at any ell.
        n, trials = 400, 500
        p = np.repeat([0.1 / n, 1.9 / n], n // 2)

        def in_range(ell):
            r = rng(7)
            masses = [p[r.choice(n, size=ell, replace=False)].sum()
                      for _ in range(trials)]
            return np.mean([ell / (4 * n) <= x <= 4 * ell / n for x in masses])
        assert math.ceil(100 * float(p @ p) * n) == 181
        assert in_range(181) >= 0.9
        assert in_range(1) < 0.9  # planted: a single letter is light half the time


class TestRepetitionPipeline:
    def setup_method(self):
        self.params = minimal_params()
        self.shared = SharedRandomness(11)

    def run_one(self, joint, seed):
        a, b = joint.sample_joint(self.params.t, rng(seed))
        tp = self.params.t_prime
        blocks_a = [a.letters[i * tp:(i + 1) * tp] for i in range(3)]
        blocks_b = [b.letters[i * tp:(i + 1) * tp] for i in range(3)]
        return run_repetition(blocks_a[0], blocks_a[1], blocks_b[0],
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
        s_a = OccurrenceVector.from_letters(r.integers(0, n, n), n)
        s_b = OccurrenceVector.from_letters(r.integers(0, m, m), m)
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


def reference_pair_statistics(perm, a, bp, bq, m_b: int, size: int):
    """The vote's statistics, one count per statistic: the collision norms
    of x1 and y1 (None below two pairs) and the exact ``||X2 - Y2||^2``."""
    i_p, i_q, j_p, j_q = (perm[q * size:(q + 1) * size] for q in range(4))
    x1, y1 = a[i_p] * m_b + bp[i_p], a[i_q] * m_b + bq[i_q]
    x2, y2 = a[j_p] * m_b + bp[j_p], a[j_q] * m_b + bq[j_q]
    norms = None
    if size >= 2:
        norms = tuple(collision_norm_estimate(np.unique(codes, return_counts=True)[1])
                      for codes in (x1, y1))
    top = int(max(x2.max(), y2.max())) + 1
    delta = ((np.bincount(x2, minlength=top) -
              np.bincount(y2, minlength=top)) ** 2).sum()
    return norms, float(delta)


def reference_repetition(rep, a_split, a_block, b_split, bp_block, bq_block,
                         params, shared):
    """One repetition on its own five streams ``(label, rep)``, as the
    per-repetition loop ran it: ``(lam, pool size, chi, delta, vote)``."""
    n, m = params.n, params.m
    sm_a = split_map(OccurrenceVector.from_letters(
        a_split[:min(params.t_prime, n)], n), n)
    a = split_samples(a_block, sm_a, shared.stream("alice-recast", rep))
    order, bounds = indices_set_vector(a, sm_a.total_letters)
    ell = min(params.ell_target, sm_a.total_letters)
    r = shared.stream("oneway-universe", rep)
    universe = r.choice(sm_a.total_letters, size=ell, replace=False)
    live = np.sort(universe[bounds[universe + 1] > bounds[universe]])
    cap = math.ceil(100.0 * params.t_prime * ell / n)
    if live.size > cap:
        live = np.sort(r.choice(live, size=cap, replace=False))
    keep = np.zeros(sm_a.total_letters, bool)
    keep[live] = True
    pool = order[np.repeat(keep, np.diff(bounds))]
    if pool.size < 4:
        return live.size, pool.size, True, 0.0, Decision.SAME
    sm_b = split_map(OccurrenceVector.from_letters(b_split[:m], m), m)
    b_p = split_samples(bp_block, sm_b, shared.stream("bob-recast-p", rep))[pool]
    b_q = split_samples(bq_block, sm_b, shared.stream("bob-recast-q", rep))[pool]
    perm = shared.stream("oneway-bob", rep).permutation(pool.size)
    size = min(params.subset_budget, pool.size // 4)
    norms, delta = reference_pair_statistics(perm, a[pool], b_p, b_q,
                                             sm_b.total_letters, size)
    chi = norms is None or norm_estimates_agree(*norms, size)
    tau = threshold_tau(max(1, live.size * m), size, params.eps_reduced)
    return (live.size, pool.size, chi, delta,
            Decision.SAME if chi and delta <= tau else Decision.FAR)


def reference_repetitions(alice, bob, params, shared):
    """Reference: the repetitions one at a time (the loop the batched
    kernel replaces)."""
    a, b = _blocks(alice, params), _blocks(bob, params)
    return [reference_repetition(i, a[i, 0], a[i, 1], *b[i], params, shared)
            for i in range(params.votes)]


def law_mismatches(new, old):
    """What tells two lists of ``(lam, pool size, chi, delta, vote)`` apart:
    KS p <= 0.01 on delta, pool size or lambda, or a FAR or chi rate more
    than 3 SE away."""
    found = []
    for name, column in (("lambda", 0), ("pool", 1), ("delta", 3)):
        if stats.ks_2samp([v[column] for v in new],
                          [v[column] for v in old]).pvalue <= 0.01:
            found.append(name)
    for name, flag in (("chi", lambda v: v[2]),
                       ("far", lambda v: v[4] is Decision.FAR)):
        if not rates_agree([flag(v) for v in new], [flag(v) for v in old]):
            found.append(name)
    return found


class TestPairVote:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_statistics_match_the_reference(self, data):
        # Bob's half on drawn pools of one to three repetitions: each one's
        # quarters, norm-gate arguments, delta and tau against the
        # one-repetition reference on the same positions and recast letters
        votes, m, n = (data.draw(st.integers(1, top)) for top in (3, 6, 8))
        width = data.draw(st.integers(m, 40))
        params = types.SimpleNamespace(
            n=n, m=m, t_prime=width, eps_reduced=1.0,
            subset_budget=data.draw(st.integers(1, 12)))
        n_a, n_b = n + min(width, n), 2 * m
        b = np.array(data.draw(st.lists(
            st.integers(0, m - 1), min_size=3 * votes * width,
            max_size=3 * votes * width))).reshape(votes, 3, width)
        pools = [np.array(data.draw(st.lists(
            st.integers(0, width - 1), unique=True, max_size=width)),
            dtype=np.int64) for _ in range(votes)]
        letters = [np.array(data.draw(st.lists(
            st.integers(0, n_a - 1), min_size=p.size, max_size=p.size)),
            dtype=np.int64) for p in pools]
        lam = np.array(data.draw(st.lists(st.integers(0, 30), min_size=votes,
                                          max_size=votes)))
        shared = SharedRandomness(data.draw(st.integers(0, 2 ** 32)))
        recast, seen = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(independence, "split_samples", lambda *args: (
                recast.append(split_samples(*args)) or recast[-1]))
            mp.setattr(independence, "norm_estimates_agree",
                       lambda x, y, t: seen.append((x, y, t)) or True)
            first, size, chi, delta, tau = _bob_half(
                b, np.repeat(np.arange(votes), [p.size for p in pools]),
                np.concatenate(pools), np.concatenate(letters), lam, params,
                shared)
        # the recasts at the chosen positions, spread over the pool
        b_p, b_q = np.full((2, sum(p.size for p in pools)), -1)
        rep = np.repeat(np.arange(votes), [p.size for p in pools])[first]
        b_p[first], b_q[first] = (x - n_b * rep for x in recast)
        edges = np.cumsum([0] + [p.size for p in pools])
        chosen_edges = np.cumsum(np.r_[0, 4 * size])
        expected = []
        for r in range(votes):
            lo, hi = edges[r], edges[r + 1]
            chosen = first[chosen_edges[r]:chosen_edges[r + 1]] - lo
            assert size[r] == min(params.subset_budget, (hi - lo) // 4)
            assert sorted(set(chosen.tolist())) == sorted(chosen.tolist())
            assert chosen.size == 0 or 0 <= chosen.min() <= chosen.max() < hi - lo
            assert tau[r] == threshold_tau(max(1, lam[r] * m), size[r], 1.0)
            if size[r] == 0:  # fewer than four samples: the repetition abstains
                assert (chi[r], delta[r], delta[r] <= tau[r]) == (True, 0, True)
                continue
            norms, reference = reference_pair_statistics(
                chosen, letters[r], b_p[lo:hi], b_q[lo:hi], n_b, size[r])
            assert delta[r] == reference
            if norms is not None:
                expected.append((*norms, size[r]))
        assert seen == expected


class TestBatchedLaw:
    def test_batched_kernel_law_matches_per_repetition_loop(self):
        # C5's cell, 300 instances per family: the batched repetitions
        # against the per-repetition loop they replace, on the same
        # instances, so only the random streams differ.  The same check must
        # catch a universe one letter short and a q block recast from the p
        # block's letters.
        params = minimal_params()
        uniform = uniform_distribution(20)
        families = {"product": product_joint(uniform, uniform),
                    "diagonal": diagonal_joint(20, 20),
                    "far": far_joint(20, 20, 0.5)}

        def kernel(used=params, q_block=2):
            def run(alice, bob, shared):
                a, b = _blocks(alice, params), _blocks(bob, params)
                return [(r.lam, r.pool.size, r.chi, r.delta, r.vote)
                        for r in _repetitions(*_evaluate(
                            a, b[:, [0, 1, q_block]], used, shared))]
            return run

        def votes(run, names=tuple(families)):
            out = {}
            for name in names:
                base = 70_000 + 1_000 * list(families).index(name)
                out[name] = []
                for trial in range(base, base + 300):
                    a, b = families[name].sample_joint(params.t, rng(trial))
                    out[name] += run(a.letters, b.letters,
                                     SharedRandomness(trial))
            return out

        short = types.SimpleNamespace(**{
            name: getattr(params, name)
            for name in ("n", "m", "t_prime", "subset_budget", "eps_reduced")},
            ell_target=params.ell_target - 1)
        old = votes(lambda a, b, shared: reference_repetitions(a, b, params,
                                                                shared))
        new = votes(kernel())
        for name in families:
            assert law_mismatches(new[name], old[name]) == [], name
        assert law_mismatches(votes(kernel(short), ["product"])["product"],
                              old["product"]) != []
        assert law_mismatches(votes(kernel(q_block=1), ["far"])["far"],
                              old["far"]) != []


class TestAlicePool:
    """Alice's half in law against the sampler it replaced in IT2p:
    lambda = min(usi_sample(n_a, |Gamma|, ell), cap), then a uniform
    lambda-subset of Gamma."""

    def compare(self, params, split_block, block, trials=4000):
        n = params.n
        sm_a = split_map(OccurrenceVector.from_letters(
            split_block[:min(params.t_prime, n)], n), n)
        # the block avoids the split letters, so its recast, Gamma, is fixed
        gamma = np.unique(sm_a.offsets[block])
        n_a = sm_a.total_letters
        ell = min(params.ell_target, n_a)
        cap = math.ceil(100.0 * params.t_prime * ell / n)
        r = rng(78)
        # one repetition per trial, all in one call of the kernel
        _, live, rep, at, letters = _alice_half(
            np.tile(split_block, (trials, 1)), np.tile(block, (trials, 1)),
            params, SharedRandomness(77))
        assert live.shape == (trials, n_a)
        # the pool's letters are exactly the live ones, repetition by
        # repetition, and each is the recast of its sample's letter
        assert np.array_equal(
            np.bincount(rep * n_a + letters, minlength=live.size) > 0,
            live.ravel())
        assert np.array_equal(np.searchsorted(sm_a.offsets, letters, "right") - 1,
                              block[at])
        lam = np.zeros((2, trials), dtype=np.int64)
        hits = np.zeros((2, n_a))
        lam[0], hits[0] = live.sum(axis=1), live.sum(axis=0)
        for i in range(trials):
            lam[1, i] = min(usi_sample(n_a, gamma.size, ell, r), cap)
            hits[1, r.choice(gamma, size=lam[1, i], replace=False)] += 1
        hist = np.array([np.bincount(row, minlength=ell + 1) for row in lam])
        for table in (hist, hits):  # chi-square p > 0.01 between the two
            _, pvalue, _, _ = stats.chi2_contingency(
                table[:, table.sum(axis=0) > 0])
            assert pvalue > 0.01
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

    def test_min_samples_formula(self):
        # C k (n^(2/3) m^(1/3) eps^(-4/3) + sqrt(nm) eps^(-2)), C = 100
        assert ITParams(n=20, m=20, t=10 ** 6, eps=1.0, k=2).min_samples() == \
            pytest.approx(200 * (20 + 20), rel=1e-12)
        assert ITParams(n=100, m=50, t=10 ** 8, eps=0.5,
                        k=3).min_samples() == pytest.approx(
            300 * (100 ** (2 / 3) * 50 ** (1 / 3) * 0.5 ** (-4 / 3)
                   + math.sqrt(5000) * 4), rel=1e-12)

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

    def test_charged_the_params_cost(self):
        # IT2p sends the 16-byte seed and is charged its closed-form cost;
        # the one-way variant is plaintext and charged none
        params = minimal_params()
        a, b = diagonal_joint(20, 20).sample_joint(params.t, rng(7))
        tr = it2p(a, b, params, 0).transcript
        assert (tr.total_bits, tr.modeled_secure_bits) == \
            (8 * (4 + 16), params.secure_bits)
        assert one_way_it2p(a, b, params, 0).transcript.modeled_secure_bits == 0


    @pytest.mark.parametrize("k", [2, 4])
    def test_a_row_opens_at_most_five_streams(self, k, monkeypatch):
        # each of the five labels opens one stream per row, whatever the
        # vote count, and the row path calls no np.unique
        params = minimal_params(k=k)
        a, b = diagonal_joint(20, 20).sample_joint(params.t, rng(9))
        opened = []
        stream = SharedRandomness.stream
        monkeypatch.setattr(SharedRandomness, "stream", lambda self, *args: (
            opened.append(args) or stream(self, *args)))

        def no_unique(*args, **kwargs):
            raise AssertionError("np.unique on the row path")
        monkeypatch.setattr(np, "unique", no_unique)
        for tester in (it2p, one_way_it2p):
            opened.clear()
            assert tester(a, b, params, 0).decision is Decision.FAR
            assert len(opened) <= 5 and len(set(opened)) == len(opened)


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
            _decode_oneway(payload, 2, 6, 26)
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
        oneway_rep(1, [0, 1], [26, 26]),
        oneway_rep(2, [0, 1], [3, 65535]),
    ], ids=["empty", "short-header", "no-pool-size", "truncated-body",
            "trailing", "index-ge-t-prime", "pool-below-lambda",
            "repeated-index", "one-repeated-index", "letters-below-lambda",
            "letters-above-lambda", "letter-eq-alphabet", "letter-ge-alphabet"])
    def test_bad_payload_rejected(self, payload):
        # n = 20 and t' = 6: Alice's split alphabet has 20 + 6 = 26 letters
        with pytest.raises(ProtocolError):
            _decode_oneway(payload, 1, 6, 26)

    def test_letter_bound_is_alice_split_alphabet(self):
        # Alice splits her n letters by the first min(t', n) of a block
        params = ITParams(n=20, m=20, t=8000, eps=1.0, k=2)
        tp, n = params.t_prime, params.n
        a, b = product_joint(uniform_distribution(20),
                             uniform_distribution(20)).sample_joint(8000, rng(4))
        reps = it2p_votes(a, b, params, SharedRandomness(4))
        assert {r.sm_a.total_letters for r in reps} == {n + min(tp, n)}
        top = oneway_rep(1, [0], [n + min(tp, n) - 1])
        assert _decode_oneway(top, 1, tp, n + min(tp, n))[0][0] == 1

    def test_split_alphabet_of_2_16_letters_or_more(self):
        # n = 33000 and t' >= n: Alice's split alphabet has 66000 letters,
        # so her letters go out as <u4, and the row runs instead of skipping
        params = minimal_params(n=33000, m=2, k=1)
        tp = params.t_prime
        assert params.n + min(tp, params.n) == 66000
        top = struct.pack("<IIII", 1, 1, 0, 65999)  # lam, pool size, index, letter
        assert _decode_oneway(top, 1, tp, 66000)[0][2].tolist() == [65999]
        with pytest.raises(ProtocolError):  # a <u2 letter field is truncated
            _decode_oneway(oneway_rep(1, [0], [65535]), 1, tp, 66000)
        for joint in (diagonal_joint(33000, 2),
                      product_joint(uniform_distribution(33000),
                                    uniform_distribution(2))):
            a, b = joint.sample_joint(params.t, rng(8))
            v = one_way_it2p(a, b, params, 8)
            (rep,) = it2p_votes(a, b, params, SharedRandomness(8))
            assert (v.decision, v.lambda_mean) == \
                (it2p(a, b, params, 8).decision, float(rep.lam)) and rep.lam
            # one frame: lam and pool size, then 4 bytes per index and letter
            assert v.transcript.messages == [("alice", 4 + 8 + 8 * rep.pool.size)]

    @given(st.lists(st.one_of(
               st.binary(max_size=24),
               st.builds(lambda lam, pool: oneway_rep(lam, pool, pool),
                         st.integers(0, 4),
                         st.lists(st.integers(0, 9), max_size=6))),
               max_size=3).map(b"".join),
           st.integers(1, 3), st.integers(1, 8), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_payload_raises_only_protocol_error(self, payload, reps,
                                                       t_prime, alphabet):
        try:
            decoded = _decode_oneway(payload, reps, t_prime, alphabet)
        except ProtocolError:
            return
        assert len(decoded) == reps
        for lam, pool, letters in decoded:
            assert pool.size == letters.size >= lam
            assert pool.size == 0 or pool.max() < t_prime
            assert letters.size == 0 or letters.max() < alphabet
            assert np.unique(pool).size == pool.size
            assert np.unique(letters).size == lam
