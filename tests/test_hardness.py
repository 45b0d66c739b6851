"""Hard-instance generators and their statistical validators."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from disttest2p import hardness
from disttest2p.harness import ConfigError
from disttest2p.hardness import (
    BHHInstance,
    GHDInput,
    GHDReductionParams,
    bhh_generate,
    bhh_reduce,
    default_beta,
    ghd_generate_inputs,
    ghd_reduce,
    ghd_reduce_detailed,
    ghd_reference_sampler,
    poisson_multinomial_tv_check,
    poisson_pmf,
)


def rng(seed=0):
    return np.random.default_rng(seed)


FEASIBLE = dict(n=2000, t=62, m=32, beta=8.0, l_big=62)


class TestPoissonPmf:
    def test_dense_rate_example(self):
        assert poisson_pmf(0, 0.1) == pytest.approx(math.exp(-0.1))
        assert poisson_pmf(0, 0.1) == pytest.approx(0.90484, abs=5e-6)

    def test_sums_to_one(self):
        assert sum(poisson_pmf(i, 2.5) for i in range(60)) == pytest.approx(1.0)


class TestGHDInputs:
    def test_same_case_small(self):
        inp = ghd_generate_inputs(4, "SAME", rng(1))
        assert inp.x.sum() == 2 and inp.y.sum() == 2
        assert inp.distance == 2  # exactly m/2

    def test_far_case_bracket_at_512(self):
        # Claim-style beta at m=512 is sqrt(256)/4 = 4
        assert default_beta(512) == 4.0
        for seed in range(20):
            inp = ghd_generate_inputs(512, "FAR", rng(seed))
            gap = inp.distance - 256
            assert math.ceil(4.0) <= gap <= 2 * math.ceil(4.0)

    def test_weights_always_half(self):
        r = rng(2)
        for _ in range(30):
            m = int(r.integers(2, 40)) * 4
            case = "SAME" if r.integers(2) else "FAR"
            try:
                inp = ghd_generate_inputs(m, case, r)
            except ValueError:
                continue  # FAR infeasible at tiny m
            assert inp.x.sum() == m // 2 and inp.y.sum() == m // 2

    def test_infeasible_far_rejected(self):
        # beta < 1 leaves no even gap inside [beta, 2 beta]
        with pytest.raises(ValueError):
            ghd_generate_inputs(8, "FAR", rng(), beta=0.5)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            ghd_generate_inputs(6, "SAME", rng())


class TestReductionParams:
    def test_default_formula_out_of_regime(self):
        # the asymptotic defaults go negative at desk scale and must refuse
        with pytest.raises(ConfigError):
            GHDReductionParams(n=2000, t=62)

    def test_feasible_overrides_accepted(self):
        params = GHDReductionParams(**FEASIBLE)
        assert params.d == 200
        assert params.k_cap == math.ceil(3 * math.log(2000))

    def test_beta_above_quarter_m_rejected(self):
        with pytest.raises(ConfigError):
            GHDReductionParams(n=2000, t=62, m=32, beta=9.0, l_big=62)

    @pytest.mark.parametrize("override", [
        {"big_c": 0.0}, {"big_c": -8.0}, {"big_c": math.nan},
        {"beta": -1.0}, {"beta": math.nan}, {"beta": math.inf},
        {"m": math.nan}, {"l_big": math.inf}, {"m": 32.5}, {"l_big": 61.5},
    ])
    def test_bad_constants_refused(self, override):
        with pytest.raises(ConfigError):
            GHDReductionParams(**{**FEASIBLE, **override})


def scalar_rate_check(n, t, m, beta, l_big):
    """The step-rate check as a scalar loop, one pmf call per use, then the
    far-gap check: the reference the rate table is held to.  Returns the
    refusal or None.

    The pair rate is multiplied as the reduction draws it, m_c s (D_i D_j).
    Checked as (m_c s D_i) D_j, it differs in the last bit when D_i D_j is
    subnormal, and at n=13, t=821, m=48, beta=3.4455..., l_big=1 such a
    check refuses on a cell whose drawn rate is not negative."""
    d, k = n // 10, math.ceil(3 * math.log(n))

    def dense(i):
        return poisson_pmf(i, t / (2.0 * d))

    def large(i):
        return poisson_pmf(i, t / (2.0 * l_big))

    m_c = m / 4.0 - beta
    scale = d / beta
    dsum = {i: sum(dense(i) * dense(j) for j in range(1, k + 1))
            for i in range(1, k + 1)}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            rate = (l_big * large(i) * large(j)
                    - m_c * scale * (dense(i) * dense(j)))
            if rate < 0:
                return f"negative pair rate at (i,j)=({i},{j})"
        one_sided = l_big * large(i) * large(0) - m / 4.0 * scale * dsum[i]
        if one_sided < 0:
            return f"negative one-sided rate at (i,j)=({i},0)"
    if not any(gap % 2 == 0 and 2 <= gap <= m // 2
               for gap in range(math.ceil(beta), math.floor(2 * beta) + 1)):
        return "no FAR case"
    return None


def scalar_rates(params, delta):
    """Each rate the reduction draws, per cell, as a scalar formula with the
    reduction's order of multiplication: the reference for the table."""
    k, d, l_big = params.k_cap, params.d, params.l_big
    dpm = [poisson_pmf(i, params.t / (2.0 * d)) for i in range(k + 1)]
    lpm = [params.large_pmf(i) for i in range(k + 1)]
    dsum = [sum(dpm[i] * dpm[j] for j in range(1, k + 1)) for i in range(k + 1)]
    m_c = params.m / 4.0 - params.beta
    scale = d / params.beta
    cells = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            dd = dpm[i] * dpm[j]
            cells[(i, j)] = dict(
                shared=m_c * scale * dd, dense=(params.beta - delta) * scale * dd,
                topup=l_big * lpm[i] * lpm[j] - m_c * scale * dd)
        one_sided = dict(shared=params.m / 4.0 * scale * dsum[i],
                         dense=delta * scale * dsum[i],
                         topup=(l_big * lpm[i] * lpm[0]
                                - params.m / 4.0 * scale * dsum[i]))
        cells[(i, 0)] = dict(one_sided, solo=d * dpm[i] * dpm[0])
        cells[(0, i)] = dict(one_sided, solo=d * dpm[0] * dpm[i])
    return cells


def scalar_reduce(inp, params, rng):
    """The reduction as a scalar loop, one ``rng.poisson`` call per table and
    cell, followed by the letter layout and one relabeling: the reference the
    array draw is held to.  Returns a, b, the total and large count arrays
    and the occupied letters, or raises on the letter budget."""
    k, delta = params.k_cap, int(inp.delta)
    rates = [r.tolist() for r in (params.shared_rates,
                                  params.step1_rates(params.beta - delta, delta),
                                  params.solo_rates, params.topup_rates)]
    drawn = [[[0] * (k + 1) for _ in range(k + 1)] for _ in rates]
    for i in range(1, k + 1):
        for j in range(1, k + 1):  # steps 1 and 3; step 2 is one-sided only
            for s in (0, 1, 3):  # shared, dense, top-up
                drawn[s][i][j] = rng.poisson(rates[s][i][j])
        for rate, count in zip(rates, drawn):  # steps 1, 2 and 4, one-sided
            count[i][0] = rng.poisson(rate[i][0])
            count[0][i] = rng.poisson(rate[0][i])
    drawn = np.array(drawn, dtype=np.int64)  # shared, dense, solo, top-up
    total, large = drawn.sum(axis=0), drawn[0] + drawn[3]
    occupied = int(total.sum())
    if occupied > params.n:
        raise ConfigError(f"more than n={params.n}")
    ab = np.zeros((2, params.n), dtype=np.int64)
    ab[:, :occupied] = np.repeat(np.indices(total.shape).reshape(2, -1),
                                 total.ravel(), axis=1)
    a, b = ab[:, rng.permutation(params.n)]
    return a, b, total, large, occupied


class TestRateTable:
    @settings(max_examples=60, deadline=None)
    @example(n=10, t=795, quarter_m=1, beta_frac=0.25, l_big=1, delta_frac=0.0)
    @given(n=st.integers(10, 10 ** 5), t=st.integers(1, 10 ** 4),
           quarter_m=st.integers(1, 64), beta_frac=st.floats(0.01, 1.0),
           l_big=st.integers(1, 10 ** 4), delta_frac=st.floats(0.0, 1.0))
    def test_table_matches_scalar_loop(self, n, t, quarter_m, beta_frac, l_big,
                                       delta_frac):
        m, beta = 4 * quarter_m, beta_frac * quarter_m
        expected = scalar_rate_check(n, t, m, beta, l_big)
        try:
            params = GHDReductionParams(n=n, t=t, m=m, beta=beta, l_big=l_big)
        except ConfigError as err:
            assert expected is not None and str(err).startswith(expected + ":")
            return
        assert expected is None
        delta = math.floor(delta_frac * beta)
        tables = dict(shared=params.shared_rates, solo=params.solo_rates,
                      topup=params.topup_rates,
                      dense=params.step1_rates(params.beta - delta, delta))
        for cell, rates in scalar_rates(params, delta).items():
            for name, rate in rates.items():
                assert tables[name][cell] == rate, (cell, name)

    def test_pmfs_computed_once_per_params(self):
        with mock.patch.object(hardness, "poisson_pmf",
                               side_effect=poisson_pmf) as pmf:
            params = GHDReductionParams(**FEASIBLE)
            assert pmf.call_count == 2 * (params.k_cap + 1)
            r = rng(22)
            ghd_reduce(ghd_generate_inputs(32, "FAR", r, beta=8.0), params, r)
            assert pmf.call_count == 2 * (params.k_cap + 1)

    def test_table_is_read_only(self):
        params = GHDReductionParams(**FEASIBLE)
        with pytest.raises(ValueError):
            params.topup_rates[1, 1] = -1.0

    @pytest.mark.parametrize("n,t,m,beta", [
        (10, 100, 4, 1.0), (2000, 62, 32, 8.0), (10 ** 5, 4309, 32, 8.0)])
    def test_draw_order_cells(self, n, t, m, beta):
        params = GHDReductionParams(n=n, t=t, m=m, beta=beta, l_big=t)
        k, order = params.k_cap, params.draw_order
        assert not order.flags.writeable
        assert order.size == np.unique(order).size == 3 * k * k + 8 * k
        table, i, j = np.unravel_index(order, (4, k + 1, k + 1))
        assert not np.any((i == 0) & (j == 0))
        assert not np.any((table == 2) & (i > 0) & (j > 0))  # solo pairs


class TestGHDReduce:
    @settings(max_examples=150, deadline=None)
    @example(n=2000, t=62, quarter_m=8, beta_frac=1.0, l_big=62, case="SAME",
             seed=0)
    @example(n=2000, t=62, quarter_m=8, beta_frac=1.0, l_big=62, case="FAR",
             seed=1)
    @given(n=st.integers(10, 10 ** 5), t=st.integers(1, 10 ** 4),
           quarter_m=st.integers(1, 64), beta_frac=st.floats(0.01, 1.0),
           l_big=st.integers(1, 10 ** 4), case=st.sampled_from(["SAME", "FAR"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_array_draw_matches_scalar_loop(self, n, t, quarter_m, beta_frac,
                                            l_big, case, seed):
        m, beta = 4 * quarter_m, beta_frac * quarter_m
        try:
            params = GHDReductionParams(n=n, t=t, m=m, beta=beta, l_big=l_big)
            inp = ghd_generate_inputs(m, case, rng(seed), beta=beta)
        except (ConfigError, ValueError):  # refused params, or no far gap
            return
        r_array, r_scalar = rng(seed), rng(seed)
        try:
            a, b, total, large, occupied = scalar_reduce(inp, params, r_scalar)
        except ConfigError:
            with pytest.raises(ConfigError, match="more than n="):
                ghd_reduce_detailed(inp, params, r_array)
        else:
            a_vec, b_vec, diag = ghd_reduce_detailed(inp, params, r_array)
            assert np.array_equal(a_vec.counts, a)
            assert np.array_equal(b_vec.counts, b)
            assert np.array_equal(diag.total_counts, total)
            assert np.array_equal(diag.large_counts, large)
            assert diag.occupied_letters == occupied
        assert r_array.random() == r_scalar.random()

    def test_letter_budget_and_totals(self):
        params = GHDReductionParams(**FEASIBLE)
        r = rng(3)
        for seed in range(10):
            inp = ghd_generate_inputs(32, "SAME", rng(100 + seed), beta=8.0)
            a, b, diag = ghd_reduce_detailed(inp, params, r)
            assert a.n == params.n and b.n == params.n
            assert diag.occupied_letters <= params.n
            assert a.t == sum(i * c for (i, j), c in diag.total.items())

    def test_shared_permutation_preserves_pairs(self):
        params = GHDReductionParams(**FEASIBLE)
        inp = ghd_generate_inputs(32, "FAR", rng(5), beta=8.0)
        a, b, diag = ghd_reduce_detailed(inp, params, rng(6))
        pairs = {}
        for i, j in zip(a.counts, b.counts):
            if i or j:
                pairs[(int(i), int(j))] = pairs.get((int(i), int(j)), 0) + 1
        assert pairs == diag.total

    def test_large_counts_match_planted_poisson_law(self):
        # analysis identity: large (i,j) items ~ Poi(l * L(i) * L(j))
        params = GHDReductionParams(**FEASIBLE)
        runs = 400
        cells = [(1, 1), (1, 2), (2, 1), (1, 0)]
        sums = {c: 0 for c in cells}
        r = rng(7)
        for k in range(runs):
            inp = ghd_generate_inputs(32, "SAME", r, beta=8.0)
            _, _, diag = ghd_reduce_detailed(inp, params, r)
            for c in cells:
                sums[c] += diag.large.get(c, 0)
        for (i, j) in cells:
            lam = params.l_big * params.large_pmf(i) * params.large_pmf(j)
            mean = sums[(i, j)] / runs
            assert abs(mean - lam) <= 3 * math.sqrt(lam / runs) + 1e-9

    @pytest.mark.parametrize("case,distance,refusal", [
        ("SAME", 32, "same input"), ("SAME", 0, "same input"),
        ("far", 32, "SAME or FAR"), ("far", 0, "SAME or FAR"),
    ])  # distance 32 is gap +16 (delta 8), distance 0 is gap -16
    def test_case_label_checked(self, case, distance, refusal):
        # unchecked, the delta = 8 inputs would be reduced with far rates,
        # and at delta = -8 numpy would refuse a negative rate
        params = GHDReductionParams(**FEASIBLE)
        x = np.repeat([1, 0], 16)
        y = 1 - x if distance else x.copy()
        inp = GHDInput(x, y, case, 8.0)
        assert inp.distance == distance
        with pytest.raises(ConfigError, match=refusal):
            ghd_reduce(inp, params, rng())

    def test_mismatched_m_rejected(self):
        params = GHDReductionParams(**FEASIBLE)
        inp = ghd_generate_inputs(64, "SAME", rng(8))
        with pytest.raises(ConfigError):
            ghd_reduce(inp, params, rng())


class TestReferenceSampler:
    def test_expected_total_is_t(self):
        params = GHDReductionParams(**FEASIBLE)
        r = rng(9)
        totals = [ghd_reference_sampler("SAME", params, 0, r)[0].t
                  for _ in range(300)]
        assert abs(np.mean(totals) - params.t) <= 3 * math.sqrt(params.t / 300)

    def test_same_case_supports_align(self):
        params = GHDReductionParams(**FEASIBLE)
        a, b = ghd_reference_sampler("SAME", params, 0, rng(10))
        # same supports: a letter occupied by only one side is a sampling
        # artifact, not a support mismatch; verify via many draws
        heavy_a = set(np.nonzero(a.counts >= 1)[0].tolist())
        heavy_b = set(np.nonzero(b.counts >= 1)[0].tolist())
        assert len(heavy_a | heavy_b) <= params.d + params.l_big

    def test_far_case_distance(self):
        # planted distance is delta / beta: delta = beta gives distance 1
        params = GHDReductionParams(**FEASIBLE)
        d, l = params.d, params.l_big
        for delta in (4, 6, 8):
            overlap = round(d * (params.beta - delta) / params.beta)
            probs_a = np.zeros(params.n)
            probs_b = np.zeros(params.n)
            probs_a[:d] = 1 / (2 * d)
            probs_b[:overlap] = 1 / (2 * d)
            probs_b[d:d + (d - overlap)] = 1 / (2 * d)
            probs_a[2 * d - overlap:2 * d - overlap + l] = 1 / (2 * l)
            probs_b[2 * d - overlap:2 * d - overlap + l] = 1 / (2 * l)
            distance = np.abs(probs_a - probs_b).sum()
            assert distance == pytest.approx(delta / params.beta)


class TestBHH:
    def test_parity_invariant(self):
        for b in (0, 1):
            inst = bhh_generate(20, b, rng(11 + b))
            assert np.all((inst.x ^ inst.x[inst.mate]) == b)

    def test_balanced_bits(self):
        for b in (0, 1):
            inst = bhh_generate(20, b, rng(13 + b))
            assert inst.x.sum() == 10

    def test_b0_needs_multiple_of_four(self):
        with pytest.raises(ValueError):
            bhh_generate(6, 0, rng())

    def test_b1_joint_uniform(self):
        inst = BHHInstance(np.array([0, 1, 0, 1]), np.array([1, 0, 3, 2]), 1)
        alice, bob = bhh_reduce(inst, 10 ** 5, rng(14))
        cells = np.bincount(alice.letters * 4 + bob.letters, minlength=16)
        assert stats.chisquare(cells).pvalue > 0.01

    def test_b0_support_exact(self):
        inst = BHHInstance(np.array([0, 0, 1, 1]), np.array([1, 0, 3, 2]), 0)
        alice, bob = bhh_reduce(inst, 10 ** 5, rng(15))
        mismatched = inst.x[alice.letters] != inst.x[bob.letters]
        assert int(mismatched.sum()) == 0

    def test_marginals_uniform(self):
        for b in (0, 1):
            inst = bhh_generate(4, b, rng(16 + b))
            alice, bob = bhh_reduce(inst, 10 ** 5, rng(18 + b))
            pa = stats.chisquare(np.bincount(alice.letters, minlength=4)).pvalue
            pb = stats.chisquare(np.bincount(bob.letters, minlength=4)).pvalue
            assert pa > 0.01 and pb > 0.01


class TestTVCheck:
    def test_degenerate_zero(self):
        assert poisson_multinomial_tv_check(10, [0.0], 1000, rng(19)) == 0.0

    def test_binomial_vs_poisson(self):
        tv = poisson_multinomial_tv_check(1000, [1e-3], 10 ** 5, rng(20))
        assert tv < 0.02

    def test_decreasing_in_n_at_fixed_mean(self):
        r = rng(21)
        values = [poisson_multinomial_tv_check(n, [1.0 / n], 4 * 10 ** 4, r)
                  for n in (100, 1000, 10000)]
        assert values[-1] < values[0]
