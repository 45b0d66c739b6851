"""Hard-instance generators and their statistical validators."""

import math

import numpy as np
import pytest
from scipy import stats

from disttest2p.harness import ConfigError
from disttest2p.hardness import (
    BHHInstance,
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


class TestGHDReduce:
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
