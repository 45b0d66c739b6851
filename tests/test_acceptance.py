"""Acceptance criteria, one test per criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s``) and then asserts, so the suite both reports and gates.
Criteria are statistical at fixed seeds: every tolerance below is the one
stated in the acceptance list, nothing is recalibrated at test time.
"""

import math

import numpy as np
import pytest
from scipy import stats

from disttest2p.closeness import (
    CTParams,
    SecureCTParams,
    capped_split_adjustment,
    ct2p_insecure,
    ct2p_secure_reference,
    distinguish,
    far_instance,
    secure_reference_f,
    threshold_tau,
)
from disttest2p.cli import ExperimentConfig, rows_to_csv, run_experiment
from disttest2p.dist import (
    Distribution,
    OccurrenceVector,
    sample,
    split_map,
    split_occurrence_matrix,
    uniform_distribution,
)
from disttest2p.harness import Decision
from disttest2p.hardness import (
    GHDReductionParams,
    bhh_generate,
    bhh_reduce,
    ghd_generate_inputs,
    ghd_reduce,
    ghd_reduce_detailed,
)
from disttest2p.independence import (
    ITParams,
    diagonal_joint,
    it2p,
    product_joint,
)
from laws import (
    conditioned,
    conditioned_rows,
    ghd_reference_sampler,
    l1_distance,
    l2_norm_sq,
    poisson_multinomial_tv_check,
    poisson_sample,
    split_distribution,
    split_joint,
    split_occurrences_from_matrix,
    usi_sample,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def rng(seed):
    return np.random.default_rng(seed)


def test_c1_split_distribution_laws():
    # splitting preserves ell_1 exactly; mean split norm^2 stays below 1.1/m
    r = rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(r.integers(2, 21))
        p = Distribution(r.dirichlet(np.ones(n)))
        q = Distribution(r.dirichlet(np.ones(n)))
        s = OccurrenceVector.from_letters(r.integers(0, n, int(r.integers(0, 11))), n)
        sm = split_map(s, n)
        drift = abs(l1_distance(p, q)
                    - l1_distance(split_distribution(p, sm),
                                  split_distribution(q, sm)))
        worst = max(worst, drift)
    l1_ok = worst < 1e-12

    n, m = 100, 50
    p = Distribution(r.dirichlet(np.ones(n)))
    norms = []
    for _ in range(500):
        size = poisson_sample(m, r)
        s = OccurrenceVector.from_letters(sample(p, size, r).letters, n)
        norms.append(l2_norm_sq(split_distribution(p, split_map(s, n))))
    mean_norm = float(np.mean(norms))
    norm_ok = mean_norm <= 1.1 / m
    report("C1 split-distribution laws", l1_ok and norm_ok,
           f"max l1 drift {worst:.2e} (tol 1e-12); "
           f"mean split norm^2 {mean_norm:.5f} <= {1.1 / m:.5f}")


def test_c2_decision_rule_accuracy():
    # threshold_tau/distinguish classify synthetic occurrence pairs built from
    # known same/far instances, with alpha-scale multiplicative noise applied.
    n = 200
    t = math.ceil(8 * n ** (2 / 3))
    eps = 1.0
    params = CTParams(n=n, t=t, eps=eps)
    tau = threshold_tau(n, t, eps)
    uniform = uniform_distribution(n)
    far = far_instance(n, eps)
    r = rng(202)
    correct = 0
    trials = 200
    for trial in range(trials):
        truth = Decision.SAME if trial % 2 == 0 else Decision.FAR
        q = uniform if truth is Decision.SAME else far
        x = np.bincount(sample(uniform, t, r).letters, minlength=n)
        y = np.bincount(sample(q, t, r).letters, minlength=n)
        delta = float(((x - y) ** 2).sum())
        noisy = delta * (1.0 + r.uniform(-params.alpha, params.alpha))
        correct += distinguish(noisy, tau) is truth
    accuracy = correct / trials
    report("C2 decision rule", accuracy >= 0.80,
           f"accuracy {accuracy:.3f} >= 0.80 over {trials} trials "
           f"(alpha={params.alpha:.4f})")


def test_c3_ct2p_end_to_end():
    n, eps = 200, 1.0
    t = math.ceil(8 * n ** (2 / 3))
    params = CTParams(n=n, t=t, eps=eps)
    uniform = uniform_distribution(n)
    far = far_instance(n, eps)
    same_hits = far_hits = 0
    trials = 200
    for trial in range(trials):
        r = rng(30_000 + trial)
        a = sample(uniform, t, r)
        b = sample(uniform, t, r)
        c = sample(far, t, r)
        same_hits += ct2p_insecure(a, b, params, trial).decision is Decision.SAME
        far_hits += ct2p_insecure(a, c, params, trial).decision is Decision.FAR
    same_rate, far_rate = same_hits / trials, far_hits / trials

    cfg = ExperimentConfig(protocol="closeness", ns=(n,), ts=(t, 2 * t, 4 * t),
                           epss=(eps,), trials=10, seed=33)
    points = {}
    for row in run_experiment(cfg):
        if row.status == "summary" and row.family == "same":
            points[row.t] = float(row.plaintext_bits)
    slope = np.polyfit(np.log([t, 2 * t, 4 * t]),
                       np.log([points[t], points[2 * t], points[4 * t]]), 1)[0]
    ok = same_rate >= 0.70 and far_rate >= 0.70 and -2.6 <= slope <= -1.4
    report("C3 CT2p end-to-end", ok,
           f"same {same_rate:.3f}, far {far_rate:.3f} (>= 0.70); "
           f"bits-vs-t slope {slope:.2f} in [-2.6, -1.4]")


def test_c4_secure_reference_closeness():
    # identity: ||A'-B'||^2 + delta_1 == ||A_S-B_S||^2, exact on 100 instances
    r = rng(404)
    identity_ok = True
    for _ in range(100):
        n = int(r.integers(1, 31))
        a = OccurrenceVector(r.integers(0, 12, n))
        b = OccurrenceVector(r.integers(0, 12, n))
        s_a = OccurrenceVector.from_letters(r.integers(0, n, int(r.integers(0, 8))), n)
        s_b = OccurrenceVector.from_letters(r.integers(0, n, int(r.integers(0, 8))), n)
        level = int(r.integers(1, 10))
        s = OccurrenceVector(s_a.counts + s_b.counts)
        buckets = 1 + s.counts
        am = split_occurrence_matrix(a, int(buckets.max()), r)
        bm = split_occurrence_matrix(b, int(buckets.max()), r)
        delta1 = capped_split_adjustment(a, b, s, level,
                                         a_matrix=am, b_matrix=bm)
        split_sq = float(((split_occurrences_from_matrix(am, buckets)
                           - split_occurrences_from_matrix(bm, buckets)) ** 2).sum())
        capped_sq = float(((np.minimum(a.counts, level)
                            - np.minimum(b.counts, level)) ** 2).sum())
        identity_ok &= (capped_sq + delta1 == split_sq)

    # capped distance bounded by the split distance (multisets of size t/L)
    cor_params = SecureCTParams(n=100, t=10 ** 4, eps=1.0, k=4)
    level = cor_params.cap_level
    p = uniform_distribution(100)
    q = far_instance(100, 1.0)
    violations = 0
    bound = 100 * math.log(100)
    for trial in range(200):
        rr = rng(41_000 + trial)
        a = OccurrenceVector(np.bincount(sample(p, 10 ** 4, rr).letters,
                                         minlength=100))
        b = OccurrenceVector(np.bincount(sample(q, 10 ** 4, rr).letters,
                                         minlength=100))
        size = max(1, 10 ** 4 // level)
        s_a = OccurrenceVector.from_letters(sample(p, size, rr).letters, 100)
        s_b = OccurrenceVector.from_letters(sample(q, size, rr).letters, 100)
        buckets = 1 + s_a.counts + s_b.counts
        am = split_occurrence_matrix(a, int(buckets.max()), rr)
        bm = split_occurrence_matrix(b, int(buckets.max()), rr)
        split_sq = float(((split_occurrences_from_matrix(am, buckets)
                           - split_occurrences_from_matrix(bm, buckets)) ** 2).sum())
        capped_sq = float(((np.minimum(a.counts, level)
                            - np.minimum(b.counts, level)) ** 2).sum())
        violations += capped_sq > bound * split_sq
    cor_ok = violations <= 0.05 * 200

    # evaluator transparency + success rates at n=200, k=4
    n, eps, k = 200, 1.0, 4
    params = SecureCTParams(n=n, t=1095, eps=eps, k=k)
    uniform = uniform_distribution(n)
    far = far_instance(n, eps)
    same_hits = far_hits = agreements = runs = 0
    trials = 200
    for trial in range(trials):
        rr = rng(42_000 + trial)
        a = sample(uniform, params.t, rr)
        b = sample(uniform, params.t, rr)
        c = sample(far, params.t, rr)
        for other, expect in ((b, Decision.SAME), (c, Decision.FAR)):
            via = ct2p_secure_reference(a, other, params, trial)
            direct = secure_reference_f(a.letters, other.letters, params, trial)
            agreements += via.decision == direct
            runs += 1
            if expect is Decision.SAME:
                same_hits += via.decision is Decision.SAME
            else:
                far_hits += via.decision is Decision.FAR
    same_rate, far_rate = same_hits / trials, far_hits / trials
    ok = (identity_ok and cor_ok and agreements == runs
          and same_rate >= 0.70 and far_rate >= 0.70)
    report("C4 secure-reference closeness", ok,
           f"identity exact: {identity_ok}; cap-bound violations "
           f"{violations}/200 (<=10); evaluator agreement {agreements}/{runs}; "
           f"same {same_rate:.3f}, far {far_rate:.3f} (>= 0.70)")


def test_c5_it2p_end_to_end():
    n = m = 20
    eps, k = 1.0, 2
    probe = ITParams(n=n, m=m, t=10 ** 9, eps=eps, k=k)
    t = math.ceil(probe.min_samples())
    params = ITParams(n=n, m=m, t=t, eps=eps, k=k)
    prod = product_joint(uniform_distribution(n), uniform_distribution(m))
    diag = diagonal_joint(n, m)
    assert diag.l1_to_product() == pytest.approx(2 * (1 - 1 / m))
    prod_hits = far_hits = 0
    trials = 200
    for trial in range(trials):
        r = rng(50_000 + trial)
        pa, pb = prod.sample_joint(t, r)
        da, db = diag.sample_joint(t, r)
        prod_hits += it2p(pa, pb, params, trial).decision is Decision.PRODUCT
        far_hits += it2p(da, db, params, trial).decision is Decision.FAR
    prod_rate, far_rate = prod_hits / trials, far_hits / trials

    # intersection-size sampling law: chi-square p > 0.01 at 1e5 trials
    usi_trials = 10 ** 5
    r = rng(505)
    gamma = np.arange(4)
    direct = np.empty(usi_trials, dtype=np.int64)
    viamu = np.empty(usi_trials, dtype=np.int64)
    for i in range(usi_trials):
        u = r.choice(8, size=4, replace=False)
        direct[i] = np.intersect1d(gamma, u).size
        viamu[i] = usi_sample(8, 4, 4, r)
    table = np.array([np.bincount(direct, minlength=5),
                      np.bincount(viamu, minlength=5)])
    table = table[:, table.sum(axis=0) > 0]
    pvalue = stats.chi2_contingency(table)[1]

    # sampled-letter mass containment at >= 90%
    nn, ell = 400, 100
    p = uniform_distribution(nn)
    good = 0
    for _ in range(500):
        u = r.choice(nn, size=ell, replace=False)
        mass = float(p.probs[u].sum())
        good += ell / (4 * nn) <= mass <= 4 * ell / nn
    mass_ok = good >= 450

    # exact reduced-pair equality for product joints at n, m <= 12
    exact_ok = True
    for nn, mm in [(12, 12), (9, 5), (6, 6)]:
        p1 = Distribution(r.dirichlet(np.ones(nn)))
        p2 = Distribution(r.dirichlet(np.ones(mm)))
        joint = product_joint(p1, p2)
        s_a = OccurrenceVector.from_letters(r.integers(0, nn, 6), nn)
        s_b = OccurrenceVector.from_letters(r.integers(0, mm, 4), mm)
        sm_a, sm_b = split_map(s_a, nn), split_map(s_b, mm)
        split = split_joint(joint, sm_a, sm_b)
        u = np.sort(r.choice(sm_a.total_letters, size=5, replace=False))
        p_hat = conditioned_rows(split, u)
        q_hat_probs = np.outer(conditioned(split.marginal_rows(), u).probs,
                               split.marginal_cols().probs)
        exact_ok &= bool(np.max(np.abs(p_hat.probs - q_hat_probs)) < 1e-12)

    ok = (prod_rate >= 0.70 and far_rate >= 0.70 and pvalue > 0.01
          and mass_ok and exact_ok)
    report("C5 IT2p end-to-end", ok,
           f"product {prod_rate:.3f}, far {far_rate:.3f} (>= 0.70); "
           f"intersection-law p={pvalue:.3f} (> 0.01); mass containment "
           f"{good}/500 (>= 450); product reduction exact: {exact_ok}")


def test_c6_ghd_reduction_fidelity():
    params = GHDReductionParams(n=2000, t=62, m=32, beta=8.0, l_big=62)

    # per-cell large-item counts match the planted Poisson law within 3 sigma
    runs = 2000
    cells = [(1, 1), (1, 2), (2, 1), (1, 0)]
    sums = {c: 0 for c in cells}
    r = rng(606)
    for _ in range(runs):
        inp = ghd_generate_inputs(32, "SAME", r, beta=8.0)
        _, _, diag = ghd_reduce_detailed(inp, params, r)
        for c in cells:
            sums[c] += diag.large.get(c, 0)
    poisson_ok = True
    detail = []
    for (i, j) in cells:
        lam = params.l_big * params.large_pmf(i) * params.large_pmf(j)
        mean = sums[(i, j)] / runs
        sigma = math.sqrt(lam / runs)
        poisson_ok &= abs(mean - lam) <= 3 * sigma
        detail.append(f"({i},{j}): {mean:.3f} vs {lam:.3f}")

    # verdict rates: reduced vs reference within 10 percentage points
    tau = threshold_tau(params.n, params.t, 0.5)

    def classify(pair):
        a, b = pair
        return distinguish(float(((a.counts - b.counts) ** 2).sum()), tau)

    trials = 200
    gaps = {}
    for case in ("SAME", "FAR"):
        reduced = reference = 0
        for i in range(trials):
            r1 = rng(61_000 + i)
            inp = ghd_generate_inputs(32, case, r1, beta=8.0)
            reduced += classify(ghd_reduce(inp, params, r1)) is Decision.SAME
            r2 = rng(62_000 + i)
            inp2 = ghd_generate_inputs(32, case, r2, beta=8.0)
            reference += classify(ghd_reference_sampler(
                case, params, int(inp2.delta), r2)) is Decision.SAME
        gaps[case] = abs(reduced - reference) / trials
    fidelity_ok = all(gap <= 0.10 for gap in gaps.values())
    report("C6 GHD reduction fidelity", poisson_ok and fidelity_ok,
           f"large-count means [{'; '.join(detail)}] within 3 sigma: "
           f"{poisson_ok}; verdict-rate gaps same={gaps['SAME']:.3f}, "
           f"far={gaps['FAR']:.3f} (<= 0.10)")


def test_c7_bhh_reduction():
    t = 10 ** 5
    inst1 = bhh_generate(4, 1, rng(707))
    a1, b1 = bhh_reduce(inst1, t, rng(708))
    joint_cells = np.bincount(a1.letters * 4 + b1.letters, minlength=16)
    p_joint = stats.chisquare(joint_cells).pvalue

    inst0 = bhh_generate(4, 0, rng(709))
    a0, b0 = bhh_reduce(inst0, t, rng(710))
    off_support = int((inst0.x[a0.letters] != inst0.x[b0.letters]).sum())

    p_marginals = min(
        stats.chisquare(np.bincount(a1.letters, minlength=4)).pvalue,
        stats.chisquare(np.bincount(b1.letters, minlength=4)).pvalue,
        stats.chisquare(np.bincount(a0.letters, minlength=4)).pvalue,
        stats.chisquare(np.bincount(b0.letters, minlength=4)).pvalue)

    ok = p_joint > 0.01 and off_support == 0 and p_marginals > 0.01
    report("C7 BHH reduction", ok,
           f"b=1 joint uniformity p={p_joint:.3f} (> 0.01); b=0 off-support "
           f"observations {off_support} (= 0); marginal uniformity "
           f"min p={p_marginals:.3f} (> 0.01)")


def test_c8_poisson_multinomial_validator():
    tv = poisson_multinomial_tv_check(1000, [1e-3], 10 ** 5, rng(808))
    report("C8 Poissonization validator", tv < 0.02,
           f"empirical TV Binomial(1000, 1e-3) vs Poisson(1): {tv:.4f} < 0.02")


def test_c9_reproducibility():
    cfg = ExperimentConfig(protocol="closeness", ns=(200,), ts=(274,),
                           epss=(1.0,), trials=3, seed=99)
    first = rows_to_csv(run_experiment(cfg))
    second = rows_to_csv(run_experiment(cfg))
    cfg_indep = ExperimentConfig(protocol="independence", ns=(20,), ms=(20,),
                                 ts=(8000,), epss=(1.0,), ks=(2,), trials=2,
                                 seed=99)
    third = rows_to_csv(run_experiment(cfg_indep))
    fourth = rows_to_csv(run_experiment(cfg_indep))
    ok = first == second and third == fourth
    report("C9 reproducibility", ok,
           f"closeness CSV identical: {first == second}; independence CSV "
           f"identical: {third == fourth}")
