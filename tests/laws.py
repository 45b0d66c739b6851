"""The laws of the paper's analysis that only the tests evaluate, and the
helpers the unit tests share.  pytest puts ``tests/`` on ``sys.path``, so a
test imports them with ``from laws import ...``, and it does not collect
this module, whose name does not match ``test_*.py``."""

import math

import numpy as np

from disttest2p.dist import (
    Distribution,
    IndexedSampleSet,
    OccurrenceVector,
    SplitMap,
    SplitOccurrenceMatrix,
)
from disttest2p.hardness import GHDReductionParams
from disttest2p.harness import ConfigError, SharedRandomness
from disttest2p.independence import (
    ITParams,
    JointDistribution,
    Repetition,
    _blocks,
    _evaluate,
    _repetitions,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def rates_agree(x, y):
    """Two 0/1 samples' rates differ by at most 3 pooled SE."""
    pooled = (np.sum(x) + np.sum(y)) / (len(x) + len(y))
    se = math.sqrt(pooled * (1 - pooled) * (1 / len(x) + 1 / len(y)))
    return abs(np.mean(x) - np.mean(y)) <= 3 * se


def poisson_sample(lam: float, rng: np.random.Generator) -> int:
    """One draw from Poisson(lam).

    Backed by the generator's exact sampler (inversion for small rates, a
    transformed-rejection method above).  numpy takes rates up to
    ``2**63 - 10 * sqrt(2**63)``, about 9.22e18, and raises ``ValueError``
    ("lam value too large") above.
    """
    if lam < 0:
        raise ValueError("rate must be nonnegative")
    return int(rng.poisson(lam))


def split_distribution(p: Distribution, sm: SplitMap) -> Distribution:
    """Distribution over the split alphabet: bucket ``(i, j)`` gets ``p_i / a_i``."""
    if p.n != sm.n:
        raise ValueError("mismatched alphabets")
    per_bucket = p.probs / sm.bucket_counts
    return Distribution(np.repeat(per_bucket, sm.bucket_counts))


def l1_distance(p: Distribution, q: Distribution) -> float:
    if p.n != q.n:
        raise ValueError("mismatched alphabets")
    return float(np.abs(p.probs - q.probs).sum())


def l2_norm_sq(p: Distribution) -> float:
    return float(np.dot(p.probs, p.probs))


def split_occurrences_from_matrix(matrix: SplitOccurrenceMatrix,
                                  bucket_counts: np.ndarray) -> np.ndarray:
    """Assemble the full split occurrence vector from matrix rows.

    ``bucket_counts[i]`` is the number of buckets letter ``i`` splits into;
    the result is the concatenation of rows ``(i, bucket_counts[i])`` in
    letter order, i.e. the occurrence vector over the split alphabet realized
    by this matrix's random recasts.
    """
    return np.concatenate([matrix.row(i, int(bucket_counts[i]))
                           for i in range(len(bucket_counts))])


def conditioned(p: Distribution, letters) -> Distribution:
    """``p`` restricted to the letter set and renormalized.

    The output alphabet is the given letters in ascending order.
    """
    letters = np.unique(np.asarray(letters, dtype=np.int64))
    if letters.size == 0:
        raise ValueError("conditioning set is empty")
    if letters.min() < 0 or letters.max() >= p.n:
        raise ValueError("letter out of range")
    mass = float(p.probs[letters].sum())
    if mass <= 0:
        raise ValueError("conditioning set has zero mass")
    return Distribution(p.probs[letters] / mass)


def usi_sample(n: int, alpha: int, beta: int, rng: np.random.Generator) -> int:
    """Draw ``|S1 ∩ S2|`` for a fixed alpha-subset and uniform beta-subset of [n].

    The law of the live-letter count before the cap in ``_alice_half``.
    """
    if alpha > n or beta > n:
        raise ValueError("subset sizes cannot exceed the ground set")
    if alpha == 0 or beta == 0:
        return 0
    return int(rng.hypergeometric(ngood=alpha, nbad=n - alpha, nsample=beta))


def split_joint(joint: JointDistribution, sm_rows: SplitMap,
                sm_cols: SplitMap) -> JointDistribution:
    """Joint law after splitting rows by ``sm_rows`` and columns by ``sm_cols``."""
    per_bucket = joint.probs / np.outer(sm_rows.bucket_counts,
                                        sm_cols.bucket_counts)
    expanded = np.repeat(np.repeat(per_bucket, sm_rows.bucket_counts, axis=0),
                         sm_cols.bucket_counts, axis=1)
    return JointDistribution(expanded)


def conditioned_rows(joint: JointDistribution, letters) -> JointDistribution:
    """Joint conditioned on the row letter landing in the given set."""
    letters = np.unique(np.asarray(letters, dtype=np.int64))
    mass = float(joint.probs[letters].sum())
    if mass <= 0:
        raise ValueError("conditioning set has zero mass")
    return JointDistribution(joint.probs[letters] / mass)


def it2p_votes(alice: IndexedSampleSet, bob: IndexedSampleSet,
               params: ITParams, shared: SharedRandomness) -> list[Repetition]:
    return _repetitions(*_evaluate(_blocks(alice.letters, params),
                                   _blocks(bob.letters, params), params, shared))


def ghd_reference_sampler(case: str, params: GHDReductionParams, delta: int,
                          rng: np.random.Generator):
    """Sample the planted (a, b) pair directly: the reduction's oracle.

    Both distributions put half their mass uniformly on ``d`` dense letters
    and half on ``l_big`` shared large letters; in the FAR case the dense
    supports overlap in ``d (beta - delta) / beta`` letters.
    """
    if case == "SAME":
        delta = 0
    elif not 0 < delta <= params.beta:
        raise ValueError("far case needs 0 < delta <= beta")
    d, l = params.d, params.l_big
    overlap = d if case == "SAME" else round(d * (params.beta - delta) / params.beta)
    extra = d - overlap
    if d + l + extra > params.n:
        raise ConfigError("supports do not fit in the alphabet")

    probs_a = np.zeros(params.n)
    probs_b = np.zeros(params.n)
    probs_a[:d] = 1.0 / (2 * d)
    probs_b[:overlap] = 1.0 / (2 * d)
    probs_b[d:d + extra] = 1.0 / (2 * d)
    probs_a[d + extra:d + extra + l] = 1.0 / (2 * l)
    probs_b[d + extra:d + extra + l] = 1.0 / (2 * l)

    counts_a = rng.multinomial(rng.poisson(params.t), probs_a)
    counts_b = rng.multinomial(rng.poisson(params.t), probs_b)
    perm = rng.permutation(params.n)
    return (OccurrenceVector(counts_a[perm].astype(np.int64)),
            OccurrenceVector(counts_b[perm].astype(np.int64)))


def poisson_multinomial_tv_check(n: int, p_vec, trials: int,
                                 rng: np.random.Generator) -> float:
    """Empirical TV between Mult(n; p) and the independent-Poisson vector.

    Both sides are drawn ``trials`` times and compared as histograms over
    count tuples; the estimate converges to the true TV from above as trials
    grow.
    """
    p_vec = np.asarray(p_vec, dtype=np.float64)
    if p_vec.ndim != 1 or p_vec.size < 1:
        raise ValueError("probability vector must be 1-D and non-empty")
    if np.any(p_vec < 0) or p_vec.sum() > 1 + 1e-12:
        raise ValueError("probabilities must be nonnegative and sum to <= 1")
    rest = max(0.0, 1.0 - float(p_vec.sum()))
    full = np.concatenate(([rest], p_vec))
    mult = rng.multinomial(n, full / full.sum(), size=trials)[:, 1:]
    pois = rng.poisson(lam=n * p_vec, size=(trials, p_vec.size))
    both = np.vstack([mult, pois])
    _, inverse = np.unique(both, axis=0, return_inverse=True)
    f_m = np.bincount(inverse[:trials])
    f_p = np.bincount(inverse[trials:], minlength=f_m.size)
    if f_p.size > f_m.size:
        f_m = np.pad(f_m, (0, f_p.size - f_m.size))
    return float(0.5 * np.abs(f_m / trials - f_p / trials).sum())
