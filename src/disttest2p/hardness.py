"""Hard-instance generators from the communication lower-bound reductions.

``ghd_reduce`` embeds a gap-Hamming input into a pair of Poissonized
occurrence vectors whose law is close to genuine samples from a planted
same/far distribution pair; ``ghd_reference_sampler`` draws from those
planted distributions directly and is the oracle the reduction is validated
against.  ``bhh_reduce`` turns a hidden-matching instance into an unbounded
stream of index-aligned sample pairs that are exactly product (hidden bit 1)
or maximally far from product (hidden bit 0).

All Poisson rates of the occurrence-vector construction are checked for
nonnegativity at parameter-construction time: the guarantees behind the
default parameter formulas are asymptotic, and outside their regime the
generator refuses to run rather than silently truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import IndexedSampleSet, OccurrenceVector
from .harness import ConfigError, require_positive


def poisson_pmf(i: int, lam: float) -> float:
    """Pr[Poisson(lam) = i], computed in log space."""
    if i < 0:
        return 0.0
    if lam == 0:
        return 1.0 if i == 0 else 0.0
    return math.exp(-lam + i * math.log(lam) - math.lgamma(i + 1))


def default_beta(m: int) -> float:
    """The far-gap scale ``sqrt(m/2) / 4`` at instance length m."""
    return math.sqrt(m / 2.0) / 4.0


@dataclass(frozen=True)
class GHDInput:
    """A gap-Hamming instance: equal-weight bit vectors at a planted distance."""

    x: np.ndarray
    y: np.ndarray
    case: str  # "SAME" or "FAR"
    beta: float

    @property
    def m(self) -> int:
        return self.x.size

    @property
    def distance(self) -> int:
        return int(np.abs(self.x - self.y).sum())

    @property
    def delta(self) -> float:
        """Half the distance excess over m/2 (0 in the SAME case)."""
        return (self.distance - self.m / 2) / 2.0


def _far_gaps(m: int, beta: float) -> list[int]:
    """Even distance gaps 2*delta available in [beta, 2*beta] with delta <= m/4."""
    lo = math.ceil(beta)
    hi = math.floor(2 * beta)
    return [g for g in range(lo, hi + 1)
            if g % 2 == 0 and 0 < g // 2 <= m // 4]


def ghd_generate_inputs(m: int, case: str, rng: np.random.Generator,
                        beta: float | None = None) -> GHDInput:
    """Construct x, y with weights m/2 and the case's exact distance constraint."""
    if m < 4 or m % 4 != 0:
        raise ValueError("instance length must be a positive multiple of 4")
    if case not in ("SAME", "FAR"):
        raise ValueError("case must be SAME or FAR")
    beta = default_beta(m) if beta is None else float(beta)
    if case == "SAME":
        delta = 0
    else:
        gaps = _far_gaps(m, beta)
        if not gaps:
            raise ValueError(
                f"no even distance gap in [{beta}, {2 * beta}] fits m={m}")
        delta = int(gaps[rng.integers(len(gaps))]) // 2
    overlap = m // 4 - delta
    perm = rng.permutation(m)
    x = np.zeros(m, dtype=np.int64)
    y = np.zeros(m, dtype=np.int64)
    x[perm[:m // 2]] = 1
    y[perm[m // 2 - overlap:m - overlap]] = 1
    return GHDInput(x, y, case, beta)


@dataclass(frozen=True)
class GHDReductionParams:
    """Construction parameters of the GHD -> closeness reduction.

    Defaults follow the asymptotic formulas (``m = n^2/(t^2 ln^3 n)`` rounded
    to a multiple of four, ``l_big = C t ln n``, ``beta`` per the far-gap
    scale); every override is accepted and the step rates are re-validated,
    since the defaults only stay nonnegative for astronomically large n.
    """

    n: int
    t: int
    big_c: float = 8.0
    m: int = 0          # 0 means "use the default formula"
    l_big: int = 0      # 0 means C * t * ln n
    beta: float = 0.0   # 0 means default_beta(m)
    k_cap: int = field(init=False)
    d: int = field(init=False)

    def __post_init__(self):
        if self.n < 10:
            raise ConfigError("need n >= 10 so the dense support is non-empty")
        if self.t < 1:
            raise ConfigError("need t >= 1")
        require_positive(self, "big_c")
        for name in ("m", "l_big", "beta"):  # 0 means the default formula
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and nonnegative")
            if name != "beta" and not float(value).is_integer():
                raise ConfigError(f"{name} must be an integer")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "l_big", int(self.l_big))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "d", self.n // 10)
        object.__setattr__(self, "k_cap", math.ceil(3 * math.log(self.n)))
        if self.m == 0:
            raw = self.n ** 2 / (self.t ** 2 * math.log(self.n) ** 3)
            object.__setattr__(self, "m", max(4, 4 * round(raw / 4)))
        if self.m < 4 or self.m % 4 != 0:
            raise ConfigError("m must be a positive multiple of 4")
        if self.l_big == 0:
            object.__setattr__(self, "l_big",
                               math.ceil(self.big_c * self.t * math.log(self.n)))
        if self.beta == 0.0:
            object.__setattr__(self, "beta", default_beta(self.m))
        if self.beta > self.m / 4:
            raise ConfigError("beta cannot exceed m/4 (m_c would be negative)")
        self._validate_rates()

    @property
    def dense_rate(self) -> float:
        return self.t / (2.0 * self.d)

    @property
    def large_rate(self) -> float:
        return self.t / (2.0 * self.l_big)

    def dense_pmf(self, i: int) -> float:
        return poisson_pmf(i, self.dense_rate)

    def large_pmf(self, i: int) -> float:
        return poisson_pmf(i, self.large_rate)

    def _validate_rates(self):
        m_c = self.m / 4.0 - self.beta
        scale = self.d / self.beta
        k = self.k_cap
        dsum = {i: sum(self.dense_pmf(i) * self.dense_pmf(j)
                       for j in range(1, k + 1)) for i in range(1, k + 1)}
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                rate = (self.l_big * self.large_pmf(i) * self.large_pmf(j)
                        - m_c * scale * self.dense_pmf(i) * self.dense_pmf(j))
                if rate < 0:
                    raise ConfigError(
                        f"negative pair rate at (i,j)=({i},{j}): {rate:.3g}")
            one_sided = (self.l_big * self.large_pmf(i) * self.large_pmf(0)
                         - self.m / 4.0 * scale * dsum[i])
            if one_sided < 0:
                raise ConfigError(
                    f"negative one-sided rate at (i,0): {one_sided:.3g}")


@dataclass(frozen=True)
class GHDReduceDiagnostics:
    """Per-profile item counts, with the analysis' large/dense attribution."""

    total: dict
    large: dict
    occupied_letters: int


def ghd_reduce_detailed(inp: GHDInput, params: GHDReductionParams,
                        rng: np.random.Generator):
    """The reduction with per-step diagnostics; see :func:`ghd_reduce`."""
    if inp.m != params.m:
        raise ConfigError("input length does not match params.m")
    delta = inp.delta
    if delta != int(delta):
        raise ConfigError("input distance gap must be even")
    delta = int(delta)
    if inp.case == "FAR" and not 0 < delta <= params.beta:
        raise ConfigError("far input's gap is outside (0, beta]")

    k = params.k_cap
    m_c = params.m / 4.0 - params.beta
    scale = params.d / params.beta
    n11 = params.m // 4 - delta
    n10 = params.m // 4 + delta
    dense_11 = params.beta - delta  # analysis' dense share of the (1,1) coords

    total: dict = {}
    large: dict = {}

    def emit(i, j, count, tagged_large):
        if count <= 0:
            return
        total[(i, j)] = total.get((i, j), 0) + count
        if tagged_large:
            large[(i, j)] = large.get((i, j), 0) + count

    dpm = [params.dense_pmf(i) for i in range(k + 1)]
    lpm = [params.large_pmf(i) for i in range(k + 1)]
    dsum = [sum(dpm[i] * dpm[j] for j in range(1, k + 1)) for i in range(k + 1)]

    for i in range(1, k + 1):
        for j in range(1, k + 1):
            dd = dpm[i] * dpm[j]
            # step 1, (1,1) coordinates; split by the analysis attribution
            emit(i, j, rng.poisson(m_c * scale * dd), True)
            emit(i, j, rng.poisson(dense_11 * scale * dd), False)
            # step 3: top up pairs to the planted large-item law
            rate3 = params.l_big * lpm[i] * lpm[j] - m_c * scale * dd
            emit(i, j, rng.poisson(rate3), True)
        # step 1, one-sided coordinates (large share m/4, dense share delta)
        emit(i, 0, rng.poisson(params.m / 4.0 * scale * dsum[i]), True)
        emit(0, i, rng.poisson(params.m / 4.0 * scale * dsum[i]), True)
        emit(i, 0, rng.poisson(delta * scale * dsum[i]), False)
        emit(0, i, rng.poisson(delta * scale * dsum[i]), False)
        # step 2: dense letters seen by one party only
        emit(i, 0, rng.poisson(params.d * dpm[i] * dpm[0]), False)
        emit(0, i, rng.poisson(params.d * dpm[0] * dpm[i]), False)
        # step 4: top up one-sided pairs
        rate4 = params.l_big * lpm[i] * lpm[0] - params.m / 4.0 * scale * dsum[i]
        emit(i, 0, rng.poisson(rate4), True)
        emit(0, i, rng.poisson(rate4), True)

    occupied = sum(total.values())
    if occupied > params.n:
        raise ConfigError(
            f"construction emitted {occupied} letters, more than n={params.n}")

    a = np.zeros(params.n, dtype=np.int64)
    b = np.zeros(params.n, dtype=np.int64)
    pos = 0
    for (i, j), count in sorted(total.items()):
        a[pos:pos + count] = i
        b[pos:pos + count] = j
        pos += count
    perm = rng.permutation(params.n)  # shared: the same relabeling on both sides
    a, b = a[perm], b[perm]
    diag = GHDReduceDiagnostics(total, large, occupied)
    return OccurrenceVector(a), OccurrenceVector(b), diag


def ghd_reduce(inp: GHDInput, params: GHDReductionParams,
               rng: np.random.Generator):
    """Occurrence-vector pair distributed close to planted same/far samples."""
    a, b, _ = ghd_reduce_detailed(inp, params, rng)
    return a, b


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


# ---------------------------------------------------------------------------
# Boolean hidden matching -> independence


@dataclass(frozen=True)
class BHHInstance:
    """Bit vector plus a perfect matching whose pair parities all equal b."""

    x: np.ndarray
    mate: np.ndarray  # mate[i] is i's partner in the matching
    b: int

    @property
    def n(self) -> int:
        return self.x.size


def bhh_generate(n: int, b: int, rng: np.random.Generator) -> BHHInstance:
    if b not in (0, 1):
        raise ValueError("hidden bit must be 0 or 1")
    if n % 2 != 0 or n < 2:
        raise ValueError("n must be even and positive")
    if b == 0 and n % 4 != 0:
        raise ValueError("b=0 needs n divisible by 4 to balance the bit vector")
    perm = rng.permutation(n)
    pairs = perm.reshape(-1, 2)
    mate = np.empty(n, dtype=np.int64)
    mate[pairs[:, 0]] = pairs[:, 1]
    mate[pairs[:, 1]] = pairs[:, 0]
    x = np.zeros(n, dtype=np.int64)
    if b == 1:
        which = rng.integers(0, 2, size=pairs.shape[0])
        x[np.where(which == 0, pairs[:, 0], pairs[:, 1])] = 1
    else:
        ones = rng.choice(pairs.shape[0], size=n // 4, replace=False)
        x[pairs[ones].ravel()] = 1
    inst = BHHInstance(x, mate, b)
    assert np.all((x ^ x[mate]) == b)
    return inst


def bhh_reduce(inst: BHHInstance, t: int, rng: np.random.Generator
               ) -> tuple[IndexedSampleSet, IndexedSampleSet]:
    """t index-aligned sample pairs; product law iff the hidden bit is 1."""
    if t < 1:
        raise ValueError("need at least one sample")
    n = inst.n
    x_of = [np.where(inst.x == v)[0] for v in (0, 1)]
    r = rng.integers(0, n, size=t)
    b_prime = inst.x[r]
    pick = rng.integers(0, n // 2, size=t)
    alice = np.where(b_prime == 1, x_of[1][pick], x_of[0][pick])
    coin = rng.integers(0, 2, size=t)
    bob = np.where(coin == 1, r, inst.mate[r])
    return (IndexedSampleSet(alice.astype(np.int64), n),
            IndexedSampleSet(bob.astype(np.int64), n))


# ---------------------------------------------------------------------------
# Poissonization validator


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
