"""Hard-instance generators from the communication lower-bound reductions.

``ghd_reduce`` embeds a gap-Hamming input into a pair of Poissonized
occurrence vectors whose law is close to genuine samples from a planted
same/far distribution pair; ``ghd_reference_sampler`` draws from those
planted distributions directly and is the oracle the reduction is validated
against.  ``bhh_reduce`` turns a hidden-matching instance into an unbounded
stream of index-aligned sample pairs that are exactly product (hidden bit 1)
or maximally far from product (hidden bit 0).

``GHDReductionParams`` writes every Poisson rate of the occurrence-vector
construction once, into one table that is checked for nonnegativity at
construction; the reduction draws all its counts from it in one array call,
in a fixed cell order.  The default formulas are asymptotic, and outside
their regime the generator refuses to run rather than silently truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import IndexedSampleSet, OccurrenceVector
from .harness import SIZE_LIMIT, ConfigError, require_positive


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


def _table():  # a derived field, kept out of the constructor, repr and ==
    return field(init=False, repr=False, compare=False)


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
    # The rate table, by item profile (i, j) over 0..k_cap, with D_i and L_i
    # the dense and large pmfs; i or j = 0 marks an item one party does not
    # see, and (i, 0) and (0, i) share a rate except at step 2.
    per_coord: np.ndarray = _table()     # D_i D_j, one-sided sum_{j>=1} D_i D_j
    shared_rates: np.ndarray = _table()  # step 1: large share of the coordinates
    solo_rates: np.ndarray = _table()    # step 2: dense letters one party sees
    topup_rates: np.ndarray = _table()   # steps 3, 4: l_big L_i L_j - shared
    # flat cells of the stacked (shared, dense, solo, top-up) tables in draw
    # order: per row i, pair cells (i, j>=1) of all but solo, then (i,0), (0,i)
    draw_order: np.ndarray = _table()

    def __post_init__(self):
        if self.n < 10:
            raise ConfigError("need n >= 10 so the dense support is non-empty")
        if not 1 <= self.t < SIZE_LIMIT:
            raise ConfigError("need 1 <= t < 2^63")
        require_positive(self, "big_c")
        for name in ("m", "l_big", "beta"):  # 0 means the default formula
            value = getattr(self, name)
            if not (math.isfinite(value) and 0 <= value < SIZE_LIMIT):
                raise ConfigError(f"{name} must be in [0, 2^63)")
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
            l_big = self.big_c * self.t * math.log(self.n)
            if not l_big < SIZE_LIMIT:
                raise ConfigError("big_c gives an l_big of 2^63 or more")
            object.__setattr__(self, "l_big", math.ceil(l_big))
        if self.beta == 0.0:
            object.__setattr__(self, "beta", default_beta(self.m))
        if self.beta > self.m / 4:
            raise ConfigError("beta cannot exceed m/4 (m_c would be negative)")

        profiles = range(self.k_cap + 1)
        dense = np.array([poisson_pmf(i, self.t / (2.0 * self.d)) for i in profiles])
        large = np.array([self.large_pmf(i) for i in profiles])
        per_coord = np.multiply.outer(dense, dense)
        # a running sum adds left to right, as a scalar loop does
        dsum = np.cumsum(per_coord[:, 1:], axis=1)[:, -1]
        per_coord[:, 0] = per_coord[0, :] = dsum
        per_coord.flags.writeable = False
        object.__setattr__(self, "per_coord", per_coord)
        shared = self.step1_rates(self.m / 4.0 - self.beta, self.m / 4.0)
        topup = np.multiply.outer(self.l_big * large, large) - shared
        topup[0, :] = topup[:, 0]
        solo = np.multiply.outer(self.d * dense, dense)
        k1, stride = self.k_cap + 1, (self.k_cap + 1) ** 2
        i = np.arange(1, k1)[:, None]  # 1..k_cap: rows i, and pair columns j
        pair = i * k1 + (i + [0, stride, 3 * stride]).ravel()
        one_sided = i * ([k1, 1] * 4) + np.arange(4).repeat(2) * stride
        order = np.concatenate((pair, one_sided), axis=1).ravel()
        for name, table in (("shared_rates", shared), ("solo_rates", solo),
                            ("topup_rates", topup), ("draw_order", order)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        self._validate_rates()
        if not _far_gaps(self.m, self.beta):
            raise ConfigError(f"no FAR case: no even distance gap in "
                              f"[{self.beta}, {2 * self.beta}] fits m={self.m}")

    def large_pmf(self, i: int) -> float:
        return poisson_pmf(i, self.t / (2.0 * self.l_big))

    def step1_rates(self, pair_share: float, one_sided_share: float) -> np.ndarray:
        """Step 1's rates for a share of the (1,1) coordinates and of the
        one-sided ones, each coordinate standing for d/beta dense letters."""
        scale = self.d / self.beta
        rates = pair_share * scale * self.per_coord
        rates[:, 0] = rates[0, :] = one_sided_share * scale * self.per_coord[:, 0]
        return rates

    def _validate_rates(self):
        """Refuse the first negative top-up rate, taking each row's pair cells
        (i, 1..k_cap) before its one-sided cell (i, 0)."""
        order = np.r_[1:self.k_cap + 1, 0]
        bad = np.argwhere(self.topup_rates[1:, order] < 0)
        if bad.size:
            i, j = int(bad[0, 0]) + 1, int(order[bad[0, 1]])
            kind = "pair" if j else "one-sided"
            raise ConfigError(f"negative {kind} rate at (i,j)=({i},{j}): "
                              f"{self.topup_rates[i, j]:.3g}")


@dataclass(frozen=True)
class GHDReduceDiagnostics:
    """Per-profile item counts, with the analysis' large/dense attribution;
    ``total`` and ``large`` are the nonzero cells, as {(i, j): count}."""

    total_counts: np.ndarray  # by item profile (i, j), 0 <= i, j <= k_cap
    large_counts: np.ndarray
    occupied_letters: int
    total = property(lambda self: _profile_counts(self.total_counts))
    large = property(lambda self: _profile_counts(self.large_counts))


def _profile_counts(counts: np.ndarray) -> dict:
    return {(int(i), int(j)): int(counts[i, j])
            for i, j in zip(*np.nonzero(counts))}


def ghd_reduce_detailed(inp: GHDInput, params: GHDReductionParams,
                        rng: np.random.Generator):
    """The reduction with per-step diagnostics; see :func:`ghd_reduce`."""
    if inp.m != params.m:
        raise ConfigError("input length does not match params.m")
    if inp.case not in ("SAME", "FAR"):
        raise ConfigError(f"input case must be SAME or FAR, not {inp.case!r}")
    delta = inp.delta
    if delta != int(delta):
        raise ConfigError("input distance gap must be even")
    delta = int(delta)
    if inp.case == "SAME" and delta != 0:
        raise ConfigError(f"same input has distance gap {2 * delta}, not 0")
    if inp.case == "FAR" and not 0 < delta <= params.beta:
        raise ConfigError("far input's gap is outside (0, beta]")

    dense = params.step1_rates(params.beta - delta, delta)  # step 1's dense shares
    rates = np.stack((params.shared_rates, dense, params.solo_rates,
                      params.topup_rates))
    # one array draw: numpy draws element by element, in the given order
    drawn, order = np.zeros(rates.shape, dtype=np.int64), params.draw_order
    drawn.flat[order] = rng.poisson(rates.flat[order])
    total, large = drawn.sum(axis=0), drawn[0] + drawn[3]
    occupied = int(total.sum())
    if occupied > params.n:
        raise ConfigError(
            f"construction emitted {occupied} letters, more than n={params.n}")

    ab = np.zeros((2, params.n), dtype=np.int64)
    ab[:, :occupied] = np.repeat(np.indices(total.shape).reshape(2, -1),
                                 total.ravel(), axis=1)
    a, b = ab[:, rng.permutation(params.n)]  # one relabeling for both sides
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
