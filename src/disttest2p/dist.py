"""Discrete distributions, sample sets, occurrence vectors and split machinery.

Everything here works over a finite alphabet whose letters are the integers
``0 .. n-1``.  Probabilities are float64, counts are int64; every count
vector, the split multiset S included, is an :class:`OccurrenceVector`.  The
container types are frozen and hold read-only views of their arrays, so that
a container cannot change under a tester; random generators are never stored
inside them.  A view shares memory with the array it was built from
and leaves that array writeable: a caller who goes on to write to it changes
the container too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_SUM_TOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a`` (contiguous); ``a`` itself stays writeable."""
    view = np.ascontiguousarray(a).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class Distribution:
    """Explicit probability vector over the alphabet ``0 .. n-1``."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("probability vector must be 1-D and non-empty")
        if p.min() < 0:
            raise ValueError("probabilities must be nonnegative")
        if abs(float(p.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probs", _readonly(p))

    @property
    def n(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class OccurrenceVector:
    """Per-letter counts over ``0 .. n-1`` (of a sample set, or the
    multiplicities of a multiset); ``t`` is their total."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("count vector must be 1-D and non-empty")
        if c.min() < 0:
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", _readonly(c))

    @classmethod
    def from_letters(cls, letters, n: int) -> "OccurrenceVector":
        """Count each letter ``0 .. n-1`` in ``letters``."""
        letters = np.asarray(letters, dtype=np.int64)
        if letters.size and (letters.min() < 0 or letters.max() >= n):
            raise ValueError("letter out of range")
        return cls(np.bincount(letters, minlength=n))

    @property
    def n(self) -> int:
        return self.counts.size

    @property
    def t(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class SplitMap:
    """Bucket counts ``a_i >= 1`` of a split alphabet.

    Letter ``i`` of the ground alphabet maps to ``a_i`` buckets; buckets are
    ordered lexicographically by ``(letter, bucket index)`` so both parties
    agree on the enlarged alphabet without extra communication.
    """

    bucket_counts: np.ndarray
    offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.bucket_counts, dtype=np.int64)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("bucket counts must be 1-D and non-empty")
        if a.min() < 1:
            raise ValueError("every letter needs at least one bucket")
        off = np.concatenate(([0], np.cumsum(a)))
        object.__setattr__(self, "bucket_counts", _readonly(a))
        object.__setattr__(self, "offsets", _readonly(off))

    @property
    def n(self) -> int:
        return self.bucket_counts.size

    @property
    def total_letters(self) -> int:
        """Size of the split alphabet, ``n + |S|``."""
        return int(self.offsets[-1])


@dataclass(frozen=True)
class IndexedSampleSet:
    """Ordered draws; index ``i`` in ``0 .. t-1`` is the sample's identity."""

    letters: np.ndarray
    n: int

    def __post_init__(self):
        a = np.asarray(self.letters, dtype=np.int64)
        if a.ndim != 1:
            raise ValueError("sample letters must be 1-D")
        if a.size and (a.min() < 0 or a.max() >= self.n):
            raise ValueError("letter out of range")
        object.__setattr__(self, "letters", _readonly(a))

    @property
    def t(self) -> int:
        return self.letters.size


def uniform_distribution(n: int) -> Distribution:
    return Distribution(np.full(n, 1.0 / n))


_GUIDE_STEPS = 4  # forward steps before a draw falls back to binary search


def draw(probs: np.ndarray, t: int, rng: np.random.Generator) -> np.ndarray:
    """``rng.choice(probs.size, size=t, p=probs)``, bit for bit, O(1) per draw.

    ``probs`` is a validated probability vector.  Like ``Generator.choice``
    this inverts ``cdf = cumsum(probs) / total`` at ``t`` uniforms from one
    ``rng.random(t)`` call, returning ``#{i : cdf[i] <= u}``; it replaces the
    binary search with an indexed search (Chen and Asau 1974; Devroye 1986,
    III.2).  The answer is always a position where the cdf rises, hence of
    positive probability, so only the cdf values ``c`` there are searched.
    ``guide[b]`` counts the ``c`` at most ``b/k`` for ``k`` a power of two
    (so ``c*k`` and ``u*k`` are exact), which starts the draw ``u`` in
    bucket ``floor(u*k)`` at or before its answer; a few steps forward
    finish nearly every draw and a binary search the rest.
    """
    cdf = np.cumsum(probs, dtype=np.float64)
    cdf /= cdf[-1]
    support = np.flatnonzero(probs)
    c = cdf[support]
    k = 1 << (c.size - 1).bit_length()
    guide = np.cumsum(np.bincount(np.ceil(c * k).astype(np.intp)))
    u = rng.random(t)
    idx = guide[(u * k).astype(np.intp)]
    live = np.flatnonzero(c[idx] <= u)
    for _ in range(_GUIDE_STEPS):
        if live.size == 0:
            break
        idx[live] += 1
        live = live[c[idx[live]] <= u[live]]
    else:
        idx[live] = np.searchsorted(c, u[live], side="right")
    return support[idx].astype(np.int64, copy=False)


def sample(dist: Distribution, t: int, rng: np.random.Generator) -> IndexedSampleSet:
    """Draw ``t`` i.i.d. samples from ``dist``; deterministic given rng state."""
    if t < 0:
        raise ValueError("sample count must be nonnegative")
    return IndexedSampleSet(draw(dist.probs, t, rng), dist.n)


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


def split_map(s: OccurrenceVector, n: int) -> SplitMap:
    """Bucket counts ``a_i = 1 + multiplicity of i in S``."""
    if s.n != n:
        raise ValueError("multiset alphabet does not match")
    return SplitMap(1 + s.counts)


def split_distribution(p: Distribution, sm: SplitMap) -> Distribution:
    """Distribution over the split alphabet: bucket ``(i, j)`` gets ``p_i / a_i``."""
    if p.n != sm.n:
        raise ValueError("mismatched alphabets")
    per_bucket = p.probs / sm.bucket_counts
    return Distribution(np.repeat(per_bucket, sm.bucket_counts))


def split_samples(letters: np.ndarray, sm: SplitMap, rng: np.random.Generator,
                  positions=None) -> np.ndarray:
    """Recast each draw (a sample set's letters) as a draw from the split
    distribution, a uniform bucket of its letter: the split letters, int64.

    ``positions`` (an index array into the samples) recasts only those
    samples, in that order.  One uniform is still drawn per sample, so each
    returned letter is the full recast's letter at its position.
    """
    u = rng.random(len(letters))
    if positions is not None:
        u, letters = u[positions], letters[positions]
    # rng.random() <= 1 - 2**-53, so j <= a - 1 for every a below 2**53
    j = np.floor(u * sm.bucket_counts[letters]).astype(np.int64)
    return sm.offsets[letters] + j


@dataclass(frozen=True)
class SplitOccurrenceMatrix:
    """Random splits of each letter's count into every bucket count up to a cap.

    ``row(i, j)`` is a fixed random split of ``X_i`` into ``j`` buckets (the
    buckets sum to ``X_i``); rows are drawn independently across ``(i, j)`` at
    construction time, which is what lets a later lookup stand in for
    recasting the underlying samples one by one.
    """

    splits: tuple  # splits[j-1] is a read-only (n, j) int64 array
    max_buckets: int

    def row(self, letter, buckets: int) -> np.ndarray:
        """Split of ``X_letter`` into ``buckets``; an index array of letters
        gives one row per letter."""
        if not 1 <= buckets <= self.max_buckets:
            raise ValueError("bucket count out of range")
        return self.splits[buckets - 1][letter]


def split_occurrence_matrix(x: OccurrenceVector, max_buckets: int,
                            rng: np.random.Generator) -> SplitOccurrenceMatrix:
    if max_buckets < 1:
        raise ValueError("need at least one bucket")
    splits = [x.counts.reshape(-1, 1)]
    for j in range(2, max_buckets + 1):
        splits.append(_readonly(rng.multinomial(x.counts, np.full(j, 1.0 / j))))
    return SplitOccurrenceMatrix(tuple(splits), max_buckets)


def l1_distance(p: Distribution, q: Distribution) -> float:
    if p.n != q.n:
        raise ValueError("mismatched alphabets")
    return float(np.abs(p.probs - q.probs).sum())


def l2_norm_sq(p: Distribution) -> float:
    return float(np.dot(p.probs, p.probs))


# ---------------------------------------------------------------------------
# Canonical text serialization of occurrence vectors: newline-delimited
# "index count" pairs.

def occurrence_to_text(x: OccurrenceVector) -> str:
    return "".join(f"{i} {int(x.counts[i])}\n" for i in range(x.n))


def occurrence_from_text(text: str) -> OccurrenceVector:
    pairs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if len(parts) == 2:
            pairs.append((int(parts[0]), int(parts[1])))
        elif parts:
            raise ValueError(f"line {lineno}: expected 'index count'")
    if not pairs:
        raise ValueError("empty serialization")
    pairs.sort()
    if [i for i, _ in pairs] != list(range(len(pairs))):
        raise ValueError("indices must be exactly 0..n-1")
    return OccurrenceVector([count for _, count in pairs])
