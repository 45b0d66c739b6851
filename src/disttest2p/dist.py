"""Discrete distributions, sample sets, occurrence vectors and split machinery.

Everything here works over a finite alphabet whose letters are the integers
``0 .. n-1``.  Probabilities are float64, counts are int64; every count
vector, the split multiset S included, is an :class:`OccurrenceVector`.  The
container types are frozen and hold read-only views of their arrays, so that
a container cannot change under a tester; random generators are never stored
inside them.  A view shares memory with the array it was built from
and leaves that array writeable: a caller who goes on to write to it changes
the container too.  A :class:`SplitOccurrenceMatrix` keeps the uniforms it
drew when built, not the generator.

A :class:`Distribution` is a law and the tables that draw from it: on its
first draw it builds an :class:`InverseCdf` (the cdf at its support, a guide
table, a mark on each bucket that holds two or more cdf values and, for a
law with zeros, the support's letters, all read-only) and keeps it, so a law
drawn from many times builds them once.  The tables are copies: a write to
the array under ``probs`` after the first draw does not reach them.  A joint
law keeps its tables the same way, with the row and the column of each
support cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
        if not np.isfinite(p).all():
            raise ValueError("probabilities must be finite")
        if p.min() < 0:
            raise ValueError("probabilities must be nonnegative")
        if abs(float(p.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probs", _readonly(p))

    @property
    def n(self) -> int:
        return self.probs.size

    @cached_property  # the law's inverse-cdf tables, built on its first draw
    def sampler(self) -> InverseCdf:
        return InverseCdf(self.probs)


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


_CHUNK = 8192  # draws per pass: the temporaries stay small and in cache


class InverseCdf:
    """``rng.choice(probs.size, size=t, p=probs.ravel())``, bit for bit,
    from tables built once per law, in O(1) expected time per draw.

    ``probs`` is a validated probability array of any shape, read in C
    order.  Like ``Generator.choice`` a draw inverts ``cdf = cumsum(probs) /
    total`` at uniforms from ``rng.random``, returning ``#{i : cdf[i] <= u}``;
    an indexed search replaces the binary search (Chen and Asau 1974;
    Devroye 1986, III.2).  The answer is always a cell where the cdf rises,
    hence of positive probability, so only the support is kept: the cdf
    values ``c`` at its cells, held as ``c*k``, and the cells' coordinates.
    The guide cuts ``[0, 1)`` into ``k`` buckets, two per support cell
    rounded up to a power of two (so ``c*k`` and ``u*k`` are exact):
    ``guide[b]`` counts the ``c`` at most ``b/k``.  A draw in bucket ``b``
    starts there and takes one step forward if the next ``c`` is at most
    ``u``.  That is its answer unless two or more ``c`` lie strictly inside
    the bucket: in a bucket holding none the next ``c`` is at least
    ``(b+1)/k > u``, so the draw does not step, and in a bucket holding one
    a step reaches it.  Buckets holding more are marked, and their draws
    are binary searched.  Every array is read-only.
    """

    def __init__(self, probs: np.ndarray):
        cdf = np.cumsum(probs, dtype=np.float64)
        cdf /= cdf[-1]
        support = np.flatnonzero(probs)
        k = 2 << (support.size - 1).bit_length()
        ck = cdf[support] * k
        # c[-1] == 1 exactly, so ceil(c * k) reaches k: k + 1 entries
        starts = np.bincount(np.ceil(ck).astype(np.intp))
        inside = np.floor(ck)
        inside = np.bincount(inside[inside != ck].astype(np.intp), minlength=k)
        self.k = k
        self.cdf_k = _readonly(ck)
        self.guide = _readonly(np.cumsum(starts[:k], dtype=np.int64))
        # buckets holding two or more cdf values strictly inside them
        self.marks = _readonly(inside > 1)
        self.crowded = bool(inside.max() > 1)  # some draws binary search
        self.ndim = probs.ndim
        # each support cell's coordinates, one table per axis; a vector
        # drawn on its whole alphabet needs none, as a cell is its letter
        full_vector = probs.ndim == 1 and support.size == probs.size
        self.cells = () if full_vector else tuple(
            _readonly(axis.astype(np.int64, copy=False))
            for axis in np.unravel_index(support, probs.shape))

    def draw(self, t: int, rng: np.random.Generator) -> tuple:
        """``t`` draws as their coordinates, one int64 array per axis.

        Above ``_CHUNK`` draws the uniforms come in passes of ``_CHUNK``,
        each filled by ``rng.random``: the stream of one ``rng.random(t)``
        call, read with temporaries that stay small.
        """
        if t <= _CHUNK:
            return self._coordinates(rng.random(t))
        out = tuple(np.empty(t, dtype=np.int64) for _ in range(self.ndim))
        u = np.empty(_CHUNK)
        for start in range(0, t, _CHUNK):
            chunk = u[:min(_CHUNK, t - start)]
            rng.random(out=chunk)
            for axis, coordinate in zip(out, self._coordinates(chunk)):
                axis[start:start + chunk.size] = coordinate
        return out

    def _coordinates(self, u: np.ndarray) -> tuple:
        """The coordinates of the cells that the uniforms ``u`` draw; ``u``
        is scaled in place."""
        u *= self.k  # exact: k is a power of two
        buckets = u.astype(np.intp)
        cell = self.guide.take(buckets)
        cell += self.cdf_k.take(cell) <= u
        if self.crowded:
            search = np.flatnonzero(self.marks.take(buckets))
            cell[search] = np.searchsorted(self.cdf_k, u.take(search),
                                           side="right")
        if not self.cells:
            return (cell,)
        return tuple(table.take(cell) for table in self.cells)


def sample(dist: Distribution, t: int, rng: np.random.Generator) -> IndexedSampleSet:
    """Draw ``t`` i.i.d. samples from ``dist``; deterministic given rng state."""
    if t < 0:
        raise ValueError("sample count must be nonnegative")
    (letters,) = dist.sampler.draw(t, rng)
    return IndexedSampleSet(letters, dist.n)


def split_map(s: OccurrenceVector, n: int) -> SplitMap:
    """Bucket counts ``a_i = 1 + multiplicity of i in S``."""
    if s.n != n:
        raise ValueError("multiset alphabet does not match")
    return SplitMap(1 + s.counts)


def split_samples(letters: np.ndarray, sm: SplitMap,
                  rng: np.random.Generator) -> np.ndarray:
    """Recast each draw (a sample set's letters) as a draw from the split
    distribution, a uniform bucket of its letter: the split letters, int64."""
    u = rng.random(len(letters))
    # rng.random() <= 1 - 2**-53, so j <= a - 1 for every a below 2**53
    j = np.floor(u * sm.bucket_counts[letters]).astype(np.int64)
    return sm.offsets[letters] + j


class SplitOccurrenceMatrix:
    """Random splits of each letter's count into every bucket count up to a cap.

    It keeps one uniform ``u`` per occurrence, drawn in letter order when it
    is built.  Row ``(i, j)`` puts each occurrence of letter ``i`` into bucket
    ``floor(u * j)``, as :func:`split_samples` does: a multinomial split of
    ``X_i`` into ``j`` equal buckets, independent across letters, the same
    row at every read.  A letter's rows at two bucket counts share its
    uniforms, so they are nested, not independent; a vote reads one.
    """

    def __init__(self, x: OccurrenceVector, max_buckets: int,
                 rng: np.random.Generator):
        if max_buckets < 1:
            raise ValueError("need at least one bucket")
        self.x = x
        self.max_buckets = max_buckets
        self._uniforms = rng.random(x.t)
        self._firsts = np.cumsum(x.counts) - x.counts  # each letter's first

    def rows(self, letters, buckets) -> np.ndarray:
        """Row ``(letters[r], buckets[r])`` for each ``r``, laid end to end:
        ``sum(buckets)`` bucket counts, int64."""
        letters = np.asarray(letters, dtype=np.int64)
        buckets = np.asarray(buckets, dtype=np.int64)
        if buckets.size and not (1 <= buckets.min()
                                 and buckets.max() <= self.max_buckets):
            raise ValueError("bucket count out of range")
        counts = self.x.counts[letters]
        owner = np.repeat(np.arange(letters.size), counts)  # row of each read
        shift = self._firsts[letters] - (np.cumsum(counts) - counts)
        u = self._uniforms.take(np.arange(owner.size) + shift.take(owner))
        start = np.cumsum(buckets) - buckets
        # floor(u * j) <= j - 1, as in split_samples
        return np.bincount((u * buckets.take(owner)).astype(np.int64)
                           + start.take(owner), minlength=int(buckets.sum()))

    def row(self, letter, buckets: int) -> np.ndarray:
        """Split of ``X_letter`` into ``buckets``, read-only; an index array of
        letters gives one row per letter."""
        letters = np.asarray(letter, dtype=np.int64)
        flat = self.rows(letters.ravel(), np.full(letters.size, buckets))
        return _readonly(flat.reshape(letters.shape + (buckets,)))


def split_occurrence_matrix(x: OccurrenceVector, max_buckets: int,
                            rng: np.random.Generator) -> SplitOccurrenceMatrix:
    """A :class:`SplitOccurrenceMatrix` of ``x``, drawn from ``rng``."""
    return SplitOccurrenceMatrix(x, max_buckets, rng)


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
