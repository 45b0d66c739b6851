"""L2 machinery: linear sketches, collision norm estimates, rotations.

The sketch is a CountSketch (fast-AGMS): 4-wise independent Carter-Wegman
hashes put each coordinate in one of ``group_size`` buckets per group with a
+-1 sign; the squared norm is the median over groups of the sums of squared
buckets.  Same-seed sketches are linear, which is what lets two parties
estimate ``||X - Y||^2`` from the difference of their counter vectors.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .harness import ProtocolError

_PRIME = (1 << 31) - 1  # Mersenne prime modulus of the polynomial hashes
_ROTATION_GRID_BITS = 20  # RoundedRotation rounds its entries to 2**-20


@dataclass(frozen=True)
class L2Sketch:
    """Linear sketch of an integer vector.

    ``counters`` has ``groups * group_size`` entries; estimation takes the
    sum of squares inside each group and the median across groups.
    """

    counters: np.ndarray
    seed: int
    alpha: float
    delta: float
    groups: int
    group_size: int

    def to_bytes(self) -> bytes:
        """Length-prefixed float64 counter vector (one 64-bit word each)."""
        return struct.pack("<I", self.counters.size) + \
            self.counters.astype("<f8", copy=False).tobytes()


def sketch_from_bytes(payload: bytes, template: L2Sketch) -> L2Sketch:
    """Inverse of :meth:`L2Sketch.to_bytes`, into the receiver's ``template``."""
    width = template.counters.size
    if len(payload) != 4 + 8 * width or \
            struct.unpack_from("<I", payload, 0)[0] != width:
        raise ProtocolError(f"sketch payload does not hold {width} counters")
    counters = np.frombuffer(payload, dtype="<f8", offset=4, count=width)
    if not np.isfinite(counters).all():
        raise ProtocolError("sketch payload holds a non-finite counter")
    return replace(template, counters=counters)


def sketch_width(alpha: float, delta: float) -> tuple[int, int]:
    """(groups, group_size) for a (1 +- alpha) estimate failing w.p. <= delta."""
    groups = max(1, math.ceil(9.0 * math.log(1.0 / delta)))
    group_size = max(1, math.ceil(6.0 / alpha ** 2))
    return groups, group_size


def l2_sketch(vector, alpha: float, delta: float, seed: int) -> L2Sketch:
    """Sketch a count vector (or anything array-like) at relative error alpha.

    Hashes only nonzero coordinates (O(nnz * groups) time, O(counters)
    memory); float64 counters keep integer sketches exactly linear.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    v = np.asarray(getattr(vector, "counts", vector), dtype=np.float64)
    if v.size >= _PRIME:
        raise ValueError(f"vector length must be below {_PRIME}")
    groups, group_size = sketch_width(alpha, delta)
    coeffs = np.random.default_rng(seed).integers(
        0, _PRIME, size=(4, 2 * groups, 1), dtype=np.int64)
    nz = np.flatnonzero(v)
    top = int(nz[-1]) if nz.size else 0
    # Degree-3 polynomials by Horner's rule in exact int64 arithmetic; rows
    # [:groups] give buckets and rows [groups:] signs.  ``hi`` bounds every
    # entry of ``h``: coefficients and residues are below _PRIME < 2**31 and
    # a step takes the bound to hi * top + _PRIME - 1, so ``h`` is reduced
    # mod _PRIME only before a step that could pass 2**63.  That is one
    # reduction in all (the last) for top <= 1625, two for top < 2**16 and
    # three above; the residues are those of reducing at every step.
    h = coeffs[0] * nz
    h += coeffs[1]
    hi = (_PRIME - 1) * (top + 1)
    for c in coeffs[2:]:
        if hi * top + _PRIME > 1 << 63:
            h -= h // _PRIME * _PRIME
            hi = _PRIME - 1
        h *= nz
        h += c
        hi = hi * top + _PRIME - 1
    h -= h // _PRIME * _PRIME
    buckets = h[:groups]
    buckets -= buckets // group_size * group_size
    buckets += group_size * np.arange(groups)[:, None]
    signs = 1 - 2 * (h[groups:] & 1)
    counters = np.bincount(buckets.ravel(), weights=(signs * v[nz]).ravel(),
                           minlength=groups * group_size)
    return L2Sketch(counters, seed, alpha, delta, groups, group_size)


def estimate_distance_sq(sa: L2Sketch, sb: L2Sketch) -> float:
    """Estimate ``||X - Y||^2`` from two same-seed sketches."""
    if (sa.seed, sa.alpha, sa.delta) != (sb.seed, sb.alpha, sb.delta):
        raise ValueError("sketches built with different seed or accuracy")
    if sa.counters.size != sb.counters.size:
        raise ValueError("sketch widths differ")
    sq = sa.counters - sb.counters
    sq *= sq
    return float(np.median(sq.reshape(sa.groups, sa.group_size).sum(axis=1)))


def collision_norm_estimate(counts) -> float:
    """Unbiased collision estimate of ``||p||_2^2`` from a sample set's counts.

    Returns ``sum_i C(X_i, 2) / C(t, 2)``; needs at least two samples.  Takes
    an occurrence vector or a bare count array, with or without the zero
    counts (they add no collisions).
    """
    counts = np.asarray(getattr(counts, "counts", counts), dtype=np.int64)
    t = int(counts.sum())
    if t < 2:
        raise ValueError("need at least two samples to count collisions")
    collisions = float((counts * (counts - 1) // 2).sum())
    return collisions / (t * (t - 1) / 2.0)


def haar_rotate(v, rng: np.random.Generator) -> np.ndarray:
    """``Rv`` for a Haar-random rotation ``R``, drawn in law without ``R``;
    each vector along the last axis gets its own independent rotation.

    A Haar rotation sends ``v`` to a uniform point on the sphere of radius
    ``||v||``, which is ``||v|| g / ||g||`` for ``g ~ N(0, I_n)``: O(n) work
    against the O(n^3) QR factorization behind :class:`RoundedRotation`.
    """
    v = np.asarray(getattr(v, "counts", v), dtype=np.float64)
    g = rng.standard_normal(v.shape)
    norm_sq = (v * v).sum(axis=-1, keepdims=True)
    return np.sqrt(norm_sq / (g * g).sum(axis=-1, keepdims=True)) * g


class RoundedRotation:
    """Seeded near-orthonormal rotation with entries rounded to a fixed grid.

    The matrix is the Q factor of a seeded Gaussian matrix (sign-corrected so
    it is Haar-distributed), with every entry rounded to the nearest multiple
    of ``2**-_ROTATION_GRID_BITS``.  It is a pure function of ``(n, seed)``:
    the same inputs give a bit-identical matrix, which is how two parties
    could share it by exchanging only the seed.  The secure reference draws
    ``Rv`` with :func:`haar_rotate` instead; this explicit matrix is the
    reference its law is tested against.
    """

    def __init__(self, n: int, seed: int):
        if n < 1:
            raise ValueError("dimension must be positive")
        self.n = n
        self.seed = seed
        self._matrix = None

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            rng = np.random.default_rng(self.seed)
            g = rng.standard_normal((self.n, self.n))
            q, r = np.linalg.qr(g)
            q = q * np.sign(np.diag(r))
            scale = float(1 << _ROTATION_GRID_BITS)
            self._matrix = np.round(q * scale) / scale
        return self._matrix

    def apply(self, v) -> np.ndarray:
        v = np.asarray(getattr(v, "counts", v), dtype=np.float64)
        return self.matrix() @ v
