"""Two-party independence tester and its alphabet-reduction machinery.

The tester never estimates the distance to the product distribution on the
full ``[n] x [m]`` alphabet.  Instead each repetition splits both marginals,
samples a small letter set on Alice's side, and pairs her restricted samples
once with Bob's index-aligned samples (simulating the joint law) and once with
an independent block (simulating the product of marginals).  The two paired
sample sets are then closeness-tested with the exact squared distance of their
occurrence vectors, gated by a factor-4 collision-norm agreement check.

A repetition is two halves, :func:`_alice_half` and :func:`_bob_half`, and
each half runs every repetition of a row in one array pass: the
repetitions' split alphabets lie end to end as one, and each random stream
serves all of them, so a row opens five streams whatever its vote count.
The two-way IT2p runs both halves inside its trusted evaluation, charged the
closed-form cost ``ITParams.secure_bits``; the one-way variant runs them on
either side of one message.  Same inputs and seed give both testers the same
votes.  A vote reads Bob's samples only at Alice's pool, the few hundred
sample indices carrying her live letters, so Bob recasts his blocks only
there, and one sort of the paired subsets' codes gives every vote's
collision norms and exact distance.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .closeness import norm_estimates_agree, threshold_tau
from .dist import (
    Distribution,
    IndexedSampleSet,
    InverseCdf,
    SplitMap,
    split_samples,
)
from .harness import (
    ConfigError,
    Decision,
    ProtocolError,
    Recv,
    Send,
    SharedRandomness,
    Verdict,
    check_params,
    majority,
    modeled_bits,
    run_protocol,
    trusted_evaluate,
)
from .sketch import collision_norm_estimate


def indices_set_vector(letters: np.ndarray, n: int) -> tuple:
    """Per-letter sets of sample indices, the inverse of a sample set's
    letters (each below ``n``): ``(order, boundaries)``, where ``order``
    groups the indices by letter (ascending within one) and letter ``j``'s
    set is ``order[boundaries[j]:boundaries[j + 1]]``."""
    if letters.size and letters.max() >= n:
        raise ValueError("sample letter out of range")
    # The narrowest key type that holds the letters: numpy radix-sorts keys
    # of up to 16 bits, and a stable order does not depend on the algorithm.
    order = np.argsort(letters.astype(np.min_scalar_type(n)), kind="stable")
    boundaries = np.searchsorted(letters[order], np.arange(n + 1))
    return order, boundaries


@dataclass(frozen=True)
class JointDistribution:
    """Explicit joint probability matrix over ``[n] x [m]``."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 2:
            raise ValueError("joint probabilities must be a matrix")
        flat = Distribution(p.ravel()).probs  # the probability-vector rule
        object.__setattr__(self, "probs", flat.reshape(p.shape))

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def m(self) -> int:
        return self.probs.shape[1]

    def marginal_rows(self) -> Distribution:
        return Distribution(self.probs.sum(axis=1))

    def marginal_cols(self) -> Distribution:
        return Distribution(self.probs.sum(axis=0))

    def l1_to_product(self) -> float:
        outer = np.outer(self.marginal_rows().probs, self.marginal_cols().probs)
        return float(np.abs(self.probs - outer).sum())

    @cached_property  # the law's inverse-cdf tables, built on its first draw
    def sampler(self) -> InverseCdf:
        return InverseCdf(self.probs)

    def sample_joint(self, t: int, rng: np.random.Generator
                     ) -> tuple[IndexedSampleSet, IndexedSampleSet]:
        """t index-aligned draws; sample i is one joint draw shared by Alice/Bob."""
        rows, cols = self.sampler.draw(t, rng)
        return IndexedSampleSet(rows, self.n), IndexedSampleSet(cols, self.m)


def product_joint(p1: Distribution, p2: Distribution) -> JointDistribution:
    return JointDistribution(np.outer(p1.probs, p2.probs))


def diagonal_joint(n: int, m: int) -> JointDistribution:
    """Mass 1/n on cells ``(i, i mod m)``: uniform marginals, far from product."""
    probs = np.zeros((n, m))
    probs[np.arange(n), np.arange(n) % m] = 1.0 / n
    return JointDistribution(probs)


def diagonal_distance(n: int, m: int) -> float:
    """ell_1 distance of ``diagonal_joint(n, m)`` from the product of its
    marginals: ``2 - 2 sum_j c_j^2 / n^2``, where ``c_j = #{i < n : i mod m = j}``
    (``2(1 - 1/m)`` at n = m)."""
    q, r = divmod(n, m)  # r columns hold q + 1 rows, the other m - r hold q
    return 2 * (n * n - r * (q + 1) ** 2 - (m - r) * q * q) / (n * n)


def far_joint(n: int, m: int, d: float) -> JointDistribution:
    """A joint law at ell_1 distance ``d`` from the product of its marginals:
    ``diagonal_joint(n, m)`` mixed into the product of its marginals at
    weight ``d / diagonal_distance(n, m)``.  The mixture keeps the diagonal's
    marginals, so its distance is the weight times the diagonal's."""
    bound = diagonal_distance(n, m)
    if not 0 < d <= bound:  # NaN fails too
        raise ConfigError(f"d={d} is outside (0, {bound:.4g}], the distances "
                          f"from product reachable at n={n}, m={m}")
    diag = diagonal_joint(n, m)
    w = d / bound
    product = np.outer(diag.marginal_rows().probs, diag.marginal_cols().probs)
    return JointDistribution((1 - w) * product + w * diag.probs)


@dataclass(frozen=True)
class ITParams:
    """Parameters of the independence tester.

    Constants default to the committed calibration (the asymptotic statement
    leaves them free): ``big_c`` scales the sample-count precondition, ``c1``
    caps the per-repetition sample budget, ``c2`` sizes the sampled letter
    set, ``c3`` the paired subsets, and ``c_eps`` the threshold's effective
    distance after alphabet reduction.
    """

    n: int
    m: int
    t: int
    eps: float
    k: int
    big_c: float = 100.0
    c1: float = 16.0
    c2: float = 24.0
    c3: float = 2.0
    c_eps: float = 1.35

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise ConfigError("need n >= m >= 1")
        if self.k < 1:
            raise ConfigError("security parameter must be at least 1")
        check_params(self,
                     "C*k*(n^(2/3) m^(1/3) eps^(-4/3) + sqrt(nm)/eps^2)",
                     ("big_c", "c1", "c2", "c3", "c_eps"),
                     ("t_prime", "ell_target", "subset_budget"))
        if self.t_prime < 4:
            raise ConfigError("too few samples per sample set")

    def min_samples(self) -> float:
        return self.big_c * self.k * (
            self.n ** (2 / 3) * self.m ** (1 / 3) * self.eps ** (-4 / 3)
            + math.sqrt(self.n * self.m) / self.eps ** 2)

    @property
    def votes(self) -> int:
        """Repetitions voted over: k rounded up to odd."""
        return self.k | 1

    @cached_property  # the derived sizes all read it; a failed call caches nothing
    def t_prime(self) -> int:
        cap = math.floor(self.c1 * self.n * math.sqrt(self.m) / self.eps)
        return min(self.t // (3 * self.votes), cap)

    @cached_property
    def ell_target(self) -> int:
        """Requested size of the sampled letter set (capped per repetition at
        the split alphabet size)."""
        tp = self.t_prime
        need = max(self.n ** 3 * self.m / (tp ** 3 * self.eps ** 4),
                   self.n ** 2 * self.m / (tp ** 2 * self.eps ** 4),
                   1.0 / self.eps ** 2)
        return max(1, math.ceil(self.c2 * need))

    @property
    def subset_budget(self) -> int:
        return max(1, math.ceil(self.c3 * self.t_prime * self.ell_target / self.n))

    @property
    def eps_reduced(self) -> float:
        return self.c_eps * self.eps

    @property
    def secure_bits(self) -> int:
        """IT2p's modeled cost (one-way IT2p is plaintext): per repetition,
        ``max(1, ceil(t' ell / n))`` lookups into ``6 votes t' + n`` words."""
        return modeled_bits(
            self.votes * max(1, math.ceil(self.t_prime * self.ell_target
                                          / self.n)),
            6 * self.votes * self.t_prime + self.n)


@dataclass(frozen=True)
class Repetition:
    """One repetition's reduction, statistics and vote."""

    sm_a: SplitMap
    live: np.ndarray       # Alice's sampled split letters, ascending
    pool: np.ndarray       # her sample indices carrying them
    a_letters: np.ndarray  # her split letters at the pool
    subsets: tuple         # the four paired subsets, as positions in the pool
    chi: bool              # the collision norms of x1 and y1 agree
    delta: float           # the exact ||X2 - Y2||^2
    tau: float             # the threshold delta is held to
    vote: Decision

    @property
    def lam(self) -> int:
        return self.live.size

    @property
    def abstained(self) -> bool:
        return self.pool.size < 4


def _blocks(letters: np.ndarray, params: ITParams) -> np.ndarray:
    """A party's letters as ``(votes, 3, t')`` blocks, three per repetition."""
    tp, reps = params.t_prime, params.votes
    return letters[:3 * reps * tp].reshape(reps, 3, tp)


def _stacked(letters: np.ndarray, alphabet: int) -> np.ndarray:
    """Row ``r``'s letters moved to ``r * alphabet + letter``: the rows'
    alphabets laid end to end as one."""
    return letters + alphabet * np.arange(len(letters))[:, None]


def _split_rows(split_blocks: np.ndarray, n: int) -> SplitMap:
    """Each row's split map, by its row of ``split_blocks``, as one map over
    the stacked alphabets: row ``r``'s letter ``i`` is ground letter
    ``r * n + i``, and its split letters follow those of row ``r - 1``."""
    return SplitMap(1 + np.bincount(_stacked(split_blocks, n).ravel(),
                                    minlength=n * len(split_blocks)))


class _Pools(NamedTuple):
    """Alice's half of every repetition (see :func:`_alice_half`): per
    repetition, her split map's bucket counts and the mask of her live
    letters; and her pool, one entry per sample, as the sample's repetition,
    its index in the block and her split letter there, grouped by
    repetition."""

    bucket_counts: np.ndarray
    live: np.ndarray
    rep: np.ndarray
    at: np.ndarray
    letters: np.ndarray

    @property
    def lam(self) -> np.ndarray:
        return self.live.sum(axis=1)

    @property
    def edges(self) -> np.ndarray:
        """Repetition ``r``'s pool entries are ``edges[r]:edges[r + 1]``."""
        return np.searchsorted(self.rep, np.arange(len(self.live) + 1))


class _Votes(NamedTuple):
    """Bob's half of every repetition (see :func:`_bob_half`): the chosen
    pool entries, by repetition and then quarter; and per repetition, the
    quarter size, the collision-norm gate chi, the exact distance delta and
    its threshold tau."""

    chosen: np.ndarray
    size: np.ndarray
    chi: np.ndarray
    delta: np.ndarray
    tau: np.ndarray

    @property
    def decisions(self) -> list:
        return [Decision.SAME if ok else Decision.FAR
                for ok in (self.chi & (self.delta <= self.tau)).tolist()]


def _alice_half(split_blocks, blocks, params: ITParams,
                shared: SharedRandomness) -> _Pools:
    """Alice's half of every repetition: the letters she keeps and their samples.

    Row ``r`` of the ``(votes, T)`` arrays is repetition ``r``.  It splits
    her alphabet by the first ``s = min(t', n)`` letters of its split block;
    the repetitions' split alphabets, ``n + s`` letters each, lie end to
    end, so one recast and one :func:`indices_set_vector` serve them all.
    Its universe is a uniform ell-subset of its split letters, a row of one
    permutation per repetition cut at ell, and its live letters are those
    that its block, recast onto the split alphabet, hits.  Only the samples
    whose letter owns a universe letter can hit one, so only they are
    recast.  At most ``ceil(100 t' ell / n)`` live letters are kept, the
    first in the universe's uniform order, so a uniform subset when the cap
    binds.  The pool is the sample indices carrying them, grouped by letter,
    ascending within one.
    """
    n = params.n
    votes, width = blocks.shape
    sm = _split_rows(split_blocks[:, :min(params.t_prime, n)], n)
    alphabet = sm.total_letters // votes
    ell = min(params.ell_target, alphabet)
    universe = np.arange(votes * alphabet).reshape(votes, alphabet)
    shared.stream("oneway-universe").permuted(universe, axis=1, out=universe)
    universe = universe[:, :ell]
    owners = np.zeros(votes * n, bool)
    owners[np.searchsorted(sm.offsets, universe, "right") - 1] = True
    letters = _stacked(blocks, n).ravel()
    read = np.flatnonzero(owners[letters])
    a = split_samples(letters[read], sm, shared.stream("alice-recast"))
    order, bounds = indices_set_vector(a, votes * alphabet)
    hit = bounds[universe + 1] > bounds[universe]
    cap = math.ceil(100.0 * params.t_prime * ell / n)
    live = np.zeros(votes * alphabet, bool)
    live[universe[hit & (np.cumsum(hit, axis=1) <= cap)]] = True
    kept = order[np.repeat(live, np.diff(bounds))]
    rep, at = np.divmod(read[kept], width)
    return _Pools(sm.bucket_counts.reshape(votes, n),
                  live.reshape(votes, alphabet), rep, at,
                  a[kept] - alphabet * rep)


def _bob_half(b, rep, at, a_letters, lam, params: ITParams,
              shared: SharedRandomness) -> _Votes:
    """Bob's half of every repetition, given Alice's pools and her letters.

    ``b`` is his ``(votes, 3, T)`` blocks; the pool entries ``(rep, at)``,
    her letters there and ``lam`` are as :func:`_alice_half` gives them (the
    pool need only be grouped by repetition).  Each repetition shuffles its
    pool, and the first four quarters of ``min(subset_budget, |pool| // 4)``
    entries pair Alice's letters with Bob's joint (p) and product (q)
    blocks, p, q, p, q: ``x1, y1, x2, y2``.  Each repetition splits his
    alphabet by its first block, and a block is recast only where a quarter
    reads it, one uniform per sample read.  One sort of the pair codes,
    tagged ``(repetition, quarter, a, b)``, counts every code: each
    repetition's ``x1`` and ``y1`` counts are one slice each, for the
    collision-norm gate, and ``x2`` against ``y2`` gives the exact squared
    distance.  A pool of fewer than four samples has empty quarters and
    votes SAME.
    """
    m, n_a = params.m, params.n + min(params.t_prime, params.n)
    votes = len(b)
    shuffle = shared.stream("oneway-bob").permutation(rep.size)
    # Stable by repetition: each repetition's entries in a uniform order.
    shuffle = shuffle[np.argsort(rep[shuffle].astype(np.min_scalar_type(votes)),
                                 kind="stable")]
    sizes = np.bincount(rep, minlength=votes)
    size = np.minimum(params.subset_budget, sizes // 4)
    rank = np.arange(rep.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    quarter_size = np.repeat(size, sizes)
    kept = rank < 4 * quarter_size
    chosen, quarter = shuffle[kept], rank[kept] // quarter_size[kept]
    r, i = rep[chosen], at[chosen]
    sm = _split_rows(b[:, 0, :m], m)
    n_b = sm.total_letters // votes
    b_p = split_samples(b[r, 1, i] + m * r, sm, shared.stream("bob-recast-p"))
    b_q = split_samples(b[r, 2, i] + m * r, sm, shared.stream("bob-recast-q"))
    b_letters = np.where(quarter % 2, b_q, b_p) - n_b * r
    span = n_a * n_b
    values = np.sort((4 * r + quarter) * span + a_letters[chosen] * n_b
                     + b_letters)
    first = np.ones(values.size, bool)  # a code's first place in the sort
    first[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, values.size))
    values = values[starts]
    group = values // span  # 4 * repetition + quarter
    # ||X2 - Y2||^2 = sum x^2 + sum y^2 - 2 sum xy, where a code of y2 is
    # matched by the same code one group back, in x2.
    y2 = np.flatnonzero(group % 4 == 3)
    match = np.searchsorted(values, values[y2] - span)
    held = values[match] == values[y2] - span
    delta = (np.bincount(group // 4, counts ** 2 * (group % 4 >= 2),
                         minlength=votes)
             - 2 * np.bincount(group[y2[held]] // 4,
                               counts[y2[held]] * counts[match[held]],
                               minlength=votes))
    edges = np.searchsorted(group, np.arange(4 * votes + 1))
    chi = np.array([
        s < 2 or norm_estimates_agree(
            collision_norm_estimate(counts[edges[4 * j]:edges[4 * j + 1]]),
            collision_norm_estimate(counts[edges[4 * j + 1]:edges[4 * j + 2]]),
            int(s))
        for j, s in enumerate(size)], dtype=bool)
    tau = np.array([threshold_tau(max(1, int(lam_j) * m), int(s),
                                  params.eps_reduced)
                    for lam_j, s in zip(lam, size)])
    return _Votes(chosen, size, chi, delta, tau)


def _evaluate(a, b, params: ITParams, shared: SharedRandomness):
    """Both halves of every repetition in the clear, as IT2p evaluates them:
    Alice's split and recast blocks are ``a[:, 0]`` and ``a[:, 1]``."""
    pools = _alice_half(a[:, 0], a[:, 1], params, shared)
    return pools, _bob_half(b, pools.rep, pools.at, pools.letters, pools.lam,
                            params, shared)


def _repetitions(pools: _Pools, votes: _Votes) -> list[Repetition]:
    """One :class:`Repetition` per repetition of the two halves."""
    edges, chosen_edges = pools.edges, np.cumsum(np.r_[0, 4 * votes.size])
    reps = []
    for j, vote in enumerate(votes.decisions):
        lo, hi = edges[j], edges[j + 1]
        quarters = votes.chosen[chosen_edges[j]:chosen_edges[j + 1]] - lo
        reps.append(Repetition(
            SplitMap(pools.bucket_counts[j]), np.flatnonzero(pools.live[j]),
            pools.at[lo:hi], pools.letters[lo:hi],
            tuple(quarters.reshape(4, votes.size[j])), bool(votes.chi[j]),
            float(votes.delta[j]), float(votes.tau[j]), vote))
    return reps


def run_repetition(a_split_block, a_block, b_split_block, bp_block, bq_block,
                   params: ITParams, shared: SharedRandomness) -> Repetition:
    """One repetition in the clear: the repetition kernel on one row."""
    (rep,) = _repetitions(*_evaluate(
        np.stack((a_split_block, a_block))[None],
        np.stack((b_split_block, bp_block, bq_block))[None], params, shared))
    return rep


def _check_inputs(alice, bob, params):
    if alice.t != bob.t:
        raise ConfigError("parties must hold index-aligned samples")
    if alice.t < 3 * params.votes * params.t_prime:
        raise ConfigError("not enough samples for the configured sample sets")
    if alice.n != params.n or bob.n != params.m:
        raise ConfigError("sample alphabets do not match params")


def it2p(alice: IndexedSampleSet, bob: IndexedSampleSet, params: ITParams,
         seed: int) -> Verdict:
    """Two-way tester; all work is modeled inside the trusted evaluation."""
    _check_inputs(alice, bob, params)
    shared = SharedRandomness(seed)
    (pools, votes), transcript = trusted_evaluate(
        lambda a, b: _evaluate(_blocks(a.letters, params),
                               _blocks(b.letters, params), params, shared),
        alice, bob, params.secure_bits)
    return Verdict(majority(votes.decisions, Decision.PRODUCT), transcript,
                   lambda_mean=float(pools.lam.mean()))


def _letter_field(alphabet: int) -> str:
    """The one-way wire's letter type: ``<u2`` up to 2^16 letters, else ``<u4``."""
    return "<u2" if alphabet <= 1 << 16 else "<u4"


def _decode_oneway(payload: bytes, reps: int, t_prime: int,
                   alphabet: int) -> list:
    """Bob's parse of Alice's message into ``(lam, pool, letters)`` per repetition.

    A repetition is ``<u4 lam`` and, when ``lam > 0``, ``<u4 pool_size``, the
    pool's sample indices (``<u4``, each below ``t_prime``) and Alice's split
    letters at them (each below ``alphabet``, the size of her split alphabet,
    typed by :func:`_letter_field`).  The indices are distinct, and the
    letters take exactly ``lam`` values: every live letter owns an index.
    """
    offset = 0

    def take(count: int, dtype: str) -> np.ndarray:
        nonlocal offset
        end = offset + count * np.dtype(dtype).itemsize
        if end > len(payload):
            raise ProtocolError("truncated one-way payload")
        values = np.frombuffer(payload, dtype, count, offset).astype(np.int64)
        offset = end
        return values

    out = []
    for _ in range(reps):
        lam = int(take(1, "<u4")[0])
        pool_size = int(take(1, "<u4")[0]) if lam else 0
        pool = take(pool_size, "<u4")
        letters = take(pool_size, _letter_field(alphabet))
        if pool.size and pool.max() >= t_prime:
            raise ProtocolError("pool index out of range")
        if letters.size and letters.max() >= alphabet:
            raise ProtocolError(f"pool letter not below {alphabet}")
        # Both bincounts are bounded by the two checks above.
        if (np.bincount(pool) > 1).any():
            raise ProtocolError("repeated pool index")
        if np.count_nonzero(np.bincount(letters)) != lam:
            raise ProtocolError(f"pool letters are not {lam} distinct letters")
        out.append((lam, pool, letters))
    if offset != len(payload):
        raise ProtocolError("trailing bytes after the one-way payload")
    return out


def one_way_it2p(alice: IndexedSampleSet, bob: IndexedSampleSet,
                 params: ITParams, seed: int) -> Verdict:
    """One-round variant: Alice ships her restricted samples, Bob decides."""
    _check_inputs(alice, bob, params)
    shared = SharedRandomness(seed)
    tp, reps = params.t_prime, params.votes
    alphabet = params.n + min(tp, params.n)  # Alice's split alphabet size

    def alice_program():
        a = _blocks(alice.letters, params)
        pools = _alice_half(a[:, 0], a[:, 1], params, shared)
        edges = pools.edges
        chunks = []
        for lam, lo, hi in zip(pools.lam.tolist(), edges[:-1], edges[1:]):
            chunks.append(struct.pack("<I", lam))
            if lam:
                chunks += [struct.pack("<I", hi - lo),
                           pools.at[lo:hi].astype("<u4").tobytes(),
                           pools.letters[lo:hi].astype(
                               _letter_field(alphabet)).tobytes()]
        yield Send(b"".join(chunks))
        return None

    def bob_program():
        payload = yield Recv()
        lam, at, letters = zip(*_decode_oneway(payload, reps, tp, alphabet))
        rep = np.repeat(np.arange(reps), [pool.size for pool in at])
        votes = _bob_half(_blocks(bob.letters, params), rep, np.concatenate(at),
                          np.concatenate(letters), lam, params, shared)
        return majority(votes.decisions, Decision.PRODUCT), float(np.mean(lam))

    _, (decision, lam_mean), transcript = run_protocol(alice_program(),
                                                       bob_program())
    return Verdict(decision, transcript, lambda_mean=lam_mean)
