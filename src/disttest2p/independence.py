"""Two-party independence tester and its alphabet-reduction machinery.

The tester never estimates the distance to the product distribution on the
full ``[n] x [m]`` alphabet.  Instead each repetition splits both marginals,
samples a small letter set on Alice's side, and pairs her restricted samples
once with Bob's index-aligned samples (simulating the joint law) and once with
an independent block (simulating the product of marginals).  The two paired
sample sets are then closeness-tested with the exact squared distance of their
occurrence vectors, gated by a factor-4 collision-norm agreement check.

A repetition is two halves, :func:`_alice_pool` and :func:`_bob_vote`.  The
two-way IT2p runs both inside its trusted evaluation; the one-way variant
runs them on either side of one message.  Same inputs and seed give both
testers the same votes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .closeness import norm_estimates_agree, threshold_tau
from .dist import (
    Distribution,
    IndexedSampleSet,
    Multiset,
    SplitMap,
    draw,
    split_map,
    split_samples,
)
from .harness import (
    CircuitSpec,
    ConfigError,
    Decision,
    ProtocolError,
    Recv,
    Send,
    SharedRandomness,
    Verdict,
    check_params,
    majority,
    run_protocol,
    secure_transcript,
    trusted_evaluate,
)
from .sketch import collision_norm_estimate


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

    The law of the live-letter count before the cap in :func:`_alice_pool`.
    """
    if alpha > n or beta > n:
        raise ValueError("subset sizes cannot exceed the ground set")
    if alpha == 0 or beta == 0:
        return 0
    return int(rng.hypergeometric(ngood=alpha, nbad=n - alpha, nsample=beta))


def indices_set_vector(samples: IndexedSampleSet, n: int) -> tuple:
    """Per-letter sets of sample indices, the inverse of a sample set:
    ``(order, boundaries)``, where ``order`` groups the indices by letter
    (ascending within one) and letter ``j``'s set is
    ``order[boundaries[j]:boundaries[j + 1]]``."""
    if samples.t and samples.letters.max() >= n:
        raise ValueError("sample letter out of range")
    # The narrowest key type that holds the letters: numpy radix-sorts keys
    # of up to 16 bits, and a stable order does not depend on the algorithm.
    keys = samples.letters.astype(np.min_scalar_type(n))
    order = np.argsort(keys, kind="stable")
    boundaries = np.searchsorted(samples.letters[order], np.arange(n + 1))
    return order, boundaries


@dataclass(frozen=True)
class JointDistribution:
    """Explicit joint probability matrix over ``[n] x [m]``."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 2 or p.size == 0:
            raise ValueError("joint probabilities must be a non-empty matrix")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
        p = np.ascontiguousarray(p)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

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

    def sample_joint(self, t: int, rng: np.random.Generator
                     ) -> tuple[IndexedSampleSet, IndexedSampleSet]:
        """t index-aligned draws; sample i is one joint draw shared by Alice/Bob."""
        rows, cols = np.divmod(draw(self.probs.ravel(), t, rng), self.m)
        return IndexedSampleSet(rows, self.n), IndexedSampleSet(cols, self.m)


def product_joint(p1: Distribution, p2: Distribution) -> JointDistribution:
    return JointDistribution(np.outer(p1.probs, p2.probs))


def diagonal_joint(n: int, m: int) -> JointDistribution:
    """Mass 1/n on cells ``(i, i mod m)``: uniform marginals, far from product."""
    probs = np.zeros((n, m))
    probs[np.arange(n), np.arange(n) % m] = 1.0 / n
    return JointDistribution(probs)


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

    @property
    def t_prime(self) -> int:
        cap = math.floor(self.c1 * self.n * math.sqrt(self.m) / self.eps)
        return min(self.t // (3 * self.votes), cap)

    @property
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


def _pair_codes(a_letters: np.ndarray, b_letters: np.ndarray, m_split: int
                ) -> np.ndarray:
    return a_letters * m_split + b_letters


def _exact_distance_sq(x_codes: np.ndarray, y_codes: np.ndarray) -> float:
    both = np.concatenate([x_codes, y_codes])
    _, inverse = np.unique(both, return_inverse=True)
    cx = np.bincount(inverse[:x_codes.size])
    cy = np.bincount(inverse[x_codes.size:], minlength=cx.size)
    if cy.size > cx.size:
        cx = np.pad(cx, (0, cy.size - cx.size))
    return float(((cx - cy) ** 2).sum())


@dataclass(frozen=True)
class Repetition:
    """One repetition's reduction and vote; kept for the invariant suite."""

    sm_a: SplitMap
    live: np.ndarray       # Alice's sampled split letters, ascending
    pool: np.ndarray       # her sample indices carrying them
    a_letters: np.ndarray  # her split letters at the pool
    subsets: tuple         # the four paired subsets, as positions in the pool
    vote: Decision

    @property
    def lam(self) -> int:
        return self.live.size

    @property
    def abstained(self) -> bool:
        return self.pool.size < 4


def _blocks(letters: np.ndarray, t_prime: int, count: int) -> list[np.ndarray]:
    return [letters[i * t_prime:(i + 1) * t_prime] for i in range(count)]


def _alice_pool(rep: int, split_block, block, params: ITParams,
                shared: SharedRandomness):
    """Alice's half of a repetition: the letters she keeps and their samples.

    She splits her alphabet by one block and recasts the next onto it.  Her
    live letters are the split letters of a uniform ell-subset that her
    recast samples hit; at most ``ceil(100 t' ell / n)`` of them are kept,
    a uniform subset when the cap binds.  Returns the split map, the live
    letters, the pool of sample indices carrying them (grouped by letter)
    and her split letters at the pool.
    """
    n = params.n
    sm_a = split_map(Multiset.from_letters(split_block[:min(params.t_prime, n)],
                                           n), n)
    a = split_samples(IndexedSampleSet(block, n), sm_a,
                      shared.stream("alice-recast", rep))
    order, bounds = indices_set_vector(a, sm_a.total_letters)
    ell = min(params.ell_target, sm_a.total_letters)
    rng = shared.stream("oneway-universe", rep)
    universe = rng.choice(sm_a.total_letters, size=ell, replace=False)
    hit = bounds[universe + 1] > bounds[universe]
    live = np.sort(universe[hit])
    cap = math.ceil(100.0 * params.t_prime * ell / n)
    if live.size > cap:
        live = np.sort(rng.choice(live, size=cap, replace=False))
    keep = np.zeros(sm_a.total_letters, bool)
    keep[live] = True
    pool = order[np.repeat(keep, np.diff(bounds))]
    return sm_a, live, pool, a.letters[pool]


def _pair_vote(perm, a_letters, bp_letters, bq_letters, m_b: int, lam: int,
               params: ITParams):
    """Pair, gate on the collision norms, compare the exact distance with tau.

    The three letter arrays are Alice's and Bob's two blocks' letters at the
    pool; ``perm`` shuffles their positions, and its first four quarters
    pair Alice's letters with the joint block (p) and the product block (q).
    Returns ``(subsets, vote)``.
    """
    size = min(params.subset_budget, perm.size // 4)
    subsets = tuple(perm[q * size:(q + 1) * size] for q in range(4))
    i_p, i_q, j_p, j_q = subsets
    x1 = _pair_codes(a_letters[i_p], bp_letters[i_p], m_b)
    y1 = _pair_codes(a_letters[i_q], bq_letters[i_q], m_b)
    x2 = _pair_codes(a_letters[j_p], bp_letters[j_p], m_b)
    y2 = _pair_codes(a_letters[j_q], bq_letters[j_q], m_b)
    if size >= 2:
        chi = norm_estimates_agree(collision_norm_estimate(x1),
                                   collision_norm_estimate(y1), size)
    else:
        chi = True
    delta = _exact_distance_sq(x2, y2)
    tau = threshold_tau(max(1, lam * params.m), size, params.eps_reduced)
    return subsets, Decision.SAME if (chi and delta <= tau) else Decision.FAR


def _bob_vote(rep: int, split_block, bp_block, bq_block, pool, a_letters,
              lam: int, params: ITParams, shared: SharedRandomness):
    """Bob's half of a repetition, given Alice's pool and her letters at it.

    He splits his alphabet by one block, recasts his joint (p) and product
    (q) blocks onto it, shuffles the pool and votes.  A pool of fewer than
    four samples abstains (SAME).  Returns ``(subsets, vote)``.
    """
    if pool.size < 4:
        return (), Decision.SAME
    m = params.m
    sm_b = split_map(Multiset.from_letters(split_block[:m], m), m)
    b_p = split_samples(IndexedSampleSet(bp_block, m), sm_b,
                        shared.stream("bob-recast-p", rep))
    b_q = split_samples(IndexedSampleSet(bq_block, m), sm_b,
                        shared.stream("bob-recast-q", rep))
    perm = shared.stream("oneway-bob", rep).permutation(pool.size)
    return _pair_vote(perm, a_letters, b_p.letters[pool], b_q.letters[pool],
                      sm_b.total_letters, lam, params)


def run_repetition(rep: int, a_split_block, a_block, b_split_block, bp_block,
                   bq_block, params: ITParams, shared: SharedRandomness
                   ) -> Repetition:
    """Both halves of one repetition in the clear, as IT2p evaluates it."""
    sm_a, live, pool, a_letters = _alice_pool(rep, a_split_block, a_block,
                                              params, shared)
    subsets, vote = _bob_vote(rep, b_split_block, bp_block, bq_block, pool,
                              a_letters, live.size, params, shared)
    return Repetition(sm_a, live, pool, a_letters, subsets, vote)


def it2p_votes(alice: IndexedSampleSet, bob: IndexedSampleSet,
               params: ITParams, shared: SharedRandomness) -> list[Repetition]:
    tp, reps = params.t_prime, params.votes
    a_blocks = _blocks(alice.letters, tp, 3 * reps)
    b_blocks = _blocks(bob.letters, tp, 3 * reps)
    return [run_repetition(i, a_blocks[3 * i], a_blocks[3 * i + 1],
                           b_blocks[3 * i], b_blocks[3 * i + 1],
                           b_blocks[3 * i + 2], params, shared)
            for i in range(reps)]


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
    spec = CircuitSpec(
        gate_count=params.votes * max(
            1, math.ceil(params.t_prime * params.ell_target / params.n)),
        rom_entries=2 * 3 * params.votes * params.t_prime + params.n,
    )
    reps, secure_bits = trusted_evaluate(
        lambda a, b: it2p_votes(a, b, params, shared), alice, bob, spec)
    return Verdict(majority([r.vote for r in reps], Decision.PRODUCT),
                   secure_transcript(secure_bits),
                   lambda_mean=float(np.mean([r.lam for r in reps])))


def _decode_oneway(payload: bytes, reps: int, t_prime: int) -> list:
    """Bob's parse of Alice's message into ``(lam, pool, letters)`` per repetition.

    A repetition is ``<u4 lam`` and, when ``lam > 0``, ``<u4 pool_size``, the
    pool's sample indices (``<u4``, each below ``t_prime``) and Alice's split
    letters at them (``<u2``).  The indices are distinct, and the letters
    take exactly ``lam`` values: every live letter owns an index.
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
        pool, letters = take(pool_size, "<u4"), take(pool_size, "<u2")
        if pool.size and pool.max() >= t_prime:
            raise ProtocolError("pool index out of range")
        if np.unique(pool).size != pool.size:
            raise ProtocolError("repeated pool index")
        if np.unique(letters).size != lam:
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

    def alice_program():
        a_blocks = _blocks(alice.letters, tp, 3 * reps)
        chunks = []
        for i in range(reps):
            sm_a, live, pool, letters = _alice_pool(
                i, a_blocks[3 * i], a_blocks[3 * i + 1], params, shared)
            if sm_a.total_letters >= 1 << 16:
                raise ConfigError("split alphabet too large for wire format")
            chunks.append(struct.pack("<I", live.size))
            if live.size:
                chunks.append(struct.pack("<I", pool.size))
                chunks.append(np.ascontiguousarray(pool, dtype="<u4").tobytes())
                chunks.append(np.ascontiguousarray(letters, dtype="<u2").tobytes())
        yield Send(b"".join(chunks))
        return None

    def bob_program():
        payload = yield Recv()
        received = _decode_oneway(payload, reps, tp)
        b_blocks = _blocks(bob.letters, tp, 3 * reps)
        votes = [_bob_vote(i, *b_blocks[3 * i:3 * i + 3], pool, a_letters, lam,
                           params, shared)[1]
                 for i, (lam, pool, a_letters) in enumerate(received)]
        return (majority(votes, Decision.PRODUCT),
                float(np.mean([lam for lam, _, _ in received])))

    _, (decision, lam_mean), transcript = run_protocol(alice_program(),
                                                       bob_program())
    return Verdict(decision, transcript, lambda_mean=lam_mean)
