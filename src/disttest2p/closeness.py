"""Two-party closeness testers.

``ct2p_insecure`` runs the plaintext protocol over the metered channel: Bob
ships a split multiset, both parties recast their samples onto the enlarged
alphabet, they exchange collision-based norm estimates and a linear sketch,
and the squared distance estimate is compared against the threshold
``eps^2 t^2 / 2n + 2t``.

``ct2p_secure_reference`` evaluates the secure variant's reference function in
the clear through the trusted evaluator, charged the closed-form cost
``SecureCTParams.secure_bits``.  The distance is an exact split/cap
adjustment (delta_1) plus a Bernoulli estimate of the capped distance
(delta_2) driven by a shared random rotation, with a majority vote over
sample sets.  Both the rotation and the Bernoulli trials are drawn in
closed form, exactly in law (see :func:`bernoulli_hits`).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dist import (
    Distribution,
    IndexedSampleSet,
    OccurrenceVector,
    SplitOccurrenceMatrix,
    split_map,
    split_occurrence_matrix,
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
    check_eps,
    check_params,
    majority,
    modeled_bits,
    run_protocol,
    trusted_evaluate,
)
from .sketch import (
    collision_norm_estimate,
    estimate_distance_sq,
    haar_rotate,
    l2_sketch,
    sketch_from_bytes,
    sketch_width,
)

ALPHA_MAX = 1.0 / 3.0  # larger relative error breaks the threshold gap


def threshold_tau(n: int, t: int, eps: float) -> float:
    """Decision threshold ``eps^2 t^2 / (2 n) + 2 t``."""
    if n < 1:
        raise ValueError("alphabet size must be positive")
    if t < 0:
        raise ValueError("sample count must be nonnegative")
    return eps * eps * t * t / (2.0 * n) + 2.0 * t


def sample_floor(n: int, eps: float) -> float:
    """The one-party closeness rate ``max(n^(2/3) eps^(-4/3), sqrt(n) eps^(-2))``."""
    return max(n ** (2 / 3) * eps ** (-4 / 3), math.sqrt(n) * eps ** (-2))


def distinguish(delta_est: float, tau: float) -> Decision:
    """SAME iff the distance estimate is at most the threshold."""
    if not (math.isfinite(delta_est) and math.isfinite(tau)):
        raise ValueError("estimate and threshold must be finite")
    return Decision.SAME if delta_est <= tau else Decision.FAR


@dataclass(frozen=True)
class CTParams:
    """Parameters of the insecure closeness tester.

    The hidden constants default to the committed calibration: ``c_alpha``
    trades sketch accuracy against communication (alpha is clamped to 1/3,
    above which the same/far ranges overlap), ``c_split`` scales the expected
    split multiset size, and ``big_c`` is the sample-count precondition
    multiplier.
    """

    n: int
    t: int
    eps: float
    c_split: float = 1.0
    c_alpha: float = 1.0 / 16.0
    big_c: float = 8.0
    sketch_delta: float = 0.05

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("alphabet size must be at least 2")
        if not 0 < self.sketch_delta < 1:
            raise ConfigError("sketch_delta must be in (0, 1)")
        check_params(self, "t >= C*max(n^(2/3)*eps^(-4/3), sqrt(n)*eps^(-2))",
                     ("c_alpha", "c_split", "big_c"),
                     ("alpha", "split_rate", "sketch_counters"))
        if self.split_rate > self.t:  # Bob draws the multiset from his samples
            raise ConfigError(f"c_split gives a split multiset rate "
                              f"{self.split_rate:.3g} above t={self.t}")

    def min_samples(self) -> float:
        return self.big_c * sample_floor(self.n, self.eps)

    @property
    def alpha(self) -> float:
        return min(ALPHA_MAX, self.c_alpha * self.t * self.eps ** 2 / self.n)

    @property
    def split_rate(self) -> float:
        """Poisson rate for |S|: ``c_split * n^2 / (t^2 eps^4)``."""
        return self.c_split * self.n ** 2 / (self.t ** 2 * self.eps ** 4)

    @property
    def sketch_counters(self) -> int:
        """Counters in each party's L2 sketch."""
        return math.prod(sketch_width(self.alpha, self.sketch_delta))


def far_instance(n: int, eps: float) -> Distribution:
    """A distribution at ell_1 distance >= eps from uniform (exactly eps when
    the paired construction applies: mass ``(1 +- eps)/n`` on letter pairs)."""
    check_eps(eps)
    if eps > 2 * (1 - 1 / n):  # no law on n letters lies farther from uniform
        raise ConfigError(f"eps={eps} is above 2(1-1/n)={2 * (1 - 1 / n):.4g}, "
                          f"the largest distance from uniform on n={n} letters")
    if eps <= 1 and n % 2 == 0:
        probs = np.empty(n)
        probs[0::2] = (1.0 + eps) / n
        probs[1::2] = (1.0 - eps) / n
        return Distribution(probs)
    support = max(1, math.floor(n * (1 - eps / 2.0)))
    probs = np.zeros(n)
    probs[:support] = 1.0 / support
    return Distribution(probs)


def norm_estimates_agree(est_sq_a: float, est_sq_b: float, t: int) -> bool:
    """Factor-4 agreement of two norm estimates given as squares.

    Estimates are floored at the collision estimator's resolution 1/C(t,2)
    so that zero-collision runs compare as 'smallest representable' rather
    than zero.
    """
    floor = 1.0 / (t * (t - 1) / 2.0)
    a = max(est_sq_a, floor)
    b = max(est_sq_b, floor)
    return max(a, b) / min(a, b) <= 16.0


def _encode_multiset(s: OccurrenceVector) -> bytes:
    """A ``<u4`` item count, then ``<u4`` (letter, multiplicity) pairs in
    ascending letter order."""
    letters = np.flatnonzero(s.counts)
    items = np.column_stack((letters, s.counts[letters])).astype("<u4")
    return struct.pack("<I", letters.size) + items.tobytes()


def _decode_multiset(payload: bytes, n: int, max_total: int) -> OccurrenceVector:
    """The inverse of :func:`_encode_multiset`: ascending letters below ``n``,
    each with a positive multiplicity, at most ``max_total`` in all (the
    multiplicities size the receiver's split alphabet)."""
    if len(payload) < 4 or \
            len(payload) != 4 + 8 * struct.unpack_from("<I", payload, 0)[0]:
        raise ProtocolError(f"split multiset payload of {len(payload)} bytes "
                            "is truncated or has trailing bytes")
    # int64 before differencing: differences of u4 letters wrap
    items = np.frombuffer(payload, "<u4", offset=4).astype(np.int64)
    letters, mults = items[0::2], items[1::2]
    if letters.size and not (letters[-1] < n and mults.all()
                             and (np.diff(letters) > 0).all()):
        raise ProtocolError(f"split multiset letters are not ascending and "
                            f"below n={n}, or a multiplicity is 0")
    # At most n multiplicities, each below 2**32: the int64 sum cannot wrap.
    if mults.sum() > max_total:
        raise ProtocolError(f"split multiset holds more than {max_total} letters")
    counts = np.zeros(n, dtype=np.int64)
    counts[letters] = mults
    return OccurrenceVector(counts)


def _decode_norm(payload: bytes) -> float:
    """One ``<f8`` in [0, 1], where every squared norm of a distribution lies."""
    norm_sq = struct.unpack("<d", payload)[0] if len(payload) == 8 else math.nan
    if not 0.0 <= norm_sq <= 1.0:  # NaN fails too
        raise ProtocolError(f"norm payload {payload!r} is not one <f8 in [0, 1]")
    return norm_sq


def _decode_verdict(payload: bytes) -> Decision:
    if payload not in (b"\x00", b"\x01"):
        raise ProtocolError(f"verdict payload {payload!r} is not 0x00 or 0x01")
    return Decision.FAR if payload == b"\x01" else Decision.SAME


def ct2p_insecure(alice_samples: IndexedSampleSet, bob_samples: IndexedSampleSet,
                  params: CTParams, seed: int) -> Verdict:
    """Run the plaintext closeness protocol; returns the verdict + transcript."""
    if alice_samples.t != params.t or bob_samples.t != params.t:
        raise ConfigError("both parties need exactly t samples")
    if alice_samples.n != params.n or bob_samples.n != params.n:
        raise ConfigError("sample alphabet does not match params")

    shared = SharedRandomness(seed)
    sketch_seed = shared.derive_seed("ct2p-sketch")

    def alice_program():
        payload = yield Recv()
        s = _decode_multiset(payload, params.n, params.t)
        sm = split_map(s, params.n)
        a_s = np.bincount(split_samples(alice_samples.letters, sm,
                                        shared.stream("alice-split")),
                          minlength=sm.total_letters)
        norm_sq = collision_norm_estimate(a_s)
        yield Send(struct.pack("<d", norm_sq))
        sk = l2_sketch(a_s, params.alpha, params.sketch_delta, sketch_seed)
        yield Send(sk.to_bytes())
        return _decode_verdict((yield Recv()))

    def bob_program():
        rng = shared.stream("bob-splitset")
        # |S| is clamped at t, the most Alice accepts.  Bootstrap the
        # multiset from Bob's own sample pool; at valid parameters the rate
        # is far below t, so the clamp is rare and the reuse negligible.
        size = min(int(rng.poisson(params.split_rate)), params.t)
        picks = rng.integers(0, bob_samples.t, size=size)
        s = OccurrenceVector.from_letters(bob_samples.letters[picks], params.n)
        yield Send(_encode_multiset(s))
        sm = split_map(s, params.n)
        b_s = np.bincount(split_samples(bob_samples.letters, sm,
                                        shared.stream("bob-split")),
                          minlength=sm.total_letters)
        bob_norm_sq = collision_norm_estimate(b_s)
        alice_norm_sq = _decode_norm((yield Recv()))
        sketch_payload = yield Recv()
        if not norm_estimates_agree(alice_norm_sq, bob_norm_sq, params.t):
            verdict = Decision.FAR
        else:
            bob_sk = l2_sketch(b_s, params.alpha, params.sketch_delta, sketch_seed)
            alice_sk = sketch_from_bytes(sketch_payload, bob_sk)
            delta = estimate_distance_sq(alice_sk, bob_sk)
            tau = threshold_tau(sm.total_letters, params.t, params.eps)
            verdict = distinguish(delta, tau)
        yield Send(b"\x01" if verdict is Decision.FAR else b"\x00")
        return verdict

    alice_out, bob_out, transcript = run_protocol(alice_program(), bob_program())
    if alice_out != bob_out:
        raise ProtocolError(f"parties disagree: alice {alice_out}, bob {bob_out}")
    return Verdict(bob_out, transcript)


# ---------------------------------------------------------------------------
# Secure-variant reference computation


def capped_split_adjustment(a, b, s, level: int,
                            a_matrix: SplitOccurrenceMatrix,
                            b_matrix: SplitOccurrenceMatrix):
    """Exact ``||A_S - B_S||^2 - ||A' - B'||^2`` per vote, via split-matrix
    lookups.

    ``a``, ``b`` and ``s`` are count arrays (or occurrence vectors) of shape
    ``(votes, n)`` or ``(n,)``: per vote, Alice's samples A, Bob's samples B
    and S, both parties' split sets.  Only letters in
    ``M = {i : i in S or A_i > L or B_i > L}`` can contribute; everywhere
    else the capped difference equals the unsplit one.  So only the members'
    counts are capped, and their split-matrix rows, at ``1 + S_i`` buckets
    each, are read by one read per party.  The split matrices are the two
    parties' recasts of the stacked counts, vote ``j``'s letter ``i`` at row
    ``j n + i``, with at least ``1 + max(s)`` buckets per row.  Returns one
    delta_1 per vote, a scalar for 1-D counts.
    """
    if level < 1:
        raise ValueError("cap threshold must be at least 1")
    a, b, s = (np.asarray(getattr(x, "counts", x)) for x in (a, b, s))
    shape, n = s.shape[:-1], s.shape[-1]
    a, b, s = a.ravel(), b.ravel(), s.ravel()
    members = np.flatnonzero((s > 0) | (np.maximum(a, b) > level))
    vote = members // n
    buckets = 1 + s[members]
    capped = np.minimum(a[members], level) - np.minimum(b[members], level)
    diff = a_matrix.rows(members, buckets) - b_matrix.rows(members, buckets)
    # A vote's terms sum to at most (|A| + |B|)^2, an integer below 2**53
    # while |A| + |B| < 9e7, so bincount's float sums are exact in any order.
    votes = math.prod(shape)
    total = np.bincount(np.repeat(vote, buckets), weights=diff * diff,
                        minlength=votes)
    total -= np.bincount(vote, weights=capped * capped, minlength=votes)
    return total.reshape(shape)[()]


@dataclass(frozen=True)
class SecureCTParams:
    """Parameters of the secure-variant reference computation."""

    n: int
    t: int
    eps: float
    k: int
    big_c: float = 8.0
    c: float = 64.0
    c_a: float = 0.25
    c_l: float = 2.0

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("alphabet size must be at least 2")
        if self.k < 1:
            raise ConfigError("security parameter must be at least 1")
        check_params(self, "C*k*max(...)", ("big_c", "c", "c_a", "c_l"),
                     ("alpha", "cap_level", "bernoulli_trials"))
        if self.t_prime < 4:
            raise ConfigError("too few samples per sample set")

    def min_samples(self) -> float:
        return self.big_c * self.k * sample_floor(self.n, self.eps)

    @property
    def votes(self) -> int:
        """Sample sets voted over: k rounded up to odd."""
        return self.k | 1

    @cached_property  # the derived sizes all read it; a failed call caches nothing
    def t_prime(self) -> int:
        return self.t // self.votes

    @cached_property
    def cap_level(self) -> int:
        return max(1, math.ceil(self.t_prime ** 3 * self.eps ** 4 /
                                (self.c * self.n ** 2)))

    @cached_property
    def alpha(self) -> float:
        return self.c_a * math.sqrt(self.cap_level / self.t_prime)

    @cached_property
    def bernoulli_trials(self) -> int:
        return max(1, math.ceil(self.c_l * self.k ** 2 *
                                math.log(self.n) ** 2 / self.alpha ** 2))

    @cached_property
    def splitset_size(self) -> int:
        return max(1, math.ceil(self.t_prime / (2 * self.cap_level)))

    @property
    def secure_bits(self) -> int:
        """f's modeled cost: per vote, ``ceil(t'/L)`` split-matrix lookups and
        one per Bernoulli trial, into ``2 votes n t'^2`` table words."""
        return modeled_bits(
            self.votes * (math.ceil(self.t_prime / self.cap_level)
                          + self.bernoulli_trials),
            2 * self.votes * self.n * self.t_prime ** 2)


def bernoulli_hits(biases: np.ndarray, trials: int, rng: np.random.Generator):
    """Hits of ``trials`` draws "uniform index i, then a coin of bias
    ``biases[i]``" per vector along the last axis, or NaN where some draw
    lands on a bias above 1.

    Exact in law without the loop: no draw lands on one of the ``c`` clamped
    indices with probability ``((n - c) / n) ** trials``, and given that, each
    draw is a uniform unclamped index followed by its coin, so the hits are
    Binomial(trials, mean unclamped bias).  One uniform and one binomial draw
    per vector; a 1-D ``biases`` gives a scalar.
    """
    n = biases.shape[-1]
    unclamped = biases <= 1.0
    free = np.count_nonzero(unclamped, axis=-1)
    clamped = rng.random(np.shape(free)) >= (free / n) ** trials
    mean = np.where(unclamped, biases, 0.0).sum(axis=-1) / np.maximum(free, 1)
    return np.where(clamped, np.nan, rng.binomial(trials, mean))[()]


@dataclass(frozen=True)
class SetVote:
    delta1: float
    delta2: float
    tau: float
    headroom: float  # T = 2 (tau - delta1)
    clamped: bool
    vote: Decision


def secure_reference_votes(alice_letters: np.ndarray, bob_letters: np.ndarray,
                           params: SecureCTParams, shared: SharedRandomness
                           ) -> list[SetVote]:
    """Per-sample-set votes of the reference function f.

    Vote ``j`` reads block ``j`` of ``t'`` letters of each party: the first
    ``splitset_size`` of each make up S, and the last ``t' // 2`` are the
    party's samples A (Alice) or B (Bob).  All the votes' S, A and B are
    counted by one ``bincount`` over the keys ``(3j + r) n + letter``, with
    ``r`` = 0, 1, 2 for S, A, B.  The votes are then evaluated together as
    ``(votes, n)`` arrays.  One stream per row, ``secure-votes``, draws in
    turn Alice's split matrix, Bob's, the rotations and the Bernoulli
    counts; the rotations and counts are drawn only for the votes with
    positive headroom.
    """
    n, tp, level, reps = params.n, params.t_prime, params.cap_level, params.votes
    half, size, trials = tp // 2, params.splitset_size, params.bernoulli_trials
    if len(alice_letters) < reps * tp or len(bob_letters) < reps * tp:
        raise ValueError(f"need {reps * tp} letters per party")
    blocks_a = alice_letters[:reps * tp].reshape(reps, tp)
    blocks_b = bob_letters[:reps * tp].reshape(reps, tp)
    letters = np.concatenate((blocks_a[:, :size], blocks_b[:, :size],
                              blocks_a[:, tp - half:], blocks_b[:, tp - half:]),
                             axis=1)
    if letters.min() < 0 or letters.max() >= n:
        raise ValueError("letter out of range")
    role = np.repeat([0, 1, 2], [2 * size, half, half])
    keys = letters + n * (3 * np.arange(reps)[:, None] + role)
    counts = np.bincount(keys.ravel(), minlength=3 * reps * n).reshape(reps, 3, n)
    s, a, b = counts[:, 0], counts[:, 1], counts[:, 2]

    rng = shared.stream("secure-votes")
    a_matrix, b_matrix = (split_occurrence_matrix(
        OccurrenceVector(x.ravel()), 1 + int(s.max()), rng) for x in (a, b))
    delta1 = capped_split_adjustment(a, b, s, level, a_matrix, b_matrix)
    tau = threshold_tau(n + 2 * size, half, params.eps)  # |S| = 2 size
    headroom = 2.0 * (tau - delta1)

    live = np.flatnonzero(headroom > 0)
    capped = np.minimum(a[live], level) - np.minimum(b[live], level)
    rotated = haar_rotate(capped, rng)
    biases = n * rotated ** 2 / (headroom[live, None] * reps)
    hits = np.full(reps, np.nan)
    hits[live] = bernoulli_hits(biases, trials, rng)
    delta2 = headroom * reps / trials * hits

    votes = []
    for d1, d2, room in zip(delta1.tolist(), delta2.tolist(), headroom.tolist()):
        if room <= 0:
            votes.append(SetVote(d1, 0.0, tau, room, False, Decision.FAR))
        elif math.isnan(d2):
            votes.append(SetVote(d1, 0.0, tau, room, True, Decision.FAR))
        else:
            vote = Decision.FAR if d1 + d2 > tau else Decision.SAME
            votes.append(SetVote(d1, d2, tau, room, False, vote))
    return votes


def secure_reference_f(alice_letters, bob_letters, params: SecureCTParams,
                       seed: int) -> Decision:
    """The reference function f evaluated directly (no evaluator)."""
    shared = SharedRandomness(seed)
    votes = secure_reference_votes(np.asarray(alice_letters, dtype=np.int64),
                                   np.asarray(bob_letters, dtype=np.int64),
                                   params, shared)
    return majority([v.vote for v in votes], Decision.SAME)


def ct2p_secure_reference(alice_samples: IndexedSampleSet,
                          bob_samples: IndexedSampleSet,
                          params: SecureCTParams, seed: int) -> Verdict:
    """Evaluate f through the trusted evaluator, at ``params.secure_bits``."""
    if alice_samples.t < params.votes * params.t_prime or \
            bob_samples.t < params.votes * params.t_prime:
        raise ConfigError("not enough samples for the configured sample sets")
    if alice_samples.n != params.n or bob_samples.n != params.n:
        raise ConfigError("sample alphabet does not match params")

    return Verdict(*trusted_evaluate(
        lambda a, b: secure_reference_f(a, b, params, seed),
        alice_samples.letters, bob_samples.letters, params.secure_bits))
