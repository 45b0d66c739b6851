"""Two-party closeness testers.

``ct2p_insecure`` runs the plaintext protocol over the metered channel: Bob
ships a split multiset, both parties recast their samples onto the enlarged
alphabet, they exchange collision-based norm estimates and a linear sketch,
and the squared distance estimate is compared against the threshold
``eps^2 t^2 / 2n + 2t``.

``ct2p_secure_reference`` evaluates the secure variant's reference function in
the clear through the trusted evaluator: the distance is assembled as an exact
split/cap adjustment (delta_1) plus a Bernoulli estimate of the capped
distance (delta_2) driven by a shared random rotation, with a majority vote
over sample sets.  Both the rotation and the Bernoulli trials are drawn in
closed form, exactly in law (see :func:`bernoulli_hits`).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .dist import (
    Distribution,
    IndexedSampleSet,
    Multiset,
    OccurrenceVector,
    SplitOccurrenceMatrix,
    cap,
    occurrence_vector,
    split_map,
    split_occurrence_matrix,
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
from .sketch import (
    collision_norm_estimate,
    estimate_distance_sq,
    haar_rotate,
    l2_sketch,
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
    if not 0 < eps <= 2:
        raise ValueError("eps must be in (0, 2]")
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


def _encode_multiset(s: Multiset) -> bytes:
    """A ``<u4`` item count, then ``<u4`` (letter, multiplicity) pairs in
    ascending letter order."""
    letters = np.flatnonzero(s.counts)
    items = np.column_stack((letters, s.counts[letters])).astype("<u4")
    return struct.pack("<I", letters.size) + items.tobytes()


def _decode_multiset(payload: bytes, n: int) -> Multiset:
    """The inverse of :func:`_encode_multiset`: ascending letters below ``n``,
    each with a positive multiplicity."""
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
    counts = np.zeros(n, dtype=np.int64)
    counts[letters] = mults
    return Multiset(counts)


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
        s = _decode_multiset(payload, params.n)
        sm = split_map(s, params.n)
        split = split_samples(alice_samples, sm, shared.stream("alice-split"))
        a_s = occurrence_vector(split, sm.total_letters)
        norm_sq = collision_norm_estimate(split)
        yield Send(struct.pack("<d", norm_sq))
        sk = l2_sketch(a_s, params.alpha, params.sketch_delta, sketch_seed)
        yield Send(sk.to_bytes())
        verdict_byte = yield Recv()
        return Decision.FAR if verdict_byte == b"\x01" else Decision.SAME

    def bob_program():
        rng = shared.stream("bob-splitset")
        size = int(rng.poisson(params.split_rate))
        # Bootstrap the multiset from Bob's own sample pool; at valid
        # parameters the rate is far below t so the reuse is negligible.
        picks = rng.integers(0, bob_samples.t, size=size)
        s = Multiset.from_letters(bob_samples.letters[picks], params.n)
        yield Send(_encode_multiset(s))
        sm = split_map(s, params.n)
        split = split_samples(bob_samples, sm, shared.stream("bob-split"))
        b_s = occurrence_vector(split, sm.total_letters)
        bob_norm_sq = collision_norm_estimate(split)
        alice_norm_payload = yield Recv()
        (alice_norm_sq,) = struct.unpack("<d", alice_norm_payload)
        sketch_payload = yield Recv()
        if not norm_estimates_agree(alice_norm_sq, bob_norm_sq, params.t):
            verdict = Decision.FAR
        else:
            bob_sk = l2_sketch(b_s, params.alpha, params.sketch_delta, sketch_seed)
            alice_sk = _sketch_from_bytes(sketch_payload, bob_sk)
            delta = estimate_distance_sq(alice_sk, bob_sk)
            tau = threshold_tau(sm.total_letters, params.t, params.eps)
            verdict = distinguish(delta, tau)
        yield Send(b"\x01" if verdict is Decision.FAR else b"\x00")
        return verdict

    alice_out, bob_out, transcript = run_protocol(alice_program(), bob_program())
    if alice_out != bob_out:
        raise ProtocolError(f"parties disagree: alice {alice_out}, bob {bob_out}")
    return Verdict(bob_out, transcript)


def _sketch_from_bytes(payload: bytes, template):
    width = template.counters.size
    if len(payload) != 4 + 8 * width or \
            struct.unpack_from("<I", payload, 0)[0] != width:
        raise ProtocolError(f"sketch payload does not hold {width} counters")
    counters = np.frombuffer(payload, dtype="<f8", offset=4, count=width)
    return type(template)(counters, template.seed, template.alpha,
                          template.delta, template.groups, template.group_size)


# ---------------------------------------------------------------------------
# Secure-variant reference computation


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


def capped_split_adjustment(a: OccurrenceVector, b: OccurrenceVector,
                            s_a: Multiset, s_b: Multiset, level: int,
                            a_matrix: SplitOccurrenceMatrix,
                            b_matrix: SplitOccurrenceMatrix) -> float:
    """Exact ``||A_S - B_S||^2 - ||A' - B'||^2`` via split-matrix lookups.

    Only letters in ``M = {i : i in S or A_i > L or B_i > L}`` can contribute;
    everywhere else the capped difference equals the unsplit one.  The split
    matrices are the two parties' recasts, with at least
    ``1 + max(s_a + s_b)`` buckets per letter.
    """
    if level < 1:
        raise ValueError("cap threshold must be at least 1")
    s = s_a.union(s_b)
    buckets = 1 + s.counts
    members = (s.counts > 0) | (a.counts > level) | (b.counts > level)
    a_capped = cap(a, level).counts
    b_capped = cap(b, level).counts
    # Every term is an integer below 2**53, so summing in int64 per bucket
    # count gives the same value as a float sum in any order.
    total = 0
    letters = np.nonzero(members)[0]
    for m in np.unique(buckets[letters]):
        group = letters[buckets[letters] == m]
        diff = a_matrix.row(group, int(m)) - b_matrix.row(group, int(m))
        total += int((diff ** 2).sum()) - \
            int(((a_capped[group] - b_capped[group]) ** 2).sum())
    return float(total)


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

    @property
    def t_prime(self) -> int:
        return self.t // self.votes

    @property
    def cap_level(self) -> int:
        return max(1, math.ceil(self.t_prime ** 3 * self.eps ** 4 /
                                (self.c * self.n ** 2)))

    @property
    def alpha(self) -> float:
        return self.c_a * math.sqrt(self.cap_level / self.t_prime)

    @property
    def bernoulli_trials(self) -> int:
        return max(1, math.ceil(self.c_l * self.k ** 2 *
                                math.log(self.n) ** 2 / self.alpha ** 2))

    @property
    def splitset_size(self) -> int:
        return max(1, math.ceil(self.t_prime / (2 * self.cap_level)))


def bernoulli_hits(biases: np.ndarray, trials: int,
                   rng: np.random.Generator) -> int | None:
    """Hits of ``trials`` draws "uniform index i, then a coin of bias
    ``biases[i]``", or None if some draw lands on a bias above 1.

    Exact in law without the loop: no draw lands on one of the ``c`` clamped
    indices with probability ``((n - c) / n) ** trials``, and given that, each
    draw is a uniform unclamped index followed by its coin, so the hits are
    Binomial(trials, mean unclamped bias).
    """
    n = biases.size
    unclamped = biases <= 1.0
    c = n - int(unclamped.sum())
    if c == n or (c and rng.random() >= ((n - c) / n) ** trials):
        return None
    return int(rng.binomial(trials, float(biases[unclamped].mean())))


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
    """Per-sample-set votes of the reference function f."""
    n, tp, level = params.n, params.t_prime, params.cap_level
    half = tp // 2
    votes = []
    for j in range(params.votes):
        block_a = alice_letters[j * tp:(j + 1) * tp]
        block_b = bob_letters[j * tp:(j + 1) * tp]
        s_a = Multiset.from_letters(block_a[:params.splitset_size], n)
        s_b = Multiset.from_letters(block_b[:params.splitset_size], n)
        a = OccurrenceVector(np.bincount(block_a[tp - half:], minlength=n))
        b = OccurrenceVector(np.bincount(block_b[tp - half:], minlength=n))
        a_capped = cap(a, level)
        b_capped = cap(b, level)

        max_buckets = int((1 + s_a.counts + s_b.counts).max())
        a_matrix = split_occurrence_matrix(a, max_buckets,
                                           shared.stream("alice-split", j))
        b_matrix = split_occurrence_matrix(b, max_buckets,
                                           shared.stream("bob-split", j))
        delta1 = capped_split_adjustment(a, b, s_a, s_b, level,
                                         a_matrix=a_matrix, b_matrix=b_matrix)

        tau = threshold_tau(n + s_a.size + s_b.size, half, params.eps)
        headroom = 2.0 * (tau - delta1)
        if headroom <= 0:
            votes.append(SetVote(delta1, 0.0, tau, headroom, False, Decision.FAR))
            continue

        rotated = haar_rotate(a_capped.counts - b_capped.counts,
                              shared.stream("rotation", j))
        biases = n * rotated ** 2 / (headroom * params.votes)
        hits = bernoulli_hits(biases, params.bernoulli_trials,
                              shared.stream("bernoulli", j))
        if hits is None:
            votes.append(SetVote(delta1, 0.0, tau, headroom, True, Decision.FAR))
            continue
        delta2 = headroom * params.votes / params.bernoulli_trials * hits
        vote = Decision.FAR if delta1 + delta2 > tau else Decision.SAME
        votes.append(SetVote(delta1, delta2, tau, headroom, False, vote))
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
    """Evaluate f through the trusted evaluator and meter its modeled cost."""
    if alice_samples.t < params.votes * params.t_prime or \
            bob_samples.t < params.votes * params.t_prime:
        raise ConfigError("not enough samples for the configured sample sets")
    if alice_samples.n != params.n or bob_samples.n != params.n:
        raise ConfigError("sample alphabet does not match params")

    spec = CircuitSpec(
        gate_count=params.votes * (math.ceil(params.t_prime / params.cap_level)
                                   + params.bernoulli_trials),
        rom_entries=2 * params.votes * params.n * params.t_prime ** 2,
    )
    decision, secure_bits = trusted_evaluate(
        lambda a, b: secure_reference_f(a, b, params, seed),
        alice_samples.letters, bob_samples.letters, spec)
    return Verdict(decision, secure_transcript(secure_bits))
