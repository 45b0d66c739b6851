"""Two-party execution fabric.

Party programs are generator functions that yield :class:`Send` and
:class:`Recv` commands; :func:`run_protocol` drives both generators over a
bit-metered channel and returns their outputs together with the transcript.
Every message is framed with a 4-byte length prefix charged to the sender.

Secure evaluation is modeled, not implemented: :func:`trusted_evaluate` runs
the joint function in the clear and returns, beside its output, a transcript
charged the bits that a circuit-with-lookup-table evaluation would cost.
Each secure tester's params state that cost in closed form through
:func:`modeled_bits`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

FRAME_BYTES = 4


class ConfigError(ValueError):
    """Parameters violate a protocol precondition; the run is refused."""


class ProtocolError(RuntimeError):
    """Protocol execution failed (e.g. both parties waiting to receive)."""


SIZE_LIMIT = 2 ** 63  # sample counts and derived sizes must fit an int64


def require_positive(params, *names: str) -> None:
    """Refuse a params object unless each named constant is finite and > 0."""
    for name in names:
        value = getattr(params, name)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and positive")


def check_eps(eps: float) -> None:
    """Refuse a distance parameter outside (0, 2], the range of ell_1."""
    if not 0 < eps <= 2:  # NaN fails too
        raise ConfigError("eps must be in (0, 2]")


def _or_inf(compute) -> float:
    """``compute()``, or inf if it overflows or divides by zero, so that no
    range check accepts it."""
    try:
        return compute()
    except (OverflowError, ZeroDivisionError):
        return math.inf


def check_params(params, precondition: str, constants: tuple,
                 sizes: tuple) -> None:
    """The testers' one precondition rule: eps in (0, 2], each named constant
    finite and positive, ``min_samples() <= t < 2^63`` (``precondition``
    spells out the bound), ``n < 2^63`` (which bounds ``m <= n`` too) and
    each named derived size in (0, 2^63).  A bound or size whose computation
    overflows or divides by zero is refused."""
    check_eps(params.eps)
    require_positive(params, *constants)
    floor = _or_inf(params.min_samples)
    if not floor <= params.t:
        raise ConfigError(f"t={params.t} below precondition {precondition} = "
                          f"{floor:.1f}")
    for name in ("n", "t", *sizes):
        if not 0 < _or_inf(lambda: getattr(params, name)) < SIZE_LIMIT:
            raise ConfigError(f"{name} must be in (0, 2^63)")


class Decision(str, Enum):
    SAME = "SAME"
    FAR = "FAR"
    PRODUCT = "PRODUCT"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class Transcript:
    """Append-only record of metered communication."""

    messages: list = field(default_factory=list)  # (sender, nbytes) pairs
    modeled_secure_bits: int = 0

    def record(self, sender: str, payload_len: int) -> None:
        self.messages.append((sender, FRAME_BYTES + payload_len))

    @property
    def total_bits(self) -> int:
        return 8 * sum(nbytes for _, nbytes in self.messages)

    def dump_csv(self) -> str:
        """Rows ``step,sender,bits`` plus a final summary row."""
        lines = [f"{step},{sender},{8 * nbytes}"
                 for step, (sender, nbytes) in enumerate(self.messages)]
        lines.append(f"total,{self.total_bits},{self.modeled_secure_bits}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Verdict:
    decision: Decision
    transcript: Transcript
    lambda_mean: float | None = None  # populated by the independence testers


def majority(votes, null: Decision) -> Decision:
    """FAR on a strict majority of FAR votes, else ``null``."""
    far = sum(1 for v in votes if v is Decision.FAR)
    return Decision.FAR if far > len(votes) // 2 else null


@dataclass(frozen=True)
class Send:
    payload: bytes


class Recv:
    pass


def run_protocol(alice_program, bob_program):
    """Drive two party generators over a synchronous metered channel.

    Returns ``(alice_output, bob_output, transcript)``.  A party blocks on
    :class:`Recv` until the peer has sent; if both block with nothing in
    flight the protocol has deadlocked.
    """
    transcript = Transcript()
    parties = {"alice": alice_program, "bob": bob_program}
    inbox: dict[str, list] = {"alice": [], "bob": []}
    outputs: dict[str, object] = {}
    pending: dict[str, object] = {name: None for name in parties}
    peer = {"alice": "bob", "bob": "alice"}

    def step(name, value=None):
        try:
            cmd = parties[name].send(value)
        except StopIteration as stop:
            outputs[name] = stop.value
            return None
        return cmd

    for name in parties:
        pending[name] = step(name)

    while len(outputs) < 2:
        progressed = False
        for name in parties:
            if name in outputs:
                continue
            cmd = pending[name]
            if isinstance(cmd, Send):
                if not isinstance(cmd.payload, (bytes, bytearray)):
                    raise ProtocolError(f"{name} sent a non-bytes payload")
                transcript.record(name, len(cmd.payload))
                inbox[peer[name]].append(bytes(cmd.payload))
                pending[name] = step(name)
                progressed = True
            elif isinstance(cmd, Recv):
                if inbox[name]:
                    pending[name] = step(name, inbox[name].pop(0))
                    progressed = True
            else:
                raise ProtocolError(f"{name} yielded unknown command {cmd!r}")
        if not progressed:
            waiting = [n for n in parties if n not in outputs]
            raise ProtocolError(f"deadlock: {waiting} are all waiting to receive")
    return outputs["alice"], outputs["bob"], transcript


# ---------------------------------------------------------------------------
# Shared randomness

def mix64(*parts: int) -> int:
    """Fixed 64-bit mixing of integer parts (splitmix64 over a running state).

    Used for all seed derivation so experiment rows are reproducible across
    runs and machines; the exact recipe is documented in the README.
    """
    mask = (1 << 64) - 1
    state = 0x9E3779B97F4A7C15
    for part in parts:
        state = (state ^ (int(part) & mask)) & mask
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        state = z ^ (z >> 31)
    return state


_LABEL_SALT = 0x5D5F4E6B


@functools.cache  # a pure function of the label, asked for on every stream
def _label_code(label: str) -> int:
    code = _LABEL_SALT
    for ch in label.encode("utf-8"):
        code = mix64(code, ch)
    return code


@dataclass(frozen=True)
class SharedRandomness:
    """Root seed both parties hold; streams are derived per label."""

    root_seed: int

    def derive_seed(self, label: str, *indices: int) -> int:
        return mix64(self.root_seed, _label_code(label), *indices)

    def stream(self, label: str, *indices: int) -> np.random.Generator:
        return np.random.default_rng(self.derive_seed(label, *indices))


# ---------------------------------------------------------------------------
# Trusted evaluation (stand-in for secure circuit evaluation)

C_OT = 64  # modeled bits per oblivious-transfer word


def polylog_charge(word_bits: int, entries: int) -> int:
    """Modeled bits for one oblivious lookup gate: ``r * log2(s)^2 * C_OT``."""
    logs = math.log2(max(entries, 2))
    return int(word_bits * logs * logs * C_OT)


def modeled_bits(gate_count: int, rom_entries: int) -> int:
    """Modeled bits of a circuit of ``gate_count`` oblivious lookups into a
    table of ``rom_entries`` 64-bit words."""
    return gate_count * polylog_charge(64, rom_entries)


def trusted_evaluate(func, a, b, secure_bits: int):
    """``(func(a, b), transcript)``: the joint function run in the clear, and
    its modeled secure evaluation's transcript, the 16-byte shared seed sent
    in the clear plus ``secure_bits``."""
    transcript = Transcript(modeled_secure_bits=secure_bits)
    transcript.record("alice", 16)
    return func(a, b), transcript
