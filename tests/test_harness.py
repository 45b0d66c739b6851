"""Channel engine, transcripts, shared randomness, the trusted evaluator and
the testers' one precondition rule."""

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disttest2p
from disttest2p.closeness import CTParams, SecureCTParams
from disttest2p.hardness import GHDReductionParams
from disttest2p.harness import (
    FRAME_BYTES,
    SIZE_LIMIT,
    CircuitSpec,
    ConfigError,
    Decision,
    ProtocolError,
    Recv,
    Send,
    SharedRandomness,
    Transcript,
    majority,
    mix64,
    polylog_charge,
    run_protocol,
    secure_transcript,
    trusted_evaluate,
)
from disttest2p.independence import ITParams


class TestRunProtocol:
    def test_echo_accounting(self):
        def alice():
            yield Send(b"12345")
            reply = yield Recv()
            return reply

        def bob():
            msg = yield Recv()
            yield Send(msg)
            return None

        a_out, _, tr = run_protocol(alice(), bob())
        assert a_out == b"12345"
        assert tr.total_bits == 2 * 8 * (FRAME_BYTES + 5)

    def test_zero_messages(self):
        def silent():
            return "done"
            yield  # pragma: no cover

        _, _, tr = run_protocol(silent(), silent())
        assert tr.total_bits == 0

    def test_deadlock_detected(self):
        def wait():
            yield Recv()
            return None

        with pytest.raises(ProtocolError):
            run_protocol(wait(), wait())

    @settings(max_examples=100, deadline=None)
    @given(schedule=st.lists(st.tuples(st.booleans(), st.binary(max_size=8)),
                             max_size=12),
           data=st.data())
    def test_deadlock_after_any_schedule(self, schedule, data):
        # Both parties follow a random message schedule, then both Recv at
        # the same point with nothing left in flight.
        cut = data.draw(st.integers(0, len(schedule)))

        def party(me_is_alice, deadlock):
            got = []
            for step, (alice_sends, payload) in enumerate(schedule):
                if deadlock and step == cut:
                    yield Recv()
                if alice_sends == me_is_alice:
                    yield Send(payload)
                else:
                    got.append((yield Recv()))
            if deadlock and cut == len(schedule):
                yield Recv()
            return got

        a_out, b_out, tr = run_protocol(party(True, False), party(False, False))
        assert a_out == [p for sender, p in schedule if not sender]
        assert b_out == [p for sender, p in schedule if sender]
        assert tr.total_bits == sum(8 * (FRAME_BYTES + len(p))
                                    for _, p in schedule)
        with pytest.raises(ProtocolError, match="deadlock"):
            run_protocol(party(True, True), party(False, True))

    def test_queued_messages_preserve_order(self):
        def alice():
            yield Send(b"a")
            yield Send(b"b")
            return None

        def bob():
            first = yield Recv()
            second = yield Recv()
            return first + second

        _, b_out, _ = run_protocol(alice(), bob())
        assert b_out == b"ab"


class TestTranscript:
    def test_append_only_totals(self):
        tr = Transcript()
        tr.record("alice", 10)
        tr.record("bob", 0)
        assert tr.total_bits == 8 * (FRAME_BYTES + 10) + 8 * FRAME_BYTES

    def test_csv_dump(self):
        tr = Transcript()
        tr.record("alice", 4)
        tr.record_secure(999)
        lines = tr.dump_csv().splitlines()
        assert lines[0] == f"0,alice,{8 * (FRAME_BYTES + 4)}"
        assert lines[-1] == f"total,{8 * (FRAME_BYTES + 4)},999"


# derive_seed(label) and derive_seed(label, 3) under root seed 424242 for
# every stream label the package uses.
STREAM_SEEDS = {
    "alice-recast": (0x00495C0B51CCE809, 0x37F8D7CA3F87D2D5),
    "alice-split": (0xBA5A5ACF592D78CE, 0xA71C9DA19D403B84),
    "bernoulli": (0x8024D63CCA6F6160, 0xCECAD304C2C12DED),
    "bob-recast-p": (0xFDCB7035D436658A, 0xB0E149C72D50C75F),
    "bob-recast-q": (0x2B9EE77887C1ED08, 0x47388190329FCC2C),
    "bob-split": (0x296DA8B0B1297578, 0x3C8D69FDF19E9D0F),
    "bob-splitset": (0x11B98DC3D783C514, 0x3169C44E6FF4F23A),
    "ct2p-sketch": (0xFFCD36A972928EA2, 0x6C5DD33DA068D741),
    "oneway-bob": (0x217DD7289A74D9B7, 0x98AD70EBC2781C9D),
    "oneway-universe": (0xEB82AE0A91D95274, 0xEABC31214C3BFC77),
    "rotation": (0x7F378984152FB674, 0xAEC0326A588943C1),
}


def _literal_stream_labels() -> set:
    """String labels passed literally to ``stream``/``derive_seed`` in src."""
    package = pathlib.Path(disttest2p.__file__).parent
    return {node.args[0].value
            for path in package.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("stream", "derive_seed")
            and node.args and isinstance(node.args[0], ast.Constant)}


class TestStreamLayout:
    def test_every_label_is_pinned(self):
        assert _literal_stream_labels() == set(STREAM_SEEDS)

    @pytest.mark.parametrize("label", sorted(STREAM_SEEDS))
    def test_golden_seeds(self, label):
        # asked twice: the label code is cached after the first call
        shared = SharedRandomness(424242)
        for _ in range(2):
            assert (shared.derive_seed(label),
                    shared.derive_seed(label, 3)) == STREAM_SEEDS[label]


class TestSharedRandomness:
    def test_same_label_same_stream(self):
        sr = SharedRandomness(42)
        a = sr.stream("path").integers(0, 1000, 10)
        b = sr.stream("path").integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_distinct_labels_differ(self):
        sr = SharedRandomness(42)
        a = sr.stream("one").integers(0, 10 ** 9)
        b = sr.stream("two").integers(0, 10 ** 9)
        assert a != b

    def test_mix64_stable(self):
        # the documented derivation must never change across versions
        assert mix64(0) == mix64(0)
        assert mix64(1, 2, 3) != mix64(1, 2, 4)
        assert 0 <= mix64(123, 456) < 2 ** 64

    def test_mix64_golden_values(self):
        # every row seed and stream derives from these; a faster mix64 must
        # reproduce them exactly
        assert mix64(0) == 0x6E789E6AA1B965F4
        assert mix64(1, 2, 3) == 0x48CF5028B6DF10DB
        assert mix64(424242, 0, 1, 2) == 0xFB10F07744CE9B01
        assert mix64(2 ** 64 - 1) == 0xB4D055FCF2CBBD7B
        assert SharedRandomness(424242).derive_seed("rotation", 3) == \
            0xAEC0326A588943C1

    @given(parts=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=6),
           data=st.data())
    def test_mix64_changing_one_part_changes_output(self, parts, data):
        # each step is a bijection of the running state, so no two inputs of
        # the same length that differ in one part can collide
        i = data.draw(st.integers(0, len(parts) - 1))
        other = data.draw(st.integers(0, 2 ** 64 - 1).filter(
            lambda v: v != parts[i]))
        changed = parts[:i] + [other] + parts[i + 1:]
        assert mix64(*parts) != mix64(*changed)


class TestTrustedEvaluate:
    def test_constant_function_cost(self):
        spec = CircuitSpec(gate_count=3, rom_entries=2)
        out, bits = trusted_evaluate(lambda ra, rb: 1, [0], [0], spec)
        assert out == 1
        assert bits == spec.modeled_bits == 3 * polylog_charge(64, 2)

    def test_single_lookup_example(self):
        # one 64-bit word among 2^20 entries: 64 * 400 * C_OT modeled bits
        assert polylog_charge(64, 2 ** 20) == 64 * 400 * 64

    def test_majority_semantics_transparent(self):
        bits = [1, 0, 1, 1, 0]

        def bit_majority(ra, rb):
            vals = [ra[i] for i in range(len(bits))]
            return int(sum(vals) * 2 > len(vals))

        spec = CircuitSpec(gate_count=len(bits), rom_entries=len(bits))
        out, _ = trusted_evaluate(bit_majority, bits, [], spec)
        assert out == int(sum(bits) * 2 > len(bits))

    def test_secure_transcript(self):
        tr = secure_transcript(999)
        assert tr.messages == [("alice", FRAME_BYTES + 16)]
        assert (tr.total_bits, tr.modeled_secure_bits) == (160, 999)


def test_majority_needs_a_strict_majority():
    far, same, product = Decision.FAR, Decision.SAME, Decision.PRODUCT
    assert majority([far, same, far], same) is far
    assert majority([far, product], product) is product  # a tie
    assert majority([same, same, far], same) is same


# Per params class: a fixed cell, its constants, and the sizes it names.
PARAMS_CLASSES = {
    CTParams: (dict(n=200), ("c_split", "c_alpha", "big_c", "sketch_delta"),
               ("alpha", "split_rate", "sketch_counters")),
    SecureCTParams: (dict(n=200, k=4), ("big_c", "c", "c_a", "c_l"),
                     ("alpha", "cap_level", "bernoulli_trials")),
    ITParams: (dict(n=20, m=20, k=2), ("big_c", "c1", "c2", "c3", "c_eps"),
               ("t_prime", "ell_target", "subset_budget")),
    GHDReductionParams: (dict(n=2000, m=32, beta=8.0, l_big=62),
                         ("big_c", "m", "l_big", "beta"), ("m", "l_big")),
}


@settings(max_examples=300, deadline=None)
@given(cls=st.sampled_from(list(PARAMS_CLASSES)), t=st.integers(1, 2 ** 70),
       eps=st.floats(0.1, 2.0) | st.floats(1e-300, 2.0), data=st.data())
def test_params_refused_or_every_size_in_range(cls, t, eps, data):
    # params only: a row at a drawn t could need memory no machine has
    cell, constants, sizes = PARAMS_CLASSES[cls]
    kwargs = dict(cell, t=t) if cls is GHDReductionParams else \
        dict(cell, t=t, eps=eps)
    value = data.draw(st.sampled_from(
        [None, 0.0, 1e-300, 1e300, math.nan, math.inf, -1.0]))
    if value is not None:
        kwargs[data.draw(st.sampled_from(constants))] = value
    try:
        params = cls(**kwargs)
    except ConfigError:
        return
    for name in ("t", *sizes):
        assert 0 < getattr(params, name) < SIZE_LIMIT, name


@pytest.mark.parametrize("cls, cell", [
    (SecureCTParams, dict(n=200, t=10 ** 6, eps=1.0)),
    (ITParams, dict(n=20, m=20, t=10 ** 6, eps=1.0)),
])
def test_votes_is_k_rounded_up_to_odd(cls, cell):
    assert [cls(**cell, k=k).votes for k in (1, 2, 3, 4)] == [1, 3, 3, 5]
