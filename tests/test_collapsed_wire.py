"""Wire-format hardening tests: CollapsedState round trips and the
state-diff codec, including malformed/adversarial byte strings."""

import pytest
from hypothesis import given, settings, strategies as st

from repro._util.encoding import ByteWriter
from repro.core.collapsed import CollapsedState
from repro.distributed.sharing import apply_diff, state_diff
from repro.sim.tags import EPC, TagKind

ITEM = EPC(TagKind.ITEM, 7)
CASE = EPC(TagKind.CASE, 3)


def epcs():
    return st.builds(
        EPC,
        st.sampled_from([TagKind.PALLET, TagKind.CASE, TagKind.ITEM]),
        st.integers(0, 2**20),
    )


class TestCollapsedRoundTrip:
    def test_empty_weights(self):
        state = CollapsedState(ITEM)
        back = CollapsedState.from_bytes(state.to_bytes())
        assert back.tag == ITEM
        assert back.weights == {}
        assert back.container is None
        assert back.changed_at is None

    def test_changed_at_zero_distinct_from_none(self):
        at_zero = CollapsedState(ITEM, changed_at=0)
        assert CollapsedState.from_bytes(at_zero.to_bytes()).changed_at == 0
        unset = CollapsedState(ITEM, changed_at=None)
        assert CollapsedState.from_bytes(unset.to_bytes()).changed_at is None

    @given(
        tag=epcs(),
        container=st.none() | epcs(),
        changed_at=st.none() | st.integers(0, 10**6),
        weights=st.dictionaries(
            epcs(), st.floats(-100, 100, width=32), max_size=8
        ),
    )
    @settings(max_examples=60)
    def test_round_trip(self, tag, container, changed_at, weights):
        state = CollapsedState(tag, weights, container, changed_at)
        back = CollapsedState.from_bytes(state.to_bytes())
        assert back.tag == tag
        assert back.container == container
        assert back.changed_at == changed_at
        assert set(back.weights) == set(weights)
        for candidate, weight in weights.items():
            assert back.weights[candidate] == pytest.approx(weight, rel=1e-6, abs=1e-6)


class TestCollapsedAdversarial:
    @pytest.mark.parametrize(
        "data",
        [
            b"",  # nothing
            b"\x02",  # tag kind without serial
            b"\x03",  # the None sentinel where a tag is required
            b"\x02\x07\x03\x00\x05",  # claims 5 weights, supplies none
            b"\x02\x07\x03\x00\x01\x02",  # candidate without its float
            b"\xff\xff\xff",  # unterminated varint
            b"\x09\x00\x03\x00\x00",  # kind 9 is not a TagKind
        ],
    )
    def test_malformed_raises_value_error(self, data):
        with pytest.raises(ValueError):
            CollapsedState.from_bytes(data)

    @given(data=st.binary(max_size=64))
    @settings(max_examples=120)
    def test_never_leaks_decoder_internals(self, data):
        """Arbitrary bytes either decode or raise ValueError — nothing else."""
        try:
            state = CollapsedState.from_bytes(data)
        except ValueError:
            return
        assert isinstance(state, CollapsedState)


def lumpy(max_size=400):
    """Low-entropy bytes like real automaton states (varint zeros, float
    padding): 4-byte grams repeat, so the matcher's hits land on the
    wrong alignment and its extend / back-off / reject paths all run."""
    return st.lists(st.sampled_from([0, 0, 0, 1, 63, 240]), max_size=max_size).map(bytes)


def state_pairs():
    """(base, target): unrelated bytes, or two states sharing a head and
    a tail around a differing middle (how co-migrating states differ)."""
    blob = st.one_of(st.binary(max_size=300), lumpy())
    spliced = st.tuples(blob, blob, blob, blob).map(
        lambda p: (p[0] + p[1] + p[2], p[0] + p[3] + p[2])
    )
    return st.one_of(st.tuples(blob, blob), spliced)


class TestStateDiff:
    @given(pair=state_pairs())
    @settings(max_examples=150)
    def test_round_trip(self, pair):
        base, target = pair
        assert apply_diff(base, state_diff(base, target)) == target

    def test_identical_state_is_one_byte(self):
        """Opcode 2: quiescent automata are byte-identical across a
        container's objects; the diff must collapse to a single byte."""
        state = bytes(range(30))
        diff = state_diff(state, state)
        assert diff == b"\x02"
        assert apply_diff(state, diff) == state

    def test_empty_base_and_target(self):
        assert apply_diff(b"", state_diff(b"", b"")) == b""
        assert apply_diff(b"", state_diff(b"", b"xyz")) == b"xyz"
        assert apply_diff(b"abc", state_diff(b"abc", b"")) == b""

    @given(pair=state_pairs())
    @settings(max_examples=150)
    def test_diff_never_larger_than_a_whole_literal(self, pair):
        """The cost-aware encoder's ceiling: insert opcode + length
        varint + the target itself (``len + 2`` below 128 bytes, ``+ 3``
        from there on)."""
        base, target = pair
        ceiling = 1 + len(ByteWriter().blob(target))
        assert len(state_diff(base, target)) <= ceiling
        if len(target) < 128:
            assert ceiling == len(target) + 2

    def test_unknown_opcode_rejected(self):
        with pytest.raises(ValueError):
            apply_diff(b"abc", b"\x05")

    @pytest.mark.parametrize(
        "diff",
        [
            b"\x00",  # copy without start/len
            b"\x00\x01",  # copy without len
            b"\x01\x0a",  # insert claims 10 literal bytes, has none
            b"\xff",  # unterminated varint
        ],
    )
    def test_truncated_diff_raises_value_error(self, diff):
        with pytest.raises(ValueError):
            apply_diff(b"abcdef", diff)

    @pytest.mark.parametrize(
        "diff",
        [
            bytes([0, 10, 5]),  # copy starts past the end of the base
            bytes([0, 1, 100]),  # copy runs past the end of the base
            bytes([0, 6, 1]),  # copy of one byte at the very end + 1
            b"\x02\x00",  # bytes after the identical opcode
            b"\x02\x02",
            b"\x01\x01A\x02",  # identical opcode after other output
        ],
    )
    def test_out_of_range_copy_and_stray_identical_raise(self, diff):
        """A diff that cannot have come from the encoder must not yield
        a (wrong) state."""
        with pytest.raises(ValueError):
            apply_diff(b"abcdef", diff)

    def test_copy_up_to_the_last_byte_is_fine(self):
        assert apply_diff(b"abcdef", bytes([0, 2, 4])) == b"cdef"
        assert apply_diff(b"abcdef", bytes([0, 6, 0])) == b""

    @given(base=st.binary(max_size=40), diff=st.binary(max_size=40))
    @settings(max_examples=120)
    def test_adversarial_diffs_contained(self, base, diff):
        """Arbitrary diff bytes either apply or raise ValueError."""
        try:
            out = apply_diff(base, diff)
        except ValueError:
            return
        assert isinstance(out, bytes)
