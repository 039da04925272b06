"""Centroid-based query-state sharing (§4.2, Appendix B).

"We choose the most representative query state (the centroid) of all
Qo's based on a distance function that counts the number of bytes that
differ in the query state of two objects. ... Given the centroid, we
compress the query states of other objects based on the distance to
the centroid."

Objects leaving in the same container share most of their automaton
state (same stage, similar timestamps, similar collected values), so
encoding each non-centroid state as a byte-level diff against the
centroid shrinks the migrated bundle by roughly the 10× the paper's
§5.4 table reports.

Diffs come from one greedy block matcher (:func:`_copy_blocks`, the
xdelta/VCDIFF shape): the base's 4-byte grams are indexed once, the
target is scanned once, so a hand-off costs time linear in the bytes it
ships, whatever those bytes are. The same matcher backs the distance
function and the centroid choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util.encoding import ByteReader, ByteWriter
from repro.sim.tags import EPC, read_epc, write_epc

__all__ = ["byte_distance", "state_diff", "apply_diff", "SharedStateBundle", "centroid_compress"]

#: Matches are seeded from 4-byte grams: a copy opcode costs at least
#: three bytes (op, start, length), so no shorter match can pay for it.
_GRAM = 4

#: The whole diff of a state byte-equal to its base (opcode 2).
_IDENTICAL = b"\x02"


def _varint_len(value: int) -> int:
    """Encoded size of a varint (≥1 byte per 7 bits)."""
    return max(1, (value.bit_length() + 6) // 7)


def _blob_len(size: int) -> int:
    """Wire size of a length-prefixed field holding ``size`` bytes."""
    return _varint_len(size) + size


def _gram_index(base: bytes) -> dict[bytes, int]:
    """First position of every ``_GRAM``-byte substring of ``base``."""
    index: dict[bytes, int] = {}
    for start in range(len(base) - _GRAM, -1, -1):
        index[base[start : start + _GRAM]] = start
    return index


def _copy_blocks(
    base: bytes, index: dict[bytes, int], target: bytes
) -> list[tuple[int, int, int]]:
    """Greedy block matches of ``target`` against ``base``.

    Returns ``(base_start, target_start, length)`` triples, ascending
    and disjoint in the target, each worth more bytes than its copy
    opcode costs. The scan looks every target gram up in ``index`` (the
    base's :func:`_gram_index`), extends a hit backwards over bytes no
    earlier block has claimed, then forwards, and jumps past the block
    if it pays. Every target byte is stepped over a bounded number
    of times — a rejected hit is at most a few bytes long — so the cost
    is O(len(base) + len(target)) whatever the bytes are.
    """
    blocks = []
    base_len, target_len = len(base), len(target)
    pos = unclaimed = 0
    while pos + _GRAM <= target_len:
        hit = index.get(target[pos : pos + _GRAM])
        if hit is None:
            pos += 1
            continue
        start, begin = hit, pos
        while begin > unclaimed and start > 0 and target[begin - 1] == base[start - 1]:
            begin -= 1
            start -= 1
        stop, end = hit + _GRAM, pos + _GRAM
        while end < target_len and stop < base_len and target[end] == base[stop]:
            end += 1
            stop += 1
        length = end - begin
        if length > 1 + _varint_len(start) + _varint_len(length):
            blocks.append((start, begin, length))
            pos = unclaimed = end
        else:
            pos += 1
    return blocks


def byte_distance(a: bytes, b: bytes) -> int:
    """Number of differing bytes between two states (the paper's
    distance function): total length minus twice the bytes the block
    matcher finds in common."""
    matched = sum(length for _, _, length in _copy_blocks(a, _gram_index(a), b))
    return (len(a) - matched) + (len(b) - matched)


def _encode_diff(base: bytes, index: dict[bytes, int], target: bytes) -> bytes:
    """:func:`state_diff` against a base whose gram index is at hand."""
    if target == base:
        return _IDENTICAL
    writer = ByteWriter()
    done = 0
    for start, at, length in _copy_blocks(base, index, target):
        if at > done:
            writer.varint(1).blob(target[done:at])
        writer.varint(0).varint(start).varint(length)
        done = at + length
    if done < len(target):
        writer.varint(1).blob(target[done:])
    if len(writer) <= 1 + _blob_len(len(target)):
        return writer.getvalue()
    return ByteWriter().varint(1).blob(target).getvalue()


def state_diff(base: bytes, target: bytes) -> bytes:
    """Encode ``target`` as edit operations against ``base``.

    Wire format per opcode: ``op (varint: 0=copy, 1=insert, 2=whole
    state identical to base)`` followed by ``start,len`` varints for
    copies or ``len + literal bytes`` for inserts. The identical case
    gets its own one-byte opcode because quiescent automaton states are
    byte-for-byte equal across most objects of a container.

    The encoder is cost-aware: a matched block is emitted as a copy only
    when the copy encoding is shorter than inlining the bytes — short
    matches interleaved with float noise (typical of collapsed weight
    states) would otherwise make the diff *larger* than the raw state —
    and a whole-state literal is the fallback ceiling, so a diff never
    costs more than ``1 + varint_len(len(target)) + len(target)`` bytes
    (``len(target) + 2`` below 128 bytes, ``+ 3`` from there to 16 KiB).
    """
    return _encode_diff(base, _gram_index(base), target)


def apply_diff(base: bytes, diff: bytes) -> bytes:
    """Reconstruct the target state from a base and its diff.

    A malformed diff (truncated varints or literals, unknown opcodes, a
    copy reaching past the end of the base, the identical opcode next to
    anything else) raises :class:`ValueError`.
    """
    if diff == _IDENTICAL:
        return bytes(base)
    reader = ByteReader(diff)
    out = bytearray()
    try:
        while not reader.exhausted():
            op = reader.varint()
            if op == 0:
                start = reader.varint()
                length = reader.varint()
                if start + length > len(base):
                    raise ValueError(
                        f"diff copies [{start}, {start + length}) from a "
                        f"{len(base)}-byte base"
                    )
                out.extend(base[start : start + length])
            elif op == 1:
                out.extend(reader.blob())
            elif op == 2:
                raise ValueError("identical-state opcode must be the whole diff")
            else:
                raise ValueError(f"unknown diff opcode {op}")
    except EOFError as exc:
        raise ValueError(f"malformed state diff: {exc}") from exc
    return bytes(out)


@dataclass
class SharedStateBundle:
    """A centroid plus per-object diffs, ready for the wire."""

    centroid_tag: EPC
    centroid_state: bytes
    diffs: dict[EPC, bytes]

    def to_bytes(self) -> bytes:
        writer = ByteWriter()
        write_epc(writer, self.centroid_tag)
        writer.blob(self.centroid_state)
        writer.varint(len(self.diffs))
        for tag in sorted(self.diffs):
            write_epc(writer, tag)
            writer.blob(self.diffs[tag])
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "SharedStateBundle":
        """Parse a bundle; a tag named twice (as a diff, or as the
        centroid and a diff) or bytes left over raise :class:`ValueError`."""
        reader = ByteReader(data)
        centroid_tag = read_epc(reader)
        centroid_state = reader.blob()
        count = reader.varint()
        diffs: dict[EPC, bytes] = {}
        for _ in range(count):
            tag = read_epc(reader)
            if tag == centroid_tag or tag in diffs:
                raise ValueError(f"state bundle names {tag} twice")
            diffs[tag] = reader.blob()
        if not reader.exhausted():
            raise ValueError("trailing bytes after state bundle")
        return cls(centroid_tag, centroid_state, diffs)

    def byte_size(self) -> int:
        return len(self.to_bytes())

    def reconstruct(self) -> dict[EPC, bytes]:
        """Recover every object's exact state (lossless)."""
        states = {self.centroid_tag: self.centroid_state}
        for tag, diff in self.diffs.items():
            states[tag] = apply_diff(self.centroid_state, diff)
        return states


#: Exact centroid selection diffs every pair of distinct states. Beyond
#: this many distinct states the argmin runs over a deterministic stride
#: sample of candidates and reference states instead: only the *choice*
#: of centroid is approximated — every object's diff stays exact and the
#: bundle stays lossless — so the worst case is a slightly larger wire
#: bundle, never a wrong state. A 700-state bundle drops from ~490k
#: diffs to at most CANDIDATE_CAP × REFERENCE_CAP.
_EXACT_SELECTION_LIMIT = 32
_CANDIDATE_CAP = 16
_REFERENCE_CAP = 48


def _stride_sample(seq: list, cap: int) -> list:
    """Evenly spaced deterministic sample of ``seq`` (order-preserving)."""
    if len(seq) <= cap:
        return list(seq)
    step = len(seq) / cap
    return [seq[int(i * step)] for i in range(cap)]


def centroid_compress(states: dict[EPC, bytes]) -> SharedStateBundle:
    """Pick the centroid that makes the bundle smallest and diff every
    other state against it.

    The objective is what the wire carries: the centroid's own bytes
    plus every other object's length-prefixed diff. Byte-equal states
    are diffed once and weighted by how many objects hold them, so a
    state shared by most objects wins on its one-byte "identical" diffs.
    Selection is exact up to ``_EXACT_SELECTION_LIMIT`` distinct states
    and stride-sampled above it (see the cap notes); both paths depend
    only on the ``states`` mapping, not on its insertion order, and
    reconstruction is lossless either way.
    """
    if not states:
        raise ValueError("no states to compress")
    tags = sorted(states)
    holders: dict[bytes, list[EPC]] = {}
    for tag in tags:
        holders.setdefault(states[tag], []).append(tag)
    distinct = list(holders)  # ordered by each state's smallest tag
    if len(distinct) <= _EXACT_SELECTION_LIMIT:
        candidates = references = distinct
    else:
        candidates = _stride_sample(distinct, _CANDIDATE_CAP)
        references = _stride_sample(distinct, _REFERENCE_CAP)
    best_cost = None
    for candidate in candidates:
        index = _gram_index(candidate)
        diffs = {
            state: _encode_diff(candidate, index, state)
            for state in references
            if state != candidate
        }
        cost = (
            _blob_len(len(candidate))
            + (len(holders[candidate]) - 1) * _blob_len(len(_IDENTICAL))
            + sum(
                len(holders[state]) * _blob_len(len(diff))
                for state, diff in diffs.items()
            )
        )
        if best_cost is None or cost < best_cost:
            best_cost = cost
            centroid, centroid_index, state_diffs = candidate, index, diffs
    for state in distinct:
        if state not in state_diffs:
            state_diffs[state] = _encode_diff(centroid, centroid_index, state)
    centroid_tag = holders[centroid][0]
    return SharedStateBundle(
        centroid_tag,
        centroid,
        {tag: state_diffs[states[tag]] for tag in tags if tag != centroid_tag},
    )
