"""Bounded store-and-forward persistence for edge nodes.

Every batch an :class:`~repro.edge.node.EdgeNode` forms is written here
*before* its first transmission, so a crashed edge restarts with its
unacknowledged queue intact (the at-least-once contract: a batch may be
delivered twice after a replay, never zero times). Files follow the
little-endian idiom of :mod:`repro.archive.tiers` — a raw byte block
per batch — plus a crc32 footer, because spool files must survive the
exact failure mode they exist for: a crash mid-write leaves a truncated
tail, which recovery skips (and counts) instead of crashing on.

A tiny ``meta`` record persists the next sequence number. Without it a
restarted edge would re-mint sequence numbers already acknowledged and
the gateway's dedup window would silently discard fresh data.
"""

from __future__ import annotations

import os
import struct
import zlib

__all__ = ["BatchSpool", "SpoolCorruption"]

_CRC = struct.Struct("<I")


class SpoolCorruption(ValueError):
    """A spool file failed its length or checksum validation."""


def _frame(payload: bytes) -> bytes:
    return payload + _CRC.pack(zlib.crc32(payload))


def _unframe(data: bytes, label: str) -> bytes:
    if len(data) < _CRC.size:
        raise SpoolCorruption(f"{label}: truncated ({len(data)} bytes)")
    payload, footer = data[: -_CRC.size], data[-_CRC.size :]
    if zlib.crc32(payload) != _CRC.unpack(footer)[0]:
        raise SpoolCorruption(f"{label}: checksum mismatch")
    return payload


class BatchSpool:
    """Crash-durable queue of encoded batches, keyed by sequence number."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        #: files recovery had to skip because they failed validation.
        self.corruptions = 0

    def _path(self, seq: int) -> str:
        return os.path.join(self.root, f"batch-{seq:08d}.col")

    def put(self, seq: int, payload: bytes) -> None:
        with open(self._path(seq), "wb") as fh:
            fh.write(_frame(payload))

    def load(self, seq: int) -> bytes:
        with open(self._path(seq), "rb") as fh:
            return _unframe(fh.read(), f"spooled batch {seq}")

    def remove(self, seq: int) -> None:
        try:
            os.remove(self._path(seq))
        except FileNotFoundError:
            pass

    def pending(self) -> list[int]:
        seqs = []
        for name in os.listdir(self.root):
            if name.startswith("batch-") and name.endswith(".col"):
                seqs.append(int(name[len("batch-") : -len(".col")]))
        return sorted(seqs)

    # -- the durable sequence counter ---------------------------------------

    def set_next_seq(self, next_seq: int) -> None:
        # Write-then-rename: a crash mid-write must leave the previous
        # counter intact, never a torn file that resets it to 1.
        path = os.path.join(self.root, "meta")
        with open(path + ".tmp", "wb") as fh:
            fh.write(_frame(struct.pack("<q", next_seq)))
        os.replace(path + ".tmp", path)

    def next_seq(self) -> int:
        """The persisted counter, or 1 on a fresh (or corrupt) spool."""
        try:
            with open(os.path.join(self.root, "meta"), "rb") as fh:
                payload = _unframe(fh.read(), "spool meta")
        except FileNotFoundError:
            return 1
        except SpoolCorruption:
            self.corruptions += 1
            # Fall back to past the highest intact batch: conservative —
            # possibly skipping numbers, never reusing acknowledged ones
            # below an unacked batch still on disk.
            pending = self.pending()
            return (pending[-1] + 1) if pending else 1
        return struct.unpack("<q", payload)[0]

    def recover(self) -> dict[int, bytes]:
        """All intact spooled batches; corrupt files are skipped + counted."""
        out: dict[int, bytes] = {}
        for seq in self.pending():
            try:
                out[seq] = self.load(seq)
            except SpoolCorruption:
                self.corruptions += 1
        return out
