"""The committed ledger.

Commitment assigns every block a position in a totally ordered sequence —
the object the safety property speaks about ("two non-faulty replicas
commit blocks B and B' at the same position ⇒ B = B'", §II-A).  The ledger
records that sequence together with enough metadata for the metrics layer
(commit time, the leader that triggered the commit) and for the test
harness's cross-replica prefix checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Set

from ..crypto.hashing import Digest, short_hex
from ..errors import ProtocolError
from .block import Block


@dataclass(frozen=True)
class CommitRecord:
    """One committed block with its position and provenance.

    Slotted (one per committed block per replica, kept for the whole run).
    A frozen dataclass with ``__slots__`` cannot be pickled or deep-copied
    by the default slot-state protocol — restoring goes through the frozen
    ``__setattr__`` — so :meth:`__reduce__` rebuilds it from its fields.
    """

    __slots__ = ("position", "block", "commit_time", "via_leader", "leader_index")

    position: int
    block: Block
    commit_time: float
    #: Digest of the (directly or indirectly committed) leader whose
    #: commitment pulled this block in; equals the block's own digest for
    #: leader blocks.
    via_leader: Digest
    #: Index k of the committed-leader sequence this block was ordered under.
    leader_index: int

    def __reduce__(self):
        return (
            CommitRecord,
            (self.position, self.block, self.commit_time, self.via_leader,
             self.leader_index),
        )


class Ledger:
    """Append-only committed sequence with O(1) membership checks."""

    def __init__(self) -> None:
        self._records: List[CommitRecord] = []
        self._committed: Set[Digest] = set()
        self._leader_count = 0
        self._trace = None
        self._trace_node = -1

    def bind_trace(self, trace, node_id: int) -> None:
        """Attach a tracer so appends emit ``trace.ordered`` spans.

        Called by the owning node when tracing is on; the default (no
        tracer) keeps :meth:`append` branch-only, per the obs budget.
        """
        self._trace = trace
        self._trace_node = node_id

    # -- appends ---------------------------------------------------------------

    def begin_leader(self) -> int:
        """Start a new committed-leader index ``k`` and return it."""
        self._leader_count += 1
        return self._leader_count - 1

    def append(
        self, block: Block, commit_time: float, via_leader: Digest, leader_index: int
    ) -> CommitRecord:
        """Commit one block at the next position."""
        if block.digest in self._committed:
            raise ProtocolError(
                f"block {block.digest.hex()[:8]} committed twice"
            )
        record = CommitRecord(
            position=len(self._records),
            block=block,
            commit_time=commit_time,
            via_leader=via_leader,
            leader_index=leader_index,
        )
        self._records.append(record)
        self._committed.add(block.digest)
        if self._trace is not None:
            self._trace.emit(
                commit_time, "trace.ordered", self._trace_node,
                digest=short_hex(block.digest), round=block.round,
                author=block.author, position=record.position,
                leader_index=leader_index,
            )
        return record

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[CommitRecord]:
        return iter(self._records)

    def __contains__(self, digest: Digest) -> bool:
        return digest in self._committed

    @property
    def committed_digests(self) -> Set[Digest]:
        """Live view of all committed digests (do not mutate)."""
        return self._committed

    @property
    def leader_count(self) -> int:
        return self._leader_count

    def record_at(self, position: int) -> CommitRecord:
        return self._records[position]

    def last(self) -> Optional[CommitRecord]:
        return self._records[-1] if self._records else None

    def digest_sequence(self) -> List[Digest]:
        """The ordered digest list — what cross-replica safety compares."""
        return [r.block.digest for r in self._records]

    def total_transactions(self) -> int:
        return sum(r.block.payload.count for r in self._records)


def check_prefix_consistency(ledgers: List[Ledger]) -> None:
    """Assert that every pair of ledgers agrees on their common prefix.

    This is the executable form of Theorems 2 and 6: non-faulty replicas
    may be at different commit depths, but where both have committed, they
    must have committed identically.  Raises :class:`ProtocolError` naming
    the first divergent position.

    Prefix agreement with a common reference is transitive, so instead of
    the O(R²·L) all-pairs scan it suffices to compare every ledger against
    the longest one (O(R·L)): if two ledgers each match the longest on
    their whole length, they match each other on their common prefix.
    """
    sequences = [ledger.digest_sequence() for ledger in ledgers]
    if len(sequences) < 2:
        return
    ref = max(range(len(sequences)), key=lambda i: len(sequences[i]))
    ref_seq = sequences[ref]
    for i, seq in enumerate(sequences):
        if i == ref:
            continue
        # Every non-reference ledger is no longer than the reference, so
        # its whole sequence is the common prefix.
        if seq == ref_seq[: len(seq)]:
            continue
        for pos, (mine, theirs) in enumerate(zip(seq, ref_seq)):
            if mine != theirs:
                a, b = sorted((i, ref))
                raise ProtocolError(
                    f"safety violation: ledgers {a} and {b} diverge at "
                    f"position {pos}: {sequences[a][pos].hex()[:8]} != "
                    f"{sequences[b][pos].hex()[:8]}"
                )
