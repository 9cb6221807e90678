"""Shared machinery for the per-replica broadcast managers.

Each manager tracks one *kind* of broadcast (PBC/CBC/RBC) across all its
instances (one instance per proposed block).  The split of responsibilities
with the owning protocol node is:

* the **manager** counts messages and decides when an instance's *delivery
  predicate* is met (body present, enough echoes/readies);
* the **protocol** decides when a block is *acceptable* — structural
  validity and the §IV-A ancestor gate — and signals it by calling
  :meth:`InstanceTracker.mark_ready`.  Only blocks that are both ready and
  predicate-complete are delivered, exactly once, via the ``on_deliver``
  callback.

This keeps every protocol rule (LightDAG2's Rules 2/3 voting policy, the
retrieval gate) out of the broadcast layer, matching the paper's layering.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..crypto.hashing import Digest
from ..dag.block import Block
from ..obs import NULL_OBS, Observability

DeliverCallback = Callable[[Block], None]

#: Shared result of ``echoers_of`` for digests nobody has echoed.
NO_ECHOERS: frozenset = frozenset()


class InstanceState:
    """Per-block broadcast state.

    A replica holds one of these per block per round, n² across a
    simulated cluster, so the layout is compact: ``__slots__`` and the
    echo/ready senders as ``1 << replica`` bitmasks, each kept with its
    popcount so the quorum predicates never scan the mask.
    """

    __slots__ = (
        "body",
        "ready",
        "delivered",
        "echoers",
        "echo_count",
        "readiers",
        "ready_count",
        "sent_ready",
        "round",
    )

    def __init__(self) -> None:
        self.body: Optional[Block] = None
        self.ready = False  # protocol accepted it (ancestors present, valid)
        self.delivered = False
        self.echoers = 0  # bitmask of echo senders
        self.echo_count = 0
        self.readiers = 0  # bitmask of ready senders
        self.ready_count = 0
        self.sent_ready = False
        #: DAG round of the block, stamped opportunistically from whichever
        #: message first reveals it (body, echo, ready); -1 = not yet known.
        #: Drives :meth:`InstanceTracker.gc_below` — without it the tracker
        #: retains every instance ever seen, which is what unbounds memory on
        #: long large-n runs.
        self.round = -1

    def add_echo(self, src: int) -> bool:
        """Record ``src``'s ECHO; False if it was already counted."""
        bit = 1 << src
        if self.echoers & bit:
            return False
        self.echoers |= bit
        self.echo_count += 1
        return True

    def add_ready(self, src: int) -> bool:
        """Record ``src``'s READY; False if it was already counted."""
        bit = 1 << src
        if self.readiers & bit:
            return False
        self.readiers |= bit
        self.ready_count += 1
        return True


class InstanceTracker:
    """Digest-keyed instance states plus the single-delivery discipline."""

    def __init__(
        self,
        on_deliver: DeliverCallback,
        obs: Optional[Observability] = None,
        primitive: str = "",
    ) -> None:
        self._instances: Dict[Digest, InstanceState] = {}
        self._on_deliver = on_deliver
        # Per-primitive delivery accounting (no-op when uninstrumented).
        self._delivered_ctr = (obs or NULL_OBS).metrics.counter(
            "broadcast.delivered", primitive=primitive
        )

    def state(self, digest: Digest) -> InstanceState:
        inst = self._instances.get(digest)
        if inst is None:
            inst = self._instances[digest] = InstanceState()
        return inst

    def peek(self, digest: Digest) -> Optional[InstanceState]:
        return self._instances.get(digest)

    def record_body(self, block: Block) -> InstanceState:
        inst = self.state(block.digest)
        if inst.body is None:
            inst.body = block
        inst.round = block.round
        return inst

    def gc_below(self, horizon: int) -> int:
        """Drop instances of rounds below ``horizon``; returns the count.

        Safety: the caller's horizon sits ``gc_depth`` + a wave below the
        settled commit frontier, so those instances can never influence a
        future delivery decision here.  A straggler message for a pruned
        digest merely recreates an empty stub (no body, not ready — it
        cannot deliver), which the next sweep removes again because the
        message stamps the same old round.  Instances whose round is
        still unknown (-1) are kept — they are transient, bounded by the
        in-flight message population.
        """
        instances = self._instances
        stale = [
            digest
            for digest, inst in instances.items()
            if 0 <= inst.round < horizon
        ]
        for digest in stale:
            del instances[digest]
        return len(stale)

    def mark_ready(self, digest: Digest) -> InstanceState:
        """Protocol signal: the block passed validation and the ancestor
        gate.  Triggers delivery if the predicate is already met."""
        inst = self.state(digest)
        inst.ready = True
        return inst

    def try_deliver(self, inst: InstanceState, predicate_met: bool) -> bool:
        """Deliver exactly once when ready + body + predicate all hold."""
        if inst.delivered or not inst.ready or inst.body is None or not predicate_met:
            return False
        inst.delivered = True
        self._delivered_ctr.inc()
        self._on_deliver(inst.body)
        return True

    def is_delivered(self, digest: Digest) -> bool:
        inst = self._instances.get(digest)
        return inst is not None and inst.delivered

    def echoers_of(self, digest: Digest) -> frozenset:
        """Replicas that echoed a digest — retrieval fallback targets: they
        are guaranteed (if non-faulty) to hold the body and its ancestors.

        A point-in-time snapshot decoded from the echo bitmask; the only
        caller (retrieval's retry timer) sorts it, so iteration order is
        irrelevant."""
        inst = self._instances.get(digest)
        mask = inst.echoers if inst is not None else 0
        if not mask:
            return NO_ECHOERS
        return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)
