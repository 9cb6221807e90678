"""Tests for the bitmask echo/ready bookkeeping in broadcast instances.

Each :class:`~repro.broadcast.base.InstanceState` keeps its echo and ready
senders as ``1 << replica`` bitmasks with a count beside each; the quorum
predicates read the counts and ``echoers_of`` decodes the mask into an
immutable snapshot.
"""

import pytest

from repro.broadcast.base import NO_ECHOERS, InstanceTracker
from repro.broadcast.cbc import CbcManager
from repro.broadcast.messages import BlockEcho, BlockReady
from repro.broadcast.rbc import RbcManager
from repro.crypto.hashing import hash_fields
from repro.dag.block import genesis_block, make_block
from repro.obs import EventJournal, NullJournal, NullRegistry, Observability, Tracer

from ..conftest import FakeNet

DIGEST = hash_fields("view-digest")
QUORUM = 3  # n=4, f=1


def sample_block(round_=1, author=0):
    return make_block(round_, author, [genesis_block(a).digest for a in range(4)])


def echo_for(block):
    return BlockEcho(round=block.round, author=block.author, digest=block.digest)


def ready_for(block):
    return BlockReady(round=block.round, author=block.author, digest=block.digest)


def traced_obs():
    journal = EventJournal()
    return Observability(NullRegistry(), NullJournal(), trace=Tracer(journal)), journal


def quorum_spans(journal):
    return [e for e in journal.events if e.type == "trace.quorum"]


class TestEchoCounting:
    def test_duplicate_echo_counts_once(self):
        manager = CbcManager(FakeNet(), quorum=QUORUM, on_deliver=lambda b: None)
        block = sample_block()
        for _ in range(3):
            manager.on_echo(2, echo_for(block))
        inst = manager.tracker.peek(block.digest)
        assert inst.echoers == 1 << 2
        assert inst.echo_count == 1
        assert not manager.echo_complete(block.digest)

    def test_duplicate_ready_counts_once(self):
        manager = RbcManager(
            FakeNet(), quorum=QUORUM, amplify_threshold=2,
            on_deliver=lambda b: None,
        )
        block = sample_block()
        manager.on_ready(1, ready_for(block))
        manager.on_ready(1, ready_for(block))
        inst = manager.tracker.peek(block.digest)
        assert inst.readiers == 1 << 1
        assert inst.ready_count == 1
        assert not inst.sent_ready  # one distinct sender is below f + 1

    def test_cbc_quorum_crossed_exactly_once(self):
        obs, journal = traced_obs()
        delivered = []
        manager = CbcManager(
            FakeNet(), quorum=QUORUM, on_deliver=delivered.append, obs=obs
        )
        block = sample_block()
        manager.on_val(1, block)
        manager.mark_ready(block.digest)
        results = [manager.on_echo(src, echo_for(block)) for src in (0, 1, 1, 2, 3, 2)]
        assert results == [False, False, False, True, False, False]
        assert delivered == [block]
        spans = quorum_spans(journal)
        assert len(spans) == 1
        assert spans[0].data["kind"] == "echo"

    def test_rbc_ready_quorum_crossed_exactly_once(self):
        obs, journal = traced_obs()
        delivered = []
        manager = RbcManager(
            FakeNet(), quorum=QUORUM, amplify_threshold=2,
            on_deliver=delivered.append, obs=obs,
        )
        block = sample_block()
        manager.on_val(1, block)
        manager.mark_ready(block.digest)
        for src in (3, 0, 0, 2, 1, 3):
            manager.on_ready(src, ready_for(block))
        assert manager.ready_complete(block.digest)
        assert delivered == [block]
        spans = quorum_spans(journal)
        assert len(spans) == 1
        assert spans[0].data["kind"] == "ready"

    def test_large_replica_id(self):
        manager = CbcManager(FakeNet(n=1000), quorum=2, on_deliver=lambda b: None)
        block = sample_block()
        manager.on_echo(999, echo_for(block))
        manager.on_echo(0, echo_for(block))
        assert manager.echo_complete(block.digest)
        assert manager.echoers_of(block.digest) == {0, 999}

    def test_straggler_after_gc_is_undeliverable_stub(self):
        delivered = []
        manager = CbcManager(FakeNet(), quorum=QUORUM, on_deliver=delivered.append)
        block = sample_block(round_=2)
        manager.on_val(1, block)
        manager.mark_ready(block.digest)
        for src in range(QUORUM):
            manager.on_echo(src, echo_for(block))
        assert delivered == [block]
        manager.gc_below(5)
        assert manager.tracker.peek(block.digest) is None

        assert manager.on_echo(3, echo_for(block)) is False
        stub = manager.tracker.peek(block.digest)
        assert stub.body is None and not stub.ready
        assert stub.echo_count == 1 and stub.round == block.round
        assert delivered == [block]
        assert manager.gc_below(5) == 1  # the next sweep removes it again


class TestEchoersOf:
    def test_unknown_digest_is_shared_empty_view(self):
        tracker = InstanceTracker(on_deliver=lambda block: None)
        assert tracker.echoers_of(DIGEST) is NO_ECHOERS
        tracker.state(DIGEST)  # instance exists, nobody echoed yet
        assert tracker.echoers_of(DIGEST) is NO_ECHOERS
        assert len(NO_ECHOERS) == 0

    def test_snapshot_taken_at_call_time(self):
        tracker = InstanceTracker(on_deliver=lambda block: None)
        tracker.state(DIGEST).echoers = 0b1011
        snapshot = tracker.echoers_of(DIGEST)
        assert snapshot == {0, 1, 3}
        tracker.state(DIGEST).echoers |= 1 << 2
        assert snapshot == {0, 1, 3}
        assert tracker.echoers_of(DIGEST) == {0, 1, 2, 3}

    def test_view_is_read_only(self):
        tracker = InstanceTracker(on_deliver=lambda block: None)
        tracker.state(DIGEST).echoers = 1
        view = tracker.echoers_of(DIGEST)
        assert isinstance(view, frozenset)
        with pytest.raises(AttributeError):
            view.add(7)  # type: ignore[attr-defined]
        assert tracker.state(DIGEST).echoers == 1
