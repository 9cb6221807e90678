"""Memory regression bound for per-block broadcast state.

Every replica holds one broadcast instance per block per round, so the
cluster-wide total is n² instances per round; this pins the per-instance
cost once n echoes have been counted.  The bound is flat in n: echo
senders are a bitmask with a count, not a set of replica ids.
"""

import tracemalloc

import pytest

from repro.broadcast.cbc import CbcManager
from repro.broadcast.messages import BlockEcho
from repro.crypto.hashing import hash_fields

from ..conftest import FakeNet

INSTANCES = 1000
#: Bytes per instance (the slotted state, its echo mask, and its share of
#: the tracker's digest index).  A set-backed state measured ~2.7 KB at
#: n=32 and ~8.8 KB at n=100.
BOUND_BYTES = 256


def bytes_per_instance(n):
    manager = CbcManager(FakeNet(n=n), quorum=n, on_deliver=lambda b: None)
    echoes = [
        BlockEcho(round=1, author=i % n, digest=hash_fields("mem", i))
        for i in range(INSTANCES)
    ]
    srcs = range(n)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for echo in echoes:
            for src in srcs:
                manager.on_echo(src, echo)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(manager.tracker._instances) == INSTANCES
    assert all(
        manager.tracker.peek(e.digest).echo_count == n for e in echoes[:5]
    )
    return (after - before) / INSTANCES


@pytest.mark.parametrize("n", [32, 100])
def test_instance_bytes_flat_in_n(n):
    per_instance = bytes_per_instance(n)
    assert per_instance <= BOUND_BYTES, (
        f"n={n}: {per_instance:.0f} B per broadcast instance "
        f"(bound {BOUND_BYTES} B)"
    )
