"""Memory regression bound for the SMR exactly-once bookkeeping.

Every replica keeps one entry per applied command for the whole run, so
this pins the per-command cost once four replicas have applied the same
committed records.  One insertion-ordered result table is the dedup set,
the apply order and the reply cache, and the decoded command ids are
interned, so the four replicas share one ``bytes`` object per id.
"""

import tracemalloc

from repro.crypto import hashing
from repro.dag.block import TxBatch, make_block
from repro.dag.ledger import CommitRecord
from repro.smr.kv import KvStateMachine
from repro.smr.machine import Command
from repro.smr.replica import SmrReplica

REPLICAS = 4
COMMANDS = 4000
BATCH = 16
#: Bytes per applied command per replica.  This layout measures ~62 B
#: (CPython 3.11); a result dict plus an applied-id set, an apply-order
#: list and one id copy per replica measured ~143 B.
BOUND_BYTES = 100


def committed_records():
    commands = [
        Command.create(client="c", payload=b"SET k v", nonce=i)
        for i in range(COMMANDS)
    ]
    records = []
    for position, start in enumerate(range(0, COMMANDS, BATCH)):
        items = tuple(c.to_bytes() for c in commands[start:start + BATCH])
        batch = TxBatch(count=len(items), tx_size=len(items[0]), items=items)
        block = make_block(position + 1, 0, [], payload=batch)
        records.append(CommitRecord(position, block, 1.0, b"L", 0))
    return commands, records


def test_apply_bytes_per_command(monkeypatch):
    # A private intern table: a wholesale clear of the shared one mid-run
    # would free memory and skew the measurement.
    monkeypatch.setattr(hashing, "_intern_table", {})
    commands, records = committed_records()
    replicas = [SmrReplica(i, KvStateMachine()) for i in range(REPLICAS)]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for record in records:
            for replica in replicas:
                replica.on_commit(record)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    expected = [c.command_id for c in commands]
    assert all(list(r.results) == expected for r in replicas)
    per_command = (after - before) / (COMMANDS * REPLICAS)
    assert per_command <= BOUND_BYTES, (
        f"{per_command:.0f} B per applied command per replica "
        f"(bound {BOUND_BYTES} B)"
    )
