"""Memory regression bound for fixed-base comb tables.

A ``wan16-schnorr`` run builds 33 tables (the generator, 16 signing keys,
16 coin verification keys) on the process-wide group, and they live for
the whole process; this pins the bytes one built table holds.
"""

import tracemalloc

from repro.crypto.group import SchnorrGroup
from repro.crypto.primes import SAFE_PRIMES

TABLES = 4
#: Bytes per built table at 256 bits.  The Lim–Lee layout (8 rows of 256
#: entries) measures ~136 KiB; the 32-row 8-bit comb it replaced measured
#: ~543 KiB.
BOUND_BYTES = 160 * 1024


def bytes_per_table():
    group = SchnorrGroup.from_safe_prime(SAFE_PRIMES[256])
    bases = [group.exp(group.g, 1000 + i) for i in range(TABLES)]
    group.register_fixed_bases(bases)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for base in bases:
            assert group.exp_reduced(base, 12345) == pow(base, 12345, group.p)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group._built == {group.g, *bases}
    return (after - before) / TABLES


def test_table_bytes_bounded():
    per_table = bytes_per_table()
    assert per_table <= BOUND_BYTES, (
        f"{per_table / 1024:.0f} KiB per built comb table "
        f"(bound {BOUND_BYTES // 1024} KiB)"
    )
