"""Fast-path arithmetic must agree bit-for-bit with the reference forms.

Fixed-base comb tables, simultaneous multi-exponentiation, and the
Jacobi-symbol membership test are pure accelerations — these tests pin
them to ``pow`` / naive products so a table bug can never change results.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.group import SchnorrGroup, default_group, jacobi_symbol
from repro.crypto.primes import SAFE_PRIMES
from repro.errors import CryptoError


@pytest.fixture(scope="module")
def group():
    # A fresh group (not the singleton) so registration state is ours.
    return SchnorrGroup.from_safe_prime(SAFE_PRIMES[256])


class TestFixedBaseTables:
    @settings(max_examples=25, deadline=None)
    @given(e=st.integers(min_value=0, max_value=2**256))
    def test_generator_table_matches_pow(self, e):
        group = default_group(256)
        assert group.exp(group.g, e) == pow(group.g, e % group.q, group.p)

    def test_registered_base_matches_pow(self, group):
        base = group.exp(group.g, 0xDEADBEEF)
        group.register_fixed_base(base)
        assert group.has_fixed_base(base)
        for e in (0, 1, 2, group.q - 1, 0x123456789ABCDEF, group.q // 3):
            assert group.exp_reduced(base, e) == pow(base, e, group.p)

    def test_unregistered_base_still_correct(self, group):
        base = group.exp(group.g, 7777)
        assert not group.has_fixed_base(base)
        assert group.exp(base, 12345) == pow(base, 12345, group.p)

    def test_register_rejects_non_member(self, group):
        # p-1 has order 2, not q.
        with pytest.raises(CryptoError):
            group.register_fixed_base(group.p - 1)

    def test_negative_exponent_is_inverse(self, group):
        x = group.exp(group.g, 42)
        assert group.mul(group.exp(x, 5), group.exp(x, -5)) == 1

    def test_built_table_count_is_bounded(self, monkeypatch):
        # Past the cap, registered bases fall back to pow — memory stays
        # bounded no matter how many keys a large-n sweep registers, and
        # results are still bit-identical.
        from repro.crypto import group as group_mod

        monkeypatch.setattr(group_mod, "_MAX_BUILT_TABLES", 2)
        g = SchnorrGroup.from_safe_prime(SAFE_PRIMES[256])
        bases = [g.exp(g.g, 100 + i) for i in range(4)]
        g.register_fixed_bases(bases)
        for base in bases:
            assert g.has_fixed_base(base)
            assert g.exp_reduced(base, 0xABCDEF) == pow(base, 0xABCDEF, g.p)
        assert len(g._built) == 2


def comb_edge_exponents(group):
    """Exponents that exercise the comb layout's corners: the identity,
    one bit, ``q - 1``, every power of two below the table's range, and
    values whose comb columns (bits ``n`` with ``n % cols == k``) are all
    ones."""
    table = group._table_for(group.g)
    width = table.limit.bit_length() - 1
    cols = table.cols
    columns = [
        sum(1 << n for n in range(k, width, cols)) for k in range(cols)
    ]
    return (
        [0, 1, group.q - 1, group.q, table.limit - 1]
        + [1 << k for k in range(width)]
        + columns
        + [sum(columns[: k + 1]) for k in range(cols)]
    )


@pytest.mark.parametrize("bits", sorted(SAFE_PRIMES))
class TestCombLayouts:
    """The comb's layout is derived from ``qbits``: 4 columns at 256 bits,
    8 at 512.  Both embedded primes are pinned to ``pow``."""

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_fixed_base_matches_pow(self, bits, data):
        group = default_group(bits)
        e = data.draw(st.integers(min_value=0, max_value=group.q - 1))
        assert group.exp_reduced(group.g, e) == pow(group.g, e, group.p)

    def test_edge_exponents(self, bits):
        group = SchnorrGroup.from_safe_prime(SAFE_PRIMES[bits])
        base = group.exp(group.g, 0xC0FFEE)
        group.register_fixed_base(base)
        for e in comb_edge_exponents(group):
            assert group.exp_reduced(group.g, e) == pow(group.g, e, group.p), e
            assert group.exp_reduced(base, e) == pow(base, e, group.p), e

    @pytest.mark.parametrize(
        "e",
        [2**256 + 5, 2**512 + 5, 2**1000 - 1, -1, -5, -(2**300)],
        ids=["2^256+5", "2^512+5", "2^1000-1", "-1", "-5", "-2^300"],
    )
    def test_out_of_range_exponent_matches_pow(self, bits, e):
        # A registered base and an unregistered one give the same answer
        # as pow for exponents the table cannot index directly.
        group = SchnorrGroup.from_safe_prime(SAFE_PRIMES[bits])
        registered = group.exp(group.g, 4242)
        group.register_fixed_base(registered)
        unregistered = group.exp(group.g, 4243)
        assert not group.has_fixed_base(unregistered)
        for base in (group.g, registered, unregistered):
            assert group.exp_reduced(base, e) == pow(base, e, group.p)


class TestMultiExp:
    @settings(max_examples=25, deadline=None)
    @given(
        exps=st.lists(
            st.integers(min_value=0, max_value=2**256), min_size=0, max_size=4
        )
    )
    def test_matches_naive_product(self, exps):
        group = default_group(256)
        rng = random.Random(99)
        pairs = [
            (group.exp(group.g, rng.randrange(1, group.q)), e) for e in exps
        ]
        naive = 1
        for base, e in pairs:
            naive = naive * pow(base, e % group.q, group.p) % group.p
        assert group.multi_exp(pairs) == naive

    def test_empty_is_identity(self, group):
        assert group.multi_exp([]) == 1

    def test_dleq_shape(self, group):
        # The exact shape dleq_verify uses: (g^s) * (h^(q-c)).
        g, q = group.g, group.q
        h = group.exp(g, 31337)
        s, c = 123456789, 987654321
        expected = group.mul(group.exp(g, s), group.exp(h, q - c))
        assert group.multi_exp(((g, s), (h, q - c))) == expected


class TestMembership:
    def test_jacobi_matches_euler_criterion(self, group):
        rng = random.Random(5)
        for _ in range(20):
            x = rng.randrange(2, group.p)
            euler = pow(x, group.q, group.p) == 1
            assert (jacobi_symbol(x, group.p) == 1) == euler

    def test_members_and_non_members(self, group):
        assert group.is_member(group.g)
        assert group.is_member(group.exp(group.g, 123))
        assert not group.is_member(0)
        assert not group.is_member(group.p)
        assert not group.is_member(group.p - 1)  # order 2

    def test_registered_base_memoized(self, group):
        base = group.exp(group.g, 555)
        group.register_fixed_base(base)
        assert base in group._members
        assert group.is_member(base)
