"""Schnorr group arithmetic over an embedded safe prime.

A *Schnorr group* is the order-``q`` subgroup of quadratic residues of
``Z_p^*`` where ``p = 2q + 1`` is a safe prime.  Every non-trivial element
generates the subgroup, discrete logs live in ``Z_q``, and membership is
cheap to test (for a safe prime the subgroup is exactly the quadratic
residues, so a Jacobi symbol decides it).  This single structure backs:

* Schnorr signatures (:mod:`repro.crypto.schnorr`),
* the threshold PRF / Global Perfect Coin (:mod:`repro.crypto.threshold`),
* Chaum-Pedersen DLEQ proofs for coin-share verification.

The group is a value object; all operations take plain ints and return
plain ints so there is no per-element wrapper overhead in hot loops.

Hot-path machinery
------------------
Exponentiation dominates every protocol run (each replica verifies Θ(n²)
echo-class messages per round), so the group keeps two per-instance caches,
both derived purely from immutable inputs:

* **Fixed-base tables** — :meth:`register_fixed_base` marks a base (the
  generator, a replica public key, a coin verification key) as hot; the
  first exponentiation with it builds a Lim–Lee comb table (8 rows of
  256 entries, ~136 KiB at 256 bits), after which ``base^e`` costs 3
  squarings plus at most 32 modular multiplications instead of a full
  modexp.  Table construction is lazy, so registering keys for a
  replica set that never verifies costs nothing, and the number of
  *built* tables is capped (further bases silently fall back to ``pow``)
  so large-n sweeps cannot pin unbounded memory on the process-wide
  singleton group.
* **Membership memo** — registered bases are membership-checked once at
  registration; :meth:`is_member` answers for them from a set lookup, and
  for unregistered elements via a binary Jacobi symbol (no modexp at all).

Neither cache participates in equality or hashing — two groups with the
same ``(p, q, g)`` compare equal regardless of what has been registered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import CryptoError
from .hashing import hash_to_int
from .primes import SAFE_PRIMES, SafePrime

#: Comb digit width in bits, and the number of teeth per digit: a row of
#: a table is indexed by one byte whose bit ``i`` selects tooth ``i``.
_WINDOW_BITS = 8

#: Rows (blocks) per table.  Together with 8-bit digits, one column of
#: the exponent is 64 bits, so it reads out as eight digit bytes in one
#: ``int.to_bytes`` call.
_BLOCKS = 8

#: Cap on lazily *built* comb tables per group instance.  Registration is
#: unbounded (it only memoizes membership), but each built table pins
#: ~136 KiB (256-bit p) for the life of the group — and ``default_group``
#: is a process-wide singleton, so a large-n sweep (n=61 registers ~120
#: keys) could otherwise accumulate memory that is never evicted.  The cap
#: bounds it at ~13 MiB.  Bases past the cap fall back to ``pow`` — a
#: speed trade, never correctness; lazy construction means the cap is
#: spent on the bases actually used.
_MAX_BUILT_TABLES = 96


class _FixedBaseTable:
    """Lim–Lee comb precomputation for one base.

    The exponent is padded to ``64 * cols`` bits, and bit
    ``cols * (8j + i) + k`` is tooth ``i`` of block ``j`` in column ``k``.
    Row ``j`` holds, for every byte ``d``, the product of
    ``base^(2^(cols * (8j + i)))`` over the set bits ``i`` of ``d``, so

        ``base^e = Π_k (Π_j rows[j][d_jk])^(2^k)``

    — ``cols - 1`` squarings plus at most ``8 * cols`` multiplications.
    ``cols`` comes from ``qbits``: 4 for the 256-bit group, 8 for 512.
    Rows are stored most significant block first, the order in which a
    column's digit bytes come out of ``int.to_bytes``.
    """

    __slots__ = ("rows", "cols", "limit", "spec")

    def __init__(self, base: int, p: int, qbits: int) -> None:
        column_bits = _WINDOW_BITS * _BLOCKS
        cols = -(-qbits // column_bits)
        rows: List[List[int]] = []
        b = base
        for _ in range(_BLOCKS):
            row = [1]
            for _ in range(_WINDOW_BITS):
                # Entries with tooth i set are those without it, times b;
                # concatenating keeps the final row exactly 256 long.
                row = row + [x * b % p for x in row]
                for _ in range(cols):
                    b = b * b % p
            rows.append(row)
        rows.reverse()
        self.rows = rows
        self.cols = cols
        self.limit = 1 << (column_bits * cols)
        self.spec = "0%db" % (column_bits * cols)

    def pow(self, e: int, p: int) -> int:
        """``base^e mod p`` for ``0 <= e < self.limit``."""
        # One binary string, most significant bit first; the stride-cols
        # slice starting at c is column cols-1-c, 64 bits whose bytes are
        # the digits of the blocks, most significant block first.
        bits = format(e, self.spec)
        cols = self.cols
        rows = self.rows
        result = 1
        for c in range(cols):
            if c:
                result = result * result % p
            digits = int(bits[c::cols], 2).to_bytes(_BLOCKS, "big")
            for row, d in zip(rows, digits):
                result = result * row[d] % p
        return result


def jacobi_symbol(a: int, n: int) -> int:
    """The Jacobi symbol ``(a/n)`` for odd ``n > 0`` (binary algorithm).

    Sits on the batch-verification precheck (one call per commitment), so
    the loop is tuned: all trailing zeros are stripped in one shift
    (``a & -a`` isolates the lowest set bit) — the factor-of-2 sign only
    depends on the *parity* of the zero count — and the reciprocity swap
    and reduction are fused into one statement.
    """
    a %= n
    result = 1
    while a:
        tz = (a & -a).bit_length() - 1
        if tz:
            a >>= tz
            if tz & 1 and n & 7 in (3, 5):
                result = -result
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


@dataclass(frozen=True)
class SchnorrGroup:
    """The quadratic-residue subgroup of ``Z_p^*`` for a safe prime ``p``."""

    p: int
    q: int
    g: int
    # Hot-path caches; excluded from equality/hash/repr (pure derivations of
    # the immutable (p, q, g) identity plus registered bases).
    _tables: Dict[int, Optional[_FixedBaseTable]] = field(
        default_factory=dict, compare=False, repr=False
    )
    _members: Set[int] = field(default_factory=set, compare=False, repr=False)
    # Bases whose comb table has actually been built; bounds memory at
    # ``_MAX_BUILT_TABLES`` tables regardless of how many are registered.
    _built: Set[int] = field(default_factory=set, compare=False, repr=False)

    def __post_init__(self) -> None:
        # The generator is hot in every scheme (signing, verification,
        # DLEQ); always treat it as registered.
        self._tables.setdefault(self.g, None)
        self._members.add(self.g)

    @classmethod
    def from_safe_prime(cls, sp: SafePrime) -> "SchnorrGroup":
        return cls(p=sp.p, q=sp.q, g=sp.g)

    # The group is a value object whose only mutable state is the
    # comb-table / membership caches — pure, positive-only derivations of
    # ``(p, q, g)``.  ``default_group`` hands out a process-wide singleton,
    # and simulator snapshots must preserve that: copying the group would
    # both fork several MiB of comb tables per branch and silently break
    # the "one group per (p, q, g)" identity the caches rely on.
    def __copy__(self) -> "SchnorrGroup":
        return self

    def __deepcopy__(self, memo) -> "SchnorrGroup":
        return self

    # -- fixed-base registration --------------------------------------------

    def register_fixed_base(self, base: int) -> None:
        """Mark ``base`` as hot: memoize its membership and earmark a comb
        table (built lazily on first use, so registration is ~free).

        Raises :class:`CryptoError` if ``base`` is not a subgroup member —
        a registered base is trusted by the fast paths, so the check cannot
        be skipped.
        """
        if base in self._tables:
            return
        self.ensure_member(base, "fixed base")
        self._members.add(base)
        self._tables[base] = None

    def has_fixed_base(self, base: int) -> bool:
        """Whether ``base`` has been registered for precomputation."""
        return base in self._tables

    def _table_for(self, base: int) -> Optional[_FixedBaseTable]:
        table = self._tables.get(base)
        if table is None and base in self._tables:
            if len(self._built) >= _MAX_BUILT_TABLES:
                return None  # over budget: plain pow for this base
            table = self._tables[base] = _FixedBaseTable(
                base, self.p, self.q.bit_length()
            )
            self._built.add(base)
        return table

    # -- element operations -------------------------------------------------

    def exp(self, base: int, e: int) -> int:
        """``base ** e mod p`` with the exponent reduced mod ``q``.

        Negative exponents are welcome — reduction maps them into
        ``[0, q)``, which is how verifiers compute ``x^{-c}`` without a
        modular inversion.
        """
        return self.exp_reduced(base, e % self.q)

    def exp_reduced(self, base: int, e: int) -> int:
        """``base ** e mod p`` for an exponent already in ``[0, q)``.

        The fast path for call sites whose scalars are born reduced
        (challenges, response scalars, Lagrange coefficients) — skipping
        the redundant ``% q`` of :meth:`exp`.  Uses the comb table when
        ``base`` is registered; an exponent outside the table's range is
        reduced mod ``q`` first (exact, since a registered base is a
        subgroup member), so both paths return ``pow(base, e, p)``.
        """
        table = self._table_for(base)
        if table is not None:
            if not 0 <= e < table.limit:
                e %= self.q
            return table.pow(e, self.p)
        return pow(base, e, self.p)

    def mul(self, a: int, b: int) -> int:
        """Group multiplication."""
        return a * b % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse in ``Z_p^*``."""
        return pow(a, -1, self.p)

    def multi_exp(self, pairs: Sequence[Tuple[int, int]]) -> int:
        """``Π base_i^{e_i} mod p`` in one interleaved pass (Shamir's trick).

        Exponents are reduced mod ``q``.  Each base gets a small 4-bit
        window table, then a single square-and-multiply scan shares all
        the squarings across every exponent simultaneously — one pass
        instead of ``k`` full exponentiations plus products.  Intended
        for small ``k`` (verification equations use k=2); beats ``k``
        separate modexps because the squaring chain, the dominant cost,
        is paid once.
        """
        p, q = self.p, self.q
        if not pairs:
            return 1
        tables: List[List[int]] = []
        hex_strings: List[str] = []
        ndigits = 1
        for base, e in pairs:
            base %= p
            row = [1] * 16
            acc = 1
            for d in range(1, 16):
                acc = acc * base % p
                row[d] = acc
            tables.append(row)
            # Hex digits give the 4-bit windows most-significant first
            # without per-position big-int shifts.
            h = "%x" % (e % q)
            hex_strings.append(h)
            if len(h) > ndigits:
                ndigits = len(h)
        # Scan only as wide as the largest exponent — small-exponent calls
        # (batch verification's 64-bit coefficients) pay 16 positions, not
        # the full scalar width.
        digit_strings = [h.rjust(ndigits, "0") for h in hex_strings]
        result = 1
        for pos in range(ndigits):
            if result != 1:  # skip the leading-zero squaring chain
                result = result * result % p
                result = result * result % p
                result = result * result % p
                result = result * result % p
            for row, digits in zip(tables, digit_strings):
                d = digits[pos]
                if d != "0":
                    result = result * row[int(d, 16)] % p
        return result

    def is_member(self, x: int) -> bool:
        """Subgroup membership test.

        For a safe prime the order-``q`` subgroup is exactly the quadratic
        residues, so a Jacobi symbol (no modexp) decides membership.
        Registered bases answer from the memo set without any arithmetic.
        """
        if x in self._members:
            return True
        return 0 < x < self.p and jacobi_symbol(x, self.p) == 1

    # -- scalars and encodings ----------------------------------------------

    def random_scalar(self, rng) -> int:
        """Uniform exponent in ``[1, q)`` from a ``random.Random``-like rng."""
        return rng.randrange(1, self.q)

    def scalar_from_hash(self, *fields) -> int:
        """Map arbitrary fields to a nonzero scalar in ``[1, q)``.

        Used for Fiat-Shamir challenges and deterministic nonces.  The
        modular reduction bias is negligible for q near a power of two and
        irrelevant at simulation-grade security.
        """
        return hash_to_int("scalar", *fields) % (self.q - 1) + 1

    def hash_to_group(self, *fields) -> int:
        """Map arbitrary fields to a subgroup element (square of a hash).

        Squaring lands the value in the quadratic-residue subgroup; a zero
        preimage (probability ~2^-256) is remapped by re-hashing.
        """
        counter = 0
        while True:
            x = hash_to_int("h2g", counter, *fields) % self.p
            if x not in (0, 1, self.p - 1):
                return x * x % self.p
            counter += 1

    def element_to_bytes(self, x: int) -> bytes:
        """Fixed-width big-endian encoding of a group element."""
        width = (self.p.bit_length() + 7) // 8
        return x.to_bytes(width, "big")

    def ensure_member(self, x: int, what: str = "element") -> int:
        """Return ``x`` if it is a subgroup member, else raise."""
        if not self.is_member(x):
            raise CryptoError(f"{what} {x!r} is not a member of the Schnorr group")
        return x

    def register_fixed_bases(self, bases: Iterable[int]) -> None:
        """Bulk :meth:`register_fixed_base` convenience."""
        for base in bases:
            self.register_fixed_base(base)


_DEFAULT_CACHE: dict[int, SchnorrGroup] = {}


def default_group(bits: int = 256) -> SchnorrGroup:
    """The library-wide default group for the given modulus size.

    A process-wide singleton per modulus size — which is what lets every
    replica of a deterministic deal share one set of fixed-base tables.
    """
    if bits not in _DEFAULT_CACHE:
        try:
            sp = SAFE_PRIMES[bits]
        except KeyError:
            raise CryptoError(
                f"no embedded safe prime of {bits} bits; available: "
                f"{sorted(SAFE_PRIMES)}"
            ) from None
        _DEFAULT_CACHE[bits] = SchnorrGroup.from_safe_prime(sp)
    return _DEFAULT_CACHE[bits]
