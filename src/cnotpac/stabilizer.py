"""Stabilizer groups and pure stabilizer states.

A pure state on n qubits is represented by exactly n independent,
pairwise commuting signed Pauli generators whose group excludes -I.
Membership queries answer with a trichotomy: the probe is in the group
(Plus), its negation is (Minus), or its unsigned support is absent
entirely (Absent).  The expectation of a two-outcome measurement
(I + P)/2 against the state is then 1, 0, or 1/2 respectively.
StabilizerGroup.expectation_code is the one mapping from membership to
that value: it returns the value's index into LABELS (0 -> 0, 1 -> 1/2,
2 -> 1) from a raw phase and key, so scoring needs no Pauli object.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction
from typing import Iterable, Optional

from .gf2 import _echelon, _insert, _reduce
from .pauli import PauliOperator, _anticommutation_rows, _fold, _raw_sign_bit, z_power


# expectation values of (I + P)/2, indexed by label code
LABELS = (Fraction(0), Fraction(1, 2), Fraction(1))


class Membership(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"
    ABSENT = "absent"


# membership by label code: -P in the group, P absent, P in the group
_MEMBERSHIP = (Membership.MINUS, Membership.ABSENT, Membership.PLUS)


@functools.lru_cache(maxsize=1024)
def _echelon_table(n: int, keys: tuple) -> dict:
    """Validated echelon table of n generator keys (x | z << n).

    Commutation and independence depend on the keys alone, not on the
    signs, so groups that differ only in signs share one table.  The
    table is cached and shared: callers must only read it.  A failed
    validation raises, and lru_cache caches no exception, so a bad key
    tuple raises on every call.
    """
    for i, row in enumerate(_anticommutation_rows(keys, n)):
        if row:  # the first nonzero row; by symmetry its lowest bit j is past i
            j = (row & -row).bit_length() - 1
            raise ValueError("generators %d and %d anticommute" % (i, j))
    table: dict = {}
    for i, key in enumerate(keys):
        if not _insert(table, key | (1 << (2 * n + i)), 2 * n):
            raise ValueError("generators are dependent")
    return table


@functools.lru_cache(maxsize=1024)
def _z_form(n: int, keys: tuple) -> tuple:
    """(x_rows, cols, mixed), the sign-free part of z_constraints for these
    generator keys, cached and shared read-only like _echelon_table.
    x_rows is a basis of the x parts.  For the Z-type member with pivot p
    in a fully reduced basis, bit p of cols[k] says whether generator k is
    a factor, unless a factor has an x part: then (p, mask) is in mixed."""
    full = (1 << n) - 1
    table: dict = {}
    # x above z, so elimination pivots on x first and the rows left with
    # x = 0 span the Z-type members, their generator masks as payload
    for i, key in enumerate(keys):
        _insert(table, key >> n | (key & full) << n | 1 << (2 * n + i), 2 * n)
    x_rows = tuple(row >> n & full for lead, row in table.items() if lead >= n)
    x_gens = sum(1 << i for i, key in enumerate(keys) if key & full)
    reduced = _echelon((row for lead, row in table.items() if lead < n), n)
    masks = [reduced.get(p, 0) >> 2 * n for p in range(n)]
    mixed = tuple((p, mask) for p, mask in enumerate(masks) if mask & x_gens)
    # cols is the other masks transposed, through bit strings with bit k at character k
    strings = [format((0 if m & x_gens else m) | 1 << n, "b")[:0:-1] for m in masks]
    return x_rows, tuple(int("".join(bits)[::-1], 2) for bits in zip(*strings)), mixed


class StabilizerGroup:
    """Group generated by exactly n commuting independent signed Paulis.

    Group elements are tracked on ints key | (mask << 2n): the unsigned
    symplectic key of a product of generators, with the generators it is
    the product of as payload.  Phases are recovered from the payload by
    folding the selected generators in raw form (pauli._fold), so neither
    the echelon table nor a membership query multiplies Pauli objects.
    The table is validated once per tuple of generator keys and shared,
    read-only, by every group with those keys (_echelon_table).
    """

    __slots__ = ("n", "generators", "_table")

    def __init__(self, generators: Iterable[PauliOperator]):
        generators = tuple(generators)
        if not generators:
            raise ValueError("need at least one generator")
        n = generators[0].n
        if len(generators) != n:
            raise ValueError("a pure state on %d qubits needs exactly %d generators" % (n, n))
        keys = []
        for g in generators:
            if g.n != n:
                raise ValueError("generator qubit count mismatch")
            key = g.x | g.z << n
            if not key:
                raise ValueError("identity cannot be a generator")
            keys.append(key)
        self._table = _echelon_table(n, tuple(keys))
        self.n = n
        self.generators = generators

    def element(self, mask: int) -> PauliOperator:
        """Product of the generators selected by the bits of mask."""
        return PauliOperator.from_raw(self.n, *_fold(self.generators, mask))

    def z_constraints(self) -> list:
        """Rows w with (-1)^b Z^u a member iff w.(u | b << n) = 0 for every
        w: the generators' x parts (Z^u commutes with each) and t | 1 << n,
        bit p of t the sign bit of _z_form's Z-type member with pivot p."""
        n = self.n
        gens = self.generators
        x_rows, cols, mixed = _z_form(n, tuple(g.x | g.z << n for g in gens))
        # a member whose factors have no x part has the parity of their signs
        # as its sign bit; for any other, fold the factors
        t = 0
        for g, col in zip(gens, cols):
            t ^= col * g.sign_bit
        for p, mask in mixed:
            t |= _raw_sign_bit(*_fold(gens, mask)) << p
        return [*x_rows, t | 1 << n]

    def member_phase(self, key: int) -> Optional[int]:
        """Exponent of i in the raw form of the member with this symplectic
        key (x | z << n), or None when no member has that key."""
        width = 2 * self.n
        r = _reduce(self._table, key, width)
        if r & ((1 << width) - 1):
            return None
        return _fold(self.generators, r >> width)[0]

    def expectation_code(self, e: int, key: int) -> int:
        """Label code of tr[(I + P)/2 rho] for the Hermitian, nonidentity
        P = i^e X^x Z^z with key x | z << n: 2 when P is a member, 0 when
        -P is, 1 when neither is."""
        member = self.member_phase(key)
        if member is None:
            return 1
        return 2 if member == e else 0

    def group_contains(self, p: PauliOperator) -> Membership:
        """Trichotomy membership for a signed Pauli probe."""
        if p.n != self.n:
            raise ValueError("qubit count mismatch")
        if p.is_identity():
            return Membership.PLUS if p.sign == 1 else Membership.ABSENT
        return _MEMBERSHIP[self.expectation_code(p.raw()[0], p.key())]

    def members(self):
        """Iterate all 2^n group elements (small n only)."""
        for mask in range(1 << self.n):
            yield self.element(mask)

    def canonical_signature(self) -> tuple:
        """Hashable canonical form: fully reduced echelon keys with signs."""
        width = 2 * self.n
        rows = _echelon(self._table.values(), width).values()
        return tuple(
            sorted((r & ((1 << width) - 1), self.element(r >> width).sign_bit) for r in rows)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StabilizerGroup)
            and self.n == other.n
            and self.canonical_signature() == other.canonical_signature()
        )

    def __hash__(self):
        return hash((self.n, self.canonical_signature()))


class StabilizerState:
    """Pure stabilizer state rho = 2^{-n} sum of its group elements."""

    __slots__ = ("group",)

    def __init__(self, group: StabilizerGroup):
        self.group = group

    @property
    def n(self) -> int:
        return self.group.n

    @classmethod
    def from_z_generators(cls, n: int, zs: Iterable[int], signs: int = 0) -> "StabilizerState":
        """State with generators (-1)^{signs_k} Z^{zs[k]} (zs must be a basis)."""
        gens = [
            z_power(n, v, sign=-1 if (signs >> k) & 1 else 1)
            for k, v in enumerate(zs)
        ]
        return cls(StabilizerGroup(gens))

    @classmethod
    def computational_basis(cls, n: int, t: int) -> "StabilizerState":
        """|t> as a stabilizer state: generators (-1)^{t_i} Z_i."""
        return cls.from_z_generators(n, [1 << i for i in range(n)], signs=t)

    @classmethod
    def zero_state(cls, n: int) -> "StabilizerState":
        return cls.computational_basis(n, 0)

    def expectation(self, p: PauliOperator) -> Fraction:
        """tr[(I + P)/2 rho] for a nonidentity signed Pauli P: 1, 0, or 1/2."""
        if p.is_identity():
            raise ValueError("identity is not a useful measurement")
        if p.n != self.n:
            raise ValueError("qubit count mismatch")
        return LABELS[self.group.expectation_code(p.raw()[0], p.key())]

    def __eq__(self, other) -> bool:
        return isinstance(other, StabilizerState) and self.group == other.group

    def __hash__(self):
        return hash(self.group)
