"""Stabilizer groups, which are the pure stabilizer states.

A pure state on n qubits is its stabilizer group, StabilizerGroup (also
named StabilizerState): exactly n independent, pairwise commuting signed
Pauli generators whose group excludes -I.  A group stores them as a
tuple of generator keys x | z << n and a sign mask, not as Pauli
objects: the states of one reduction pin differ only in signs, so they
share one key tuple and one validated echelon table, and a sign flip is
O(1).  Products of generators fold the keys and signs themselves.
Membership queries answer with a trichotomy: the probe is in the group
(Plus), its negation is (Minus), or its unsigned support is absent
entirely (Absent).  The expectation of a two-outcome measurement
(I + P)/2 against the state is then 1, 0, or 1/2 respectively.
StabilizerGroup.expectation_code maps membership to that value: it
returns the value's index into LABELS (0 -> 0, 1 -> 1/2, 2 -> 1) from a
raw form (e, key), so it needs no Pauli object.  tableau.sample_codes
reads the same code off the member's generator mask, once per distinct
probe of a sample set.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction
from typing import Iterable, Optional

from .gf2 import _echelon, _fully_reduced, _insert, _reduce, _transpose
from .pauli import PauliOperator, _anticommutation_rows, _fold, _operators, _raw_sign_bit


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
    """Validated echelon table of n generator keys (x | z << n), the one
    check of a key tuple: count, identity, commutation, independence.
    Key i goes in with its halves swapped (x above z) and payload bit
    2n + i, so the rows led at or above n span the x parts and the rows
    led below n are the Z-type members.  Groups that differ only in signs
    share the cached table, read-only; a bad key tuple raises every time."""
    if not keys:
        raise ValueError("need at least one generator")
    if len(keys) != n:
        raise ValueError("a pure state on %d qubits needs exactly %d generators" % (n, n))
    if not all(keys):
        raise ValueError("identity cannot be a generator")
    for i, row in enumerate(_anticommutation_rows(keys, n)):
        if row:  # the first nonzero row; by symmetry its lowest bit j is past i
            j = (row & -row).bit_length() - 1
            raise ValueError("generators %d and %d anticommute" % (i, j))
    full = (1 << n) - 1
    table: dict = {}
    for i, key in enumerate(keys):
        if not _insert(table, key >> n | (key & full) << n | 1 << (2 * n + i), 2 * n):
            raise ValueError("generators are dependent")
    return table


@functools.lru_cache(maxsize=1024)
def _z_form(n: int, keys: tuple) -> tuple:
    """(x_rows, cols, mixed), the sign-free part of z_constraints, read off
    _echelon_table and cached like it.  x_rows spans the x parts.  For the
    Z-type member with pivot p in a fully reduced basis, (p, mask) is in
    mixed if a factor has an x part, else bit p of cols[k] marks factor k."""
    full = (1 << n) - 1
    table = _echelon_table(n, keys)
    x_rows = tuple(row >> n & full for lead, row in table.items() if lead >= n)
    x_gens = sum(1 << i for i, key in enumerate(keys) if key & full)
    reduced = _fully_reduced({lead: row for lead, row in table.items() if lead < n})
    masks = [reduced.get(p, 0) >> 2 * n for p in range(n)]
    mixed = tuple((p, mask) for p, mask in enumerate(masks) if mask & x_gens)
    return x_rows, tuple(_transpose([0 if m & x_gens else m for m in masks], n)), mixed


class StabilizerGroup:
    """Group generated by exactly n commuting independent signed Paulis,
    and so the pure state rho = 2^{-n} sum of its members.

    A group is its generator-key tuple keys (x | z << n per generator)
    and its sign mask signs (bit k set when generator k is negated);
    generators is derived from the two on each access.  Group elements
    are tracked on ints key | (mask << 2n): the unsigned symplectic key
    of a product of generators, with the generators it is the product of
    as payload.  The phase of such a product is the fold of keys and
    signs over mask (pauli._fold), so neither the echelon table nor a
    membership query multiplies Pauli objects.  The table is built once
    per key tuple and shared, read-only, by every group with those keys
    (_echelon_table); a sign flip (flip) shares it and the keys, in O(1).
    """

    __slots__ = ("n", "keys", "signs", "_table")

    def __init__(self, generators: Iterable[PauliOperator]):
        generators = tuple(generators)
        n = generators[0].n if generators else 0
        if any(g.n != n for g in generators):
            raise ValueError("generator qubit count mismatch")
        keys = tuple(g.key() for g in generators)
        self._table = _echelon_table(n, keys)
        self.n = n
        self.keys = keys
        self.signs = sum(g.sign_bit << i for i, g in enumerate(generators))

    @classmethod
    def _from_keys(cls, n: int, keys: tuple, signs: int = 0) -> "StabilizerGroup":
        """The group of keys below 1 << 2n and an n-bit sign mask, which the
        caller checks; _echelon_table checks the keys."""
        group = cls.__new__(cls)
        group._table = _echelon_table(n, keys)
        group.n = n
        group.keys = keys
        group.signs = signs
        return group

    @classmethod
    def from_z_generators(cls, n: int, zs: Iterable[int], signs: int = 0) -> "StabilizerGroup":
        """State with generators (-1)^{signs_k} Z^{zs[k]} (zs must be a basis)."""
        keys = tuple(v << n for v in zs)
        if any(key < 0 or key >> 2 * n for key in keys):
            raise ValueError("x/z supports outside %d qubits" % n)
        return cls._from_keys(n, keys).flip(signs)

    @classmethod
    def computational_basis(cls, n: int, t: int) -> "StabilizerGroup":
        """|t> as a stabilizer state: generators (-1)^{t_i} Z_i, i < n."""
        group = cls._from_keys(n, tuple(1 << n + i for i in range(n)), t)
        if not 0 <= t < 1 << n:
            raise ValueError("basis index %d outside 0 .. 2^%d - 1" % (t, n))
        return group

    @classmethod
    def zero_state(cls, n: int) -> "StabilizerGroup":
        return cls.computational_basis(n, 0)

    def flip(self, mask: int) -> "StabilizerGroup":
        """The group with generator k negated for each set bit k of mask.
        It shares this group's keys and table."""
        if mask < 0 or mask >> self.n:
            raise ValueError("sign mask outside %d generators" % self.n)
        group = StabilizerGroup.__new__(StabilizerGroup)
        group.n = self.n
        group.keys = self.keys
        group.signs = self.signs ^ mask
        group._table = self._table
        return group

    @property
    def generators(self) -> tuple:
        """The signed generators, built from keys and signs on each access."""
        return _operators(self.n, self.keys, self.signs)

    @property
    def group(self) -> "StabilizerGroup":
        """This group, kept only for bench/workloads.py's state.group."""
        return self

    def element(self, mask: int) -> PauliOperator:
        """Product of the generators selected by the bits of mask."""
        return PauliOperator.from_raw(self.n, *_fold(self.n, self.keys, self.signs, mask))

    def z_constraints(self) -> list:
        """Rows w with (-1)^b Z^u a member iff w.(u | b << n) = 0 for every
        w: the generators' x parts (Z^u commutes with each) and t | 1 << n,
        bit p of t the sign bit of _z_form's Z-type member with pivot p."""
        n, signs = self.n, self.signs
        x_rows, cols, mixed = _z_form(n, self.keys)
        # a member whose factors have no x part has the parity of their signs
        # as its sign bit; for any other, fold the factors
        t = 0
        rest = signs
        while rest:
            low = rest & -rest
            t ^= cols[low.bit_length() - 1]
            rest ^= low
        for p, mask in mixed:
            t |= _raw_sign_bit(n, *_fold(n, self.keys, signs, mask)) << p
        return [*x_rows, t | 1 << n]

    def member_mask(self, key: int) -> Optional[int]:
        """Mask of the generators whose product is the member with this
        symplectic key (x | z << n), or None when no member has that key.
        It depends on the key tuple alone, not on the signs."""
        n, width = self.n, 2 * self.n
        # the probe's halves swapped, as the table's rows went in
        r = _reduce(self._table, key >> n | (key & (1 << n) - 1) << n, width)
        if r & ((1 << width) - 1):
            return None
        return r >> width

    def member_phase(self, key: int) -> Optional[int]:
        """Exponent of i in the raw form of the member with this symplectic
        key (x | z << n), or None when no member has that key."""
        mask = self.member_mask(key)
        if mask is None:
            return None
        return _fold(self.n, self.keys, self.signs, mask)[0]

    def expectation_code(self, e: int, key: int) -> int:
        """Label code of tr[(I + P)/2 rho] for the Hermitian, nonidentity
        P of raw form (e, key), i^e X^x Z^z with key x | z << n: 2 when P
        is a member, 0 when -P is, 1 when neither is."""
        member = self.member_phase(key)
        if member is None:
            return 1
        return 2 if member == e else 0

    def expectation(self, p: PauliOperator) -> Fraction:
        """tr[(I + P)/2 rho] for a nonidentity signed Pauli P: 1, 0, or 1/2."""
        if p.is_identity():
            raise ValueError("identity is not a useful measurement")
        if p.n != self.n:
            raise ValueError("qubit count mismatch")
        return LABELS[self.expectation_code(*p.raw())]

    def group_contains(self, p: PauliOperator) -> Membership:
        """Trichotomy membership for a signed Pauli probe."""
        if p.n != self.n:
            raise ValueError("qubit count mismatch")
        if p.is_identity():
            return Membership.PLUS if p.sign == 1 else Membership.ABSENT
        return _MEMBERSHIP[self.expectation_code(*p.raw())]

    def canonical_signature(self) -> tuple:
        """Hashable canonical form: fully reduced echelon keys with signs."""
        n, width = self.n, 2 * self.n
        rows = _echelon((key | 1 << (width + i) for i, key in enumerate(self.keys)), width).values()
        return tuple(sorted(
            (r & ((1 << width) - 1), _raw_sign_bit(n, *_fold(n, self.keys, self.signs, r >> width)))
            for r in rows
        ))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StabilizerGroup)
            and self.n == other.n
            and self.canonical_signature() == other.canonical_signature()
        )

    def __hash__(self):
        return hash((self.n, self.canonical_signature()))

    def __repr__(self) -> str:
        return "StabilizerGroup(%s)" % ", ".join(map(repr, self.generators))


# a pure stabilizer state is its group; the name stays for callers that
# build states
StabilizerState = StabilizerGroup
