"""Signed n-qubit Pauli operators in the symplectic (x, z) representation.

An operator is sign * i^{|x & z|} X^x Z^z with sign in {+1, -1}, where x
and z are packed bit vectors and each overlapping coordinate contributes
one factor of i (so every stored operator is Hermitian: each Y carries
its own i).  Products of anticommuting Hermitian Paulis are
anti-Hermitian and therefore cannot be represented.  Products are
taken in the raw form (e, key), meaning i^e X^x Z^z with key x | z << n.
Inside the package a signed Pauli is a key and a sign bit (a sample's
measurement), and a list of them (a group's generators, a tableau's
images) key ints and a sign mask, not objects; _fold is the only
product loop.  The public mul multiplies through the two-factor
_raw_mul, so it stays an independent check of the fold.
"""

from __future__ import annotations

from .gf2 import _transpose, dot


def _raw_mul(n: int, a: tuple, b: tuple) -> tuple:
    """Multiply two raw forms (e, key), meaning i^e X^x Z^z, key x | z << n."""
    (e1, k1), (e2, k2) = a, b
    # moving Z^{z1} past X^{x2} costs (-1)^{z1 . x2}
    return ((e1 + e2 + 2 * dot(k1 >> n, k2 & (1 << n) - 1)) % 4, k1 ^ k2)


def _raw_sign_bit(n: int, e: int, key: int) -> int:
    """Sign bit of the raw form (e, key); raises unless it is Hermitian."""
    y = (key >> n & key).bit_count()
    if (e - y) % 2:
        raise ValueError("phase i^%d with %d overlaps is not Hermitian" % (e, y))
    return (e - y) % 4 // 2


def _fold(n: int, keys, signs: int, mask: int, e: int = 0) -> tuple:
    """Raw form (e, key) of i^e times the ordered product of the signed
    Paulis whose indices are the set bits of mask: Pauli k has key keys[k]
    (x | z << n) and is negated when bit k of signs is set."""
    acc = 0
    e += 2 * (signs & mask).bit_count()
    while mask:
        low = mask & -mask
        k = keys[low.bit_length() - 1]
        # the unsigned factor is i^{|x & z|} X^x Z^z, and moving the
        # accumulated Z^{acc >> n} past X^x costs (-1)^{(acc >> n) . x}
        e += 2 * (acc >> n & k).bit_count() + (k >> n & k).bit_count()
        acc ^= k
        mask ^= low
    return e % 4, acc


def _anticommutation_rows(keys, n: int) -> list:
    """Row i has bit j set when the Paulis keyed x | z << n by keys[i] and
    keys[j] anticommute, i.e. when x_i.z_j + z_i.x_j = 1."""
    # x_i.z_j + z_i.x_j is one dot of key_i with key_j's halves swapped:
    # the XOR, over the set bits b of key_i, of the column that holds bit
    # b + n (mod 2n) of every key, so a sparse set of keys costs its ones
    cols = _transpose(keys, 2 * n)
    swapped = cols[n:] + cols[:n]
    rows = []
    for k in keys:
        row = 0
        while k:
            low = k & -k
            row ^= swapped[low.bit_length() - 1]
            k ^= low
        rows.append(row)
    return rows


class PauliOperator:
    """A Hermitian signed Pauli on n qubits."""

    __slots__ = ("n", "x", "z", "sign_bit")

    def __init__(self, n: int, x: int, z: int, sign: int = 1):
        if n < 1:
            raise ValueError("need at least one qubit")
        if x < 0 or x >> n or z < 0 or z >> n:
            raise ValueError("x/z supports outside %d qubits" % n)
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.n = n
        self.x = x
        self.z = z
        self.sign_bit = 0 if sign == 1 else 1

    @property
    def sign(self) -> int:
        return -1 if self.sign_bit else 1

    @classmethod
    def from_raw(cls, n: int, e: int, key: int) -> "PauliOperator":
        """Build from the raw form (e, key); e must make it Hermitian."""
        return cls(n, key & (1 << n) - 1, key >> n, sign=-1 if _raw_sign_bit(n, e, key) else 1)

    def raw(self) -> tuple:
        """(e, key): this operator is i^e X^x Z^z with key x | z << n."""
        return ((2 * self.sign_bit + (self.x & self.z).bit_count()) % 4, self.key())

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def commutes(self, other: "PauliOperator") -> bool:
        """Symplectic form: Paulis commute iff x1.z2 + z1.x2 = 0."""
        self._check_n(other)
        return (dot(self.x, other.z) ^ dot(self.z, other.x)) == 0

    def mul(self, other: "PauliOperator") -> "PauliOperator":
        self._check_n(other)
        if not self.commutes(other):
            raise ValueError("product of anticommuting Paulis is not Hermitian")
        return PauliOperator.from_raw(self.n, *_raw_mul(self.n, self.raw(), other.raw()))

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return self.mul(other)

    def __neg__(self) -> "PauliOperator":
        return PauliOperator(self.n, self.x, self.z, sign=-self.sign)

    def key(self) -> int:
        """Unsigned symplectic key x | z << n, used for span bookkeeping."""
        return self.x | (self.z << self.n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliOperator)
            and self.n == other.n
            and self.x == other.x
            and self.z == other.z
            and self.sign_bit == other.sign_bit
        )

    def __hash__(self):
        return hash((self.n, self.x, self.z, self.sign_bit))

    def __repr__(self) -> str:
        names = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
        body = "".join(
            names[((self.x >> i) & 1, (self.z >> i) & 1)] for i in range(self.n)
        )
        return ("-" if self.sign_bit else "+") + body

    def _check_n(self, other: "PauliOperator") -> None:
        if self.n != other.n:
            raise ValueError("qubit count mismatch")


def z_power(n: int, v: int, sign: int = 1) -> PauliOperator:
    """Z^v = product of Z_i over the set bits of v."""
    return PauliOperator(n, 0, v, sign=sign)


def _operators(n: int, keys, signs: int) -> tuple:
    """The signed Paulis of keys (x | z << n) and a sign mask, as objects."""
    full = (1 << n) - 1
    return tuple(
        PauliOperator(n, key & full, key >> n, sign=-1 if signs >> k & 1 else 1)
        for k, key in enumerate(keys)
    )
