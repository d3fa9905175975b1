"""Linear algebra over F_2 with vectors packed into Python ints.

A vector in F_2^n is an int whose bit j is coordinate j.  A matrix is a
list of such row ints plus an explicit column count.  Elimination is
plain XOR on ints, which keeps the hot paths allocation-free.

This module holds the one elimination kernel the rest of the package
reduces through: _reduce/_insert reduce a vector against, or add it
to, an echelon table (a dict from pivot position to row), pivoting on
leading bits, highest column first.  _fully_reduced back-substitutes
such a table, and _echelon one built of rows, to the canonical rows
that solutions, kernels, affine subspaces and group signatures are read
from.  Bits at or above n_cols are a payload: never pivoted on but
XORed along with every row operation, it records how a row was combined
(an identity block, a right-hand side, or the generators of a group
element).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


def dot(u: int, v: int) -> int:
    """Inner product of two packed vectors over F_2."""
    return (u & v).bit_count() & 1


class SingularMatrixError(ValueError):
    """Raised when an operation needs an invertible matrix and got none."""


def _reduce(table: dict, vec: int, n_cols: Optional[int] = None) -> int:
    """Reduce ``vec`` against an echelon table keyed by pivot position.

    Stops as soon as the leading bit below n_cols has no table row, so
    the matrix part of the result is zero exactly when ``vec`` lies in
    the table's span.  Bits at or above n_cols are payload; without
    n_cols every bit is matrix part.
    """
    mask = -1 if n_cols is None else (1 << n_cols) - 1
    key = vec & mask
    while key:
        row = table.get(key.bit_length() - 1)
        if row is None:
            break
        vec ^= row
        key = vec & mask
    return vec


def _insert(table: dict, vec: int, n_cols: Optional[int] = None) -> bool:
    """Add ``vec`` to an echelon table if it is outside the table's span.

    The reduced vector, payload included, is stored under its leading
    matrix bit and True is returned; a vector already in the span leaves
    the table unchanged and returns False.
    """
    vec = _reduce(table, vec, n_cols)
    key = vec if n_cols is None else vec & ((1 << n_cols) - 1)
    if not key:
        return False
    table[key.bit_length() - 1] = vec
    return True


def _echelon(rows: Iterable[int], n_cols: Optional[int] = None) -> dict:
    """The reduced row echelon form of the span of rows, keyed by pivot
    ascending: the rows go in with _insert, then _fully_reduced."""
    table: dict = {}
    for row in rows:
        _insert(table, row, n_cols)
    return _fully_reduced(table)


def _fully_reduced(table: dict) -> dict:
    """An echelon table fully reduced, keyed by pivot ascending: each row,
    lowest pivot first, is cleared of every lower pivot q by q's row."""
    reduced: dict = {}
    for p in sorted(table):
        row = table[p]
        for q, low in reduced.items():
            if row >> q & 1:
                row ^= low
        reduced[p] = row
    return reduced


def _transpose(rows: Iterable[int], n_cols: int) -> list:
    """Columns of the matrix with these rows (bit i of column j is bit j of
    row i), in one pass over the set bits: a sparse matrix costs its ones.
    Other modules read columns only through here."""
    cols = [0] * n_cols
    for i, r in enumerate(rows):
        bit = 1 << i
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= bit
            r ^= low
    return cols


def _inverse_rows(rows: list, n: int) -> list:
    """Rows of the inverse of the n x n matrix ``rows``: reducing e_j
    through one table of row i with payload bit n + i leaves the rows
    summing to e_j, row j of the inverse, as the payload.  Raises
    SingularMatrixError when a row is in the span of those before it."""
    table: dict = {}
    for i, r in enumerate(rows):
        if not _insert(table, r | 1 << (n + i), n):
            raise SingularMatrixError("matrix is singular")
    return [_reduce(table, 1 << j, n) >> n for j in range(n)]


class BitMatrix:
    """Dense F_2 matrix stored as a list of packed row ints."""

    __slots__ = ("n_rows", "n_cols", "rows")

    def __init__(self, rows: Iterable[int], n_cols: int):
        rows = list(rows)
        if n_cols < 0:
            raise ValueError("negative column count")
        mask = (1 << n_cols) - 1
        for r in rows:
            if r < 0 or r & ~mask:
                raise ValueError("row %r does not fit in %d columns" % (r, n_cols))
        self.rows = rows
        self.n_rows = len(rows)
        self.n_cols = n_cols

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "BitMatrix":
        return cls([0] * n_rows, n_cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls([1 << i for i in range(n)], n)

    def transpose(self) -> "BitMatrix":
        """M^T; its rows are M's columns, so a matrix built from packed
        columns is BitMatrix(cols, n_rows).transpose()."""
        return BitMatrix(_transpose(self.rows, self.n_cols), self.n_rows)

    def mul_vec(self, v: int) -> int:
        """Matrix-vector product M v; bit i of the result is <row_i, v>."""
        acc = 0
        for i, r in enumerate(self.rows):
            acc |= dot(r, v) << i
        return acc

    def premul_vec(self, v: int) -> int:
        """Vector-matrix product v^T M (equivalently M^T v): XOR of the rows picked by v."""
        acc = 0
        i = 0
        while v:
            if v & 1:
                acc ^= self.rows[i]
            v >>= 1
            i += 1
        return acc

    def matmul(self, other: "BitMatrix") -> "BitMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("dimension mismatch")
        return BitMatrix([other.premul_vec(r) for r in self.rows], other.n_cols)

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        return self.matmul(other)

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValueError("shape mismatch")
        return BitMatrix([a ^ b for a, b in zip(self.rows, other.rows)], self.n_cols)

    def rank(self) -> int:
        table: dict = {}
        return sum(_insert(table, r) for r in self.rows)

    def determinant(self) -> int:
        if self.n_rows != self.n_cols:
            raise ValueError("determinant of a non-square matrix")
        return 1 if self.rank() == self.n_rows else 0

    def is_invertible(self) -> bool:
        return self.n_rows == self.n_cols and self.rank() == self.n_rows

    def inverse(self) -> "BitMatrix":
        if self.n_rows != self.n_cols:
            raise SingularMatrixError("non-square matrix")
        return BitMatrix(_inverse_rows(self.rows, self.n_cols), self.n_cols)

    def solve(self, b: int) -> int:
        """Unique solution of M x = b; raises SingularMatrixError otherwise."""
        sol = self.solve_affine(b)
        if sol is None or sol.basis:
            raise SingularMatrixError("system has no unique solution")
        return sol.offset

    def solve_affine(self, b: int) -> Optional["AffineSubspace"]:
        """All solutions of M x = b as an affine subspace, or None if inconsistent."""
        if b < 0 or b >> self.n_rows:
            raise ValueError("right-hand side outside F_2^%d" % self.n_rows)
        n = self.n_cols
        mask = (1 << n) - 1
        table: dict = {}
        for i, r in enumerate(self.rows):
            r = _reduce(table, r | (b >> i & 1) << n, n)
            if r & mask:
                table[(r & mask).bit_length() - 1] = r
            elif r:
                return None  # 0 = 1
        table = _fully_reduced(table)
        x0 = 0
        for p, row in table.items():
            x0 |= (row >> n) << p
        # x0 clears the equations' pivots, not the kernel's: AffineSubspace
        # clears those, making the offset the least solution (the search's q)
        return AffineSubspace(n, x0, self._null_basis(table))

    def _null_basis(self, table: dict) -> list:
        """Per free column f, highest first: e_f + the pivots whose row has bit f."""
        basis = []
        for f in range(self.n_cols - 1, -1, -1):
            if f in table:
                continue
            v = 1 << f
            for p, row in table.items():
                v |= (row >> f & 1) << p
            basis.append(v)
        return basis

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.n_cols == other.n_cols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.n_cols, tuple(self.rows)))

    def __repr__(self) -> str:
        return "BitMatrix(%r, n_cols=%d)" % (self.rows, self.n_cols)


class AffineSubspace:
    """An affine subspace offset + span(basis) of F_2^n in canonical form.

    The canonical form keeps the basis fully reduced (each vector owns a
    distinct leading bit that is zero in every other basis vector, sorted
    by leading bit descending) and clears every pivot bit of the offset.
    Two equal subspaces therefore compare equal field-by-field, and the
    canonical offset is the minimum member of the coset as an integer.
    """

    __slots__ = ("n", "offset", "basis")

    def __init__(self, n: int, offset: int, vectors: Iterable[int] = ()):
        if offset < 0 or offset >> n:
            raise ValueError("offset outside F_2^%d" % n)
        vectors = list(vectors)
        for v in vectors:
            if v < 0 or v >> n:
                raise ValueError("vector outside F_2^%d" % n)
        table = _echelon(vectors, n)
        for p, row in table.items():
            if offset >> p & 1:
                offset ^= row
        self.n = n
        self.offset = offset
        self.basis = tuple(reversed(table.values()))

    def points(self) -> Iterator[int]:
        """Iterate all 2^dim members (intended for small dimensions)."""
        span = BitMatrix(self.basis, self.n)
        for mask in range(1 << len(self.basis)):
            yield self.offset ^ span.premul_vec(mask)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffineSubspace)
            and self.n == other.n
            and self.offset == other.offset
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.n, self.offset, self.basis))

    def __repr__(self) -> str:
        return "AffineSubspace(n=%d, offset=%d, basis=%r)" % (
            self.n,
            self.offset,
            self.basis,
        )


def _complete(vectors, n: int, candidates) -> list:
    """The input vectors followed by independent candidates, up to n.

    ``candidates`` is an iterator, advanced only while the basis is
    short, so no candidate is drawn that is not needed.
    """
    table: dict = {}
    out = []
    for v in vectors:
        if not _insert(table, v):
            raise ValueError("input vectors are dependent")
        out.append(v)
    if len(out) > n:
        raise ValueError("more vectors than the dimension")
    while len(out) < n:
        v = next(candidates)
        if _insert(table, v):
            out.append(v)
    return out


def complete_to_basis(vectors, n: int, rng) -> list:
    """Extend independent vectors to a full basis of F_2^n with random draws.

    Makes exactly one rng.randrange(1 << n) call per draw, accepted or
    not, so callers can meter the draw count by wrapping the rng.
    Returns the input vectors (in order) followed by the accepted draws.
    """
    return _complete(vectors, n, iter(lambda: rng.randrange(1 << n), None))


def deterministic_completion(vectors, n: int) -> list:
    """Like complete_to_basis but fills in greedily with unit vectors."""
    return _complete(vectors, n, (1 << i for i in range(n)))
