"""Linear algebra over F_2 with vectors packed into Python ints.

A vector in F_2^n is an int whose bit j is coordinate j.  A matrix is a
list of such row ints plus an explicit column count.  Elimination is
plain XOR on ints, which keeps the hot paths allocation-free.

This module holds the one elimination kernel the rest of the package
reduces through: _reduce/_insert reduce a vector against, or add it
to, an echelon table (a dict from pivot position to row), pivoting on
leading bits, highest column first.  _echelon back-substitutes such a
table to fully reduced form, the canonical rows that solutions,
kernels, affine subspaces and group signatures are read from.  Bits at
or above n_cols are a payload: never pivoted on but XORed along with
every row operation, it records how a row was combined (an identity
block, a right-hand side, or the generators of a group element).
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
    """Fully reduced echelon table of ``rows``: the span's reduced row
    echelon form, keyed by pivot ascending.  The rows go in with
    _insert; then each row, lowest pivot first, is cleared of every
    lower pivot q by adding q's row, whose only pivot bit is q.
    """
    table: dict = {}
    for row in rows:
        _insert(table, row, n_cols)
    reduced: dict = {}
    for p in sorted(table):
        row = table[p]
        for q, low in reduced.items():
            if row >> q & 1:
                row ^= low
        reduced[p] = row
    return reduced


def _inverse_table(rows: list, n: int) -> dict:
    """Echelon table of the n x n matrix ``rows``, row i inserted with
    payload bit n + i.  Reducing e_j through it leaves payload bits that
    name the rows summing to e_j, so ``_reduce(table, 1 << j, n) >> n``
    is row j of the inverse.  Raises SingularMatrixError when a row
    falls in the span of the rows before it.
    """
    table: dict = {}
    for i, r in enumerate(rows):
        if not _insert(table, r | 1 << (n + i), n):
            raise SingularMatrixError("matrix is singular")
    return table


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

    @classmethod
    def from_columns(cls, cols: Iterable[int], n_rows: int) -> "BitMatrix":
        """Build from packed column ints (cols[j] bit i = row i, col j)."""
        cols = list(cols)
        rows = []
        for i in range(n_rows):
            acc = 0
            for j, c in enumerate(cols):
                acc |= ((c >> i) & 1) << j
            rows.append(acc)
        return cls(rows, len(cols))

    def copy(self) -> "BitMatrix":
        return BitMatrix(list(self.rows), self.n_cols)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def column(self, j: int) -> int:
        acc = 0
        for i, r in enumerate(self.rows):
            acc |= ((r >> j) & 1) << i
        return acc

    def to_dense(self) -> list:
        return [[(r >> j) & 1 for j in range(self.n_cols)] for r in self.rows]

    def transpose(self) -> "BitMatrix":
        return BitMatrix([self.column(j) for j in range(self.n_cols)], self.n_rows)

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

    def add_col(self, src: int, dst: int) -> None:
        """XOR column src into column dst, in place."""
        for i, r in enumerate(self.rows):
            self.rows[i] ^= ((r >> src) & 1) << dst

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
        n = self.n_cols
        table = _inverse_table(self.rows, n)
        return BitMatrix([_reduce(table, 1 << j, n) >> n for j in range(n)], n)

    def solve(self, b: int) -> int:
        """Unique solution of M x = b; raises SingularMatrixError otherwise."""
        sol = self.solve_affine(b)
        if sol is None or sol.dim != 0:
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
        table = _echelon(table.values(), n)
        x0 = 0
        for p, row in table.items():
            x0 |= (row >> n) << p
        return AffineSubspace(n, x0, self._null_basis(table))

    def null_space(self) -> list:
        """Basis (list of packed vectors) of the kernel {x : M x = 0}."""
        return self._null_basis(_echelon(self.rows, self.n_cols))

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

    @classmethod
    def full(cls, n: int) -> "AffineSubspace":
        return cls(n, 0, [1 << i for i in range(n)])

    @classmethod
    def single(cls, n: int, point: int) -> "AffineSubspace":
        return cls(n, point)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, x: int) -> bool:
        table = {v.bit_length() - 1: v for v in self.basis}
        return _reduce(table, x ^ self.offset) == 0

    def points(self) -> Iterator[int]:
        """Iterate all 2^dim members (intended for small dimensions)."""
        span = BitMatrix(self.basis, self.n)
        for mask in range(1 << len(self.basis)):
            yield self.offset ^ span.premul_vec(mask)

    def constraints(self) -> tuple:
        """A linear system (C, d) with self == {x : C x = d}."""
        span = BitMatrix(list(self.basis), self.n)
        c_rows = span.null_space() if self.basis else [1 << i for i in range(self.n)]
        c = BitMatrix(c_rows, self.n)
        return c, c.mul_vec(self.offset)

    def intersect(self, other: "AffineSubspace") -> Optional["AffineSubspace"]:
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        c1, d1 = self.constraints()
        c2, d2 = other.constraints()
        stacked = BitMatrix(c1.rows + c2.rows, self.n)
        return stacked.solve_affine(d1 | (d2 << c1.n_rows))

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
