"""From formulas to labeled sample sets whose consistency encodes SAT.

The chain: a formula becomes a closed weighted digraph (formula module),
the graph becomes an affine family of matrices M(a) = M0 + sum a_i M_i
with det M(a) = F(a), and the family becomes samples over n = size
qubits such that a CNOT circuit (theta, q) is consistent with every
sample exactly when theta = M(a) for a satisfying assignment a and
q = 0.  Pinning a single image theta x into a one- or zero-dimensional
affine set costs n or n+1 samples; pinning a whole variable's columns
with a shared branch bit costs kn + k - 1.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .formula import Formula, WeightedDigraph, arithmetize_cnf, formula_to_graph, num_variables
from .gf2 import BitMatrix, _insert, _reduce, complete_to_basis, deterministic_completion, dot
from .pauli import PauliOperator
from .samples import Sample, SampleSet
from .stabilizer import StabilizerGroup


class NonSingularityInstance:
    """Affine matrix family M(a) = M0 + sum_i a_i M_i over F_2."""

    __slots__ = ("size", "m0", "ms")

    def __init__(self, size: int, m0: BitMatrix, ms: Sequence[BitMatrix]):
        if m0.n_rows != size or m0.n_cols != size:
            raise ValueError("m0 must be size x size")
        for m in ms:
            if m.n_rows != size or m.n_cols != size:
                raise ValueError("every m_i must be size x size")
        self.size = size
        self.m0 = m0
        self.ms = list(ms)

    @property
    def num_vars(self) -> int:
        return len(self.ms)

    def matrix_at(self, assignment: int) -> BitMatrix:
        """M(a) with a_i read from bit i-1 of the assignment."""
        acc = self.m0
        for i, m in enumerate(self.ms):
            if (assignment >> i) & 1:
                acc = acc ^ m
        return acc

    def determinant_at(self, assignment: int) -> int:
        return self.matrix_at(assignment).determinant()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NonSingularityInstance)
            and self.size == other.size
            and self.m0 == other.m0
            and self.ms == other.ms
        )

    def __repr__(self) -> str:
        return "NonSingularityInstance(size=%d, vars=%d)" % (self.size, self.num_vars)


# graph_to_instance allocates one size x size matrix per variable up to the
# highest index, so an index alone is a memory request: it is checked before
# anything is allocated.  The limit matches the 1024-qubit circuit limit.
_MAX_VARIABLE_INDEX = 1024


def graph_to_instance(
    g: WeightedDigraph, num_vars: Optional[int] = None
) -> NonSingularityInstance:
    """Adjacency family of a closed graph: row = source, column = destination."""
    if not g.closed:
        raise ValueError("graph must be closed (determinant contract needs the closure)")
    k = g.num_vars if num_vars is None else num_vars
    if k < g.num_vars:
        raise ValueError("num_vars below the highest edge weight")
    if k > _MAX_VARIABLE_INDEX:
        raise ValueError("variable index %d exceeds the limit of %d" % (k, _MAX_VARIABLE_INDEX))
    size = g.num_vertices
    m0 = BitMatrix.zeros(size, size)
    ms = [BitMatrix.zeros(size, size) for _ in range(k)]
    for (u, v), w in g.edges.items():
        target = m0 if w == 0 else ms[w - 1]
        target.rows[u] |= 1 << v
    return NonSingularityInstance(size, m0, ms)


def _simplified_columns(inst: NonSingularityInstance) -> Optional[tuple]:
    """(columns of M0, [columns of each M_i]) when every column that an M_i
    touches is nonzero in M0, differs from M_i's and is touched by no other
    M_j (the simplified shape), else None: the one column read of the instance."""
    m0_cols = inst.m0.transpose().rows
    ms_cols = [m.transpose().rows for m in inst.ms]
    seen = set()
    for m_cols in ms_cols:
        for c, w in enumerate(m_cols):
            if not w:
                continue
            if c in seen or m0_cols[c] in (0, w):
                return None
            seen.add(c)
    return m0_cols, ms_cols


def _pin_samples(n: int, x: int, sigma: int, offset: int, span: Sequence[int], rng) -> List[Sample]:
    """Samples forcing theta x into offset + span(span) and q.x = sigma:
    every sample measures (-1)^sigma Z^x, x a nonzero n-bit vector.

    States are full-Z stabilizer states whose generator supports form a
    basis starting with the pin data; sign flips on individual
    generators read off coordinates of theta x in that basis.  When the
    offset lies in the span the pin is a subspace and the final label-0
    sample is dropped.  Yields n - dim + 1 samples either way.  With
    rng=None the basis completion is deterministic.
    """
    table: dict = {}
    span = list(span)
    for v in span:
        if not _insert(table, v):
            raise ValueError("span vectors are dependent")
    reduced = _reduce(table, offset)
    final = reduced != 0
    head = [reduced] + span if final else span
    basis = deterministic_completion(head, n) if rng is None else complete_to_basis(head, n, rng)
    # the states share the basis generators Z^{basis[k]}; each flipped
    # state negates one of them, sharing the base group's keys and table
    base = StabilizerGroup._from_keys(n, tuple(v << n for v in basis))
    key = x << n
    out = [Sample._unchecked(base, key, sigma, 2)]
    for j in range(len(head), n):
        out.append(Sample._unchecked(base.flip(1 << j), key, sigma, 2))
    if final:
        out.append(Sample._unchecked(base.flip(1), key, sigma, 0))
    return out


def constrain_pauli_samples(
    n: int, target: PauliOperator, v: int, w: Optional[int], rng
) -> List[Sample]:
    """Samples pinning C† target C.

    target must be a signed Z-type Pauli (-1)^sigma Z^x.  With w=None the
    pin is exact (theta x = v, q.x = sigma; n+1 samples); with w the pin
    allows the two-point set {v, v+w} (n samples).
    """
    if target.x != 0 or target.z == 0:
        raise ValueError("target must be a nonidentity Z-type Pauli")
    return _column_pin(n, target.z, target.sign_bit, v, w, rng)


def _column_pin(n: int, x: int, sigma: int, v: int, w: Optional[int], rng) -> List[Sample]:
    """constrain_pauli_samples for the target (-1)^sigma Z^x."""
    if v == 0 or v >> n:
        raise ValueError("v must be a nonzero vector in F_2^%d" % n)
    if w is not None:
        if w == 0 or w >> n:
            raise ValueError("w must be a nonzero vector in F_2^%d" % n)
        if w == v:
            raise ValueError("v and w must be independent")
    return _pin_samples(n, x, sigma, v, [] if w is None else [w], rng)


def constrain_submatrix_samples(
    n: int, columns: Sequence[int], v_cols: BitMatrix, w_cols: BitMatrix, rng
) -> List[Sample]:
    """Samples forcing theta's selected columns to v_j + a w_j with one shared a.

    columns lists k distinct column indices; v_cols and w_cols are n x k
    with column j holding v_j and w_j.  Each column gets a two-point pin
    (n samples, also forcing q on that column to 0) and consecutive
    columns are linked by one computational-basis sample that equates
    their branch bits, for kn + k - 1 samples total.
    """
    columns = list(columns)
    k = len(columns)
    if k == 0:
        raise ValueError("need at least one column")
    if len(set(columns)) != k or any(c < 0 or c >= n for c in columns):
        raise ValueError("columns must be distinct indices below %d" % n)
    if v_cols.n_rows != n or w_cols.n_rows != n or v_cols.n_cols != k or w_cols.n_cols != k:
        raise ValueError("v_cols and w_cols must be n x k")
    return _linked_pins(n, columns, v_cols.transpose().rows, w_cols.transpose().rows, rng)


def _linked_pins(n: int, columns: list, vs: list, ws: list, rng) -> List[Sample]:
    """constrain_submatrix_samples on checked input, v_j and w_j as ints."""
    out: List[Sample] = []
    for c, v, w in zip(columns, vs, ws):
        out.extend(_column_pin(n, 1 << c, 0, v, w, rng))
    for j in range(1, len(columns)):
        sol = BitMatrix([ws[j - 1], ws[j]], n).solve_affine(0b11)
        t = sol.offset  # lex-minimal state with t.w_prev = t.w_cur = 1
        key = (1 << columns[j - 1] | 1 << columns[j]) << n
        code = 2 - 2 * dot(t, vs[j - 1] ^ vs[j])  # label 1 on even parity, 0 on odd
        out.append(Sample._unchecked(StabilizerGroup.computational_basis(n, t), key, 0, code))
    return out


# instance_to_samples emits up to n(n + 1) samples, each written with its
# n-bit sign mask, and about n + 1 key tuples of n keys of 2n bits, so work
# and output grow as n^3.  Medians of 5 processes on a 2-vCPU host (wall
# time from start-up, peak RSS): the 12-clause 3-CNF over 8 variables of
# acceptance check 13 (n = 103) reduces in 0.45 s to 1.5 MB at 29 MB, and
# solve affine and verify (0.41 s) of that file peak at 28 and 30 MB; 125
# summed x1s plus x2 (n = 128, the limit) reduce in 0.82 s to 2.6 MB at
# 35 MB, and verify (0.65 s) peaks at 37 MB.  A short formula (300 summed
# x1s, size 302) is refused before any sample.
_MAX_INSTANCE_SIZE = 128


def instance_to_samples(inst: NonSingularityInstance, rng) -> SampleSet:
    """Sample set consistent exactly with {theta = M(a) invertible, q = 0}."""
    if inst.size > _MAX_INSTANCE_SIZE:
        raise ValueError(
            "instance size %d exceeds the limit of %d" % (inst.size, _MAX_INSTANCE_SIZE)
        )
    columns = _simplified_columns(inst)
    if columns is None:
        raise ValueError("instance does not satisfy the simplified shape")
    m0_cols, ms_cols = columns
    n = inst.size
    samples: List[Sample] = []
    touched = set()
    for m_cols in ms_cols:
        cols = [c for c in range(n) if m_cols[c]]
        if not cols:
            continue
        vs, ws = [m0_cols[c] for c in cols], [m_cols[c] for c in cols]
        samples.extend(_linked_pins(n, cols, vs, ws, rng))
        touched.update(cols)
    for c, v in enumerate(m0_cols):
        if c in touched:
            continue
        if v != 0:
            samples.extend(_column_pin(n, 1 << c, 0, v, None, rng))
        else:
            # a column that is zero in every member: no invertible M(a) exists,
            # so emit a directly contradictory pair, both measuring Z_0
            state = StabilizerGroup.zero_state(n)
            samples += [Sample._unchecked(state, 1 << n, 0, code) for code in (2, 0)]
    assert len(samples) <= n * (n + 1)
    return SampleSet(n, samples)


def reduce_formula_to_samples(f: Formula, rng, num_vars: Optional[int] = None):
    """Full pipeline for a formula: returns (SampleSet, NonSingularityInstance)."""
    g = formula_to_graph(f)
    inst = graph_to_instance(g, num_vars)
    return instance_to_samples(inst, rng), inst


def reduce_sat_to_samples(clauses, rng):
    """Full pipeline for a CNF given as clauses of signed 1-based literals."""
    f = arithmetize_cnf(clauses)
    highest = max((abs(l) for clause in clauses for l in clause), default=0)
    return reduce_formula_to_samples(f, rng, num_vars=max(highest, num_variables(f)))
