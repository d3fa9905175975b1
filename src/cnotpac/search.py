"""Consistency search over CNOT circuits.

The hypothesis space is the CNOT class: an invertible theta over F_2
plus a sign vector q (no X-to-Z mixing, no X phases).  Searches walk
(theta, q) in row-major lexicographic order, rows of theta as packed
ints and q innermost, and return the first consistent hypothesis.

brute_force_search organizes that walk as a depth-first search over
independent rows.  Samples whose state is a full Z-basis stabilizer
state and whose measurement is Z-type are linear equations in the bits
of (theta, q), signed by the state's z_constraints; they compile into
one echelon table, whose rows led by theta row r prune every row prefix
at depth r exactly, and whose rows led by a q bit join the generic
samples in an exact solve for q at each leaf instead of an enumeration.
A node tests a candidate row against
those equations before it reduces the row, once, against the rows
chosen so far.  The parent of the leaves runs them in one loop with no
table of their own: its table has n - 1 pivots, so reducing through it
stops at zero or at the one non-pivot column, and each generic sample's
work on rows 0..n-2 is done once for all its leaves.  A leaf tests the
generic samples before it solves for q.  The result is identical to the
naive scan, enumerate_consistent_circuits, the reference for
cross-checking at small n: it walks every invertible theta, builds its
q = 0 tableau and scores all 2^n sign vectors q at once as a bitmask,
since q moves only the phase of a measurement's image, by 2 |q & z|.

search_from_decision asks its oracle about the input set extended by
pin samples.  The compile is a fold over the samples in order, so for
brute_force_decision it folds the input set once and each query's pins
into a copy: the table a compile of the whole extended set would build.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from .cnot import CnotCircuit
from .gf2 import BitMatrix, _insert, _reduce
from .pauli import _fold, _raw_sign_bit
from .reduction import NonSingularityInstance, _pin_samples
from .samples import SampleSet
from .tableau import sample_code


class EnumerationLimitError(ValueError):
    """A search space too large to sweep."""


@dataclass
class SearchResult:
    found: bool
    circuit: Optional[CnotCircuit]
    circuits_examined: int
    wall_time_s: float


@dataclass
class FamilySearchResult:
    found: bool
    assignment: Optional[int]
    assignments_examined: int


@dataclass
class DecisionSearchResult:
    found: bool
    circuit: Optional[CnotCircuit]
    queries: int
    oracle_fault: bool


def check_consistent(h, sample_set: SampleSet) -> bool:
    """True iff h reproduces every sample label.

    h may be a CliffordTableau or anything with to_tableau(), in
    particular a CnotCircuit.  CNOT inputs are also checked for the
    class shape: X images stay X-type with positive sign.
    """
    t = h.to_tableau()
    if t.n != sample_set.n:
        raise ValueError("hypothesis acts on %d qubits, samples on %d" % (t.n, sample_set.n))
    if isinstance(h, CnotCircuit):
        _check_cnot_shape(t)
    return all(sample_code(t, s) == s.code for s in sample_set)


def _check_cnot_shape(t) -> None:
    """Raise unless every X image of the tableau is X-type with sign +."""
    for xi in t.cols[: t.n]:
        if xi.z != 0 or xi.sign_bit:
            raise AssertionError("CNOT tableau has X-to-Z mixing or X phases")


class _GenericSample:
    """Any sample outside the full-Z fast path: its group, raw measurement,
    and its label as two bits, half (label 1/2) and flip (label 0)."""

    __slots__ = ("group", "e", "px", "pz", "half", "flip")

    def __init__(self, sample):
        self.group = sample.state.group
        self.e, self.px, self.pz = sample.measurement.raw()
        self.half = sample.code == 1
        self.flip = 1 if sample.code == 0 else 0


def _add_samples(compiled, samples, n) -> bool:
    """Fold samples, in order, into compiled = (table, supports, generic):
    one echelon table over (theta, q) and what finishing it needs.

    A full-Z sample, (-1)^sigma Z^x measured on a state whose generators
    have no x part, reads q.x + t.(theta x) = c, t | 1 << n the state's
    one z_constraints row and c = sigma + [label 0].  It is packed as one
    row: bit r n + j is theta[r][j], bit n^2 + j is q_j and the payload
    bit n^2 + n is c.  Every other sample, Z-type on a state with an x
    part included, is generic and is checked at the leaf.  Returns False,
    with compiled part-folded, when no CNOT circuit can match: a full-Z
    sample labeled 1/2 or an equation that reduces to 0 = 1."""
    table, supports, generic = compiled
    top = n * n + n
    for s in samples:
        m, group = s.measurement, s.state.group
        if m.x == 0 and not any(g.x for g in group.generators):
            if s.code == 1:
                return False  # a full Z state gives every Z-type image 0 or 1
            (t,) = group.z_constraints()
            x, c = m.z, m.sign_bit ^ (s.code == 0)
            row = sum(x << r * n for r in range(n) if t >> r & 1) | x << n * n | c << top
            if not _insert(table, row, top) and _reduce(table, row, top):
                return False  # the equation reduces to 0 = 1
            supports.add(x)
        else:
            generic.append(_GenericSample(s))
    return True


def _finish(compiled, n):
    """(blocks, generic) of a folded state, or None on a forced theta x = 0.

    blocks[r] (r < n) holds the table's rows led by a bit of theta row r,
    which involve rows 0..r only, and blocks[n] the rows led by a q bit.
    """
    table, supports, generic = compiled
    top = n * n + n
    for x in supports:
        if all(_reduce(table, x << r * n, top) == 0 for r in range(n)):
            return None  # theta x = 0 has no invertible solution
    blocks: List[List[int]] = [[] for _ in range(n + 1)]
    for lead, row in table.items():
        blocks[lead // n].append(row)
    return blocks, generic


def _compile(sample_set: SampleSet):
    """Every sample folded from an empty state, then finished: (blocks,
    generic), or None when no CNOT circuit can match."""
    n = sample_set.n
    compiled: tuple = ({}, set(), [])
    return _finish(compiled, n) if _add_samples(compiled, sample_set, n) else None


def _check_brute_limit(n: int) -> None:
    if n > 5:
        raise EnumerationLimitError("enumeration limit: n = %d exceeds 5" % n)


def _with_row(table, v, r, n):
    """Copy of the DFS row table with row r = v added, payload 1 << (n + r),
    or None when v is in the span of the rows already there.  The one
    reduction of v is both the span test and the row that is stored."""
    row = _reduce(table, v | 1 << (n + r), n)
    key = row & ((1 << n) - 1)
    if not key:
        return None
    table = dict(table)
    table[key.bit_length() - 1] = row
    return table


def _dfs_first(n, blocks, generic):
    """First consistent (theta, q) in row-lex order, as (circuit or None,
    leaves examined).  packed holds the rows chosen so far in the table's
    layout with the payload bit set, so an equation holds iff its AND with
    packed has even parity.  table is the echelon table of those rows, row
    r inserted with payload 1 << (n + r), so a vector that reduces through
    a full table leaves theta^{-T} of it as the payload.

    A node at depth r first checks row v against the equations of
    blocks[r], with bit operations on packed: the pivots being distinct,
    they all hold exactly when rows 0..r extend to a solution of every
    full-Z equation.  Below depth n - 1, _with_row then reduces v once,
    which drops a v dependent on rows 0..r-1, and the search recurses.

    Depth n - 1, the parent of the leaves, runs each leaf in the same
    loop and builds no child table: row = v reduced against the parent's
    table is the span test and the last row.  The parent's table has
    n - 1 pivots, so a reduction through it stops at zero or at the one
    non-pivot column.  For each generic sample, on first use at the node
    (most leaves fail the first one), it keeps the image bits 0..n-2 of
    theta pz and res, px reduced against its table.  A leaf adds the top
    image bit, the parity of v AND pz, and when res stopped at the
    non-pivot column it reduces res ^ row, in which that column cancels,
    leaving theta^{-T} px.  Each generic sample rejects theta or gives
    one equation on q; then each table row led by a q bit gives one, its
    right side the parity of the row AND packed.  The solve is fully
    reduced, so the order of the equations does not change the least q.
    Only the witness becomes a circuit."""
    full = (1 << n) - 1
    last = n - 1
    top = 1 << (n + last)
    equations = blocks[n]
    examined = 0

    def rec(r, table, packed):
        nonlocal examined
        block = blocks[r]
        shift = r * n
        shared = [None] * len(generic)
        for v in range(1, 1 << n):
            p = packed | v << shift
            for eq in block:
                if (eq & p).bit_count() & 1:
                    break
            else:
                if r < last:
                    child = _with_row(table, v, r, n)
                    if child is not None:
                        hit = rec(r + 1, child, p)
                        if hit is not None:
                            return hit
                    continue
                row = _reduce(table, v | top, n)
                if not row & full:
                    continue  # v is in the span of rows 0..n-2
                examined += 1
                pairs = []
                for k, gs in enumerate(generic):
                    node = shared[k]
                    if node is None:
                        low = 0
                        for i in range(last):
                            low |= ((packed >> i * n & gs.pz).bit_count() & 1) << i
                        node = shared[k] = (low, _reduce(table, gs.px, n))
                    low, res = node
                    if res & full:
                        res = _reduce(table, res ^ row, n)
                    # C†PC = (-1)^{q.pz} i^e X^{theta^{-T} px} Z^{theta pz}: it is in
                    # the group iff q.pz = (e_member - e) / 2, its negation iff q.pz flips
                    image = low | ((v & gs.pz).bit_count() & 1) << last
                    e_member = gs.group.member_phase(res >> n | image << n)
                    if e_member is None:
                        if not gs.half:
                            break
                        continue  # expectation is 1/2 for every q
                    if gs.half:
                        break
                    pairs.append((gs.pz, ((e_member - gs.e) % 4) // 2 ^ gs.flip))
                else:
                    for eq in equations:
                        pairs.append((eq >> n * n & full, (eq & p).bit_count() & 1))
                    rhs = sum(bit << i for i, (_, bit) in enumerate(pairs))
                    q_space = BitMatrix([a for a, _ in pairs], n).solve_affine(rhs)
                    if q_space is not None:
                        theta = BitMatrix([p >> i * n & full for i in range(n)], n)
                        return CnotCircuit(theta, q_space.offset)
        return None

    circuit = rec(0, {}, 1 << (n * n + n))
    return circuit, examined


def brute_force_search(sample_set: SampleSet) -> SearchResult:
    """First consistent CNOT circuit in lexicographic (theta rows, q) order.

    The identity matrix is the lexicographically first invertible theta,
    so an unconstrained search returns the identity circuit.
    circuits_examined counts the leaves: the invertible thetas, up to the
    witness, for which the full-Z equations have a q solution.
    """
    n = sample_set.n
    _check_brute_limit(n)
    start = time.perf_counter()
    compiled = _compile(sample_set)
    if compiled is None:
        return SearchResult(False, None, 0, time.perf_counter() - start)
    blocks, generic = compiled
    circuit, examined = _dfs_first(n, blocks, generic)
    elapsed = time.perf_counter() - start
    return SearchResult(circuit is not None, circuit, examined, elapsed)


def brute_force_decision(sample_set: SampleSet) -> bool:
    """Decision form of brute_force_search (exists a consistent circuit?)."""
    return brute_force_search(sample_set).found


def enumerate_consistent_circuits(sample_set: SampleSet) -> List[CnotCircuit]:
    """Naive full scan of GL(n, F_2) x F_2^n in lexicographic order.

    Kept deliberately independent of the pruned search: every theta goes
    through the tableau evaluation path, so this is the reference the
    fast search is checked against.  Each (theta, q) gets the label code
    sample_code gives its tableau, but all 2^n q of a theta are scored
    at once, as a bitmask alive whose bit q stays set while (theta, q)
    matches every sample so far.  That is exact because pauli._fold adds
    a factor's sign bit to the phase only as 2 sign_bit, and the only
    factors that depend on q are the Z images that the measurement's z
    bits select, Z image j with sign bit q_j: e(q) = e(0) + 2 |q & z|
    mod 4, and the image's x and z do not depend on q.  So a theta folds
    each sample once over its q = 0 tableau, with sample_code's checks,
    and looks the image up once.  An absent image has code 1 for every
    q; a member's phase, Hermitian like e(0) on the same key, is e(0) or
    e(0) + 2, so code 2 goes to the q of one parity of |q & z| and code
    0 to the rest.  A theta stops at the first sample that leaves no q,
    so a check raises when sample_code's would for some q.  Rows are
    taken outside the span of the rows before them, so theta is
    invertible; hits come in ascending q, each with its own theta copy.
    """
    n = sample_set.n
    if n > 4:
        raise EnumerationLimitError("full scan limited to n <= 4")
    every_q = (1 << (1 << n)) - 1
    # odd[m]: bit q set iff |q & m| is odd
    odd = [sum(1 << q for q in range(1 << n) if (q & m).bit_count() & 1) for m in range(1 << n)]
    samples = [
        (s.measurement.key(), s.measurement.raw()[0], s.state.group, s.code, odd[s.measurement.z])
        for s in sample_set
    ]
    out = []

    def score(theta):
        t = CnotCircuit._unchecked(theta, 0).to_tableau()
        _check_cnot_shape(t)
        alive = every_q
        for key, e, group, code, flips in samples:
            e, x, z = _fold(t.cols, key, e)
            _raw_sign_bit(e, x, z)
            if not x | z:
                raise ValueError("identity is not a useful measurement")
            member = group.member_phase(x | z << n)
            if (member is None) != (code == 1):
                return  # an absent image has code 1 for every q, a member for none
            if member is not None:
                # code 2 iff e(q) == member, which holds for the even q iff e(0) does
                alive &= flips if (member == e) != (code == 2) else every_q ^ flips
                if not alive:
                    return
        for q in range(1 << n):
            if (alive >> q) & 1:
                out.append(CnotCircuit._unchecked(theta.copy(), q))

    def rec(rows, table):
        for v in range(1, 1 << n):
            if _reduce(table, v) == 0:
                continue
            if len(rows) == n - 1:
                score(BitMatrix(rows + [v], n))
            else:
                child = dict(table)
                _insert(child, v)
                rec(rows + [v], child)

    rec([], {})
    return out


def _tuple_lex_assignment(m: int, k: int) -> int:
    """m-th assignment when (a_1, ..., a_k) tuples are ordered lexicographically.

    Assignment bit i-1 holds a_i, so a_1 varies slowest: reverse m's k bits.
    """
    a = 0
    for i in range(k):
        a |= ((m >> i) & 1) << (k - 1 - i)
    return a


def affine_family_search(inst: NonSingularityInstance) -> FamilySearchResult:
    """First assignment, in (a_1, ..., a_k) lexicographic order, with det M(a) = 1."""
    k = inst.num_vars
    if k > 24:
        raise EnumerationLimitError("enumeration limit: 2^%d assignments" % k)
    examined = 0
    for m in range(1 << k):
        a = _tuple_lex_assignment(m, k)
        examined += 1
        if inst.determinant_at(a) == 1:
            return FamilySearchResult(True, a, examined)
    return FamilySearchResult(False, None, examined)


def _brute_oracle(sample_set: SampleSet):
    """brute_force_decision on sample_set plus pins, as (ask, settle).

    ask(pins) answers for the base set, every settled pin and pins, in
    that order; settle(pins) adds pins to the base.  The base is folded
    once, and a query folds only its own pins into a copy of it, which
    is the state _compile builds from the whole extended set.
    """
    n = sample_set.n
    _check_brute_limit(n)
    base: Optional[tuple] = ({}, set(), [])
    if not _add_samples(base, sample_set, n):
        base = None

    def ask(pins) -> bool:
        if base is None:
            return False
        compiled = (dict(base[0]), set(base[1]), list(base[2]))
        finished = _add_samples(compiled, pins, n) and _finish(compiled, n)
        return bool(finished) and _dfs_first(n, *finished)[0] is not None

    def settle(pins) -> None:
        nonlocal base
        if base is not None and not _add_samples(base, pins, n):
            base = None

    return ask, settle


def search_from_decision(
    decide: Callable[[SampleSet], bool], sample_set: SampleSet
) -> DecisionSearchResult:
    """Recover a consistent circuit from a yes/no consistency oracle.

    Works column by column.  Stage A finds the lowest set bit i of the
    image u_c = theta e_c together with the sign bit q_c, by querying the
    2n pins u_c in e_i + span{e_{i+1}, ...} with q.e_c = b; those sets
    partition the nonzero vectors by lowest set bit.  Stage B resolves
    each higher bit with one query (a no answer sets the bit for free).
    Determined columns are pinned exactly for all later queries, so a
    truthful oracle yields a circuit consistent with the input set; any
    deviation is reported as an oracle fault rather than glossed over.
    Query count is at most 1 + n(3n - 1).

    brute_force_decision is answered from one fold of the input set
    (_brute_oracle); any other oracle is called on each extended set.

    A constant-false oracle on a satisfiable set returns a plain
    not-found: the initial no is unfalsifiable without solving.
    """
    n = sample_set.n
    if decide is brute_force_decision:
        ask, settle = _brute_oracle(sample_set)
    else:
        extra: list = []

        def ask(pins) -> bool:
            return decide(sample_set.extended(extra + pins))

        settle = extra.extend
    queries = 1
    if not ask([]):
        return DecisionSearchResult(False, None, queries, False)
    columns = []
    q = 0
    for c in range(n):
        x = 1 << c
        stage_a = None
        for i in range(n):
            span = [1 << j for j in range(i + 1, n)]
            for b in (0, 1):
                queries += 1
                if ask(_pin_samples(n, x, b, 1 << i, span, None)):
                    stage_a = (i, b)
                    break
            if stage_a is not None:
                break
        if stage_a is None:
            return DecisionSearchResult(False, None, queries, True)
        i, b = stage_a
        u = 1 << i
        for j in range(i + 1, n):
            span = [1 << m for m in range(j + 1, n)]
            queries += 1
            if not ask(_pin_samples(n, x, b, u, span, None)):
                u |= 1 << j
        columns.append(u)
        q |= b << c
        settle(_pin_samples(n, x, b, u, [], None))
    theta = BitMatrix.from_columns(columns, n)
    if not theta.is_invertible():
        return DecisionSearchResult(False, None, queries, True)
    candidate = CnotCircuit(theta, q)
    if not check_consistent(candidate, sample_set):
        return DecisionSearchResult(False, None, queries, True)
    return DecisionSearchResult(True, candidate, queries, False)
