"""Consistency search over CNOT circuits.

The hypothesis space is the CNOT class: an invertible theta over F_2
plus a sign vector q (no X-to-Z mixing, no X phases).  Searches walk
(theta, q) in row-major lexicographic order, rows of theta as packed
ints and q innermost, and return the first consistent hypothesis.

brute_force_search organizes that walk as a depth-first search over
independent rows.  Samples whose state is a full Z-basis stabilizer
state and whose measurement is Z-type compile into affine constraints
on single images theta x; every such group prunes every row prefix, so
a leaf's images are already permitted, and the leftover freedom in q is
solved exactly at each leaf instead of enumerated.  The result is
identical to the naive scan (enumerate_consistent_circuits provides the
naive scan for cross-checking at small n).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

from .cnot import CnotCircuit, cnot_tableaus
from .gf2 import BitMatrix, _insert, _reduce, dot
from .pauli import z_power
from .reduction import NonSingularityInstance, _pin_samples, constrain_pauli_samples
from .samples import SampleSet
from .tableau import evaluate_sample


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
    return all(evaluate_sample(t, s) == s.label for s in sample_set)


def _check_cnot_shape(t) -> None:
    """Raise unless every X image of the tableau is X-type with sign +."""
    for j in range(t.n):
        xi = t.cols[2 * j]
        if xi.z != 0 or xi.sign_bit:
            raise AssertionError("CNOT tableau has X-to-Z mixing or X phases")


class _ImageGroup:
    """Full-Z samples sharing a measurement support x.

    Each such sample reads q.x + t.u = c with u = theta x, t the state's
    sign character and c the label/sign bit.  Differences against the
    first sample leave an affine set of permitted u; prefixes[r] holds the
    low r + 1 bits (those rows 0..r of theta fix) of every permitted u.
    The first sample's (t0, c0) supplies the one q equation per group at
    a leaf.
    """

    __slots__ = ("x", "t0", "c0", "prefixes")

    def __init__(self, x, t0, c0, prefixes):
        self.x = x
        self.t0 = t0
        self.c0 = c0
        self.prefixes = prefixes


class _GenericSample:
    """Any sample outside the full-Z fast path: its group, raw measurement,
    and its label as two bits, half (label 1/2) and flip (label 0)."""

    __slots__ = ("group", "e", "px", "pz", "half", "flip")

    def __init__(self, sample):
        self.group = sample.state.group
        self.e, self.px, self.pz = sample.measurement.raw()
        self.half = sample.label == Fraction(1, 2)
        self.flip = 1 if sample.label == 0 else 0


def _full_z_form(state):
    """(z supports, packed sign bits) when every generator is Z-type, else None."""
    zs = []
    signs = 0
    for k, g in enumerate(state.group.generators):
        if g.x != 0:
            return None
        zs.append(g.z)
        signs |= g.sign_bit << k
    return zs, signs


def _compile(sample_set: SampleSet):
    """Sort samples into image groups and generic leftovers.

    Returns (groups, generic) or None when no CNOT circuit can match:
    a full-Z sample labeled 1/2, contradictory sign equations on one
    image, or an image pinned to {0}.
    """
    n = sample_set.n
    raw: dict = {}
    generic: List[_GenericSample] = []
    for s in sample_set:
        zform = _full_z_form(s.state)
        if zform is not None and s.measurement.x == 0:
            if s.label == Fraction(1, 2):
                return None  # Z-type images always land in a full Z group
            zs, signs = zform
            t = BitMatrix(zs, n).solve(signs)
            c = s.measurement.sign_bit ^ (1 if s.label == 0 else 0)
            raw.setdefault(s.measurement.z, []).append((t, c))
        else:
            generic.append(_GenericSample(s))
    groups = []
    for x, pairs in raw.items():
        t0, c0 = pairs[0]
        rows = [t ^ t0 for t, _ in pairs[1:]]
        rhs = 0
        for j, (_, c) in enumerate(pairs[1:]):
            rhs |= (c ^ c0) << j
        space = BitMatrix(rows, n).solve_affine(rhs)
        if space is None:
            return None
        if space.dim == 0 and space.offset == 0:
            return None  # theta x = 0 has no invertible solution
        # at most 2^5 permitted points: brute refuses n > 5
        prefixes = [{p & ((2 << r) - 1) for p in space.points()} for r in range(n)]
        groups.append(_ImageGroup(x, t0, c0, prefixes))
    return groups, generic


def _leaf_q_space(n, theta, table, groups, images, generic):
    """Affine set of q values consistent at this theta, or None.

    images holds each group's permitted u = theta x, from the DFS.  table
    is the DFS echelon table of theta's rows, row r inserted with payload
    1 << (n + r): reducing a vector v through it leaves the coordinates of
    v in the row basis, theta^{-T} v, as the payload.
    """
    qrows = []
    qrhs = 0

    def add(row, bit):
        nonlocal qrhs
        qrhs |= bit << len(qrows)
        qrows.append(row)

    for g, u in zip(groups, images):
        add(g.x, g.c0 ^ dot(g.t0, u))
    for gs in generic:
        # C†PC = (-1)^{q.pz} i^e X^{theta^{-T} px} Z^{theta pz}: it is in the
        # group iff q.pz = (e_member - e) / 2, its negation iff q.pz flips
        key = (_reduce(table, gs.px, n) >> n) | (theta.mul_vec(gs.pz) << n)
        e_member = gs.group.member_phase(key)
        if e_member is None:
            if not gs.half:
                return None
            continue  # expectation is 1/2 for every q
        if gs.half:
            return None
        add(gs.pz, ((e_member - gs.e) % 4) // 2 ^ gs.flip)
    return BitMatrix(qrows, n).solve_affine(qrhs)


def _with_row(table, v, r, n):
    """Copy of the DFS row table with row r = v added, payload 1 << (n + r)."""
    table = dict(table)
    _insert(table, v | 1 << (n + r), n)
    return table


def _dfs_first(n, groups, generic):
    """First consistent (theta, q) in row-lex order, as (circuit or None,
    leaves examined).  knowns[i] holds the bits of groups[i]'s u = theta x
    that the rows so far fix, always a prefix of a permitted u; at a leaf
    it is u itself."""
    full = (1 << n) - 1
    examined = 0

    def rec(rows, table, knowns):
        nonlocal examined
        r = len(rows)
        if r == n:
            examined += 1
            theta = BitMatrix(list(rows), n)
            q_space = _leaf_q_space(n, theta, table, groups, knowns, generic)
            if q_space is None:
                return None
            return CnotCircuit(theta, q_space.offset)
        for v in range(1, 1 << n):
            if _reduce(table, v, n) & full == 0:
                continue
            new_knowns = []
            for g, k in zip(groups, knowns):
                k |= dot(v, g.x) << r
                if k not in g.prefixes[r]:
                    break
                new_knowns.append(k)
            else:
                hit = rec(rows + [v], _with_row(table, v, r, n), new_knowns)
                if hit is not None:
                    return hit
        return None

    circuit = rec([], {}, [0] * len(groups))
    return circuit, examined


def brute_force_search(sample_set: SampleSet) -> SearchResult:
    """First consistent CNOT circuit in lexicographic (theta rows, q) order.

    The identity matrix is the lexicographically first invertible theta,
    so an unconstrained search returns the identity circuit.
    circuits_examined counts the leaves that reached a full theta.
    """
    n = sample_set.n
    if n > 5:
        raise EnumerationLimitError("enumeration limit: n = %d exceeds 5" % n)
    start = time.perf_counter()
    compiled = _compile(sample_set)
    if compiled is None:
        return SearchResult(False, None, 0, time.perf_counter() - start)
    groups, generic = compiled
    circuit, examined = _dfs_first(n, groups, generic)
    elapsed = time.perf_counter() - start
    return SearchResult(circuit is not None, circuit, examined, elapsed)


def brute_force_decision(sample_set: SampleSet) -> bool:
    """Decision form of brute_force_search (exists a consistent circuit?)."""
    return brute_force_search(sample_set).found


def enumerate_consistent_circuits(sample_set: SampleSet) -> List[CnotCircuit]:
    """Naive full scan of GL(n, F_2) x F_2^n in lexicographic order.

    Kept deliberately independent of the pruned search: every candidate
    goes through the tableau evaluation path, so this is the reference
    the fast search is checked against.  Each theta's images are built
    once (cnot_tableaus) and checked for the CNOT class shape once; the
    2^n tableaus that differ only in q are then scored by check_consistent.
    Only hits become circuits, each with its own copy of theta.
    """
    n = sample_set.n
    if n > 4:
        raise EnumerationLimitError("full scan limited to n <= 4")
    out = []

    def rec(rows, table):
        r = len(rows)
        if r == n:
            theta = BitMatrix(list(rows), n)
            tableau_at = cnot_tableaus(theta)
            _check_cnot_shape(tableau_at(0))
            for q in range(1 << n):
                if check_consistent(tableau_at(q), sample_set):
                    out.append(CnotCircuit(theta.copy(), q))
            return
        for v in range(1, 1 << n):
            if _reduce(table, v) == 0:
                continue
            t2 = dict(table)
            _insert(t2, v)
            rec(rows + [v], t2)

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

    A constant-false oracle on a satisfiable set returns a plain
    not-found: the initial no is unfalsifiable without solving.
    """
    n = sample_set.n
    queries = 1
    if not decide(sample_set):
        return DecisionSearchResult(False, None, queries, False)
    extra: list = []
    columns = []
    q = 0
    for c in range(n):
        x = 1 << c
        stage_a = None
        for i in range(n):
            span = [1 << j for j in range(i + 1, n)]
            for b in (0, 1):
                queries += 1
                pin = _pin_samples(n, x, b, 1 << i, span, None)
                if decide(sample_set.extended(extra + pin)):
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
            pin = _pin_samples(n, x, b, u, span, None)
            if not decide(sample_set.extended(extra + pin)):
                u |= 1 << j
        columns.append(u)
        q |= b << c
        target = z_power(n, x, sign=-1 if b else 1)
        extra.extend(constrain_pauli_samples(n, target, u, None, None))
    theta = BitMatrix.from_columns(columns, n)
    if not theta.is_invertible():
        return DecisionSearchResult(False, None, queries, True)
    candidate = CnotCircuit(theta, q)
    if not check_consistent(candidate, sample_set):
        return DecisionSearchResult(False, None, queries, True)
    return DecisionSearchResult(True, candidate, queries, False)
