"""Consistency search over CNOT circuits.

The hypothesis space is the CNOT class: an invertible theta over F_2
plus a sign vector q (no X-to-Z mixing, no X phases).  Searches walk
(theta, q) in row-major lexicographic order, rows of theta as packed
ints and q innermost, and return the first consistent hypothesis.
Samples are read as ints, a measurement key and sign bit and a label
code, so no search builds a Pauli object, the decision search's pins too.

brute_force_search organizes that walk as a depth-first search over
independent rows.  Samples whose state is a full Z-basis stabilizer
state and whose measurement is Z-type are linear equations in the bits
of (theta, q), signed by the state's z_constraints; they compile into
one echelon table, whose rows led by theta row r prune every row prefix
at depth r exactly, and whose rows led by a q bit join the generic
samples in an exact solve for q at each leaf instead of an enumeration.
The search has two stages over one state (_Search): _node, a node above
the parent of the leaves, scans its rows, and _leaf_parent solves for
the last row instead.  _hits yields every hit in row-lex order, and
brute_force_search and the brute decision oracle both take the first.
The result is identical to the naive scan, enumerate_consistent_circuits,
the reference for cross-checking at small n: it walks every invertible
theta with its q = 0 tableau and scores all 2^n sign vectors q at once
as a bitmask, since q moves only the phase of a measurement's image, by
2 |q & z|.  Those tableaus do not depend on the samples, so they are
built through to_tableau once per process and n, on first use
(_gl_tableaus): at n = 4 that is about 0.28 s once, and about 5 MB
held.

search_from_decision asks its oracle about the input set extended by
pin samples.  The compile is a fold over the samples in order, so for
brute_force_decision it folds the input set once and each query's pins
into a copy: the table a compile of the whole extended set would build.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from .cnot import CnotCircuit
from .gf2 import BitMatrix, _insert, _reduce
from .pauli import _fold, _raw_sign_bit
from .reduction import NonSingularityInstance, _pin_samples
from .samples import SampleSet
from .tableau import sample_codes


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
    return all(code == s.code for code, s in zip(sample_codes(t, sample_set), sample_set))


def _check_cnot_shape(t) -> None:
    """Raise unless every X image of the tableau is X-type with sign +."""
    if t.signs & ((1 << t.n) - 1) or any(key >> t.n for key in t.keys[: t.n]):
        raise AssertionError("CNOT tableau has X-to-Z mixing or X phases")


class _GenericSample:
    """Any sample outside the full-Z fast path: its group, measurement
    i^e X^px Z^pz, its label as two bits, half (label 1/2) and flip (label
    0), and a check row z | x << n per generator key x | z << n, whose AND
    with a key has odd parity iff that Pauli anticommutes with it."""

    __slots__ = ("group", "e", "px", "pz", "half", "flip", "checks")

    def __init__(self, sample):
        self.group = group = sample.state
        n = group.n
        full = (1 << n) - 1
        self.e, self.px, self.pz = sample.phase, sample.key & full, sample.key >> n
        self.half, self.flip = sample.code == 1, 1 if sample.code == 0 else 0
        self.checks = [k >> n | (k & full) << n for k in group.keys]


def _add_samples(compiled, samples, n) -> bool:
    """Fold samples, in order, into compiled = (table, supports, generic):
    one echelon table over (theta, q) and what finishing it needs.

    A full-Z sample, (-1)^sigma Z^x measured on a state whose generators
    have no x part, reads q.x + t.(theta x) = c, t | 1 << n the state's
    one z_constraints row and c = sigma + [label 0].  It is packed as one
    row: bit r n + j is theta[r][j], bit n^2 + j is q_j and the payload
    bit n^2 + n is c.  Every other sample, Z-type on a state with an x
    part included, is generic and is checked at the parent of the leaves
    and at the leaves.  Returns False, with compiled part-folded, when no
    CNOT circuit can match: a full-Z sample labeled 1/2 or an equation
    that reduces to 0 = 1."""
    table, supports, generic = compiled
    top = n * n + n
    full = (1 << n) - 1
    for s in samples:
        if not s.key & full and not any(k & full for k in s.state.keys):
            if s.code == 1:
                return False  # a full Z state gives every Z-type image 0 or 1
            (t,) = s.state.z_constraints()
            x, c = s.key >> n, s.sign ^ (s.code == 0)
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


def _image(gs, n, table, rows, c):
    """(base, outside, low), with which _image_key gives the key of
    theta's image of gs's measurement at a, for rows R = rows 0..n-2 in
    table, c its non-pivot column and last row e_c + sum a_i R_i.  low
    holds the bits of theta pz on R, and its top bit is pz_c + a.low.
    Reducing px through table stops at zero, leaving theta^{-T} px as
    the payload, or at column c: then px + e_c is in span R, and
    theta^{-T} px is its payload plus a, with the top bit set; outside
    masks a into the key in that case only."""
    low = 0
    for i, u in enumerate(rows):
        low |= ((u & gs.pz).bit_count() & 1) << i
    res = _reduce(table, gs.px, n)
    outside = 0
    if res & ((1 << n) - 1):
        res = _reduce(table, res ^ 1 << c | 1 << (2 * n - 1), n)
        outside = (1 << (n - 1)) - 1
    return res >> n | low << n | (gs.pz >> c & 1) << (2 * n - 1), outside, low


def _image_key(image, a, n):
    """The image key x | z << n at a, for image from _image."""
    base, outside, low = image
    return base ^ a & outside ^ ((a & low).bit_count() & 1) << (2 * n - 1)


def _member_rows(gs, image, n):
    """Rows coef | rhs << (n - 1), one per generator of gs's group: the
    image key at a is in the group iff parity(coef & a) = rhs for all.
    n independent commuting generators make the group maximal isotropic,
    so a key is in it iff it commutes with every generator."""
    base, outside, low = image
    top = 2 * n - 1
    return [
        (w & outside ^ (low if w >> top & 1 else 0)) | ((base & w).bit_count() & 1) << (n - 1)
        for w in gs.checks
    ]


@functools.lru_cache(maxsize=None)
def _solution_masks(n):
    """masks[coef | rhs << (n - 1)]: bit a set, over a < 2^(n-1), iff
    parity(coef & a) = rhs."""
    # a table, not an echelon solve over a: while brute is capped at n = 5 it
    # is at most 32 masks of 16 bits, and an echelon solve at the leaf parent
    # in its place measured 13-20 % fewer learn ops/s (alternated 8-s runs);
    # revisit it together with lifting the n = 5 cap
    last = n - 1
    return tuple(
        sum(1 << a for a in range(1 << last) if not (row & (a | 1 << last)).bit_count() & 1)
        for row in range(1 << n)
    )


class _Search:
    """The brute DFS's state, shared by its stages: n, the blocks of
    _finish, the generic samples split into labelled (0 or 1) and halves
    (1/2), the rows chosen so far and their echelon table, row r with
    payload 1 << (n + r) so that a full table reduces a vector to
    theta^{-T} of it as the payload, and the leaves examined so far."""

    __slots__ = ("n", "blocks", "labelled", "halves", "rows", "table", "leaves")

    def __init__(self, n, blocks, generic):
        self.n, self.blocks, self.rows, self.table, self.leaves = n, blocks, [], {}, 0
        self.labelled = [gs for gs in generic if not gs.half]
        self.halves = [gs for gs in generic if gs.half]


def _hits(search):
    """Each consistent theta in row-lex order, as (theta's rows, its
    q-space, the leaves up to it); once they run out, search.leaves counts
    every leaf.  The stages pass down packed, the rows chosen so far in
    the table's layout with the payload bit set, so an equation holds iff
    its AND with packed has even parity."""
    n = search.n
    packed = 1 << (n * n + n)
    yield from _node(search, 0, packed) if n > 1 else _leaf_parent(search, packed)


def _node(search, r, packed):
    """The hits below a node at depth r < n - 1.  A row v first meets the
    equations of blocks[r], with bit operations on packed: the pivots
    being distinct, they all hold exactly when rows 0..r extend to a
    solution of every full-Z equation.  Then row = v | 1 << (n + r)
    reduced against the table is the span test, which drops a v dependent
    on rows 0..r-1; the row goes into the table under its lead for the
    depth below and comes out after it."""
    n, rows, table = search.n, search.rows, search.table
    block = search.blocks[r]
    full = (1 << n) - 1
    shift = r * n
    bit = 1 << (n + r)
    deeper = r < n - 2
    for v in range(1, 1 << n):
        p = packed | v << shift
        for eq in block:
            if (eq & p).bit_count() & 1:
                break
        else:
            row = _reduce(table, v | bit, n)
            if not row & full:
                continue  # v is in the span of rows 0..r-1
            lead = (row & full).bit_length() - 1
            table[lead] = row
            rows.append(v)
            yield from _node(search, r + 1, p) if deeper else _leaf_parent(search, p)
            rows.pop()
            del table[lead]


def _leaf_parent(search, packed):
    """The hits of the parent of the leaves, at depth n - 1, which scans
    no rows.  Its rows R span a hyperplane, so its leaves are the last
    rows e_c + sum a_i R_i over a in F_2^(n-1), c the table's one
    non-pivot column, and it solves for a.  The equations of blocks[n - 1]
    are linear in a, and so is a generic sample's image key (_image); a
    sample labelled 0 or 1 needs the key in its group, n more equations
    (_member_rows).  alive keeps the solutions as a mask over a, bit a
    set while a satisfies every equation so far (_solution_masks), and a
    node whose mask empties ends there.  The survivors, in ascending last
    row, check the samples labelled 1/2 and solve for q: each sample
    labelled 0 or 1 gives one equation on q from its member's phase, and
    each table row led by a q bit gives one, its right side the parity
    of the row AND packed.  The solve is fully reduced, so the order of
    the equations does not change the least q.  A hit's leaves are those
    before the node plus the last rows up to its own that the block rows
    admit; the node adds all it admits."""
    n, rows, table = search.n, search.rows, search.table
    full = (1 << n) - 1
    last = n - 1
    shift = last * n
    sat = _solution_masks(n)
    c = last
    while c in table:
        c -= 1
    alive = (1 << (1 << last)) - 1
    for eq in search.blocks[last]:
        w = eq >> shift & full
        row = (((eq & packed).bit_count() ^ w >> c) & 1) << last
        for i, u in enumerate(rows):
            row |= ((w & u).bit_count() & 1) << i
        alive &= sat[row]
    admitted = alive
    node = []
    for gs in search.labelled:
        if not alive:
            break
        image = _image(gs, n, table, rows, c)
        node.append((gs, image))
        for row in _member_rows(gs, image, n):
            alive &= sat[row]
    if alive:
        spans = [1 << c]
        for u in rows:
            spans += [v ^ u for v in spans]
        halved = [(gs, _image(gs, n, table, rows, c)) for gs in search.halves]
        up_to = search.leaves  # the leaves up to v
        for v, a in sorted(zip(spans, range(1 << last))):
            up_to += admitted >> a & 1
            if not alive >> a & 1:
                continue
            if any(gs.group.member_phase(_image_key(im, a, n)) is not None for gs, im in halved):
                continue  # a sample labelled 1/2 has its image in the group
            # C†PC = (-1)^{q.pz} i^e X^{theta^{-T} px} Z^{theta pz}: it is in
            # the group iff q.pz = (e_member - e) / 2, its negation iff q.pz flips
            pairs = []
            for gs, image in node:
                e_member = gs.group.member_phase(_image_key(image, a, n))
                pairs.append((gs.pz, ((e_member - gs.e) % 4) // 2 ^ gs.flip))
            p = packed | v << shift
            for eq in search.blocks[n]:
                pairs.append((eq >> n * n & full, (eq & p).bit_count() & 1))
            rhs = sum(bit << i for i, (_, bit) in enumerate(pairs))
            q_space = BitMatrix([m for m, _ in pairs], n).solve_affine(rhs)
            if q_space is not None:
                yield rows + [v], q_space, up_to
    search.leaves += admitted.bit_count()


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
    search = _Search(n, *compiled)
    hit = next(_hits(search), None)
    if hit is None:
        return SearchResult(False, None, search.leaves, time.perf_counter() - start)
    rows, q_space, leaves = hit
    circuit = CnotCircuit(BitMatrix(rows, n), q_space.offset)
    return SearchResult(True, circuit, leaves, time.perf_counter() - start)


def brute_force_decision(sample_set: SampleSet) -> bool:
    """Decision form of brute_force_search (exists a consistent circuit?)."""
    return brute_force_search(sample_set).found


@functools.lru_cache(maxsize=None)
def _gl_tableaus(n):
    """Every invertible n x n theta over F_2 in row-lex order, as (rows,
    keys): theta's rows and the image keys of its q = 0 tableau, both int
    tuples.  Rows are taken outside the span of the rows before them, so
    theta is invertible; each tableau comes from to_tableau and is checked
    for the CNOT shape once.  Built on first use: 168 entries in about
    2 ms at n = 3, and 20,160 in about 0.28 s, held as about 5 MB, at
    n = 4 (fresh processes on a 2-vCPU host)."""
    if n > 4:
        raise EnumerationLimitError("full scan limited to n <= 4")
    out = []

    def rec(rows, table):
        for v in range(1, 1 << n):
            if _reduce(table, v) == 0:
                continue
            if len(rows) == n - 1:
                t = CnotCircuit._unchecked(BitMatrix(rows + [v], n), 0).to_tableau()
                _check_cnot_shape(t)
                out.append((tuple(rows) + (v,), tuple(t.keys)))
            else:
                child = dict(table)
                _insert(child, v)
                rec(rows + [v], child)

    rec([], {})
    return tuple(out)


def enumerate_consistent_circuits(sample_set: SampleSet) -> List[CnotCircuit]:
    """Naive full scan of GL(n, F_2) x F_2^n in lexicographic order.

    Kept deliberately independent of the pruned search: every theta goes
    through the tableau evaluation path, so this is the reference the
    fast search is checked against.  The q = 0 tableaus do not depend on
    the samples: they are built once per process through to_tableau
    (_gl_tableaus), at n = 4 in about 0.28 s and held as about 5 MB.
    Each (theta, q) gets the label code sample_code gives its tableau,
    but all 2^n q of a theta are scored at once, as a bitmask alive
    whose bit q stays set while (theta, q) matches every sample so far.
    That is exact because pauli._fold adds the factors' signs to the
    phase only as 2 |signs & mask|, and the only factors that depend on
    q are the Z images that the measurement's z bits select, Z image j
    with sign bit q_j: e(q) = e(0) + 2 |q & z| mod 4, and the image's
    key does not depend on q.  So a theta folds each sample once over
    its q = 0 tableau, with sample_code's checks, and looks the image up
    once.  An absent image has code 1 for every q; a member's phase,
    Hermitian like e(0) on the same key, is e(0) or e(0) + 2, so code 2
    goes to the q of one parity of |q & z| and code 0 to the rest.  A
    theta stops at the first sample that leaves no q, so a check raises
    when sample_code's would for some q.  Hits come in ascending q, each
    with its own new theta.
    """
    n = sample_set.n
    table = _gl_tableaus(n)
    every_q = (1 << (1 << n)) - 1
    # odd[m]: bit q set iff |q & m| is odd
    odd = [sum(1 << q for q in range(1 << n) if (q & m).bit_count() & 1) for m in range(1 << n)]
    samples = [(s.key, s.phase, s.state, s.code, odd[s.key >> n]) for s in sample_set]
    out = []
    for rows, keys in table:
        alive = every_q
        for key, e, group, code, flips in samples:
            e, image = _fold(n, keys, 0, key, e)
            _raw_sign_bit(n, e, image)
            if not image:
                raise ValueError("identity is not a useful measurement")
            member = group.member_phase(image)
            if (member is None) != (code == 1):
                break  # an absent image has code 1 for every q, a member for none
            if member is not None:
                # code 2 iff e(q) == member, which holds for the even q iff e(0) does
                alive &= flips if (member == e) != (code == 2) else every_q ^ flips
                if not alive:
                    break
        else:
            for q in range(1 << n):
                if (alive >> q) & 1:
                    out.append(CnotCircuit._unchecked(BitMatrix(rows, n), q))
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
        return bool(finished) and next(_hits(_Search(n, *finished)), None) is not None

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
        stage_a = None
        for i in range(n):
            span = [1 << j for j in range(i + 1, n)]
            for b in (0, 1):
                queries += 1
                if ask(_pin_samples(n, 1 << c, b, 1 << i, span, None)):
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
            if not ask(_pin_samples(n, 1 << c, b, u, span, None)):
                u |= 1 << j
        columns.append(u)
        q |= b << c
        settle(_pin_samples(n, 1 << c, b, u, [], None))
    theta = BitMatrix(columns, n).transpose()
    if not theta.is_invertible():
        return DecisionSearchResult(False, None, queries, True)
    candidate = CnotCircuit(theta, q)
    if not check_consistent(candidate, sample_set):
        return DecisionSearchResult(False, None, queries, True)
    return DecisionSearchResult(True, candidate, queries, False)
