import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cnotpac.gf2 import (
    AffineSubspace,
    BitMatrix,
    SingularMatrixError,
    _insert,
    _reduce,
    complete_to_basis,
    deterministic_completion,
    dot,
)

from helpers import random_stabilizer_state


def span_size(rows):
    """Oracle: number of distinct vectors in the row span, by enumeration."""
    seen = {0}
    for r in rows:
        seen |= {r ^ s for s in seen}
    return len(seen)


def brute_solutions(m, b):
    return {x for x in range(1 << m.n_cols) if m.mul_vec(x) == b}


def random_matrix(rng, n_rows, n_cols):
    return BitMatrix([rng.randrange(1 << n_cols) for _ in range(n_rows)], n_cols)


def random_invertible(rng, n):
    while True:
        m = random_matrix(rng, n, n)
        if m.rank() == n:
            return m


class CountingRng(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.randrange_calls = 0

    def randrange(self, *args, **kwargs):
        self.randrange_calls += 1
        return super().randrange(*args, **kwargs)


def test_dot_small_table():
    assert dot(0b101, 0b100) == 1
    assert dot(0b101, 0b001) == 1
    assert dot(0b101, 0b101) == 0
    assert dot(0, 0b111) == 0


def test_rank_matches_span_counting_oracle():
    rng = random.Random(101)
    for _ in range(300):
        n_rows = rng.randrange(1, 6)
        n_cols = rng.randrange(1, 6)
        m = random_matrix(rng, n_rows, n_cols)
        assert (1 << m.rank()) == span_size(m.rows)


def test_determinant_is_full_rank_indicator():
    rng = random.Random(102)
    for _ in range(200):
        n = rng.randrange(1, 5)
        m = random_matrix(rng, n, n)
        expected = 1 if span_size(m.rows) == (1 << n) else 0
        assert m.determinant() == expected
    assert BitMatrix.identity(4).determinant() == 1
    assert BitMatrix.zeros(3, 3).determinant() == 0


def test_gl2_count_by_enumeration():
    # |GL(2, F_2)| = 6 and |GL(3, F_2)| = 168
    count2 = sum(
        1
        for a in range(4)
        for b in range(4)
        if BitMatrix([a, b], 2).determinant() == 1
    )
    assert count2 == 6
    count3 = 0
    for a in range(8):
        for b in range(8):
            for c in range(8):
                if BitMatrix([a, b, c], 3).determinant() == 1:
                    count3 += 1
    assert count3 == 168


def test_inverse_round_trip():
    rng = random.Random(103)
    for _ in range(100):
        n = rng.randrange(1, 6)
        m = random_invertible(rng, n)
        inv = m.inverse()
        assert m.matmul(inv) == BitMatrix.identity(n)
        assert inv.matmul(m) == BitMatrix.identity(n)
        assert inv.inverse() == m


def test_inverse_rejects_singular():
    with pytest.raises(SingularMatrixError):
        BitMatrix([0b11, 0b11], 2).inverse()
    with pytest.raises(SingularMatrixError):
        BitMatrix([0b1], 2).inverse()  # non-square


def test_matmul_and_transpose_against_dense():
    rng = random.Random(104)
    for _ in range(100):
        a_rows, inner, b_cols = (rng.randrange(1, 5) for _ in range(3))
        a = random_matrix(rng, a_rows, inner)
        b = random_matrix(rng, inner, b_cols)
        prod = a.matmul(b)
        ad, bd = a.to_dense(), b.to_dense()
        for i in range(a_rows):
            for j in range(b_cols):
                want = sum(ad[i][k] * bd[k][j] for k in range(inner)) & 1
                assert (prod.rows[i] >> j) & 1 == want
        t = a.transpose()
        for i in range(a_rows):
            for j in range(inner):
                assert (t.rows[j] >> i) & 1 == (a.rows[i] >> j) & 1


def test_vector_products():
    rng = random.Random(105)
    for _ in range(100):
        n_rows = rng.randrange(1, 5)
        n_cols = rng.randrange(1, 5)
        m = random_matrix(rng, n_rows, n_cols)
        v = rng.randrange(1 << n_cols)
        w = rng.randrange(1 << n_rows)
        mv = m.mul_vec(v)
        for i in range(n_rows):
            assert (mv >> i) & 1 == dot(m.rows[i], v)
        assert m.premul_vec(w) == m.transpose().mul_vec(w)


@st.composite
def matrices(draw, max_dim=130):
    n_rows = draw(st.integers(0, max_dim))
    n_cols = draw(st.integers(0, max_dim))
    row = st.integers(0, (1 << n_cols) - 1)
    return BitMatrix(draw(st.lists(row, min_size=n_rows, max_size=n_rows)), n_cols)


@settings(max_examples=200, deadline=None)
@given(matrices())
@example(BitMatrix([], 0))
@example(BitMatrix([], 7))
@example(BitMatrix([0] * 5, 0))
@example(BitMatrix([(1 << 130) - 1] * 130, 130))
@example(BitMatrix([1 << (7 * i % 130) for i in range(103)], 130))
@example(BitMatrix([1 << 129, 1], 130))
def test_transpose_against_dense(m):
    t = m.transpose()
    assert (t.n_rows, t.n_cols) == (m.n_cols, m.n_rows)
    dense = m.to_dense()
    assert t.to_dense() == [[dense[i][j] for i in range(m.n_rows)] for j in range(m.n_cols)]
    assert t.transpose() == m


def test_solve_affine_matches_brute_enumeration():
    rng = random.Random(107)
    for _ in range(300):
        n_rows = rng.randrange(1, 5)
        n_cols = rng.randrange(1, 5)
        m = random_matrix(rng, n_rows, n_cols)
        b = rng.randrange(1 << n_rows)
        brute = brute_solutions(m, b)
        sol = m.solve_affine(b)
        if not brute:
            assert sol is None
        else:
            assert sol is not None
            assert set(sol.points()) == brute
            assert sol.offset == min(brute)


def test_solve_unique_and_failure_modes():
    rng = random.Random(108)
    for _ in range(50):
        n = rng.randrange(1, 6)
        m = random_invertible(rng, n)
        x = rng.randrange(1 << n)
        assert m.solve(m.mul_vec(x)) == x
    with pytest.raises(SingularMatrixError):
        BitMatrix([0b11, 0b11], 2).solve(0b01)  # inconsistent
    with pytest.raises(SingularMatrixError):
        BitMatrix([0b11, 0b11], 2).solve(0b11)  # underdetermined


def test_solve_rejects_a_right_hand_side_outside_the_rows():
    # bits of b at or above n_rows name no equation
    with pytest.raises(ValueError, match="right-hand side outside F_2\\^1"):
        BitMatrix([1], 1).solve_affine(0b10)
    with pytest.raises(ValueError, match="right-hand side outside F_2\\^2"):
        BitMatrix([0b11, 0b01], 2).solve(0b100)
    with pytest.raises(ValueError, match="right-hand side"):
        BitMatrix([0b11, 0b01], 2).solve_affine(-1)
    with pytest.raises(ValueError, match="right-hand side outside F_2\\^0"):
        BitMatrix([], 2).solve_affine(1)
    assert BitMatrix([0b11, 0b01], 2).solve(0b11) == 0b01
    assert set(BitMatrix([], 2).solve_affine(0).points()) == {0, 1, 2, 3}


def test_null_space_is_kernel_basis():
    rng = random.Random(109)
    for _ in range(200):
        n_rows = rng.randrange(1, 5)
        n_cols = rng.randrange(1, 5)
        m = random_matrix(rng, n_rows, n_cols)
        basis = m.null_space()
        for v in basis:
            assert m.mul_vec(v) == 0
        assert (1 << len(basis)) == len(brute_solutions(m, 0))
        assert span_size(basis) == 1 << len(basis)


def test_affine_subspace_canonical_form_is_representation_independent():
    rng = random.Random(110)
    for _ in range(200):
        n = rng.randrange(1, 5)
        k = rng.randrange(0, n + 1)
        vectors = [rng.randrange(1 << n) for _ in range(k)]
        offset = rng.randrange(1 << n)
        a = AffineSubspace(n, offset, vectors)
        pts = sorted(a.points())
        # same set from a different offset and a mangled spanning list
        offset2 = rng.choice(pts)
        mangled = list(vectors)
        rng.shuffle(mangled)
        if mangled:
            mangled.append(mangled[0] ^ mangled[-1])
        b = AffineSubspace(n, offset2, mangled)
        assert a == b
        assert hash(a) == hash(b)
        # canonical offset is the minimum member as an integer
        assert a.offset == pts[0]
        assert len(pts) == len(set(pts)) == 1 << len(a.basis)


def test_affine_constraints_cut_out_the_subspace():
    rng = random.Random(112)
    for _ in range(100):
        n = rng.randrange(1, 5)
        a = AffineSubspace(
            n,
            rng.randrange(1 << n),
            [rng.randrange(1 << n) for _ in range(rng.randrange(0, n + 1))],
        )
        c, d = a.constraints()
        cut = {x for x in range(1 << n) if c.mul_vec(x) == d}
        assert cut == set(a.points())


def test_complete_to_basis_properties():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randrange(1, 7)
        # build an independent prefix to extend
        prefix = []
        table = {}
        for _ in range(rng.randrange(0, n + 1)):
            v = rng.randrange(1, 1 << n)
            t2 = dict(table)
            if _insert(t2, v):
                table = t2
                prefix.append(v)
        out = complete_to_basis(prefix, n, rng)
        assert len(out) == n
        assert out[: len(prefix)] == prefix
        assert BitMatrix(out, n).rank() == n


def test_complete_to_basis_draw_metering():
    rng = CountingRng(7)
    out = complete_to_basis([], 5, rng)
    assert BitMatrix(out, 5).rank() == 5
    # one randrange call per draw, accepted or rejected, and at least n draws
    assert rng.randrange_calls >= 5
    # replaying the draws by hand gives the same basis and leaves the
    # generator in the same state, so no draw is made after the last one
    replay = random.Random(7)
    want = []
    draws = 0
    while len(want) < 5:
        v = replay.randrange(1 << 5)
        draws += 1
        if span_size(want + [v]) > span_size(want):
            want.append(v)
    assert out == want
    assert rng.randrange_calls == draws
    assert rng.random() == replay.random()


def test_complete_to_basis_rejects_dependent_input():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        complete_to_basis([0b11, 0b01, 0b10], 2, rng)
    with pytest.raises(ValueError):
        complete_to_basis([0], 3, rng)


def test_deterministic_completion():
    out = deterministic_completion([0b110], 3)
    assert out[0] == 0b110
    assert BitMatrix(out, 3).rank() == 3
    assert out == deterministic_completion([0b110], 3)
    assert deterministic_completion([], 4) == [1, 2, 4, 8]


def xor_of(vectors, mask):
    acc = 0
    for i, v in enumerate(vectors):
        if (mask >> i) & 1:
            acc ^= v
    return acc


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reduce_and_insert_carry_the_payload_exactly(data):
    n = data.draw(st.integers(1, 8))
    vec = st.integers(0, (1 << n) - 1)
    vectors = data.draw(st.lists(vec, max_size=10))
    mask = (1 << n) - 1
    table: dict = {}
    plain: dict = {}  # the same inputs without payload or n_cols
    for i, v in enumerate(vectors):
        grows = span_size(vectors[: i + 1]) > span_size(vectors[:i])
        assert _insert(table, v | (1 << (n + i)), n) == grows
        assert _insert(plain, v) == grows
    assert {p: row & mask for p, row in table.items()} == plain
    assert 1 << len(table) == span_size(vectors)
    for p, row in table.items():
        # each row sits under its leading matrix bit and is the XOR of the
        # inputs its payload names
        assert (row & mask).bit_length() - 1 == p
        assert row & mask == xor_of(vectors, row >> n)
    probe = data.draw(vec)
    r = _reduce(table, probe, n)
    assert r & mask == _reduce(plain, probe)
    assert r & mask == probe ^ xor_of(vectors, r >> n)
    in_span = span_size(vectors + [probe]) == span_size(vectors)
    assert (r & mask == 0) == in_span
    if not in_span:
        assert (r & mask).bit_length() - 1 not in table


def kernel_outputs():
    """Lines of exact reprs of every elimination result, over a seeded corpus.

    Matrices are 1-6 rows by 1-6 columns with uniform random rows, so
    singular and non-square ones are common; groups are random stabilizer
    states' groups on 1-4 qubits.
    """
    rng = random.Random(2024)
    lines = []
    for _ in range(1500):
        n_rows = rng.randrange(1, 7)
        n_cols = n_rows if rng.randrange(2) else rng.randrange(1, 7)
        m = random_matrix(rng, n_rows, n_cols)
        try:
            inv = repr(m.inverse())
        except SingularMatrixError as err:
            inv = "singular: %s" % err
        # one right-hand side at random, one in the column space
        sols = []
        for b in (rng.randrange(1 << n_rows), m.mul_vec(rng.randrange(1 << n_cols))):
            sol = m.solve_affine(b)
            sols.append(None if sol is None else (sol.offset, sol.basis))
        space = AffineSubspace(n_cols, rng.randrange(1 << n_cols), m.rows)
        lines.append(repr((m, m.rank(), inv, m.null_space(), sols, space)))
    for _ in range(150):
        group = random_stabilizer_state(rng, rng.randrange(1, 5))
        lines.append(repr(group.canonical_signature()))
    return lines


def test_kernel_outputs_are_frozen():
    # a fixed digest: any change to these outputs fails here, basis order
    # included (learn_single_measurement takes its witness from the first
    # admissible point of space.points())
    blob = "\n".join(kernel_outputs()).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "5a6b6ddc65972a9e27d51b33450dd945b08b9f45d8f4a7f7669ff09a7620de39"
    )
