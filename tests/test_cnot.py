import hashlib
import itertools
import random

import numpy as np
import pytest

from cnotpac.cnot import CnotCircuit, synthesize_cnot_from_theta
from cnotpac.gf2 import BitMatrix, SingularMatrixError, dot
from cnotpac.pauli import z_power
from cnotpac.search import _check_cnot_shape
from cnotpac.serialization import circuit_to_json, dumps
from cnotpac.tableau import CliffordTableau, Gate

from helpers import (
    basis_index,
    circuit_unitary,
    invertible_matrices,
    is_symplectic,
    pauli_dense,
    random_gates,
)


def random_cnot_gates(rng, n, count):
    return random_gates(rng, n, count, names=("x", "cnot"))


def all_gl(n):
    for rows in _gl_rows(n, []):
        yield BitMatrix(rows, n)


def _gl_rows(n, prefix):
    if len(prefix) == n:
        yield list(prefix)
        return
    for r in range(1, 1 << n):
        cand = prefix + [r]
        if BitMatrix(cand, n).rank() == len(cand):
            yield from _gl_rows(n, cand)


def test_identity_and_gate_updates_frozen():
    c = CnotCircuit.identity(2)
    c.append(Gate("cnot", control=0, target=1))
    assert c.theta.rows == [0b11, 0b10]  # row form [[1,1],[0,1]]
    assert c.q == 0
    c2 = CnotCircuit.identity(2)
    c2.append(Gate("x", qubit=0))
    c2.append(Gate("cnot", control=0, target=1))
    assert c2.q == 0b11  # the X phase propagates through the cnot
    assert c2.theta.rows == [0b11, 0b10]


def test_rejects_singular_theta_and_foreign_gates():
    with pytest.raises(SingularMatrixError):
        CnotCircuit(BitMatrix([0b11, 0b11], 2))
    c = CnotCircuit.identity(2)
    with pytest.raises(ValueError):
        c.append(Gate("h", qubit=0))
    with pytest.raises(ValueError):
        c.append(Gate("p", qubit=0))


def column_replay(n, gates):
    """(theta, q) of an X/CNOT gate list, each CNOT(a->b) XORing column a
    of theta into column b one entry at a time."""
    entries = [[int(i == j) for j in range(n)] for i in range(n)]
    q = 0
    for g in gates:
        if g.name == "x":
            q ^= 1 << g.qubit
        else:
            a, b = g.control, g.target
            for row in entries:
                row[b] ^= row[a]
            q ^= ((q >> a) & 1) << b
    return BitMatrix([sum(bit << j for j, bit in enumerate(row)) for row in entries], n), q


def test_from_gates_matches_a_column_replay():
    rng = random.Random(504)
    for n in range(1, 13):
        for count in (0, 1, n, n * n, 3 * n * n):
            gates = random_cnot_gates(rng, n, count)
            theta, q = column_replay(n, gates)
            c = CnotCircuit.from_gates(n, gates)
            assert (c.theta, c.q) == (theta, q)
            one_by_one = CnotCircuit.identity(n)
            for g in gates:
                one_by_one.append(g)
            assert one_by_one == c


def test_from_gates_refuses_foreign_and_outside_gates():
    with pytest.raises(ValueError, match="^gate acts outside 3 qubits$"):
        CnotCircuit.from_gates(3, [Gate("x", qubit=0), Gate("cnot", control=1, target=3)])
    with pytest.raises(ValueError, match="^gate acts outside 2 qubits$"):
        CnotCircuit.from_gates(2, [Gate("x", qubit=2)])
    with pytest.raises(ValueError, match="^CNOT circuits admit only x and cnot gates$"):
        CnotCircuit.from_gates(2, [Gate("cnot", control=0, target=1), Gate("h", qubit=0)])
    # a refused append leaves the circuit as it was
    c = CnotCircuit.from_gates(2, [Gate("cnot", control=0, target=1), Gate("x", qubit=0)])
    before = (list(c.theta.rows), c.q)
    for g in (Gate("h", qubit=1), Gate("cnot", control=0, target=2)):
        with pytest.raises(ValueError):
            c.append(g)
        assert (c.theta.rows, c.q) == before


def test_conjugate_z_matches_tableau_and_dense():
    rng = random.Random(501)
    for _ in range(40):
        n = rng.randrange(1, 4)
        gates = random_cnot_gates(rng, n, rng.randrange(1, 10))
        c = CnotCircuit.from_gates(n, gates)
        t = c.to_tableau()
        u = circuit_unitary(gates, n)
        for _ in range(5):
            v = rng.randrange(1, 1 << n)
            sign_bit, support = dot(c.q, v), c.theta.mul_vec(v)
            via_tableau = t.conjugate_inverse(z_power(n, v))
            assert via_tableau == z_power(n, support, sign=-1 if sign_bit else 1)
            dense = u.conj().T @ pauli_dense(z_power(n, v)) @ u
            assert np.allclose(dense, pauli_dense(via_tableau))


def test_basis_image_matches_dense_action():
    rng = random.Random(502)
    for _ in range(40):
        n = rng.randrange(1, 4)
        gates = random_cnot_gates(rng, n, rng.randrange(1, 10))
        c = CnotCircuit.from_gates(n, gates)
        u = circuit_unitary(gates, n)
        for v in range(1 << n):
            out = c.theta.premul_vec(v) ^ c.q
            vec = np.zeros(1 << n)
            vec[basis_index(v, n)] = 1
            image = u @ vec
            assert abs(image[basis_index(out, n)]) > 0.99


def test_tableau_blocks_of_a_cnot_circuit():
    rng = random.Random(503)
    for _ in range(30):
        n = rng.randrange(1, 4)
        c = CnotCircuit.from_gates(n, random_cnot_gates(rng, n, 8))
        t = c.to_tableau()
        assert is_symplectic(t.s_matrix(), n)
        inv_t = c.theta.inverse().transpose()
        for j in range(n):
            x_img = t.cols[j]
            z_img = t.cols[n + j]
            assert x_img.z == 0 and x_img.sign == 1  # B = 0, p = 0
            assert x_img.x == inv_t.mul_vec(1 << j)  # A = theta^{-T}
            assert z_img.x == 0
            assert z_img.x == 0 and z_img.z == c.theta.mul_vec(1 << j)
            assert z_img.sign_bit == (c.q >> j) & 1


def test_to_tableau_matches_gate_replay_on_every_pair_of_gl3():
    count = 0
    for theta in all_gl(3):
        for q in range(8):
            t = CnotCircuit(BitMatrix(theta.rows, theta.n_cols), q).to_tableau()
            replay = CliffordTableau.identity(3)
            for g in synthesize_cnot_from_theta(theta, q):
                replay.apply_gate(g)
            assert t == replay
            _check_cnot_shape(t)
            count += 1
    assert count == 168 * 8


# sha256 over dumps(circuit_to_json(c)) of the circuits below, recorded
# before to_tableau read both image blocks off one echelon table
TO_TABLEAU_N4_8_SHA256 = (
    "8b305b026170f7131741b9806459f2100d0ab1d8d6dd24869778ecd5c1383c68"
)


def test_to_tableau_matches_gate_replay_at_n4_to_8():
    rng = random.Random(516)
    digest = hashlib.sha256()
    for n in range(4, 9):
        for _ in range(12):
            theta = BitMatrix([rng.randrange(1 << n) for _ in range(n)], n)
            while not theta.is_invertible():
                theta = BitMatrix([rng.randrange(1 << n) for _ in range(n)], n)
            q = rng.randrange(1 << n)
            c = CnotCircuit(BitMatrix(theta.rows, theta.n_cols), q)
            t = c.to_tableau()
            replay = CliffordTableau.identity(n)
            for g in synthesize_cnot_from_theta(theta, q):
                replay.apply_gate(g)
            assert t == replay
            _check_cnot_shape(t)
            digest.update(dumps(circuit_to_json(c)).encode())
    assert digest.hexdigest() == TO_TABLEAU_N4_8_SHA256


def test_to_tableau_raises_on_singular_theta():
    # the reference scan relies on this: a singular theta never scores
    for n in (1, 2, 3):
        invertible = {tuple(m.rows) for m in invertible_matrices(n)}
        singular = [rows for rows in itertools.product(range(1 << n), repeat=n)
                    if rows not in invertible]
        for rows in singular:
            for q in range(1 << n):
                with pytest.raises(SingularMatrixError):
                    CnotCircuit._unchecked(BitMatrix(list(rows), n), q).to_tableau()
    assert len(singular) == 512 - 168
    rng = random.Random(517)
    for n in (4, 5, 6):
        for _ in range(40):
            rows = [rng.randrange(1 << n) for _ in range(n)]
            k = rng.randrange(n)
            # row k becomes the sum of a random subset of the other rows
            rows[k] = 0
            for i in range(n):
                if i != k and rng.randrange(2):
                    rows[k] ^= rows[i]
            with pytest.raises(SingularMatrixError):
                CnotCircuit._unchecked(BitMatrix(rows, n), rng.randrange(1 << n)).to_tableau()


def test_synthesis_round_trips_all_gl2_with_phases():
    for theta in all_gl(2):
        for q in range(4):
            gates = synthesize_cnot_from_theta(theta, q)
            assert len(gates) <= 2 * 2 + 2
            rebuilt = CnotCircuit.from_gates(2, gates)
            assert rebuilt == CnotCircuit(theta, q)


def test_synthesis_frozen_example():
    theta = BitMatrix([0b01, 0b11], 2)  # [[1,0],[1,1]] in row form
    gates = synthesize_cnot_from_theta(theta, 0)
    assert gates == [Gate("cnot", control=1, target=0)]


def test_synthesis_rejects_singular():
    with pytest.raises(SingularMatrixError):
        synthesize_cnot_from_theta(BitMatrix([0b01, 0b01], 2), 0)


def test_gates_method_round_trip():
    rng = random.Random(505)
    for _ in range(20):
        n = rng.randrange(1, 5)
        c = CnotCircuit.from_gates(n, random_cnot_gates(rng, n, 10))
        assert CnotCircuit.from_gates(n, c.gates()) == c


def test_gl_oracle_matches_the_product_and_rank_definition():
    for n in (1, 2, 3):
        old = [
            list(rows)
            for rows in itertools.product(range(1 << n), repeat=n)
            if BitMatrix(list(rows), n).is_invertible()
        ]
        assert [m.rows for m in invertible_matrices(n)] == old
    # |GL(4, 2)| = (16 - 1)(16 - 2)(16 - 4)(16 - 8)
    gl4 = [m.rows for m in invertible_matrices(4)]
    assert len(gl4) == 20160 == len(set(map(tuple, gl4)))
    assert gl4 == sorted(gl4)
