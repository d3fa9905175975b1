"""Dense numpy oracles and small builders shared by the test modules."""

import math

import numpy as np

from cnotpac.cnot import CnotCircuit
from cnotpac.gf2 import BitMatrix, _echelon
from cnotpac.pauli import PauliOperator, _fold, _raw_sign_bit
from cnotpac.serialization import _pauli_fields, word_to_hex
from cnotpac.stabilizer import StabilizerGroup
from cnotpac.tableau import CliffordTableau, Gate, apply_circuit_to_state

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_P = np.array([[1, 0], [0, 1j]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SINGLE = {"h": _H, "p": _P, "x": _X, "z": _Z}
# Pauli factors keyed by (x bit, z bit); a Y carries its own i
_PAULI = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): _X,
    (0, 1): _Z,
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def basis_index(t, n):
    """Dense index of |t>; qubit 0 is the most significant index bit."""
    return sum(((t >> i) & 1) << (n - 1 - i) for i in range(n))


def pauli_dense(p):
    """Dense 2^n x 2^n matrix of a PauliOperator; qubit 0 is the most
    significant index bit."""
    acc = np.array([[1]], dtype=complex)
    for i in range(p.n):
        acc = np.kron(acc, _PAULI[((p.x >> i) & 1, (p.z >> i) & 1)])
    return p.sign * acc


def state_dense(state):
    """Density matrix 2^{-n} sum of the group elements (n <= 10)."""
    n = state.n
    if n > 10:
        raise ValueError("dense form limited to 10 qubits")
    acc = np.zeros((1 << n, 1 << n), dtype=complex)
    for g in members(state):
        acc += pauli_dense(g)
    return acc / (1 << n)


def dense_expectation(state, p):
    """tr[(I + P)/2 rho] computed with dense matrices (n <= 10)."""
    rho = state_dense(state)
    eye = np.eye(rho.shape[0], dtype=complex)
    return float(np.trace((eye + pauli_dense(p)) @ rho / 2).real)


def gate_unitary(g, n):
    if g.name in _SINGLE:
        acc = np.array([[1]], dtype=complex)
        for i in range(n):
            acc = np.kron(acc, _SINGLE[g.name] if i == g.qubit else np.eye(2))
        return acc
    # cnot: permutation |v> -> |v xor v_control * e_target>
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=complex)
    for v in range(dim):
        out = v ^ (((v >> g.control) & 1) << g.target)
        u[basis_index(out, n), basis_index(v, n)] = 1
    return u


def circuit_unitary(gates, n):
    """Unitary of a gate list; later gates act later (left-multiply)."""
    u = np.eye(1 << n, dtype=complex)
    for g in gates:
        u = gate_unitary(g, n) @ u
    return u


def random_gates(rng, n, count, names=("h", "p", "cnot", "x", "z")):
    gates = []
    for _ in range(count):
        name = rng.choice(names)
        if name == "cnot" and n >= 2:
            a = rng.randrange(n)
            b = rng.randrange(n - 1)
            if b >= a:
                b += 1
            gates.append(Gate("cnot", control=a, target=b))
        elif name != "cnot":
            gates.append(Gate(name, qubit=rng.randrange(n)))
    return gates


def random_tableau(rng, n, count=None):
    t = CliffordTableau.identity(n)
    for g in random_gates(rng, n, count if count is not None else 4 * n * n):
        t.apply_gate(g)
    return t


def random_signed_pauli(n, rng):
    """Uniformly random nonidentity Pauli with a uniform sign."""
    v = rng.randrange(1, 1 << (2 * n))
    x = v & ((1 << n) - 1)
    z = v >> n
    return PauliOperator(n, x, z, sign=-1 if rng.randrange(2) else 1)


def random_stabilizer_state(rng, n):
    return apply_circuit_to_state(random_tableau(rng, n), StabilizerGroup.zero_state(n))


def reference_sample_code(t, sample):
    """Label code of one sample, folded on its own: the measurement over
    the tableau's images, then the image looked up in the state's group.
    This is the per-sample loop that tableau.sample_codes groups, with
    the same checks in the same order."""
    if sample.state.n != t.n:
        raise ValueError("qubit count mismatch")
    e, key = _fold(t.n, t.keys, t.signs, sample.key, sample.phase)
    _raw_sign_bit(t.n, e, key)
    if not key:
        raise ValueError("identity is not a useful measurement")
    return sample.state.expectation_code(e, key)


def invertible_matrices(n):
    """All of GL(n, F_2), as BitMatrix values (use only for n <= 4).

    Rows are chosen one at a time, skipping any row in the span of the
    rows before it; the span is a plain set, so this oracle uses nothing
    from gf2.  Matrices come in the lexicographic order of their row
    tuples, as itertools.product(range(1 << n), repeat=n) would list them.
    """

    def extend(rows, span):
        if len(rows) == n:
            yield BitMatrix(rows, n)
            return
        for r in range(1 << n):
            if r not in span:
                yield from extend(rows + [r], span | {v ^ r for v in span})

    yield from extend([], {0})


def all_cnot_circuits(n):
    for theta in invertible_matrices(n):
        for q in range(1 << n):
            yield CnotCircuit(BitMatrix(theta.rows, theta.n_cols), q)


def x_power(n, v, sign=1):
    """X^v = product of X_i over the set bits of v."""
    return PauliOperator(n, v, 0, sign=sign)


def members(group):
    """All 2^n elements of a stabilizer group (small n only)."""
    return [group.element(mask) for mask in range(1 << group.n)]


def pauli_to_json(p):
    """A Pauli as a sample set's 'paulis' entry."""
    return {"n": p.n, "sign": p.sign, "x": word_to_hex(p.x, p.n), "z": word_to_hex(p.z, p.n)}


def pauli_from_json(obj):
    """The Pauli of a 'paulis' entry, validated as the sample-set reader does."""
    n, key, sign_bit = _pauli_fields(obj)
    return PauliOperator(n, key & (1 << n) - 1, key >> n, sign=-1 if sign_bit else 1)


def dense_rows(m):
    """A BitMatrix as a list of rows of 0/1 entries."""
    return [[(r >> j) & 1 for j in range(m.n_cols)] for r in m.rows]


def lambda_matrix(n):
    """The symplectic form: interleaved 2x2 off-diagonal blocks."""
    rows = []
    for i in range(n):
        rows.append(1 << (2 * i + 1))
        rows.append(1 << (2 * i))
    return BitMatrix(rows, 2 * n)


def is_symplectic(s, n):
    """Whether S^T Lambda S = Lambda over F_2, by two matrix products; a
    matrix that is not 2n x 2n is not symplectic."""
    if s.n_rows != 2 * n or s.n_cols != 2 * n:
        return False
    lam = lambda_matrix(n)
    return s.transpose() @ lam @ s == lam


def null_space(m):
    """Basis of the kernel {x : M x = 0}, one vector per free column,
    highest first, as solve_affine finds it."""
    return m._null_basis(_echelon(m.rows, m.n_cols))


def affine_constraints(a):
    """A linear system (C, d) with the AffineSubspace a == {x : C x = d}."""
    c = BitMatrix(null_space(BitMatrix(a.basis, a.n)), a.n)
    return c, c.mul_vec(a.offset)
