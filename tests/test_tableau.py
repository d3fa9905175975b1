import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnotpac.cnot import CnotCircuit
from cnotpac.gf2 import BitMatrix, dot
from cnotpac.pauli import PauliOperator, x_power, z_power
from cnotpac.reduction import reduce_formula_to_samples
from cnotpac.samples import LABELS, Sample, SampleSet
from cnotpac.search import check_consistent
from cnotpac.stabilizer import StabilizerGroup
from cnotpac.tableau import (
    CliffordTableau,
    Gate,
    apply_circuit_to_state,
    evaluate_sample,
    is_symplectic,
    lambda_matrix,
    sample_code,
    sample_codes,
)

from formula_corpus import CORPUS
from helpers import (
    circuit_unitary,
    pauli_dense,
    random_gates,
    random_signed_pauli,
    random_stabilizer_state,
    random_tableau,
    reference_sample_code,
    state_dense,
)

N_TRIALS = 40


def random_pauli(rng, n):
    return PauliOperator(
        n, rng.randrange(1 << n), rng.randrange(1 << n), sign=rng.choice((1, -1))
    )


def test_gate_constructor_validation():
    with pytest.raises(ValueError):
        Gate("cnot", control=1, target=1)
    with pytest.raises(ValueError):
        Gate("h")
    with pytest.raises(ValueError):
        Gate("hadamard", qubit=0)
    with pytest.raises(ValueError):
        Gate("x", qubit=0, control=1, target=2)


def test_identity_tableau_columns():
    t = CliffordTableau.identity(2)
    assert t.cols[0] == x_power(2, 0b01)
    assert t.cols[1] == x_power(2, 0b10)
    assert t.cols[2] == z_power(2, 0b01)
    assert t.cols[3] == z_power(2, 0b10)
    assert t.phase_bits() == 0
    with pytest.raises(ValueError, match="need 2n generator images"):
        CliffordTableau.identity(0)


def test_single_gate_images_frozen():
    # stored entries are inverse images g† G g
    t = CliffordTableau.identity(1)
    t.apply_gate(Gate("h", qubit=0))
    assert t.cols == (z_power(1, 1), x_power(1, 1))
    t = CliffordTableau.identity(1)
    t.apply_gate(Gate("p", qubit=0))
    assert t.cols == (PauliOperator(1, 1, 1, sign=-1), z_power(1, 1))
    t = CliffordTableau.identity(1)
    t.apply_gate(Gate("x", qubit=0))
    assert t.cols == (x_power(1, 1), z_power(1, 1, sign=-1))
    t = CliffordTableau.identity(1)
    t.apply_gate(Gate("z", qubit=0))
    assert t.cols == (x_power(1, 1, sign=-1), z_power(1, 1))
    t = CliffordTableau.identity(2)
    t.apply_gate(Gate("cnot", control=0, target=1))
    assert t.cols == (
        x_power(2, 0b11),
        x_power(2, 0b10),
        z_power(2, 0b01),
        z_power(2, 0b11),
    )


def test_image_r_is_the_image_of_key_bit_r():
    # cols[r] is C† G C for the generator G whose symplectic key is 1 << r
    rng = random.Random(310)
    for n in range(1, 5):
        mask = (1 << n) - 1
        tableaus = [random_tableau(rng, n) for _ in range(10)]
        cnot = CnotCircuit.from_gates(n, random_gates(rng, n, 8, names=("cnot", "x")))
        tableaus.append(cnot.to_tableau())
        for t in tableaus:
            for r in range(2 * n):
                g = PauliOperator(n, (1 << r) & mask, (1 << r) >> n)
                assert t.cols[r] == t.conjugate_inverse(g), (n, r)


def test_conjugate_inverse_matches_dense():
    rng = random.Random(301)
    for _ in range(N_TRIALS):
        n = rng.randrange(1, 4)
        gates = random_gates(rng, n, rng.randrange(1, 12))
        t = CliffordTableau.identity(n)
        for g in gates:
            t.apply_gate(g)
        u = circuit_unitary(gates, n)
        p = random_pauli(rng, n)
        got = pauli_dense(t.conjugate_inverse(p))
        want = u.conj().T @ pauli_dense(p) @ u
        assert np.allclose(got, want)


def test_conjugate_pauli_directions_match_dense():
    rng = random.Random(302)
    for _ in range(N_TRIALS):
        n = rng.randrange(1, 4)
        gates = random_gates(rng, n, rng.randrange(1, 12))
        t = CliffordTableau.identity(n)
        for g in gates:
            t.apply_gate(g)
        u = circuit_unitary(gates, n)
        p = random_pauli(rng, n)
        inv = pauli_dense(t.conjugate_inverse(p))
        fwd = pauli_dense(t.inverse_tableau().conjugate_inverse(p))
        assert np.allclose(inv, u.conj().T @ pauli_dense(p) @ u)
        assert np.allclose(fwd, u @ pauli_dense(p) @ u.conj().T)


def test_forward_then_inverse_is_identity():
    rng = random.Random(303)
    for _ in range(N_TRIALS):
        n = rng.randrange(1, 4)
        t = CliffordTableau.identity(n)
        for g in random_gates(rng, n, 10):
            t.apply_gate(g)
        p = random_pauli(rng, n)
        assert t.conjugate_inverse(t.inverse_tableau().conjugate_inverse(p)) == p


def test_apply_circuit_to_state_matches_dense():
    rng = random.Random(305)
    for _ in range(N_TRIALS // 2):
        n = rng.randrange(1, 4)
        gates = random_gates(rng, n, rng.randrange(1, 10))
        t = CliffordTableau.identity(n)
        for g in gates:
            t.apply_gate(g)
        u = circuit_unitary(gates, n)
        state = StabilizerGroup.zero_state(n)
        out = apply_circuit_to_state(t, state)
        want = u @ state_dense(state) @ u.conj().T
        assert np.allclose(state_dense(out), want)


def test_evaluate_sample_matches_dense_trace():
    rng = random.Random(306)
    for _ in range(N_TRIALS // 2):
        n = rng.randrange(1, 4)
        gates = random_gates(rng, n, rng.randrange(1, 10))
        h = CliffordTableau.identity(n)
        for g in gates:
            h.apply_gate(g)
        u = circuit_unitary(gates, n)
        state = random_stabilizer_state(rng, n)
        p = random_pauli(rng, n)
        while p.is_identity():
            p = random_pauli(rng, n)
        label = evaluate_sample(h, Sample(state, p, Fraction(1, 2)))
        rho = u @ state_dense(state) @ u.conj().T
        eye = np.eye(rho.shape[0])
        dense = float(np.trace((eye + pauli_dense(p)) @ rho / 2).real)
        assert abs(float(label) - dense) < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 12),
    st.integers(0, 1 << 32),
    st.sampled_from(LABELS),
)
def test_sample_code_matches_dense_oracle(n, depth, seed, label):
    rng = random.Random(seed)
    gates = random_gates(rng, n, depth)
    t = CliffordTableau.identity(n)
    for g in gates:
        t.apply_gate(g)
    u = circuit_unitary(gates, n)
    state = random_stabilizer_state(rng, n)
    p = random_pauli(rng, n)
    while p.is_identity():
        p = random_pauli(rng, n)
    s = Sample(state, p, label)
    assert s.code == LABELS.index(label)
    value = evaluate_sample(t, s)
    rho = u @ state_dense(state) @ u.conj().T
    dense = float(np.trace((np.eye(rho.shape[0]) + pauli_dense(p)) @ rho / 2).real)
    assert abs(float(value) - dense) < 1e-9
    assert check_consistent(t, SampleSet(n, [s])) == (value == label)


def test_scoring_keeps_the_conjugation_checks():
    # X_0 imaged to X twice is no Clifford: C†YC = i X X comes out non-Hermitian
    bad = CliffordTableau([x_power(1, 1), x_power(1, 1)])
    y = Sample(StabilizerGroup.zero_state(1), PauliOperator(1, 1, 1), Fraction(1, 2))
    with pytest.raises(ValueError, match="not Hermitian"):
        evaluate_sample(bad, y)
    with pytest.raises(ValueError, match="not Hermitian"):
        check_consistent(bad, SampleSet(1, [y]))
    # X_0 and X_1 share an image, so C†(X_0 X_1)C is the identity
    t = CliffordTableau([x_power(2, 1), x_power(2, 1), z_power(2, 1), z_power(2, 2)])
    xx = Sample(StabilizerGroup.zero_state(2), x_power(2, 0b11), Fraction(1, 2))
    with pytest.raises(ValueError, match="identity is not a useful measurement"):
        evaluate_sample(t, xx)
    with pytest.raises(ValueError, match="identity is not a useful measurement"):
        check_consistent(t, SampleSet(2, [xx]))
    other = Sample(StabilizerGroup.zero_state(3), z_power(3, 1), Fraction(1))
    with pytest.raises(ValueError, match="qubit count mismatch"):
        evaluate_sample(CliffordTableau.identity(2), other)
    with pytest.raises(ValueError):
        check_consistent(CliffordTableau.identity(2), SampleSet(3, [other]))


def _scoring_tableaus(rng, n):
    """The identity, a random X/CNOT circuit's tableau and a random Clifford."""
    yield CliffordTableau.identity(n)
    yield CnotCircuit.from_gates(n, random_gates(rng, n, 3 * n, names=("x", "cnot"))).to_tableau()
    yield random_tableau(rng, n, 2 * n * n)


def _reference_codes(t, samples):
    return [reference_sample_code(t, s) for s in samples]


def _shared_tuples(samples) -> int:
    """How many samples name a state key tuple that an earlier one named."""
    return len(samples) - len({id(s.state.keys) for s in samples})


def test_sample_codes_match_the_per_sample_fold_on_reduce_outputs():
    rng = random.Random(3301)
    sets = [reduce_formula_to_samples(f, rng, num_vars=k)[0] for _, f, k in CORPUS]
    sets = [ss for ss in sets if ss.n <= 12]
    assert max(ss.n for ss in sets) == 11
    seen = set()
    for ss in sets:
        # flipped states share their sample's key tuple; labels change at random
        mutated = [
            Sample(s.state.flip(rng.randrange(1 << ss.n)), s.measurement, rng.choice(LABELS))
            if rng.random() < 0.3
            else s
            for s in ss
        ]
        assert _shared_tuples(mutated) == _shared_tuples(ss.samples) > 0
        for samples in (ss.samples, mutated):
            for t in _scoring_tableaus(rng, ss.n):
                codes = list(sample_codes(t, samples))
                assert codes == _reference_codes(t, samples)
                seen.update(codes)
    assert seen == {0, 1, 2}


def _generic_set(rng, n, count):
    """Samples on generic states, some flipped copies of earlier states,
    labelled by a hidden Clifford tableau: (samples, hidden)."""
    hidden = random_tableau(rng, n)
    states, samples = [], []
    for _ in range(count):
        if states and rng.random() < 0.5:
            state = rng.choice(states).flip(rng.randrange(1 << n))
        else:
            state = random_stabilizer_state(rng, n)
        states.append(state)
        p = random_signed_pauli(n, rng)
        samples.append(Sample(state, p, state.expectation(hidden.conjugate_inverse(p))))
    return samples, hidden


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 1 << 32))
def test_sample_codes_match_the_per_sample_fold_on_generic_sets(n, seed):
    rng = random.Random(seed)
    samples, hidden = _generic_set(rng, n, 4 * n)
    assert list(sample_codes(hidden, samples)) == [s.code for s in samples]
    # the same sets rebuilt through the public constructors: equal states
    # and measurements, but every state with its own key tuple
    rebuilt = [Sample(StabilizerGroup(s.state.generators), s.measurement, s.label) for s in samples]
    assert rebuilt == samples and _shared_tuples(rebuilt) == 0
    for t in [hidden, *_scoring_tableaus(rng, n)]:
        codes = _reference_codes(t, samples)
        assert list(sample_codes(t, samples)) == codes
        assert list(sample_codes(t, rebuilt)) == codes
        assert [sample_code(t, s) for s in samples] == codes


def test_sample_codes_hold_samples_an_iterator_drops():
    # each sample is built on the fly and dropped once its code is out, so
    # the id of its key tuple is free for the next sample's tuple: the memo
    # must keep every tuple it keys on alive.  Z-type states give +Z_0 the
    # codes 2 and 0, X-type states code 1, so a stale hit changes a code.
    n = 4
    z_keys, x_keys = [1 << n + i for i in range(n)], [1 << i for i in range(n)]
    kinds = [(z_keys, 0, Fraction(1)), (x_keys, 0, Fraction(1, 2)), (z_keys, 1, Fraction(0))]
    specs = [kinds[k % 3] for k in range(60)] + [kinds[k % 2] for k in range(60)]
    z0 = z_power(n, 1)

    def fresh():
        # tuple(list) takes a freed tuple of the same size when there is one
        for keys, signs, label in specs:
            yield Sample(StabilizerGroup._from_keys(n, tuple(keys), signs), z0, label)

    ids = [id(s.state.keys) for s in fresh()]
    assert len(set(ids)) < len(ids) / 4
    t = CliffordTableau.identity(n)
    assert list(sample_codes(t, fresh())) == [LABELS.index(label) for *_, label in specs]


def _walk(codes):
    """(codes up to the first error, that error's message or None)."""
    out = []
    try:
        for code in codes:
            out.append(code)
    except ValueError as err:
        return out, str(err)
    return out, None


def test_sample_codes_raise_where_the_per_sample_fold_raises():
    rng = random.Random(3304)
    messages = set()
    late = 0
    for trial in range(120):
        n = rng.randrange(2, 5)
        t = random_tableau(rng, n, 2 * n * n)
        # a duplicated image makes the tableau invalid: the pair folds to
        # the identity, and the images it no longer anticommutes with to a
        # non-Hermitian product
        a, b = rng.sample(range(2 * n), 2)
        t.keys[a] = t.keys[b]
        state = random_stabilizer_state(rng, n)
        samples = [
            Sample(state.flip(rng.randrange(1 << n)), random_signed_pauli(n, rng), Fraction(1, 2))
            for _ in range(6)
        ]
        k = rng.randrange(len(samples) + 1)
        if trial % 3 == 0:
            pair = PauliOperator(n, (1 << a | 1 << b) & (1 << n) - 1, (1 << a | 1 << b) >> n)
            samples.insert(k, Sample(state, pair, Fraction(1)))
        elif trial % 3 == 1:
            other = StabilizerGroup.zero_state(n + 1)
            samples.insert(k, Sample(other, z_power(n + 1, 1), Fraction(1)))
        want = _walk(reference_sample_code(t, s) for s in samples)
        assert _walk(sample_codes(t, samples)) == want
        if want[1] is not None:
            messages.add(want[1].split(" with ")[0])
            late += len(want[0]) > 0
    assert messages >= {
        "qubit count mismatch",
        "identity is not a useful measurement",
    } and any(m.startswith("phase i^") for m in messages)
    assert late >= 20


def symplectic_oracle(s, n):
    """Check the form on all basis pairs: w(Sv, Sw) == w(v, w)."""
    lam = lambda_matrix(n)

    def form(a, b):
        return dot(a, lam.mul_vec(b))

    cols = s.transpose().rows
    for i in range(2 * n):
        for j in range(2 * n):
            want = form(1 << i, 1 << j)
            if form(cols[i], cols[j]) != want:
                return False
    return True


def test_is_symplectic_matches_pairwise_oracle():
    rng = random.Random(307)
    for _ in range(60):
        n = rng.randrange(1, 4)
        m = BitMatrix([rng.randrange(1 << (2 * n)) for _ in range(2 * n)], 2 * n)
        assert is_symplectic(m, n) == symplectic_oracle(m, n)
    # every valid tableau's s-matrix is symplectic
    for seed in range(10):
        rng = random.Random(400 + seed)
        n = rng.randrange(1, 4)
        t = CliffordTableau.identity(n)
        for g in random_gates(rng, n, 15):
            t.apply_gate(g)
        assert is_symplectic(t.s_matrix(), n)
    # shape mismatch is simply not symplectic
    assert not is_symplectic(BitMatrix.identity(3), 1)


def test_lambda_matrix_frozen():
    lam = lambda_matrix(2)
    assert lam.to_dense() == [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]


def test_s_matrix_layout():
    t = CliffordTableau.identity(2)
    t.apply_gate(Gate("h", qubit=1))
    s = t.s_matrix()
    # row 2i holds x_i of every image, row 2i+1 holds z_i
    assert (s.rows[0] >> 0) & 1 == 1  # X_0 image has x_0
    assert (s.rows[2] >> 3) & 1 == 1  # Z_1 image is X_1 after H
    assert (s.rows[3] >> 2) & 1 == 1  # X_1 image is Z_1 after H


@pytest.mark.parametrize("n", range(1, 13))
def test_s_matrix_and_phase_bits_entrywise(n):
    # interleaved column 2j is the image of X_j and 2j + 1 that of Z_j;
    # row 2i holds bit i of each image's x, row 2i + 1 bit i of its z
    rng = random.Random(600 + n)
    for _ in range(3):
        t = random_tableau(rng, n)
        s, phases = t.s_matrix(), t.phase_bits()
        assert (s.n_rows, s.n_cols) == (2 * n, 2 * n)
        for j in range(n):
            for c, image in ((2 * j, t.cols[j]), (2 * j + 1, t.cols[n + j])):
                assert phases >> c & 1 == image.sign_bit
                for i in range(n):
                    assert s.rows[2 * i] >> c & 1 == image.x >> i & 1
                    assert s.rows[2 * i + 1] >> c & 1 == image.z >> i & 1


def test_from_s_matrix_inverts_s_matrix_and_phase_bits():
    rng = random.Random(95)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            t = random_tableau(rng, n)
            back = CliffordTableau.from_s_matrix(t.s_matrix(), t.phase_bits())
            assert back == t
            assert CliffordTableau.from_s_matrix(t.s_matrix()).phase_bits() == 0
    with pytest.raises(ValueError):
        CliffordTableau.from_s_matrix(BitMatrix.identity(3))
    with pytest.raises(ValueError):
        CliffordTableau.from_s_matrix(BitMatrix([], 0))
    for phases in (0b100, -1):
        with pytest.raises(ValueError, match="^phase mask outside 2 generator images$"):
            CliffordTableau.from_s_matrix(BitMatrix.identity(2), phases)


def _forward_transcript():
    """Reprs of inverse_tableau(), its own inverse and apply_circuit_to_state
    for seeded random tableaus at n = 1..6, then the inverse or the error
    (type and message) for seeded random image lists."""
    rng = random.Random(1807)
    lines = []
    for n in range(1, 7):
        for _ in range(40):
            t = random_tableau(rng, n)
            inv = t.inverse_tableau()
            state = random_stabilizer_state(rng, n)
            lines.append(repr(inv))
            lines.append(repr(inv.inverse_tableau()))
            lines.append(repr(list(apply_circuit_to_state(t, state).generators)))
        for _ in range(100):
            t = CliffordTableau([random_pauli(rng, n) for _ in range(2 * n)])
            try:
                lines.append(repr(t.inverse_tableau()))
            except ValueError as exc:
                lines.append("%s: %s" % (type(exc).__name__, exc))
    return "\n".join(lines)


# sha256 of _forward_transcript(), recorded again when inverse_tableau
# started checking the images' pairwise commutation: against the earlier
# digest 27bd12e7...629e, which was written while inverse_tableau still
# inverted the interleaved symplectic matrix, exactly the five random image
# lists that were accepted but not symplectic changed, each from a tableau
# to "ValueError: tableau is not a valid Clifford image"
FORWARD_SHA256 = "08f0090a7d467201fb12f90853b193f57536d61a5e1220e401a130beb0567ec7"


def test_forward_images_are_frozen():
    digest = hashlib.sha256(_forward_transcript().encode()).hexdigest()
    assert digest == FORWARD_SHA256


def test_inverse_tableau_rejects_images_that_break_commutation():
    # key order -IZ, -IX, +XY, +ZZ: independent and Hermitian under
    # back-conjugation, but the X_0 and X_1 images anticommute
    t = CliffordTableau(
        [
            PauliOperator(2, 0, 0b10, sign=-1),
            PauliOperator(2, 0b10, 0, sign=-1),
            PauliOperator(2, 0b11, 0b10),
            PauliOperator(2, 0, 0b11),
        ]
    )
    assert repr(t.cols) == "(-IZ, -IX, +XY, +ZZ)"
    assert not is_symplectic(t.s_matrix(), 2)
    with pytest.raises(ValueError, match="tableau is not a valid Clifford image"):
        t.inverse_tableau()
    with pytest.raises(ValueError, match="tableau is not a valid Clifford image"):
        apply_circuit_to_state(t, StabilizerGroup.zero_state(2))


def test_inverse_tableau_accepts_exactly_the_symplectic_image_lists():
    rng = random.Random(1809)
    accepted = 0
    for i in range(400):
        n = 1 + i % 4
        t = CliffordTableau([random_pauli(rng, n) for _ in range(2 * n)])
        try:
            t.inverse_tableau()
        except ValueError:
            assert not is_symplectic(t.s_matrix(), n)
        else:
            accepted += 1
            assert is_symplectic(t.s_matrix(), n)
    assert accepted > 20


def test_inverse_tableau_follows_edits_to_cols():
    t = CliffordTableau.identity(2)
    t.apply_gate(Gate("h", qubit=0))
    assert t.inverse_tableau() == t
    with pytest.raises(TypeError):
        t.cols[0] = t.cols[2]
    # swapping the X_0 and Z_0 image keys by hand undoes the H
    t.keys[0], t.keys[2] = t.keys[2], t.keys[0]
    assert t == CliffordTableau.identity(2)
    assert t.inverse_tableau() == CliffordTableau(t.cols).inverse_tableau()
    assert t.inverse_tableau() == CliffordTableau.identity(2)
    # negating the Z_1 image by hand is an X on qubit 1
    t.signs ^= 1 << 3
    x1 = CliffordTableau.identity(2)
    x1.apply_gate(Gate("x", qubit=1))
    assert t == x1 and t.inverse_tableau() == x1
    rng = random.Random(1808)
    for n in (1, 2, 3, 4):
        t = random_tableau(rng, n)
        t.inverse_tableau()
        other = random_tableau(rng, n)
        t.keys[:] = other.keys
        t.signs = other.signs
        assert t.inverse_tableau() == CliffordTableau(t.cols).inverse_tableau()
