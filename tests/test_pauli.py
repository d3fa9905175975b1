import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnotpac.pauli import (
    PauliOperator,
    _anticommutation_rows,
    _fold,
    _raw_mul,
    _raw_sign_bit,
    z_power,
)

from helpers import members, pauli_dense, random_stabilizer_state, x_power


def random_pauli(rng, n):
    return PauliOperator(
        n, rng.randrange(1 << n), rng.randrange(1 << n), sign=rng.choice((1, -1))
    )


def test_single_qubit_dense_matrices():
    x = pauli_dense(PauliOperator(1, 1, 0))
    z = pauli_dense(PauliOperator(1, 0, 1))
    y = pauli_dense(PauliOperator(1, 1, 1))
    assert np.array_equal(x, np.array([[0, 1], [1, 0]]))
    assert np.array_equal(z, np.array([[1, 0], [0, -1]]))
    assert np.array_equal(y, np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(pauli_dense(-PauliOperator(1, 0, 1)), -z)


def test_qubit_zero_is_most_significant():
    # Z on qubit 0 of two qubits: diag(1, 1, -1, -1)
    p = z_power(2, 0b01)
    assert np.array_equal(np.diag(pauli_dense(p)), np.array([1, 1, -1, -1]))
    # Z on qubit 1: diag(1, -1, 1, -1)
    q = z_power(2, 0b10)
    assert np.array_equal(np.diag(pauli_dense(q)), np.array([1, -1, 1, -1]))


def test_every_stored_pauli_is_hermitian():
    rng = random.Random(201)
    for _ in range(100):
        n = rng.randrange(1, 4)
        d = pauli_dense(random_pauli(rng, n))
        assert np.allclose(d, d.conj().T)


def test_mul_matches_dense_product_for_commuting_pairs():
    rng = random.Random(202)
    checked = 0
    while checked < 120:
        n = rng.randrange(1, 4)
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        if not a.commutes(b):
            continue
        prod = a.mul(b)
        assert np.allclose(pauli_dense(prod), pauli_dense(a) @ pauli_dense(b))
        checked += 1


def test_mul_rejects_anticommuting_pairs():
    x = x_power(1, 1)
    z = z_power(1, 1)
    assert not x.commutes(z)
    with pytest.raises(ValueError):
        x.mul(z)


def test_commutes_matches_dense_commutator():
    rng = random.Random(203)
    for _ in range(150):
        n = rng.randrange(1, 4)
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        ad, bd = pauli_dense(a), pauli_dense(b)
        dense_commutes = np.allclose(ad @ bd, bd @ ad)
        assert a.commutes(b) == dense_commutes


def test_from_raw_phase_bookkeeping():
    # i * X * Z = Y; the key of X Z on one qubit is 1 | 1 << 1
    y = PauliOperator.from_raw(1, 1, 0b11)
    assert y == PauliOperator(1, 1, 1, sign=1)
    # i^3 X Z = -Y
    assert PauliOperator.from_raw(1, 3, 0b11) == PauliOperator(1, 1, 1, sign=-1)
    with pytest.raises(ValueError):
        PauliOperator.from_raw(1, 0, 0b11)  # X Z alone is anti-Hermitian


def test_raw_round_trip():
    rng = random.Random(204)
    for _ in range(100):
        p = random_pauli(rng, 3)
        e, key = p.raw()
        assert key == p.key()
        assert PauliOperator.from_raw(3, e, key) == p


def test_raw_round_trip_covers_every_key_and_sign():
    for n in (1, 2, 3):
        full = (1 << n) - 1
        for key in range(1 << 2 * n):
            for sign in (1, -1):
                p = PauliOperator(n, key & full, key >> n, sign=sign)
                e, k = p.raw()
                assert k == key
                assert PauliOperator.from_raw(n, e, k) == p


def test_power_constructors_and_key():
    p = z_power(3, 0b101)
    assert (p.x, p.z, p.sign) == (0, 0b101, 1)
    q = x_power(3, 0b011, sign=-1)
    assert (q.x, q.z, q.sign) == (0b011, 0, -1)
    assert p.key() == 0b101 << 3
    assert q.key() == 0b011
    assert PauliOperator(3, 0, 0).is_identity()


def test_z_products_compose_supports():
    rng = random.Random(206)
    for _ in range(50):
        n = rng.randrange(1, 5)
        v, w = rng.randrange(1 << n), rng.randrange(1 << n)
        assert z_power(n, v).mul(z_power(n, w)) == z_power(n, v ^ w)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fold_is_the_ordered_raw_product_of_its_signed_factors(data):
    n = data.draw(st.integers(1, 6))
    count = data.draw(st.integers(0, 8))
    commuting = data.draw(st.booleans())
    if commuting:
        # members of one stabilizer group: every pair commutes
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        member_keys = [p.key() for p in members(random_stabilizer_state(rng, n))]
        keys = data.draw(st.lists(st.sampled_from(member_keys), min_size=count, max_size=count))
    else:
        keys = data.draw(st.lists(st.integers(0, (1 << 2 * n) - 1), min_size=count, max_size=count))
    signs = data.draw(st.integers(0, (1 << count) - 1))
    mask = data.draw(st.integers(0, (1 << count) - 1))
    e = data.draw(st.integers(0, 3))
    full = (1 << n) - 1
    expected = (e, 0)
    for k, key in enumerate(keys):
        if mask >> k & 1:
            factor = PauliOperator(n, key & full, key >> n, sign=-1 if signs >> k & 1 else 1)
            expected = _raw_mul(n, expected, factor.raw())
    assert _fold(n, keys, signs, mask, e) == expected
    if commuting:
        # a product of commuting Hermitian factors is Hermitian again
        _raw_sign_bit(n, expected[0] - e, expected[1])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_anticommutation_rows_match_pairwise_commutes(data):
    # any number of keys, dense or sparse: row i bit j is not commutes(i, j)
    n = data.draw(st.integers(1, 8))
    keys = data.draw(st.lists(st.integers(0, (1 << 2 * n) - 1), max_size=2 * n + 2))
    full = (1 << n) - 1
    paulis = [PauliOperator(n, k & full, k >> n) for k in keys]
    want = [sum((not a.commutes(b)) << j for j, b in enumerate(paulis)) for a in paulis]
    assert _anticommutation_rows(keys, n) == want
