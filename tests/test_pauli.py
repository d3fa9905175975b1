import random

import numpy as np
import pytest

from cnotpac.pauli import (
    PauliOperator,
    x_power,
    z_power,
)

from helpers import pauli_dense


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
    # i * X * Z = Y
    y = PauliOperator.from_raw(1, 1, 1, 1)
    assert y == PauliOperator(1, 1, 1, sign=1)
    # i^3 X Z = -Y
    assert PauliOperator.from_raw(1, 3, 1, 1) == PauliOperator(1, 1, 1, sign=-1)
    with pytest.raises(ValueError):
        PauliOperator.from_raw(1, 0, 1, 1)  # X Z alone is anti-Hermitian


def test_raw_round_trip():
    rng = random.Random(204)
    for _ in range(100):
        p = random_pauli(rng, 3)
        e, x, z = p.raw()
        assert PauliOperator.from_raw(3, e, x, z) == p


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
