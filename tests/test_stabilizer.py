import functools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnotpac import gf2, stabilizer
from cnotpac.pauli import PauliOperator, z_power
from cnotpac.reduction import _pin_samples, reduce_sat_to_samples
from cnotpac.samples import Sample, SampleSet
from cnotpac.serialization import sample_set_from_json, sample_set_to_json
from cnotpac.stabilizer import (
    Membership,
    StabilizerGroup,
    StabilizerState,
    _echelon_table,
    _z_form,
)
from cnotpac.tableau import CliffordTableau, Gate, apply_circuit_to_state

from helpers import dense_expectation, members, state_dense, x_power


def bell_group():
    return StabilizerGroup([x_power(2, 0b11), z_power(2, 0b11)])


def test_bell_group_membership_table():
    g = bell_group()
    xx = x_power(2, 0b11)
    zz = z_power(2, 0b11)
    yy = PauliOperator(2, 0b11, 0b11)
    assert g.group_contains(xx) is Membership.PLUS
    assert g.group_contains(-xx) is Membership.MINUS
    assert g.group_contains(zz) is Membership.PLUS
    # XX * ZZ = -YY, so +YY is the negated member
    assert g.group_contains(yy) is Membership.MINUS
    assert g.group_contains(-yy) is Membership.PLUS
    assert g.group_contains(x_power(2, 0b01)) is Membership.ABSENT
    assert g.group_contains(z_power(2, 0b10)) is Membership.ABSENT
    # identity probes: +I is always in, -I never
    assert g.group_contains(PauliOperator(2, 0, 0)) is Membership.PLUS
    assert g.group_contains(-PauliOperator(2, 0, 0)) is Membership.ABSENT


def test_element_products():
    g = bell_group()
    assert g.element(0b00) == PauliOperator(2, 0, 0)
    assert g.element(0b01) == x_power(2, 0b11)
    assert g.element(0b11) == PauliOperator(2, 0b11, 0b11, sign=-1)
    elements = {repr(p) for p in members(g)}
    assert elements == {"+II", "+XX", "+ZZ", "-YY"}


def test_generator_validation():
    with pytest.raises(ValueError, match="^need at least one generator$"):
        StabilizerGroup([])
    with pytest.raises(ValueError, match="^a pure state on 2 qubits needs exactly 2 generators$"):
        StabilizerGroup([x_power(2, 0b11)])  # too few
    with pytest.raises(ValueError, match="^a pure state on 1 qubits needs exactly 1 generators$"):
        StabilizerGroup([x_power(1, 1), z_power(1, 1)])  # wrong count for n=1
    with pytest.raises(ValueError, match="^generator qubit count mismatch$"):
        StabilizerGroup([x_power(2, 0b01), z_power(3, 0b010)])
    with pytest.raises(ValueError, match="^generators 0 and 1 anticommute$"):
        StabilizerGroup([x_power(2, 0b01), z_power(2, 0b01)])
    # the first anticommuting pair in (i, j) order is the one named
    with pytest.raises(ValueError, match="^generators 0 and 2 anticommute$"):
        StabilizerGroup([x_power(3, 0b001), z_power(3, 0b010), z_power(3, 0b011)])
    with pytest.raises(ValueError, match="^generators are dependent$"):
        StabilizerGroup([z_power(2, 0b11), z_power(2, 0b11, sign=-1)])
    with pytest.raises(ValueError, match="^identity cannot be a generator$"):
        StabilizerGroup([PauliOperator(2, 0, 0), z_power(2, 0b11)])


def test_group_equality_is_generator_independent():
    a = bell_group()
    # -YY = XX * ZZ generates the same group together with XX
    b = StabilizerGroup([x_power(2, 0b11), PauliOperator(2, 0b11, 0b11, sign=-1)])
    assert a == b
    assert hash(a) == hash(b)
    c = StabilizerGroup([x_power(2, 0b11), z_power(2, 0b11, sign=-1)])
    assert a != c


def test_computational_basis_expectations():
    for n in (1, 2, 3):
        for t in range(1 << n):
            state = StabilizerGroup.computational_basis(n, t)
            for i in range(n):
                want = Fraction(1) if ((t >> i) & 1) == 0 else Fraction(0)
                assert state.expectation(z_power(n, 1 << i)) == want
                assert state.expectation(x_power(n, 1 << i)) == Fraction(1, 2)


def test_computational_basis_refuses_an_index_outside_its_qubits():
    # 0b100 and -1 used to be masked to |00> and |11>
    for t in (0b100, -1):
        with pytest.raises(ValueError, match=r"^basis index %d outside 0 \.\. 2\^2 - 1$" % t):
            StabilizerGroup.computational_basis(2, t)
    assert StabilizerGroup.computational_basis(2, 0b11) == StabilizerGroup(
        [z_power(2, 0b01, sign=-1), z_power(2, 0b10, sign=-1)]
    )


def test_expectation_rejects_identity():
    state = StabilizerGroup.zero_state(2)
    with pytest.raises(ValueError):
        state.expectation(PauliOperator(2, 0, 0))


def test_zero_state_dense_matrix():
    rho = state_dense(StabilizerGroup.zero_state(2))
    want = np.zeros((4, 4))
    want[0, 0] = 1
    assert np.allclose(rho, want)


def test_dense_oracle_agrees_on_handmade_states():
    plus3 = StabilizerGroup([x_power(3, 1 << i) for i in range(3)])
    ghz = StabilizerGroup([x_power(3, 0b111), z_power(3, 0b011), z_power(3, 0b110)])
    bell = bell_group()
    comp = StabilizerGroup.computational_basis(3, 0b101)
    for state in (plus3, ghz, comp):
        n = state.n
        for xz in range(1, 1 << (2 * n)):
            for sign in (1, -1):
                p = PauliOperator(n, xz & ((1 << n) - 1), xz >> n, sign=sign)
                sym = state.expectation(p)
                dense = dense_expectation(state, p)
                assert abs(float(sym) - dense) < 1e-9
                assert sym in (Fraction(0), Fraction(1, 2), Fraction(1))
    for xz in range(1, 16):
        for sign in (1, -1):
            p = PauliOperator(2, xz & 0b11, xz >> 2, sign=sign)
            assert abs(float(bell.expectation(p)) - dense_expectation(bell, p)) < 1e-9


def test_from_z_generators_signs():
    state = StabilizerGroup.from_z_generators(2, [0b01, 0b10], signs=0b10)
    # second generator is -Z_1, so the state is |01> in (qubit0, qubit1) order
    assert state.expectation(z_power(2, 0b01)) == Fraction(1)
    assert state.expectation(z_power(2, 0b10)) == Fraction(0)
    assert state == StabilizerGroup.computational_basis(2, 0b10)


def test_state_dedup_via_hash():
    a = StabilizerGroup.computational_basis(3, 5)
    b = StabilizerGroup.from_z_generators(3, [1, 2, 4], signs=5)
    c = StabilizerGroup.from_z_generators(3, [1, 3, 7], signs=0b000)
    assert a == b and hash(a) == hash(b)
    # |000> written with a redundant-looking but independent basis
    assert c == StabilizerGroup.zero_state(3)


def test_a_state_is_its_group():
    assert StabilizerState is StabilizerGroup
    bell = bell_group()
    with pytest.raises(TypeError):
        StabilizerState(bell)  # a group is not an iterable of generators
    t = CliffordTableau.identity(2)
    t.apply_gate(Gate("h", qubit=0))
    ss, _ = reduce_sat_to_samples([[1, 2], [-1, 2]], random.Random(3))
    reduced = [s.state for s in ss]
    pinned = [s.state for s in _pin_samples(3, 0b001, 0, 0b010, [0b100], None)]
    loaded = [s.state for s in sample_set_from_json(sample_set_to_json(ss))]
    made = [
        StabilizerGroup.from_z_generators(2, [0b01, 0b11], signs=0b10),
        StabilizerGroup.computational_basis(2, 0b01),
        StabilizerGroup.zero_state(2),
        apply_circuit_to_state(t, bell),
    ]
    for state in reduced + pinned + loaded + made:
        assert type(state) is StabilizerGroup and state.group is state
    assert len(pinned) == 3 and loaded == reduced


def test_a_loaded_state_and_a_built_one_give_the_same_sample():
    state = StabilizerGroup.from_z_generators(3, [0b011, 0b110, 0b100], signs=0b101)
    probe = z_power(3, 0b011, sign=-1)
    built = Sample(state, probe, state.expectation(probe))
    text = sample_set_to_json(SampleSet(3, [built]))
    (loaded,) = sample_set_from_json(text)
    assert loaded.state is not state and loaded.state == state
    assert loaded == built and hash(loaded) == hash(built)
    # the same group from a rebased generator list
    rebased = StabilizerGroup([state.element(m) for m in (0b011, 0b010, 0b100)])
    rebuilt = Sample(rebased, probe, built.label)
    assert rebuilt == loaded and hash(rebuilt) == hash(loaded)


def test_from_z_generators_refuses_a_dependent_basis():
    with pytest.raises(ValueError, match="^generators are dependent$"):
        StabilizerGroup.from_z_generators(3, [0b011, 0b110, 0b101])


def test_from_z_generators_refuses_masks_outside_their_width():
    for zs in ([1, 4], [1, -2]):
        with pytest.raises(ValueError, match="^x/z supports outside 2 qubits$"):
            StabilizerGroup.from_z_generators(2, zs)
    for signs in (0b100, -1):
        with pytest.raises(ValueError, match="^sign mask outside 2 generators$"):
            StabilizerGroup.from_z_generators(2, [1, 2], signs=signs)
    with pytest.raises(ValueError, match="^need at least one generator$"):
        StabilizerGroup.from_z_generators(2, [])
    with pytest.raises(ValueError, match="^a pure state on 2 qubits needs exactly 2 generators$"):
        StabilizerGroup.from_z_generators(2, [3])
    with pytest.raises(ValueError, match="^identity cannot be a generator$"):
        StabilizerGroup.from_z_generators(2, [0, 3])


def test_a_cold_group_and_its_z_constraints_insert_each_key_once(monkeypatch):
    # the group's echelon table inserts its n keys, and _z_form reads that
    # table instead of eliminating them again
    inserted = []

    def counting(insert):
        def counted(*args):
            inserted.append(args)
            return insert(*args)
        return counted

    monkeypatch.setattr(stabilizer, "_insert", counting(stabilizer._insert))
    monkeypatch.setattr(gf2, "_insert", counting(gf2._insert))
    builds = [
        # full-Z states
        (3, functools.partial(StabilizerGroup.from_z_generators, 3, [0b011, 0b110, 0b100], 0b101)),
        (4, functools.partial(StabilizerGroup.computational_basis, 4, 0b1001)),
        # states with x parts, one a Z-type member whose factors have x parts
        (2, functools.partial(StabilizerGroup, [x_power(2, 0b11), z_power(2, 0b11)])),
        (2, functools.partial(StabilizerGroup, [x_power(2, 0b11), PauliOperator(2, 3, 3, -1)])),
        (3, functools.partial(StabilizerGroup, [x_power(3, 1 << j) for j in range(3)])),
    ]
    for n, build in builds:
        _echelon_table.cache_clear()
        _z_form.cache_clear()
        del inserted[:]
        build().z_constraints()
        assert len(inserted) == n


def test_from_z_generators_builds_no_pauli(monkeypatch):
    made = []
    init = PauliOperator.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PauliOperator, "__init__", counted)
    state = StabilizerGroup.from_z_generators(3, [0b011, 0b110, 0b100], signs=0b101)
    assert made == [] and state.keys == (0b011 << 3, 0b110 << 3, 0b100 << 3)


@st.composite
def stabilizer_groups(draw, max_n=3):
    """Group of a random Clifford circuit applied to |0...0>."""
    n = draw(st.integers(1, max_n))
    one_qubit = st.builds(
        lambda name, q: Gate(name, qubit=q),
        st.sampled_from("hpxz"),
        st.integers(0, n - 1),
    )
    gate = one_qubit
    if n > 1:
        cnot = st.permutations(range(n)).map(lambda p: Gate("cnot", control=p[0], target=p[1]))
        gate = st.one_of(one_qubit, cnot)
    t = CliffordTableau.identity(n)
    for g in draw(st.lists(gate, max_size=4 * n * n)):
        t.apply_gate(g)
    return apply_circuit_to_state(t, StabilizerGroup.zero_state(n))


@settings(max_examples=60, deadline=None)
@given(stabilizer_groups())
def test_group_contains_agrees_with_a_member_scan(group):
    n = group.n
    # the members by PauliOperator.mul chains, not through the group's own
    # product (element() shares the fold under test)
    scan = set()
    for mask in range(1 << n):
        acc = PauliOperator(n, 0, 0)
        for i, g in enumerate(group.generators):
            if (mask >> i) & 1:
                acc = acc.mul(g)
        scan.add(acc)
    assert len(scan) == 1 << n
    phase = {m.key(): m.raw()[0] for m in scan}
    for xz in range(1, 1 << (2 * n)):
        assert group.member_phase(xz) == phase.get(xz)
        for sign in (1, -1):
            p = PauliOperator(n, xz & ((1 << n) - 1), xz >> n, sign=sign)
            if p in scan:
                want = Membership.PLUS
            elif -p in scan:
                want = Membership.MINUS
            else:
                want = Membership.ABSENT
            assert group.group_contains(p) is want


@settings(max_examples=60, deadline=None)
@given(stabilizer_groups(), st.data())
def test_rebased_generators_give_the_same_group(group, data):
    n = group.n
    # an invertible change of generators: row additions, then a shuffle
    masks = [1 << i for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in data.draw(st.lists(pairs, max_size=3 * n * n)):
        if i != j:
            masks[i] ^= masks[j]
    masks = [masks[k] for k in data.draw(st.permutations(range(n)))]
    rebased = [group.element(m) for m in masks]
    other = StabilizerGroup(rebased)
    assert other.canonical_signature() == group.canonical_signature()
    assert other == group and hash(other) == hash(group)
    # a sign flip on one generator always gives a different group
    k = data.draw(st.integers(0, n - 1))
    flipped = StabilizerGroup(rebased[:k] + [-rebased[k]] + rebased[k + 1:])
    assert flipped.canonical_signature() != group.canonical_signature()
    assert flipped != group


def test_failed_validation_raises_on_every_attempt():
    # the echelon table is cached per key tuple; a failure is not cached
    for _ in range(2):
        with pytest.raises(ValueError, match="generators 0 and 1 anticommute"):
            StabilizerGroup([x_power(2, 0b01), z_power(2, 0b01)])
        with pytest.raises(ValueError, match="dependent"):
            StabilizerGroup([z_power(2, 0b11), z_power(2, 0b11, sign=-1)])


@settings(max_examples=40, deadline=None)
@given(stabilizer_groups(), st.data())
def test_sign_variants_share_one_table_and_stay_distinct(group, data):
    n = group.n
    signs = data.draw(st.integers(1, (1 << n) - 1))
    flipped = StabilizerGroup(
        [-g if (signs >> i) & 1 else g for i, g in enumerate(group.generators)]
    )
    assert flipped._table is group._table
    snapshot = dict(group._table)
    assert flipped.canonical_signature() != group.canonical_signature()
    assert group != flipped
    for g in (group, flipped):
        members(g)
        g.element(signs)
        hash(g)
    probes = [
        PauliOperator(n, xz & ((1 << n) - 1), xz >> n, sign=sign)
        for xz in range(1, 1 << (2 * n))
        for sign in (1, -1)
    ]
    for g in (group, flipped):
        for p in probes:
            g.group_contains(p)
    # no group method writes to the shared table
    assert group._table == snapshot
    # groups built on a cold cache answer every query the same way
    _echelon_table.cache_clear()
    for g in (group, flipped):
        fresh = StabilizerGroup(g.generators)
        assert fresh._table is not g._table
        assert fresh.canonical_signature() == g.canonical_signature()
        for p in probes:
            assert fresh.member_phase(p.key()) == g.member_phase(p.key())
            assert fresh.group_contains(p) is g.group_contains(p)


def test_generators_cannot_be_edited_in_place():
    # generators is a tuple derived from keys and signs on each access, and
    # the echelon table is built from the keys once, so an edit would leave
    # it describing the old group
    g = StabilizerGroup([z_power(2, 0b01), z_power(2, 0b10)])
    with pytest.raises(TypeError):
        g.generators[0] = x_power(2, 0b01)
    with pytest.raises(AttributeError):
        g.generators = (x_power(2, 0b01), z_power(2, 0b10))
    assert g.generators == (z_power(2, 0b01), z_power(2, 0b10))
    assert g.group_contains(z_power(2, 0b01)) is Membership.PLUS
    assert g.group_contains(x_power(2, 0b01)) is Membership.ABSENT


def _assert_same_group(got, want):
    """got answers every query exactly as want does (n <= 3)."""
    n = want.n
    assert got.n == n
    assert got.keys == want.keys and got.signs == want.signs
    assert got.generators == want.generators
    assert got.canonical_signature() == want.canonical_signature()
    assert got.z_constraints() == want.z_constraints()
    for mask in range(1 << n):
        assert got.element(mask) == want.element(mask)
    for xz in range(1 << (2 * n)):
        assert got.member_phase(xz) == want.member_phase(xz)
        for sign in (1, -1):
            p = PauliOperator(n, xz & ((1 << n) - 1), xz >> n, sign=sign)
            assert got.group_contains(p) is want.group_contains(p)


@settings(max_examples=60, deadline=None)
@given(stabilizer_groups(), st.data())
def test_a_flip_and_a_load_match_the_group_of_negated_generators(group, data):
    n = group.n
    signs = data.draw(st.integers(0, (1 << n) - 1))
    want = StabilizerGroup(
        [-g if (signs >> i) & 1 else g for i, g in enumerate(group.generators)]
    )
    flipped = group.flip(signs)
    assert flipped.keys is group.keys and flipped._table is group._table
    _assert_same_group(flipped, want)
    probe = want.generators[0]
    text = sample_set_to_json(SampleSet(n, [Sample(want, probe, want.expectation(probe))]))
    loaded = sample_set_from_json(text).samples[0].state
    _assert_same_group(loaded, want)


def test_flip_refuses_a_mask_past_the_generators():
    g = bell_group()
    assert g.flip(0b11).signs == 0b11 and g.flip(0b11).flip(0b01).signs == 0b10
    for mask in (-1, 0b100):
        with pytest.raises(ValueError, match="^sign mask outside 2 generators$"):
            g.flip(mask)
