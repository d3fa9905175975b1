import random
from fractions import Fraction

import pytest

from cnotpac.cnot import CnotCircuit
from cnotpac.formula import Constant, WeightedDigraph, eval_formula, formula_to_graph
from cnotpac.gf2 import BitMatrix, dot
from cnotpac.pauli import z_power
from cnotpac.reduction import (
    NonSingularityInstance,
    _pin_samples,
    _simplified_columns,
    constrain_pauli_samples,
    constrain_submatrix_samples,
    graph_to_instance,
    instance_to_samples,
    reduce_formula_to_samples,
    reduce_sat_to_samples,
)
from cnotpac.samples import SampleSet
from cnotpac.search import check_consistent

from formula_corpus import CORPUS, SMALL_FORMULAS, golden_formula
from helpers import all_cnot_circuits, x_power

# Adjacency family of the worked example, rows as packed ints (bit j = column j)
GOLDEN_M0 = [0, 6, 4, 264, 272, 96, 64, 384, 257]
GOLDEN_MS = {
    1: {0: 2},
    2: {2: 8},
    3: {0: 32, 2: 16},
    4: {6: 128},
}


def test_golden_instance_bit_exact():
    inst = graph_to_instance(formula_to_graph(golden_formula()))
    assert inst.size == 9 and inst.num_vars == 4
    assert inst.m0.rows == GOLDEN_M0
    for i, m in enumerate(inst.ms, start=1):
        expected = GOLDEN_MS[i]
        for r in range(9):
            assert m.rows[r] == expected.get(r, 0)


def test_determinant_equals_formula_across_corpus():
    for name, f, n_vars in CORPUS:
        inst = graph_to_instance(formula_to_graph(f), num_vars=n_vars)
        for a in range(1 << n_vars):
            assert inst.determinant_at(a) == eval_formula(f, a), (name, a)


def test_graph_to_instance_validation():
    g = formula_to_graph(golden_formula())
    open_graph = WeightedDigraph(g.num_vertices, g.s, g.t, g.edges, g.num_vars, closed=False)
    with pytest.raises(ValueError):
        graph_to_instance(open_graph)
    with pytest.raises(ValueError):
        graph_to_instance(g, num_vars=2)
    padded = graph_to_instance(g, num_vars=6)
    assert padded.num_vars == 6
    assert padded.ms[4].rows == [0] * 9 and padded.ms[5].rows == [0] * 9


def test_validate_simplified():
    for _, f, n_vars in CORPUS:
        inst = graph_to_instance(formula_to_graph(f), num_vars=n_vars)
        assert _simplified_columns(inst) is not None
    # ok keeps every rule: M0 = I, and M1 touches column 0 with e_1, which is
    # nonzero and unlike M0's e_0; each fault changes ok to break one rule
    ok = NonSingularityInstance(2, BitMatrix([1, 2], 2), [BitMatrix([0, 1], 2)])
    assert _simplified_columns(ok) is not None
    faults = {
        "column touched by two variables": NonSingularityInstance(
            2, BitMatrix([1, 2], 2), [BitMatrix([0, 1], 2), BitMatrix([1, 1], 2)]
        ),
        "zero M0 column": NonSingularityInstance(
            2, BitMatrix([0b10, 0], 2), [BitMatrix([0, 1], 2)]
        ),
        "M0 column equal to the M1 column": NonSingularityInstance(
            2, BitMatrix([1, 2], 2), [BitMatrix([1, 0], 2)]
        ),
    }
    for rule, inst in faults.items():
        assert _simplified_columns(inst) is None, rule
        with pytest.raises(ValueError, match="simplified shape"):
            instance_to_samples(inst, random.Random(0))


def test_pin_sample_counts_and_labels():
    rng = random.Random(11)
    exact = constrain_pauli_samples(3, z_power(3, 0b101), 0b011, None, rng)
    assert len(exact) == 4
    assert [s.label for s in exact] == [Fraction(1)] * 3 + [Fraction(0)]
    pair = constrain_pauli_samples(3, z_power(3, 0b101), 0b011, 0b100, rng)
    assert len(pair) == 3
    assert [s.label for s in pair] == [Fraction(1)] * 2 + [Fraction(0)]
    # all pin samples reuse the one measurement
    assert len({s.measurement for s in exact}) == 1


def test_pin_input_validation():
    rng = random.Random(12)
    with pytest.raises(ValueError):
        constrain_pauli_samples(3, z_power(3, 0), 1, None, rng)  # identity target
    with pytest.raises(ValueError):
        constrain_pauli_samples(3, x_power(3, 1), 1, None, rng)  # not Z-type
    with pytest.raises(ValueError):
        constrain_pauli_samples(3, z_power(3, 1), 0, None, rng)  # v = 0
    with pytest.raises(ValueError):
        constrain_pauli_samples(3, z_power(3, 1), 0b1000, None, rng)  # v too wide
    with pytest.raises(ValueError):
        constrain_pauli_samples(3, z_power(3, 1), 3, 3, rng)  # w = v


@pytest.mark.parametrize(
    "x, v, w, sigma",
    [
        (0b101, 0b011, None, 0),
        (0b101, 0b011, 0b100, 0),
        (0b011, 0b110, None, 1),
        (0b001, 0b111, 0b010, 1),
    ],
)
def test_pin_matches_brute_force(x, v, w, sigma):
    rng = random.Random(x * 8 + sigma)
    target = z_power(3, x, sign=-1 if sigma else 1)
    samples = SampleSet(3, constrain_pauli_samples(3, target, v, w, rng))
    allowed = {v} if w is None else {v, v ^ w}
    for c in all_cnot_circuits(3):
        truth = c.theta.mul_vec(x) in allowed and dot(c.q, x) == sigma
        assert check_consistent(c, samples) == truth


def test_subspace_pin_matches_brute_force():
    # offset inside the span: the pin is the span itself and the final
    # label-0 sample is dropped
    span = [0b011, 0b101]
    samples = SampleSet(3, _pin_samples(3, 0b110, 0, 0b110, span, random.Random(5)))
    assert len(samples) == 2
    allowed = {0, 0b011, 0b101, 0b110}
    for c in all_cnot_circuits(3):
        truth = c.theta.mul_vec(0b110) in allowed and dot(c.q, 0b110) == 0
        assert check_consistent(c, samples) == truth


def test_linked_columns_match_brute_force():
    rng = random.Random(21)
    v_cols = BitMatrix([0b001, 0b010], 3).transpose()
    w_cols = BitMatrix([0b110, 0b101], 3).transpose()
    samples = SampleSet(3, constrain_submatrix_samples(3, [0, 2], v_cols, w_cols, rng))
    assert len(samples) == 7  # kn + k - 1
    for c in all_cnot_circuits(3):
        truth = any(
            c.theta.mul_vec(1) == 0b001 ^ (0b110 if a else 0)
            and c.theta.mul_vec(4) == 0b010 ^ (0b101 if a else 0)
            for a in (0, 1)
        ) and (c.q & 0b101) == 0
        assert check_consistent(c, samples) == truth


def test_submatrix_input_validation():
    rng = random.Random(22)
    v = BitMatrix([1], 3).transpose()
    w = BitMatrix([2], 3).transpose()
    with pytest.raises(ValueError):
        constrain_submatrix_samples(3, [], v, w, rng)
    with pytest.raises(ValueError):
        constrain_submatrix_samples(3, [0, 0], BitMatrix([1, 1], 3).transpose(), BitMatrix([2, 2], 3).transpose(), rng)
    with pytest.raises(ValueError):
        constrain_submatrix_samples(3, [3], v, w, rng)
    with pytest.raises(ValueError):
        constrain_submatrix_samples(3, [0, 1], v, w, rng)  # k mismatch


def test_unit_cnf_reduction_end_to_end():
    samples, inst = reduce_sat_to_samples([[1]], random.Random(31))
    assert inst.size == 3 and inst.num_vars == 1
    assert len(samples) == 11
    hits = [c for c in all_cnot_circuits(3) if check_consistent(c, samples)]
    assert len(hits) == 1
    assert hits[0].theta.rows == [2, 6, 5] and hits[0].q == 0
    assert hits[0].theta == inst.matrix_at(1)


def test_repeated_unit_cnf_spot_checks():
    # instance size 5 is out of reach for full enumeration here; check the
    # claimed solution and perturbations of it instead
    samples, inst = reduce_sat_to_samples([[1], [1]], random.Random(32))
    n = inst.size
    assert n == 5
    good = CnotCircuit(inst.matrix_at(1), 0)
    assert check_consistent(good, samples)
    assert inst.determinant_at(0) == 0
    for q in range(1, 1 << n):
        assert not check_consistent(CnotCircuit(inst.matrix_at(1), q), samples)
    rng = random.Random(33)
    rejected = 0
    while rejected < 50:
        rows = [rng.randrange(1 << n) for _ in range(n)]
        theta = BitMatrix(rows, n)
        if not theta.is_invertible() or theta == inst.matrix_at(1):
            continue
        assert not check_consistent(CnotCircuit(theta, 0), samples)
        rejected += 1


def test_unsatisfiable_formula_has_no_consistent_circuit():
    # constant-zero gives the smallest identically-false instance (size 3),
    # small enough to sweep every circuit
    samples, inst = reduce_formula_to_samples(Constant(0), random.Random(33))
    assert inst.size == 3
    assert not any(check_consistent(c, samples) for c in all_cnot_circuits(3))


def test_contradiction_pair_for_dead_column():
    inst = NonSingularityInstance(2, BitMatrix([1, 1], 2), [])
    samples = instance_to_samples(inst, random.Random(41))
    assert len(samples) == 5
    a, b = samples[-2], samples[-1]
    assert a.state == b.state and a.measurement == b.measurement
    assert {a.label, b.label} == {Fraction(0), Fraction(1)}
    assert not any(check_consistent(c, samples) for c in all_cnot_circuits(2))


def test_sample_budget_and_binary_labels():
    for name, f, n_vars in SMALL_FORMULAS + [("golden", golden_formula(), 4)]:
        samples, inst = reduce_formula_to_samples(f, random.Random(51), num_vars=n_vars)
        n = inst.size
        assert len(samples) <= n * (n + 1), name
        assert all(s.label in (Fraction(0), Fraction(1)) for s in samples)


def test_golden_sample_count_frozen():
    samples, _ = reduce_formula_to_samples(golden_formula(), random.Random(52))
    assert len(samples) == 86


def test_deterministic_without_rng():
    first, _ = reduce_formula_to_samples(golden_formula(), None)
    second, _ = reduce_formula_to_samples(golden_formula(), None)
    assert first.samples == second.samples


def test_instance_size_above_the_limit_is_refused_before_any_sample():
    inst = NonSingularityInstance(129, BitMatrix.identity(129), [])
    with pytest.raises(ValueError, match="instance size 129 exceeds the limit of 128"):
        instance_to_samples(inst, None)


def test_states_of_one_pin_share_their_unflipped_generators():
    samples, _ = reduce_formula_to_samples(golden_formula(), random.Random(53))
    # the samples of a pin share one measurement key and sign, and no two
    # pins of this reduction share one; a link sample is a group of its own
    pins = {}
    for s in samples:
        pins.setdefault((s.key, s.sign), []).append(s.state)
    assert max(len(groups) for groups in pins.values()) == samples.n + 1
    for groups in pins.values():
        base = groups[0]
        for group in groups[1:]:
            # a sign flip of the pin's first group: one key tuple, one table
            assert group.keys is base.keys and group._table is base._table
            moved = group.signs ^ base.signs
            assert moved and moved & (moved - 1) == 0  # exactly one sign differs
            k = moved.bit_length() - 1
            assert group.generators[k] == -base.generators[k]
