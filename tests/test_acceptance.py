"""End-to-end acceptance checks with wall-clock budgets.

Each test covers one advertised contract of the package end to end,
prints a single PASS line on success (visible under pytest -s), and
fails if it overruns its budget.  Every run is seeded; nothing here
touches the network, and only check 13, which runs the CLI, writes
files, under pytest's tmp_path.
"""

import json
import math
import random
import time
from fractions import Fraction

from cnotpac.cli import main
from cnotpac.cnot import CnotCircuit
from cnotpac.formula import (
    Constant,
    Sum,
    Variable,
    arithmetize_cnf,
    eval_formula,
    formula_to_graph,
)
from cnotpac.gf2 import BitMatrix, dot
from cnotpac.learning import learn_single_measurement, pac_learner
from cnotpac.pauli import PauliOperator, z_power
from cnotpac.reduction import (
    constrain_pauli_samples,
    constrain_submatrix_samples,
    graph_to_instance,
    reduce_formula_to_samples,
    reduce_sat_to_samples,
)
from cnotpac.samples import Sample, SampleSet
from cnotpac.serialization import circuit_to_json, dumps, instance_from_json, string_to_bits
from cnotpac.search import (
    affine_family_search,
    brute_force_decision,
    brute_force_search,
    check_consistent,
    enumerate_consistent_circuits,
    search_from_decision,
)
from cnotpac.stabilizer import StabilizerGroup
from cnotpac.tableau import CliffordTableau, is_symplectic

from formula_corpus import CORPUS, golden_formula
from helpers import (
    all_cnot_circuits,
    dense_expectation,
    invertible_matrices,
    random_gates,
    random_signed_pauli,
    random_stabilizer_state,
)
from test_learning import CountingRng, random_batch
from test_search import _learn_shaped_sets
from test_reduction import GOLDEN_M0, GOLDEN_MS


def _done(num, t0, budget, text):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, "check %02d took %.1fs, budget %.0fs" % (
        num,
        elapsed,
        budget,
    )
    print("PASS %02d (%5.2fs < %3.0fs) %s" % (num, elapsed, budget, text))


def _keys(circuits):
    return {(tuple(c.theta.rows), c.q) for c in circuits}


def test_01_golden_reduction_is_bit_exact():
    t0 = time.perf_counter()
    samples, inst = reduce_formula_to_samples(golden_formula(), None)
    assert inst.size == 9 and inst.num_vars == 4
    assert inst.m0.rows == GOLDEN_M0
    for i, m in enumerate(inst.ms, start=1):
        expected = GOLDEN_MS[i]
        for r in range(9):
            assert m.rows[r] == expected.get(r, 0)
    assert len(samples.samples) == 86
    _done(1, t0, 1.0, "golden 9x9 reduction matches the frozen matrices")


def test_02_determinant_tracks_formula_value_across_corpus():
    t0 = time.perf_counter()
    names = set()
    for name, f, n_vars in CORPUS:
        assert n_vars <= 6
        inst = graph_to_instance(formula_to_graph(f), num_vars=n_vars)
        for a in range(1 << n_vars):
            assert inst.determinant_at(a) == eval_formula(f, a), (name, a)
        names.add(name)
    assert len(names) >= 20
    assert {"golden", "single-variable", "constant-one"} <= names
    _done(2, t0, 10.0, "det M(a) = F(a) on %d formulas, all assignments" % len(names))


def test_03_expectation_trichotomy_matches_dense_oracle():
    t0 = time.perf_counter()
    rng = random.Random(303)
    states = [random_stabilizer_state(rng, 3) for _ in range(50)]
    allowed = (Fraction(0), Fraction(1, 2), Fraction(1))
    checked = 0
    for xz in range(1, 1 << 6):
        x = xz & 0b111
        z = xz >> 3
        for sign in (1, -1):
            p = PauliOperator(3, x, z, sign=sign)
            for st in states:
                e = st.expectation(p)
                assert e in allowed
                assert abs(float(e) - dense_expectation(st, p)) < 1e-9
                checked += 1
    assert checked == 126 * 50
    _done(3, t0, 30.0, "126 signed Paulis x 50 states agree with the dense trace")


def test_04_every_cnot_circuit_round_trips_through_its_tableau():
    t0 = time.perf_counter()
    count = 0
    for theta in invertible_matrices(3):
        inv_t = theta.inverse().transpose()
        for q in range(8):
            c = CnotCircuit(theta, q)
            t = c.to_tableau()
            for i in range(3):
                xi = t.cols[i]
                zi = t.cols[3 + i]
                assert xi.z == 0 and xi.sign == 1
                assert xi.x == inv_t.mul_vec(1 << i)
                assert zi.x == 0
                assert zi.z == theta.mul_vec(1 << i)
                assert zi.sign == (-1 if (q >> i) & 1 else 1)
            gates = c.gates()
            assert len(gates) <= 3 * 3 + 3
            replay = CnotCircuit.from_gates(3, gates)
            assert replay.theta == theta and replay.q == q
            count += 1
    assert count == 168 * 8
    _done(4, t0, 5.0, "all 1344 (theta, q) pairs synthesize and replay exactly")


def test_05_pin_samples_carve_out_exactly_the_claimed_sets():
    t0 = time.perf_counter()
    cases = [
        (3, 0b101, 0b011, 0b110, ((0, False), (1, False), (0, True), (1, True))),
        (4, 0b1001, 0b0011, 0b0110, ((1, False), (0, True))),
    ]
    for n, x, v, w, subcases in cases:
        order = 168 if n == 3 else 20160
        pinned = order // ((1 << n) - 1) * (1 << (n - 1))
        for sigma, two_point in subcases:
            target = z_power(n, x, sign=-1 if sigma else 1)
            span_w = w if two_point else None
            samples = constrain_pauli_samples(n, target, v, span_w, None)
            assert len(samples) == (n if two_point else n + 1)
            got = _keys(enumerate_consistent_circuits(SampleSet(n, samples)))
            allowed = {v, v ^ w} if two_point else {v}
            claimed = _keys(
                c
                for c in all_cnot_circuits(n)
                if c.theta.mul_vec(x) in allowed and dot(c.q, x) == sigma
            )
            assert len(claimed) == pinned * len(allowed)
            assert got == claimed
    _done(5, t0, 120.0, "exact and two-point pins are tight at n = 3 and n = 4")


def test_06_linked_column_pins_share_one_branch_bit():
    t0 = time.perf_counter()
    cols = [1, 3]
    vs, ws = [0b0010, 0b1000], [0b0101, 0b0011]
    v_cols = BitMatrix(vs, 4).transpose()
    w_cols = BitMatrix(ws, 4).transpose()
    samples = constrain_submatrix_samples(4, cols, v_cols, w_cols, None)
    assert len(samples) == 2 * 4 + 2 - 1
    got = _keys(enumerate_consistent_circuits(SampleSet(4, samples)))
    claimed = set()
    for c in all_cnot_circuits(4):
        if c.q & 0b1010:
            continue
        for a in (0, 1):
            if all(
                c.theta.mul_vec(1 << cols[j])
                == vs[j] ^ (ws[j] if a else 0)
                for j in range(2)
            ):
                claimed.add((tuple(c.theta.rows), c.q))
                break
    assert claimed and got == claimed
    _done(6, t0, 300.0, "9 samples pin two columns to v_j + a w_j with shared a")


def test_07_sat_brute_force_and_family_search_agree():
    t0 = time.perf_counter()
    cnf_cases = [
        ("unit", [[1]]),
        ("negated-unit", [[-1]]),
        ("second-variable-unit", [[2]]),
        ("unit-pair", [[1], [2]]),
        ("repeated-unit", [[1], [1]]),
        ("empty-clause", [[]]),
    ]
    identically_false = 0
    for name, clauses in cnf_cases:
        ss, inst = reduce_sat_to_samples(clauses, random.Random(7))
        assert inst.size <= 5, name
        assert len(ss.samples) <= (inst.size + 1) * inst.size, name
        n_vars = max((abs(l) for cl in clauses for l in cl), default=0)
        truth = any(
            all(
                any((a >> (abs(l) - 1)) & 1 == (1 if l > 0 else 0) for l in cl)
                for cl in clauses
            )
            for a in range(1 << n_vars)
        )
        f = arithmetize_cnf(clauses)
        if all(eval_formula(f, a) == 0 for a in range(1 << n_vars)):
            identically_false += 1
        b = brute_force_search(ss)
        fam = affine_family_search(inst)
        assert b.found == truth, name
        assert fam.found == truth, name
        if truth:
            assert check_consistent(b.circuit, ss), name
            assert inst.determinant_at(fam.assignment) == 1, name
    assert len(cnf_cases) >= 6 and identically_false >= 1
    _done(7, t0, 600.0, "6 small CNFs: brute force, truth table, family search agree")


def test_08_decision_oracle_recovers_a_witness():
    t0 = time.perf_counter()
    sets = []
    for clauses in ([[1]], [[-1]], [[2]]):
        ss, _ = reduce_sat_to_samples(clauses, random.Random(8))
        sets.append(ss)
    v1, v2 = Variable(1), Variable(2)
    for f, n_vars in (
        (Constant(0), 0),
        (Constant(1), 0),
        (Sum(v1, v1), 1),
        (Sum(v1, v2), 2),
    ):
        ss, _ = reduce_formula_to_samples(f, random.Random(8), num_vars=n_vars)
        sets.append(ss)
    found = 0
    for ss in sets:
        assert ss.n <= 4
        b = brute_force_search(ss)
        dec = search_from_decision(brute_force_decision, ss)
        assert dec.found == b.found
        assert not dec.oracle_fault
        assert dec.queries <= 1 + ss.n * (3 * ss.n - 1)
        if b.found:
            assert check_consistent(dec.circuit, ss)
            found += 1
    assert len(sets) == 7 and found >= 3
    _done(8, t0, 300.0, "decision-to-search matches brute force on 7 reductions")


def test_09_learner_accepts_once_the_support_is_collected():
    t0 = time.perf_counter()
    hidden = CnotCircuit(BitMatrix([0b010, 0b110, 0b101], 3), 0b101)
    tab = hidden.to_tableau()
    pool = []
    for t in range(8):
        st = StabilizerGroup.computational_basis(3, t)
        meas = z_power(3, 0b111)
        pool.append(Sample(st, meas, st.expectation(tab.conjugate_inverse(meas))))
    for t in (0, 1):
        st = StabilizerGroup.computational_basis(3, t)
        meas = z_power(3, 0b001)
        pool.append(Sample(st, meas, st.expectation(tab.conjugate_inverse(meas))))
    full = SampleSet(3, pool)
    accepted = 0
    for trial in range(100):
        rng = random.Random(9000 + trial)
        res = pac_learner(
            lambda r: pool[r.randrange(10)],
            10,
            brute_force_search,
            rng,
            full_set=full,
        )
        assert res.found and res.draws == 70
        if res.accepted:
            accepted += 1
    assert accepted >= 90
    _done(9, t0, 60.0, "zero error on a uniform 10-sample set in %d/100 runs" % accepted)


def test_10_single_measurement_learner_is_always_consistent():
    t0 = time.perf_counter()
    total_draws = 0
    for i in range(100):
        samples, _hidden = random_batch(random.Random(1000 + i), 5, 20)
        crng = CountingRng(2000 + i)
        circuit = learn_single_measurement(samples, crng)
        assert check_consistent(circuit, samples)
        total_draws += crng.draws
    assert total_draws <= 100 * 4 * 5
    _done(
        10,
        t0,
        60.0,
        "100/100 batches consistent, %.1f completion draws on average"
        % (total_draws / 100),
    )


def test_11_informative_measurements_are_rare():
    t0 = time.perf_counter()
    rng = random.Random(1101)
    state = random_stabilizer_state(rng, 6)
    draws = 100000
    hits = 0
    for _ in range(draws):
        p = random_signed_pauli(6, rng)
        if state.expectation(p) != Fraction(1, 2):
            hits += 1
    freq = hits / draws
    center = 1.0 / 64
    sigma = math.sqrt(center * (1 - center) / draws)
    assert abs(freq - center) <= 3 * sigma
    _done(11, t0, 30.0, "non-half labels at %.5f, within 3 sigma of 1/64" % freq)


def test_12_random_gate_streams_preserve_the_symplectic_form():
    t0 = time.perf_counter()
    rng = random.Random(1212)
    total = 0
    for n in range(1, 7):
        t = CliffordTableau.identity(n)
        names = ("h", "p", "x", "z") if n == 1 else ("h", "p", "cnot", "x", "z")
        for _ in range(1700):
            t.apply_gate(random_gates(rng, n, 1, names)[0])
            assert is_symplectic(t.s_matrix(), n)
            total += 1
    assert total >= 10**4
    _done(12, t0, 10.0, "S^T Lambda S = Lambda after %d random gates" % total)


def test_13_a_twelve_clause_cnf_runs_through_the_cli(tmp_path, capsys):
    t0 = time.perf_counter()
    rng = random.Random(12)
    clauses = [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 9), 3)] for _ in range(12)
    ]
    cnf, red = tmp_path / "in.cnf", tmp_path / "red.json"
    cnf.write_text("p cnf 8 12\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses))

    def cli(*argv):
        code = main([str(a) for a in argv])
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        return code, report

    code, report = cli("reduce", "--cnf", cnf, "--seed", 0, "--out", red)
    n = report["counts"]["instance_size"]
    assert code == 0 and n == 103
    # a file that spells out each sample's n generator indices is 11.7 MB
    assert red.stat().st_size < 6_000_000
    code, report = cli("solve", red, "--strategy", "affine", "--out", tmp_path / "a.json")
    assert code == 0 and report["outcome"] == "found"
    a = string_to_bits(json.loads((tmp_path / "a.json").read_text())["assignment"])
    assert eval_formula(arithmetize_cnf(clauses), a) == 1
    inst = instance_from_json(json.loads(red.read_text())["instance"])
    (tmp_path / "c.json").write_text(dumps(circuit_to_json(CnotCircuit(inst.matrix_at(a), 0))))
    code, report = cli("verify", tmp_path / "c.json", red)
    assert code == 0 and report["outcome"] == "consistent"
    _done(13, t0, 30.0, "reduce, solve affine and verify a 12-clause 3-CNF at n = %d" % n)


def test_14_brute_search_solves_the_deep_n_5_learn_shaped_pool():
    t0 = time.perf_counter()
    samples = next(_learn_shaped_sets(n=5, pools=1))
    r = brute_force_search(samples)
    assert r.found and r.circuits_examined == 1832681
    assert tuple(r.circuit.theta.rows) == (23, 2, 22, 8, 16) and r.circuit.q == 1
    assert check_consistent(r.circuit, samples)
    _done(14, t0, 5.0, "brute search at n = 5 through %d leaves" % r.circuits_examined)
