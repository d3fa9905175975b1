import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import cnotpac
from cnotpac import cli
from cnotpac.cli import main
from cnotpac.cnot import CnotCircuit
from cnotpac.formula import parse_formula
from cnotpac.pauli import z_power
from cnotpac.reduction import reduce_formula_to_samples
from cnotpac.samples import Sample, SampleSet
from cnotpac.serialization import (
    circuit_from_json,
    circuit_to_json,
    dumps,
    instance_from_json,
    instance_to_json,
    pauli_to_json,
    sample_set_to_json,
    string_to_bits,
)
from cnotpac.stabilizer import StabilizerState
from cnotpac.tableau import is_symplectic

from test_reduction import GOLDEN_M0
from test_search import random_consistent_set
from test_serialization import TWIN_IDS, TWINS, twin_sample_set


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_report(out):
    line = out.strip().splitlines()[-1]
    report = json.loads(line)
    assert report["version"] == "0.1.0"
    assert set(report) == {
        "command",
        "counts",
        "input_digest",
        "outcome",
        "seed",
        "version",
        "wall_time_s",
    }
    return report


GOLDEN_FORMULA = "x1*(x2+x3)+x3*x4"


def test_reduce_formula_golden(tmp_path, capsys):
    out = tmp_path / "golden.json"
    code, stdout, _ = run(
        capsys, "reduce", "--formula", GOLDEN_FORMULA, "--seed", "7",
        "--out", str(out),
    )
    assert code == 0
    report = last_report(stdout)
    assert report["command"] == "reduce" and report["outcome"] == "ok"
    assert report["counts"]["instance_size"] == 9
    payload = json.loads(out.read_text())
    m0_rows = [int(row[::-1], 2) for row in payload["instance"]["m0"]]
    assert m0_rows == GOLDEN_M0
    # determinism: same input and seed give identical bytes
    out2 = tmp_path / "golden2.json"
    run(capsys, "reduce", "--formula", GOLDEN_FORMULA, "--seed", "7", "--out", str(out2))
    assert out.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "golden3.json"
    run(capsys, "reduce", "--formula", GOLDEN_FORMULA, "--seed", "8", "--out", str(out3))
    assert out.read_bytes() != out3.read_bytes()


UNIT_CNF = "c unit\np cnf 1 1\n1 0\n"


def test_reduce_cnf_unit(tmp_path, capsys):
    cnf = tmp_path / "unit.cnf"
    cnf.write_text(UNIT_CNF)
    out = tmp_path / "unit.json"
    code, stdout, _ = run(capsys, "reduce", "--cnf", str(cnf), "--seed", "3", "--out", str(out))
    assert code == 0
    report = last_report(stdout)
    assert report["counts"]["instance_size"] == 3
    assert report["counts"]["samples"] <= 12
    assert "samples: 11" in stdout


def test_reduce_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p sat 3\n")
    code, _, err = run(capsys, "reduce", "--cnf", str(bad), "--seed", "0")
    assert code == 2 and "line 1" in err
    code, _, err = run(capsys, "reduce", "--seed", "0")
    assert code == 2 and "exactly one" in err
    code, _, err = run(
        capsys, "reduce", "--cnf", str(bad), "--formula", "x1", "--seed", "0"
    )
    assert code == 2
    code, _, err = run(capsys, "reduce", "--formula", "x1*", "--seed", "0")
    assert code == 2 and err == "error: unexpected end of formula\n"
    code, _, err = run(capsys, "reduce", "--cnf", str(tmp_path / "nope.cnf"), "--seed", "0")
    assert code == 2 and "cannot read" in err


def _reduce_argv(tmp_path, formula, cnf):
    if cnf is None:
        return ["reduce", "--formula", formula, "--seed", "0"]
    path = tmp_path / "in.cnf"
    path.write_text(cnf)
    return ["reduce", "--cnf", str(path), "--seed", "0"]


@pytest.mark.parametrize(
    "formula, cnf, fragment",
    [
        ("x1025", None, "exceeds the limit of 1024"),
        (None, "p cnf 1025 1\n-1025 0\n", "exceeds the limit of 1024"),
        ("x\u0661 + x\u0662", None, "variable needs an index"),
        ("x\u00b2", None, "variable needs an index"),
        ("+".join(["x1"] * 300), None, "instance size 302 exceeds the limit of 64"),
    ],
    ids=[
        "formula-index-1025", "dimacs-literal-1025", "arabic-indic-digits", "superscript-two",
        "300-term-sum",
    ],
)
def test_reduce_rejects_bad_variable_indices(formula, cnf, fragment, tmp_path, capsys):
    code, stdout, err = run(capsys, *_reduce_argv(tmp_path, formula, cnf))
    assert code == 2 and err.startswith("error:") and fragment in err, err
    assert stdout == ""


def test_reduce_takes_the_highest_allowed_variable_index(tmp_path, capsys):
    code, stdout, _ = run(capsys, "reduce", "--formula", "x1024", "--seed", "0")
    assert code == 0 and last_report(stdout)["counts"]["instance_size"] == 3


@pytest.mark.parametrize(
    "formula, cnf",
    [
        ("+".join(["x1"] * 1200), None),
        ("(" * 5000 + "x1" + ")" * 5000, None),
        (None, "p cnf 1 1500\n" + "1 0\n" * 1500),
    ],
    ids=["1200-term-sum", "5000-parentheses", "1500-unit-clauses"],
)
def test_reduce_of_a_too_deep_formula_exits_2(formula, cnf, tmp_path, capsys):
    code, _, err = run(capsys, *_reduce_argv(tmp_path, formula, cnf))
    assert code == 2 and err.startswith("error:") and "nests deeper than the recursion limit" in err, err


@pytest.fixture
def unit_reduction(tmp_path, capsys):
    cnf = tmp_path / "unit.cnf"
    cnf.write_text(UNIT_CNF)
    out = tmp_path / "unit.json"
    run(capsys, "reduce", "--cnf", str(cnf), "--seed", "3", "--out", str(out))
    return out


# numpy is a test dependency only; None in sys.modules makes any import of it raise
_NO_NUMPY_PIPELINE = """
import sys
sys.modules["numpy"] = None
src, tmp = sys.argv[1:]
sys.path.insert(0, src)
from cnotpac.cli import main
codes = [
    main(["reduce", "--cnf", tmp + "/unit.cnf", "--seed", "7", "--out", tmp + "/unit.json"]),
    main(["solve", tmp + "/unit.json", "--strategy", "brute", "--out", tmp + "/witness.json"]),
    main(["verify", tmp + "/witness.json", tmp + "/unit.json"]),
]
assert codes == [0, 0, 0], codes
assert "multiprocessing" not in sys.modules
"""


def test_cli_pipeline_runs_without_numpy_or_multiprocessing(tmp_path):
    (tmp_path / "unit.cnf").write_text(UNIT_CNF)
    src = os.path.dirname(os.path.dirname(cnotpac.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_PIPELINE, src, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _sha256(*paths):
    return hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()


def _count_opens(monkeypatch):
    """The paths the cli module opens, one entry per open."""
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    return opened


def test_solve_brute_and_verify(unit_reduction, tmp_path, capsys, monkeypatch):
    opened = _count_opens(monkeypatch)
    witness = tmp_path / "witness.json"
    code, stdout, _ = run(
        capsys, "solve", str(unit_reduction), "--strategy", "brute",
        "--out", str(witness),
    )
    assert code == 0
    report = last_report(stdout)
    assert report["outcome"] == "found" and report["seed"] is None
    assert report["input_digest"] == _sha256(unit_reduction)
    assert opened == [str(unit_reduction), str(witness)]  # one read, one write
    circuit = circuit_from_json(json.loads(witness.read_text()))
    assert isinstance(circuit, CnotCircuit)
    assert circuit.theta.rows == [2, 6, 5] and circuit.q == 0
    opened.clear()
    code, stdout, _ = run(capsys, "verify", str(witness), str(unit_reduction))
    assert code == 0 and "consistent" in stdout
    assert last_report(stdout)["input_digest"] == _sha256(witness, unit_reduction)
    assert opened == [str(witness), str(unit_reduction)]


def test_solve_decision_query_count(unit_reduction, capsys):
    code, stdout, _ = run(capsys, "solve", str(unit_reduction), "--strategy", "decision")
    assert code == 0
    assert last_report(stdout)["counts"]["oracle_queries"] == 13


def test_solve_affine(unit_reduction, tmp_path, capsys, monkeypatch):
    opened = _count_opens(monkeypatch)
    code, stdout, _ = run(capsys, "solve", str(unit_reduction), "--strategy", "affine")
    assert code == 0 and opened == [str(unit_reduction)]
    report = last_report(stdout)
    assert report["input_digest"] == _sha256(unit_reduction)
    assert report["counts"]["assignments_examined"] == 2
    assert "assignment: 1" in stdout


def test_solve_unsatisfiable(tmp_path, capsys):
    out = tmp_path / "zero.json"
    run(capsys, "reduce", "--formula", "x1+x1", "--seed", "1", "--out", str(out))
    for strategy in ("brute", "affine", "decision"):
        code, stdout, _ = run(capsys, "solve", str(out), "--strategy", strategy)
        assert code == 1, strategy
        assert last_report(stdout)["outcome"] == "none"


def test_solve_enumeration_limit(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(dumps({"n": 20, "samples": []}))
    code, _, err = run(capsys, "solve", str(big), "--strategy", "brute")
    assert code == 2 and "enumeration limit" in err


def test_solve_rejects_bad_workers_and_seed(unit_reduction, capsys):
    # solve runs in one process and is unseeded: both flags are gone
    for flag, value in (("--workers", "2"), ("--seed", "1")):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(unit_reduction), flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_back_to_back_main_calls_share_no_arguments(unit_reduction, tmp_path, capsys, monkeypatch):
    # one parser serves every in-process call; each call parses afresh
    first = tmp_path / "first.json"
    code, _, _ = run(capsys, "solve", str(unit_reduction), "--strategy", "affine", "--out", str(first))
    assert code == 0 and first.exists()
    first.unlink()
    code, stdout, _ = run(capsys, "solve", str(unit_reduction))
    assert code == 0 and not first.exists()
    assert stdout.startswith('{"gates"')  # the witness went to stdout, not to the first --out
    assert "circuits_examined" in last_report(stdout)["counts"]  # the default strategy
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(unit_reduction), "--strategy", "exhaustive"])
    assert exc.value.code == 2 and "--strategy" in capsys.readouterr().err
    code, stdout, _ = run(capsys, "solve", str(unit_reduction), "--strategy", "decision")
    assert code == 0 and "oracle_queries" in last_report(stdout)["counts"]
    # a command function replaced after the parser was built is the one called
    monkeypatch.setattr(cli, "cmd_solve", lambda args: 7)
    assert main(["solve", str(unit_reduction)]) == 7


def test_verify_inconsistent_reports_index(tmp_path, capsys):
    rng = random.Random(121)
    from test_search import random_cnot_circuit

    hidden = random_cnot_circuit(rng, 2)
    t = hidden.to_tableau()
    raw = []
    for _ in range(6):
        state = StabilizerState.computational_basis(2, rng.randrange(4))
        probe = z_power(2, rng.randrange(1, 4))
        raw.append(Sample(state, probe, state.expectation(t.conjugate_inverse(probe))))
    samples = SampleSet(2, raw)
    target = 2
    flipped = []
    for i, s in enumerate(samples.samples):
        label = s.label if i != target else Fraction(1) - s.label
        flipped.append(Sample(s.state, s.measurement, label))
    spath = tmp_path / "flipped.json"
    spath.write_text(dumps(sample_set_to_json(SampleSet(2, flipped))))
    cpath = tmp_path / "circuit.json"
    from cnotpac.serialization import circuit_to_json

    cpath.write_text(dumps(circuit_to_json(hidden)))
    code, stdout, _ = run(capsys, "verify", str(cpath), str(spath))
    assert code == 1
    assert ("inconsistent at sample %d" % target) in stdout
    assert last_report(stdout)["counts"]["first_violation"] == target


def test_verify_schema_errors(tmp_path, capsys):
    bad = tmp_path / "bad_circuit.json"
    bad.write_text(dumps({"n": 1, "tableau": {"s": ["10", "10"], "phases": "00"}}))
    samples, _ = random_consistent_set(random.Random(122), 2, 3)
    spath = tmp_path / "samples.json"
    spath.write_text(dumps(sample_set_to_json(samples)))
    code, _, err = run(capsys, "verify", str(bad), str(spath))
    assert code == 2 and "symplectic" in err
    mismatch = tmp_path / "small.json"
    from cnotpac.serialization import circuit_to_json

    mismatch.write_text(dumps(circuit_to_json(CnotCircuit.identity(3))))
    code, _, err = run(capsys, "verify", str(mismatch), str(spath))
    assert code == 2 and "mismatch" in err


def batch_fixture(tmp_path, seed=5, contradictory=False):
    rng = random.Random(seed)
    from cnotpac.tableau import Gate

    hidden = CnotCircuit.from_gates(
        3, [Gate("cnot", control=0, target=2), Gate("x", qubit=1)]
    )
    t = hidden.to_tableau()
    meas = z_power(3, 0b101, sign=-1)
    entries = []
    for _ in range(8):
        state = StabilizerState.computational_basis(3, rng.randrange(8))
        label = int(state.expectation(t.conjugate_inverse(meas)))
        entries.append(
            {
                "state": [pauli_to_json(g) for g in state.group.generators],
                "label": str(label),
            }
        )
    if contradictory:
        flipped = dict(entries[0])
        flipped["label"] = "1" if entries[0]["label"] == "0" else "0"
        entries.append(flipped)
    path = tmp_path / ("batch%d.json" % len(entries))
    path.write_text(dumps({"measurement": pauli_to_json(meas), "samples": entries}))
    return path


def test_learn_single_measurement(tmp_path, capsys):
    batch = batch_fixture(tmp_path)
    hyp = tmp_path / "hyp.json"
    code, stdout, _ = run(
        capsys, "learn", "--mode", "single-measurement", "--input", str(batch),
        "--seed", "9", "--out", str(hyp),
    )
    assert code == 0
    assert last_report(stdout)["outcome"] == "found"
    circuit = circuit_from_json(json.loads(hyp.read_text()))
    assert isinstance(circuit, CnotCircuit) and circuit.theta.is_invertible()
    bad = batch_fixture(tmp_path, contradictory=True)
    code, stdout, _ = run(
        capsys, "learn", "--mode", "single-measurement", "--input", str(bad),
        "--seed", "9",
    )
    assert code == 1
    assert last_report(stdout)["outcome"] == "none"


def test_learn_single_measurement_identity_only(tmp_path, capsys):
    # |+> with Z and label 1 admits only the image +I
    plus = {"n": 1, "sign": 1, "x": "1", "z": "0"}
    path = tmp_path / "plus.json"
    path.write_text(dumps({
        "measurement": pauli_to_json(z_power(1, 1)),
        "samples": [{"state": [plus], "label": "1"}],
    }))
    code, stdout, _ = run(
        capsys, "learn", "--mode", "single-measurement", "--input", str(path), "--seed", "1"
    )
    assert code == 1
    assert stdout.splitlines()[0] == "no consistent hypothesis: only the identity image is admissible"
    assert last_report(stdout)["outcome"] == "none"


_X_BATCH = {
    "measurement": {"n": 1, "sign": 1, "x": "1", "z": "0"},
    "samples": [{"state": [{"n": 1, "sign": 1, "x": "0", "z": "1"}], "label": "1"}],
}


# a one-sample pool: |0> measured on Z, label 1
_POOL = sample_set_to_json(
    SampleSet(1, [Sample(StabilizerState.zero_state(1), z_power(1, 1), Fraction(1))])
)


@pytest.mark.parametrize(
    "mode, obj, message",
    [
        ("single-measurement", [], "batch input must be an object"),
        ("pac", [], "sample set must be an object"),
        ("single-measurement", _X_BATCH, "measurement must be a nonidentity Z-type Pauli"),
        ("pac", {"n": 1, "samples": []}, "pac input needs at least one sample"),
        (
            "pac",
            dict(_POOL, weights=[1, 1]),
            "weights must be finite nonnegative numbers matching the samples",
        ),
        ("pac", dict(_POOL, s=0), "support bound 's' must be a positive integer"),
    ],
    ids=[
        "batch-not-an-object",
        "pac-not-an-object",
        "batch-x-measurement",
        "pac-empty-pool",
        "pac-bad-weights",
        "pac-bad-s",
    ],
)
def test_learn_input_errors_name_the_file(mode, obj, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(dumps(obj))
    code, stdout, err = run(capsys, "learn", "--mode", mode, "--input", str(path), "--seed", "1")
    assert code == 2 and err == "error: %s: %s\n" % (path, message)
    assert stdout == ""


def test_learn_pac(tmp_path, capsys):
    samples, _ = random_consistent_set(random.Random(123), 3, 10)
    pool = tmp_path / "pool.json"
    pool.write_text(dumps(sample_set_to_json(samples)))
    hyp = tmp_path / "hyp.json"
    code, stdout, _ = run(
        capsys, "learn", "--mode", "pac", "--input", str(pool), "--seed", "1",
        "--out", str(hyp),
    )
    assert code == 0
    report = last_report(stdout)
    assert report["outcome"] == "found"
    assert report["counts"]["draws"] == 70
    code, _, _ = run(capsys, "verify", str(hyp), str(pool))
    assert code == 0
    # unsatisfiable support
    state = StabilizerState.zero_state(2)
    probe = z_power(2, 0b01)
    contradictory = SampleSet(
        2,
        [Sample(state, probe, Fraction(1)), Sample(state, probe, Fraction(0))],
    )
    badpool = tmp_path / "bad.json"
    badpool.write_text(dumps(sample_set_to_json(contradictory)))
    code, stdout, _ = run(
        capsys, "learn", "--mode", "pac", "--input", str(badpool), "--seed", "1"
    )
    assert code == 1
    assert last_report(stdout)["outcome"] == "none"


def test_learn_trivial(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    assert run(capsys, "learn", "--mode", "trivial", "--n", "4", "--seed", "2", "--out", str(a))[0] == 0
    assert run(capsys, "learn", "--mode", "trivial", "--n", "4", "--seed", "2", "--out", str(b))[0] == 0
    assert run(capsys, "learn", "--mode", "trivial", "--n", "4", "--seed", "3", "--out", str(c))[0] == 0
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    t = circuit_from_json(json.loads(a.read_text()))
    assert is_symplectic(t.s_matrix(), 4)
    code, _, err = run(capsys, "learn", "--mode", "trivial", "--seed", "2")
    assert code == 2 and "--n" in err


def test_learn_input_required(capsys):
    code, _, err = run(capsys, "learn", "--mode", "pac", "--seed", "0")
    assert code == 2 and "--input" in err


def test_complexity_frozen_and_monotone(capsys):
    code, stdout, _ = run(
        capsys, "complexity", "--cnot-n", "8", "--epsilon", "0.1", "--delta", "0.1"
    )
    assert code == 0
    assert "m = 595911952" in stdout
    assert "constants are set to 1" in stdout
    assert last_report(stdout)["counts"]["m"] == 595911952

    def m_for(size):
        code, stdout, _ = run(
            capsys, "complexity", "--epsilon", "0.1", "--delta", "0.1",
            "--depth", "3", "--size", str(size),
        )
        assert code == 0
        return last_report(stdout)["counts"]["m"]

    assert m_for(128) > m_for(64)
    code, _, err = run(
        capsys, "complexity", "--cnot-n", "8", "--epsilon", "0", "--delta", "0.1"
    )
    assert code == 2 and "epsilon" in err
    code, _, err = run(
        capsys, "complexity", "--epsilon", "0.1", "--delta", "0.1",
        "--depth", "3", "--size", "64", "--alpha", "0.6", "--beta", "0.5",
    )
    assert code == 2
    code, _, err = run(capsys, "complexity", "--epsilon", "0.1", "--delta", "0.1")
    assert code == 2 and "--depth" in err


def test_complexity_defaults_apply_where_read(capsys):
    # an omitted flag reads as its default: same m, same digest
    for omitted, given in (
        (["--cnot-n", "8"], ["--cnot-n", "8", "--depth-constant", "1"]),
        (["--depth", "3", "--size", "64"],
         ["--depth", "3", "--size", "64", "--alpha", "0", "--beta", "0.5", "--d", "2"]),
    ):
        reports = []
        for flags in (omitted, given):
            code, stdout, _ = run(capsys, *_COMPLEXITY, *flags)
            assert code == 0
            report = last_report(stdout)
            reports.append((report["counts"], report["input_digest"]))
        assert reports[0] == reports[1]


def test_malformed_fields_exit_2_not_1(unit_reduction, tmp_path, capsys):
    # exit 1 means "no witness"; a wrong-typed field is an input error
    payload = json.loads(unit_reduction.read_text())
    payload["samples"]["samples"][0]["label"] = ["1"]
    bad_samples = tmp_path / "bad_label.json"
    bad_samples.write_text(dumps(payload))
    code, _, err = run(capsys, "solve", str(bad_samples))
    assert code == 2 and err.startswith("error:") and "label" in err
    bad_gate = tmp_path / "bad_gate.json"
    for gate in ({"name": "h", "qubit": "0"}, {"name": "cnot", "control": [0], "target": 1}):
        bad_gate.write_text(dumps({"n": 3, "gates": [gate]}))
        code, _, err = run(capsys, "verify", str(bad_gate), str(unit_reduction))
        assert code == 2 and err.startswith("error:") and "gate field" in err


_HUGE = "1" + "0" * 89  # 90 digits: finite as an int, too large for a float
# the CLI's own message; random.choices says "Total of weights must be finite"
_BAD_WEIGHTS = "weights must be finite nonnegative"
_COMPLEXITY = ["complexity", "--epsilon", "0.1", "--delta", "0.1"]


def _pac_argv(tmp_path, *flags, **fields):
    samples, _ = random_consistent_set(random.Random(123), 3, 10)
    path = tmp_path / "pool.json"
    path.write_text(dumps(dict(sample_set_to_json(samples), **fields)))
    return ["learn", "--mode", "pac", "--input", str(path), "--seed", "1", *flags]


def _single_label_argv(tmp_path, label):
    path = batch_fixture(tmp_path)
    obj = json.loads(path.read_text())
    obj["samples"][0]["label"] = label
    path.write_text(dumps(obj))
    return ["learn", "--mode", "single-measurement", "--input", str(path), "--seed", "1"]


def _reduce_cnf_argv(tmp_path, *flags):
    path = tmp_path / "in.cnf"
    path.write_text("p cnf 1 1\n+1 0\n")
    return ["reduce", "--cnf", str(path), "--seed", "0", *flags]


def _golden_brute_argv(tmp_path):
    samples, inst = reduce_formula_to_samples(parse_formula(GOLDEN_FORMULA), random.Random(7))
    path = tmp_path / "golden.json"
    path.write_text(dumps({"samples": sample_set_to_json(samples), "instance": instance_to_json(inst)}))
    return ["solve", str(path), "--strategy", "brute"]


def _solve_non_utf8_argv(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"n": 1, "samples": [\x80]}')
    return ["solve", str(path), "--strategy", "brute"]


def _deep_json_argv(tmp_path, command):
    # json.loads recurses once per nesting level
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    if command == "solve":
        return ["solve", str(path), "--strategy", "brute"]
    circuit = tmp_path / "circuit.json"
    circuit.write_text(dumps(circuit_to_json(CnotCircuit.identity(1))))
    return ["verify", str(circuit), str(path)]


def _solve_list_label_argv(tmp_path):
    samples, _ = random_consistent_set(random.Random(123), 3, 10)
    obj = sample_set_to_json(samples)
    obj["samples"][0]["label"] = ["1"]
    path = tmp_path / "samples.json"
    path.write_text(dumps(obj))
    return ["solve", str(path)]


# a parameter starting "error: " is the whole of stderr, with {tmp} for tmp_path
@pytest.mark.parametrize(
    "make_argv, field",
    [
        (lambda tmp: _pac_argv(tmp, "--draw-constant", "inf"), "draw_constant"),
        (lambda tmp: _pac_argv(tmp, "--draw-constant", "nan"), "draw_constant"),
        (lambda tmp: _pac_argv(tmp, "--draw-constant", "-1"), "draw_constant"),
        (lambda tmp: _pac_argv(tmp, "--draw-constant", "1e9"), "draw_constant"),
        (lambda tmp: _pac_argv(tmp, s=True), "'s'"),
        (lambda tmp: _pac_argv(tmp, s=10**400), "draw_constant * s * ln s"),
        (lambda tmp: _pac_argv(tmp, weights=[True] + [1] * 9), "weights"),
        (lambda tmp: _pac_argv(tmp, weights=[math.nan] + [1] * 9), _BAD_WEIGHTS),
        (lambda tmp: _pac_argv(tmp, weights=[math.inf] + [1] * 9), _BAD_WEIGHTS),
        (lambda tmp: _pac_argv(tmp, weights=[1e308] * 10), _BAD_WEIGHTS),
        (lambda tmp: _pac_argv(tmp, weights=[10**400] + [1] * 9), _BAD_WEIGHTS),
        (lambda tmp: _single_label_argv(tmp, True), "label"),
        (lambda tmp: _single_label_argv(tmp, 1.0), "labels must be 0 or 1"),
        (lambda tmp: ["learn", "--mode", "trivial", "--n", "1025", "--seed", "1"], "--n"),
        (lambda tmp: _COMPLEXITY + ["--cnot-n", _HUGE], "depth, d or size"),
        (
            lambda tmp: _COMPLEXITY + ["--depth", "3", "--size", "64", "--d", _HUGE],
            "depth, d or size",
        ),
        (
            lambda tmp: _COMPLEXITY + ["--cnot-n", "8", "--alpha", "0.4", "--d", "3"],
            "error: --alpha is not read with --cnot-n\n",
        ),
        (
            lambda tmp: _COMPLEXITY + ["--cnot-n", "8", "--beta", "0.45"],
            "error: --beta is not read with --cnot-n\n",
        ),
        (
            lambda tmp: _COMPLEXITY + ["--cnot-n", "8", "--d", "3"],
            "error: --d is not read with --cnot-n\n",
        ),
        (
            lambda tmp: _COMPLEXITY + ["--cnot-n", "8", "--depth", "9", "--size", "100"],
            "error: --depth is not read with --cnot-n\n",
        ),
        (
            lambda tmp: _COMPLEXITY + ["--cnot-n", "8", "--size", "100"],
            "error: --size is not read with --cnot-n\n",
        ),
        (
            lambda tmp: _COMPLEXITY + ["--depth", "3", "--size", "64", "--depth-constant", "2"],
            "error: --depth-constant is not read without --cnot-n\n",
        ),
        (
            lambda tmp: ["learn", "--mode", "trivial", "--n", "2", "--seed", "1",
                         "--input", "/nonexistent"],
            "error: --input is not read in trivial mode\n",
        ),
        (
            lambda tmp: ["learn", "--mode", "trivial", "--n", "2", "--seed", "1",
                         "--draw-constant", "2"],
            "error: --draw-constant is not read in trivial mode\n",
        ),
        (
            lambda tmp: _pac_argv(tmp, "--n", "3"),
            "error: --n is not read in pac mode\n",
        ),
        (
            lambda tmp: _single_label_argv(tmp, "1") + ["--n", "3"],
            "error: --n is not read in single-measurement mode\n",
        ),
        (
            lambda tmp: _single_label_argv(tmp, "1") + ["--draw-constant", "2"],
            "error: --draw-constant is not read in single-measurement mode\n",
        ),
        (
            lambda tmp: _reduce_cnf_argv(tmp, "--formula", "x1"),
            "error: give exactly one of --cnf or --formula\n",
        ),
        (
            lambda tmp: ["reduce", "--seed", "0"],
            "error: give exactly one of --cnf or --formula\n",
        ),
        (_reduce_cnf_argv, "error: {tmp}/in.cnf: line 2: bad literal '+1'\n"),
        (_golden_brute_argv, "error: enumeration limit: n = 9 exceeds 5\n"),
        (
            _solve_non_utf8_argv,
            "error: {tmp}/latin.json is not valid JSON: 'utf-8' codec can't decode"
            " byte 0x80 in position 21: invalid start byte\n",
        ),
        (
            lambda tmp: _deep_json_argv(tmp, "solve"),
            "deep.json is not valid JSON: maximum recursion depth exceeded",
        ),
        (
            lambda tmp: _deep_json_argv(tmp, "verify"),
            "deep.json is not valid JSON: maximum recursion depth exceeded",
        ),
        (
            _solve_list_label_argv,
            "error: {tmp}/samples.json: label must be one of '0', '1/2', '1'; got ['1']\n",
        ),
        (
            lambda tmp: ["reduce", "--formula", "+".join(["x1"] * 300), "--seed", "0"],
            "error: instance size 302 exceeds the limit of 64\n",
        ),
    ],
    ids=[
        "draw-constant-inf", "draw-constant-nan", "draw-constant-negative",
        "draw-constant-1e9", "s-true", "s-huge", "weights-true", "weights-nan",
        "weights-infinity", "weights-total-overflows", "weights-huge-int", "single-label-true",
        "single-label-float",
        "trivial-n-1025",
        "complexity-huge-cnot-n", "complexity-huge-d",
        "complexity-cnot-n-alpha", "complexity-cnot-n-beta", "complexity-cnot-n-d",
        "complexity-cnot-n-depth", "complexity-cnot-n-size", "complexity-depth-constant-alone",
        "trivial-input", "trivial-draw-constant", "pac-n", "single-n", "single-draw-constant",
        "reduce-cnf-and-formula", "reduce-neither", "dimacs-bad-literal",
        "solve-enumeration-limit", "solve-non-utf8", "solve-deep-json", "verify-deep-json",
        "solve-list-label", "reduce-64-qubit-limit",
    ],
)
def test_bad_numbers_exit_2_naming_the_field(make_argv, field, tmp_path, capsys):
    code, stdout, err = run(capsys, *make_argv(tmp_path))
    assert code == 2 and "Traceback" not in err
    if field.startswith("error: "):
        assert err == field.format(tmp=tmp_path) and stdout == "", err
    else:
        assert err.startswith("error:") and field in err, err


# sha256 of `reduce --formula GOLDEN_FORMULA --seed 7` as written with the
# earlier two-space-indent layout, json.dumps(obj, sort_keys=True, indent=2)
GOLDEN_INDENTED_SHA256 = "956824f524fb98c00fb77f85dcb58cc5917f46ebbf69f1490cdb0dc3627e692c"


def test_compact_output_matches_the_indented_layout(tmp_path, capsys):
    out = tmp_path / "golden.json"
    run(capsys, "reduce", "--formula", GOLDEN_FORMULA, "--seed", "7", "--out", str(out))
    text = out.read_text()
    payload = json.loads(text)
    assert text == dumps(payload) and "\n" not in text[:-1]
    indented = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest() == GOLDEN_INDENTED_SHA256
    # files in the indented layout still load: solve and verify take them
    old = tmp_path / "golden_indented.json"
    old.write_text(indented)
    witness = tmp_path / "assignment.json"
    code, stdout, _ = run(
        capsys, "solve", str(old), "--strategy", "affine", "--out", str(witness)
    )
    assert code == 0 and last_report(stdout)["outcome"] == "found"
    inst = instance_from_json(payload["instance"])
    a = string_to_bits(json.loads(witness.read_text())["assignment"], inst.num_vars)
    circuit = tmp_path / "circuit.json"
    circuit.write_text(
        json.dumps(circuit_to_json(CnotCircuit(inst.matrix_at(a), 0)), indent=2)
    )
    code, stdout, _ = run(capsys, "verify", str(circuit), str(old))
    assert code == 0 and last_report(stdout)["outcome"] == "consistent"


def test_indented_sample_set_solves_like_the_compact_one(unit_reduction, tmp_path, capsys):
    payload = json.loads(unit_reduction.read_text())
    old = tmp_path / "unit_indented.json"
    old.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    outs = []
    for path in (unit_reduction, old):
        witness = tmp_path / ("w%d.json" % len(outs))
        code, stdout, _ = run(capsys, "solve", str(path), "--out", str(witness))
        assert code == 0
        outs.append((witness.read_bytes(), last_report(stdout)["counts"]))
        code, _, _ = run(capsys, "verify", str(witness), str(path))
        assert code == 0
    assert outs[0] == outs[1]


# sha256 of two reduce outputs as written before the sample-set dumper shared
# one dict per distinct Pauli; sharing must not change a byte
GOLDEN_SHA256 = "490419e2a852a0c2cefe824cd508282f42b1e6c48df41fc5779f7121cfc43a9d"
UNIT_SHA256 = "8909da1f24724d36efd1f0f3aa69bfd1e8bf3c1691e8e4d8bf7a86a283e05074"


def test_reduce_output_bytes_are_pinned(unit_reduction, tmp_path, capsys):
    out = tmp_path / "golden.json"
    run(capsys, "reduce", "--formula", GOLDEN_FORMULA, "--seed", "7", "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256
    assert hashlib.sha256(unit_reduction.read_bytes()).hexdigest() == UNIT_SHA256


# sha256 of the transcript of test_cli_transcript_is_pinned: every exit
# code, stdout line, stderr text and output file of reduce, solve affine/
# brute/decision and verify on two CNFs and the golden formula, each reduced
# with a fixed seed, with each report's wall_time_s removed
CLI_TRANSCRIPT_SHA256 = "dae783fa73f7db897a7630cae98738dbedc13082c8694be9a965a518a5bdbf46"


def test_cli_transcript_is_pinned(tmp_path, capsys):
    transcript = []

    def step(*argv):
        code, stdout, err = run(capsys, *argv)
        lines = stdout.splitlines()
        if lines:
            report = json.loads(lines[-1])
            del report["wall_time_s"]
            lines[-1] = report
        transcript.append((argv[0], code, lines, err))
        return code

    def output(path):
        data = path.read_bytes() if path.exists() else None
        transcript.append((path.name, data))
        return data

    cnf = tmp_path / "in.cnf"
    sources = [
        ("cnf-a", ["--cnf", str(cnf)], "p cnf 1 1\n-1 0\n", "11"),
        ("cnf-b", ["--cnf", str(cnf)], "p cnf 2 2\n1 0\n2 0\n", "12"),
        ("golden", ["--formula", GOLDEN_FORMULA], None, "7"),
    ]
    for name, source, text, seed in sources:
        if text is not None:
            cnf.write_text(text)
        red = tmp_path / (name + ".json")
        assert step("reduce", *source, "--seed", seed, "--out", str(red)) == 0
        output(red)
        witnesses = []
        for strategy in ("affine", "brute", "decision"):
            out = tmp_path / ("%s.%s.json" % (name, strategy))
            step("solve", str(red), "--strategy", strategy, "--out", str(out))
            data = output(out)
            if data is None:
                continue
            if strategy == "affine":
                inst = instance_from_json(json.loads(red.read_text())["instance"])
                a = string_to_bits(json.loads(data)["assignment"], inst.num_vars)
                out = tmp_path / (name + ".witness.json")
                out.write_text(dumps(circuit_to_json(CnotCircuit(inst.matrix_at(a), 0))))
            witnesses.append(out)
        for witness in witnesses:
            assert step("verify", str(witness), str(red)) == 0
    codes = [entry[1] for entry in transcript if entry[0] == "solve"]
    assert codes == [0, 0, 0, 0, 0, 0, 0, 2, 2]
    digest = hashlib.sha256(repr(transcript).encode()).hexdigest()
    assert digest == CLI_TRANSCRIPT_SHA256


@pytest.mark.parametrize("field, value", TWINS, ids=TWIN_IDS)
def test_a_twin_of_a_valid_pauli_exits_2(field, value, tmp_path, capsys):
    obj = twin_sample_set(field, value, "state")
    path = tmp_path / "twin.json"
    path.write_text(dumps(obj))
    code, _, err = run(capsys, "solve", str(path), "--strategy", "brute")
    assert code == 2 and err.startswith("error:") and "Pauli field '%s'" % field in err, err
    batch = tmp_path / "twin_batch.json"
    entries = [{"state": s["state"], "label": "1"} for s in obj["samples"]]
    batch.write_text(dumps({"measurement": obj["samples"][0]["measurement"], "samples": entries}))
    code, _, err = run(
        capsys, "learn", "--mode", "single-measurement", "--input", str(batch), "--seed", "1"
    )
    assert code == 2 and err.startswith("error:") and "Pauli field '%s'" % field in err, err


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"label": "1"}, "sample field 'state' must list the generators"),
        ({"state": [], "label": "1"}, "sample field 'state' must list the generators"),
        (3, "sample must be an object"),
    ],
    ids=["no-state", "empty-state", "not-an-object"],
)
def test_learn_single_measurement_names_the_bad_entry_field(entry, message, tmp_path, capsys):
    path = batch_fixture(tmp_path)
    obj = json.loads(path.read_text())
    obj["samples"].append(entry)
    path.write_text(dumps(obj))
    code, stdout, err = run(
        capsys, "learn", "--mode", "single-measurement", "--input", str(path), "--seed", "1"
    )
    assert code == 2 and err == "error: %s: %s\n" % (path, message)
    assert stdout == ""
