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
    hex_to_word,
    instance_from_json,
    instance_to_json,
    sample_set_dumps,
    sample_set_from_json,
    sample_set_to_json,
    string_to_bits,
    word_to_hex,
)
from cnotpac.stabilizer import StabilizerGroup
from cnotpac.tableau import CliffordTableau

from formula_corpus import CORPUS
from helpers import is_symplectic, reference_sample_code, x_power
from test_reduction import GOLDEN_M0
from test_search import random_consistent_set
from test_serialization import (
    BAD_FIELD_DOCS,
    BAD_FIELD_IDS,
    BAD_GROUP_DOCS,
    BAD_GROUP_IDS,
    BAD_STATE_DOCS,
    BAD_STATE_IDS,
    BAD_WORD_DOCS,
    BAD_WORD_IDS,
    SECOND_ENTRY,
    TWIN_IDS,
    TWINS,
    to_bit_string_layout,
    twin_sample_set,
)


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
        ("+".join(["x1"] * 300), None, "instance size 302 exceeds the limit of 128"),
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


@pytest.fixture
def golden_reduction(tmp_path, capsys):
    out = tmp_path / "golden.json"
    run(capsys, "reduce", "--formula", GOLDEN_FORMULA, "--seed", "7", "--out", str(out))
    return out


@pytest.mark.parametrize(
    "samples",
    [{"n": 10}, {"bogus": 1}, [], {"n": True}, {"n": "9"}],
    ids=["n-10", "bogus", "list", "n-true", "n-string"],
)
def test_solve_affine_refuses_samples_on_another_qubit_count(samples, golden_reduction, capsys):
    # an affine witness must stand for the file's samples too, so their 'n'
    # must be the instance size
    doc = json.loads(golden_reduction.read_text())
    if isinstance(samples, dict) and set(samples) == {"n"}:
        samples = dict(doc["samples"], **samples)
    bad = golden_reduction.with_name("bad.json")
    bad.write_text(dumps(dict(doc, samples=samples)))
    code, stdout, err = run(capsys, "solve", str(bad), "--strategy", "affine")
    assert (code, stdout) == (2, "")
    assert err == "error: %s: field 'samples' must have 'n' = 9, the instance size\n" % bad


def test_solve_affine_reads_only_the_samples_qubit_count(golden_reduction, capsys):
    # the samples are not parsed: a broken table with the right 'n' solves
    code, stdout, _ = run(capsys, "solve", str(golden_reduction), "--strategy", "affine")
    assert code == 0 and "assignment: 0011" in stdout.splitlines()
    doc = json.loads(golden_reduction.read_text())
    doc["samples"] = {"n": 9, "paulis": "not a table"}
    golden_reduction.write_text(dumps(doc))
    code, stdout, _ = run(capsys, "solve", str(golden_reduction), "--strategy", "affine")
    assert code == 0 and "assignment: 0011" in stdout.splitlines()
    del doc["samples"]  # the instance alone solves as before
    golden_reduction.write_text(dumps(doc))
    code, stdout, _ = run(capsys, "solve", str(golden_reduction), "--strategy", "affine")
    assert code == 0 and "assignment: 0011" in stdout.splitlines()


def test_a_sample_measuring_an_identity_table_entry_is_refused(unit_reduction, tmp_path, capsys):
    doc = json.loads(unit_reduction.read_text())
    n = doc["samples"]["n"]
    table = doc["samples"]["paulis"]
    zero = "0" * -(-n // 4)  # the W(n) word of 0
    table.append({"n": n, "sign": 1, "x": zero, "z": zero})
    doc["samples"]["samples"][1]["measurement"] = len(table) - 1
    bad = tmp_path / "identity.json"
    bad.write_text(dumps(doc))
    circuit = tmp_path / "circuit.json"
    circuit.write_text(dumps(circuit_to_json(CnotCircuit.identity(n))))
    want = "error: %s: measurement must not be the identity\n" % bad
    for argv in (["verify", str(circuit), str(bad)], ["solve", str(bad), "--strategy", "brute"]):
        assert run(capsys, *argv) == (2, "", want)


def test_solve_unsatisfiable(tmp_path, capsys):
    out = tmp_path / "zero.json"
    run(capsys, "reduce", "--formula", "x1+x1", "--seed", "1", "--out", str(out))
    for strategy in ("brute", "affine", "decision"):
        code, stdout, _ = run(capsys, "solve", str(out), "--strategy", strategy)
        assert code == 1, strategy
        assert last_report(stdout)["outcome"] == "none"


def test_solve_enumeration_limit(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(dumps({"n": 20, "paulis": [], "samples": [], "states": []}))
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
    monkeypatch.setattr(cli, "cmd_solve", lambda args: (7, "", "none", {}, None, "replaced"))
    assert main(["solve", str(unit_reduction)]) == 7


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["reduce", "--formula", "x1", "--seed", "3"], 2),
        (["solve", "{red}", "--strategy", "affine"], 1),
        (["solve", "{red}", "--strategy", "brute"], 1),
        (["learn", "--mode", "trivial", "--n", "2", "--seed", "5"], 1),
    ],
    ids=["reduce", "solve-affine", "solve-brute", "learn-trivial"],
)
def test_stdout_is_the_payload_then_the_text_then_the_report(
    argv, lines, unit_reduction, tmp_path, capsys
):
    argv = [a.format(red=unit_reduction) for a in argv]
    out = tmp_path / "out.json"
    code, stdout, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    expected = out.read_text() + "".join(stdout.splitlines(True)[:lines])
    code, stdout, _ = run(capsys, *argv)
    assert code == 0 and stdout.startswith(expected)
    assert len(stdout.splitlines()) == len(expected.splitlines()) + 1
    assert last_report(stdout)["command"] == argv[0]
    # an unwritable --out is an error: exit 2, nothing on stdout
    code, stdout, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "out.json"))
    assert code == 2 and stdout == "" and err.startswith("error: cannot write ")


def test_verify_inconsistent_reports_index(tmp_path, capsys):
    rng = random.Random(121)
    from test_search import random_cnot_circuit

    hidden = random_cnot_circuit(rng, 2)
    t = hidden.to_tableau()
    raw = []
    for _ in range(6):
        state = StabilizerGroup.computational_basis(2, rng.randrange(4))
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


def test_verify_first_violation_matches_the_per_sample_loop(tmp_path, capsys):
    # reduce outputs of the satisfiable corpus entries, verified against a
    # witness after a few labels and sign bits of the file are changed
    rng = random.Random(3321)
    outcomes = set()
    for _, f, k in CORPUS:
        ss, inst = reduce_formula_to_samples(f, rng, num_vars=k)
        sat = [a for a in range(1 << k) if inst.determinant_at(a)]
        if not sat or ss.n > 12:
            continue
        witness = CnotCircuit(inst.matrix_at(sat[0]), 0)
        cpath = tmp_path / "circuit.json"
        cpath.write_text(dumps(circuit_to_json(witness)))
        obj = json.loads(sample_set_dumps(ss))
        for _ in range(rng.randrange(3)):
            entry = rng.choice(obj["samples"])
            if rng.random() < 0.5:
                entry["label"] = rng.choice(["0", "1/2", "1"])
            else:
                j = rng.randrange(ss.n)
                entry["signs"] = word_to_hex(hex_to_word(entry["signs"], ss.n) ^ 1 << j, ss.n)
        spath = tmp_path / "samples.json"
        spath.write_text(dumps(obj))
        t = witness.to_tableau()
        loaded = sample_set_from_json(obj)
        wrong = [i for i, s in enumerate(loaded) if reference_sample_code(t, s) != s.code]
        code, stdout, _ = run(capsys, "verify", str(cpath), str(spath))
        counts = last_report(stdout)["counts"]
        if wrong:
            assert code == 1 and counts["first_violation"] == wrong[0]
        else:
            assert code == 0 and "first_violation" not in counts
        outcomes.add(code)
    assert outcomes == {0, 1}


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


@pytest.mark.parametrize(
    "doc, message", BAD_STATE_DOCS + BAD_FIELD_DOCS, ids=BAD_STATE_IDS + BAD_FIELD_IDS
)
def test_verify_names_a_bad_state_index_after_good_ones(doc, message, tmp_path, capsys):
    circuit = tmp_path / "circuit.json"
    circuit.write_text(dumps(circuit_to_json(CnotCircuit.identity(2))))
    spath = tmp_path / "samples.json"
    spath.write_text(dumps(doc))
    code, stdout, err = run(capsys, "verify", str(circuit), str(spath))
    assert (code, stdout, err) == (2, "", "error: %s: %s\n" % (spath, message))


@pytest.mark.parametrize("doc, message", BAD_WORD_DOCS, ids=BAD_WORD_IDS)
def test_a_bad_word_exits_2_naming_its_field(doc, message, tmp_path, capsys):
    spath = tmp_path / "samples.json"
    spath.write_text(dumps(doc))
    code, stdout, err = run(capsys, "solve", str(spath), "--strategy", "brute")
    assert (code, stdout, err) == (2, "", "error: %s: %s\n" % (spath, message))


@pytest.mark.parametrize("doc, message", BAD_GROUP_DOCS, ids=BAD_GROUP_IDS)
def test_verify_refuses_a_state_that_is_no_group(doc, message, tmp_path, capsys):
    circuit = tmp_path / "circuit.json"
    circuit.write_text(dumps(circuit_to_json(CnotCircuit.identity(2))))
    spath = tmp_path / "samples.json"
    spath.write_text(dumps(doc))
    code, stdout, err = run(capsys, "verify", str(circuit), str(spath))
    assert (code, stdout, err) == (2, "", "error: %s: %s%s\n" % (spath, SECOND_ENTRY, message))


def batch_fixture(tmp_path, seed=5, contradictory=False):
    rng = random.Random(seed)
    from cnotpac.tableau import Gate

    hidden = CnotCircuit.from_gates(
        3, [Gate("cnot", control=0, target=2), Gate("x", qubit=1)]
    )
    t = hidden.to_tableau()
    meas = z_power(3, 0b101, sign=-1)
    samples = []
    for _ in range(8):
        state = StabilizerGroup.computational_basis(3, rng.randrange(8))
        samples.append(Sample(state, meas, state.expectation(t.conjugate_inverse(meas))))
    if contradictory:
        first = samples[0]
        samples.append(Sample(first.state, meas, 1 - first.label))
    path = tmp_path / ("batch%d.json" % len(samples))
    path.write_text(sample_set_dumps(SampleSet(3, samples)) + "\n")
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
    plus = StabilizerGroup([x_power(1, 1)])
    path = tmp_path / "plus.json"
    path.write_text(dumps(sample_set_to_json(SampleSet(1, [Sample(plus, z_power(1, 1), 1)]))))
    code, stdout, _ = run(
        capsys, "learn", "--mode", "single-measurement", "--input", str(path), "--seed", "1"
    )
    assert code == 1
    assert stdout.splitlines()[0] == "no consistent hypothesis: only the identity image is admissible"
    assert last_report(stdout)["outcome"] == "none"


def _one_measurement_set(measurements, labels):
    """The JSON of a 1-qubit sample set on |0>, one sample per measurement
    and label."""
    zero = StabilizerGroup.zero_state(1)
    return sample_set_to_json(
        SampleSet(1, [Sample(zero, m, label) for m, label in zip(measurements, labels)])
    )


_X_BATCH = _one_measurement_set([x_power(1, 1)], [1])


# a one-sample pool: |0> measured on Z, label 1
_POOL = _one_measurement_set([z_power(1, 1)], [1])


@pytest.mark.parametrize(
    "mode, obj, message",
    [
        ("single-measurement", [], "sample set must be an object"),
        ("pac", [], "sample set must be an object"),
        ("single-measurement", _X_BATCH, "measurement must be a nonidentity Z-type Pauli"),
        (
            "single-measurement",
            _one_measurement_set([z_power(1, 1), z_power(1, 1, sign=-1)], [1, 0]),
            "samples must share one measurement",
        ),
        (
            "single-measurement",
            _one_measurement_set([z_power(1, 1)], [Fraction(1, 2)]),
            "labels must be 0 or 1",
        ),
        (
            "single-measurement",
            {"n": 1, "paulis": [], "samples": [], "states": []},
            "sample set must contain at least one sample",
        ),
        ("pac", {"n": 1, "paulis": [], "samples": [], "states": []}, "pac input needs at least one sample"),
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
        "batch-two-measurements",
        "batch-half-label",
        "batch-empty",
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
    state = StabilizerGroup.zero_state(2)
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


# |0> measured on Z labelled 1 and 0, and on X labelled 1/2: a hypothesis
# with q = 0 mislabels the second sample, one with q = 1 the first, and
# every hypothesis gives X the label 1/2
_SPLIT_POOL = _one_measurement_set(
    [z_power(1, 1), z_power(1, 1), x_power(1, 1)], [1, 0, Fraction(1, 2)]
)


@pytest.mark.parametrize(
    "weights, error_by_q", [([5, 2, 1], (2 / 8, 5 / 8)), (None, (1 / 3, 1 / 3))]
)
def test_learn_pac_reports_the_exact_error_under_the_pool_weights(
    weights, error_by_q, tmp_path, capsys
):
    fields = {"s": 1} if weights is None else {"s": 1, "weights": weights}
    pool = tmp_path / "pool.json"
    pool.write_text(dumps(dict(_SPLIT_POOL, **fields)))
    hyp = tmp_path / "hyp.json"
    learned = set()
    for seed in range(8):  # s = 1 makes one draw, so the seed picks the sample learned
        code, stdout, _ = run(
            capsys, "learn", "--mode", "pac", "--input", str(pool), "--seed", str(seed),
            "--out", str(hyp),
        )
        report = last_report(stdout)
        assert code == 0 and report["outcome"] == "found-unaccepted"
        q = circuit_from_json(json.loads(hyp.read_text())).q
        assert report["counts"]["error"] == error_by_q[q]
        learned.add(q)
    assert learned == {0, 1}


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
        (lambda tmp: _single_label_argv(tmp, 1.0), "label must be one of"),
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
            "error: instance size 302 exceeds the limit of 128\n",
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
        "solve-list-label", "reduce-instance-size-limit",
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
GOLDEN_INDENTED_SHA256 = "9f26b8118dfefb6b879afba8a8bfd9284ae7c9f37d455530819bdcd6cafbd28a"


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


# sha256 of two reduce outputs in the sample-set schema of hex words, with
# a 'paulis' table of measurements and a 'states' table of generator keys:
# the golden formula at seed 7 and UNIT_CNF at seed 3
GOLDEN_SHA256 = "d2da884955e1d1ea8a2b7da450e53ebfc5915582fadb4a1a9b639a21df02af5d"
UNIT_SHA256 = "210b1d5aac31ae4fe52922d414382d856ee381ec68adf1be02fa6018519dedbc"


def test_reduce_output_bytes_are_pinned(unit_reduction, tmp_path, capsys):
    out = tmp_path / "golden.json"
    run(capsys, "reduce", "--formula", GOLDEN_FORMULA, "--seed", "7", "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256
    assert hashlib.sha256(unit_reduction.read_bytes()).hexdigest() == UNIT_SHA256


# sha256 of the transcript of test_cli_transcript_is_pinned: every exit
# code, stdout line, stderr text and output file of reduce, solve affine/
# brute/decision and verify on two CNFs and the golden formula, each reduced
# with a fixed seed, with each report's wall_time_s removed
CLI_TRANSCRIPT_SHA256 = "079ecc4b23e1c63fa07cee3eef11d8f77ff56b0c2e91fba6aee422f685a740bb"


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


def test_the_pipeline_builds_no_pauli_generators(tmp_path, capsys, monkeypatch):
    # every path from reduce to verify reads a group's and a tableau's keys
    # and signs; one that rebuilt their Pauli objects would raise here
    def refuse(owner):
        raise AssertionError("Pauli objects of a %s read on the pipeline" % type(owner).__name__)

    monkeypatch.setattr(StabilizerGroup, "generators", property(refuse))
    monkeypatch.setattr(CliffordTableau, "cols", property(refuse))
    cnf = tmp_path / "in.cnf"
    sources = [
        ("cnf-a", ["--cnf", str(cnf)], "p cnf 1 1\n-1 0\n", "11"),
        ("cnf-b", ["--cnf", str(cnf)], "p cnf 2 2\n1 0\n2 0\n", "12"),
        ("golden", ["--formula", GOLDEN_FORMULA], None, "7"),
    ]
    codes = []
    for name, source, text, seed in sources:
        if text is not None:
            cnf.write_text(text)
        red = tmp_path / (name + ".json")
        assert run(capsys, "reduce", *source, "--seed", seed, "--out", str(red))[0] == 0
        for strategy in ("affine", "brute", "decision"):
            out = tmp_path / ("%s.%s.json" % (name, strategy))
            code, _, err = run(capsys, "solve", str(red), "--strategy", strategy, "--out", str(out))
            codes.append(code)
            if code == 2:
                # the golden reduction has n = 9
                assert err == "error: enumeration limit: n = 9 exceeds 5\n", err
                continue
            if strategy == "affine":
                inst = instance_from_json(json.loads(red.read_text())["instance"])
                a = string_to_bits(json.loads(out.read_text())["assignment"], inst.num_vars)
                out.write_text(dumps(circuit_to_json(CnotCircuit(inst.matrix_at(a), 0))))
            assert run(capsys, "verify", str(out), str(red))[0] == 0
    assert codes == [0, 0, 0, 0, 0, 0, 0, 2, 2]


@pytest.mark.parametrize("field, value", TWINS, ids=TWIN_IDS)
def test_a_twin_of_a_valid_pauli_exits_2(field, value, tmp_path, capsys):
    obj = twin_sample_set(field, value, "state")
    path = tmp_path / "twin.json"
    path.write_text(dumps(obj))
    code, _, err = run(capsys, "solve", str(path), "--strategy", "brute")
    assert code == 2 and err.startswith("error:") and "Pauli field '%s'" % field in err, err
    # its samples share one Z-type measurement and carry label 1
    code, _, err = run(
        capsys, "learn", "--mode", "single-measurement", "--input", str(path), "--seed", "1"
    )
    assert code == 2 and err.startswith("error:") and "Pauli field '%s'" % field in err, err


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"label": "1"}, "sample field 'state' must be an index in [0, 1) of 'states'"),
        ({"state": [], "label": "1"}, "sample field 'state' must be an index in [0, 1) of 'states'"),
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


def _measure_with(index):
    def edit(obj):
        obj["samples"][0]["measurement"] = index
    return edit


def _to_index_lists(obj):
    """The layout before the 'states' table: bit strings, and every sample
    lists the table indices of its signed generators."""
    to_bit_string_layout(obj)
    paulis, states = obj["paulis"], obj.pop("states")
    for s in obj["samples"]:
        gens = []
        for i, bit in zip(states[s["state"]], s.pop("signs")):
            entry = dict(paulis[i], sign=-1 if bit == "1" else 1)
            if entry not in paulis:
                paulis.append(entry)
            gens.append(paulis.index(entry))
        s["state"] = gens


def _to_nested_schema(obj):
    """The earliest layout: every sample spells out its Paulis."""
    _to_index_lists(obj)
    paulis = obj.pop("paulis")
    for s in obj["samples"]:
        s["measurement"] = paulis[s["measurement"]]
        s["state"] = [paulis[i] for i in s["state"]]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_measure_with(True), "Pauli index True is not an integer in [0, {size})"),
        (_measure_with(1.0), "Pauli index 1.0 is not an integer in [0, {size})"),
        (_measure_with(-1), "Pauli index -1 is not an integer in [0, {size})"),
        (
            lambda obj: obj["samples"][0].update(measurement=len(obj["paulis"])),
            "Pauli index {size} is not an integer in [0, {size})",
        ),
        (_measure_with("0"), "Pauli index '0' is not an integer in [0, {size})"),
        (lambda obj: obj.update(n=2), "sample set field 'paulis' must hold 2-qubit Paulis"),
        (lambda obj: obj.pop("paulis"), "sample set field 'paulis' must be a list"),
        (_to_nested_schema, "sample set field 'paulis' must be a list"),
        (_to_index_lists, "Pauli field 'x': expected 1 hex digits, got 3"),
        (to_bit_string_layout, "Pauli field 'x': expected 1 hex digits, got 3"),
    ],
    ids=[
        "index-true", "index-float", "index-negative", "index-past-the-table", "index-string",
        "entry-with-another-n", "no-table", "old-nested-schema", "old-index-list-schema",
        "old-bit-string-schema",
    ],
)
def test_bad_table_or_index_exits_2_naming_the_file(edit, message, tmp_path, capsys):
    path = batch_fixture(tmp_path)
    obj = json.loads(path.read_text())
    size = len(obj["paulis"])
    edit(obj)
    path.write_text(dumps(obj))
    for argv in (
        ["solve", str(path), "--strategy", "brute"],
        ["learn", "--mode", "single-measurement", "--input", str(path), "--seed", "1"],
        ["learn", "--mode", "pac", "--input", str(path), "--seed", "1"],
    ):
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == "", argv
        assert err == "error: %s: %s\n" % (path, message.format(size=size)), argv


@pytest.mark.parametrize("name", ["x", "h"])
def test_verify_names_a_negative_qubit_of_a_single_qubit_gate(name, tmp_path, capsys):
    circuit = tmp_path / "circuit.json"
    circuit.write_text(dumps({"n": 2, "gates": [{"name": name, "qubit": -1}]}))
    samples, _ = random_consistent_set(random.Random(122), 2, 3)
    spath = tmp_path / "samples.json"
    spath.write_text(dumps(sample_set_to_json(samples)))
    code, stdout, err = run(capsys, "verify", str(circuit), str(spath))
    assert (code, stdout, err) == (2, "", "error: %s: negative qubit index\n" % circuit)


_LONG = "x" * 1_000_000


def _long_in_reduction(edit, *argv):
    """argv on the unit reduction with one field set to _LONG by edit."""
    def make(path):
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(dumps(obj))
        return [argv[0], str(path), *argv[1:]]
    return make


def _long_literal(path):
    cnf = path.parent / "in.cnf"
    cnf.write_text("p cnf 1 1\n%s 0\n" % _LONG)
    return ["reduce", "--cnf", str(cnf), "--seed", "0"]


def _first_sample(obj):
    return obj["samples"]["samples"][0]


# a message repeats a short prefix of a bad value and its length, not all of it
@pytest.mark.parametrize(
    "make_argv, fragment",
    [
        (
            _long_in_reduction(lambda obj: _first_sample(obj).update(signs=_LONG), "solve"),
            "sample field 'signs': expected a nonempty string of lowercase hex digits, got 'xxx",
        ),
        (
            _long_in_reduction(lambda obj: _first_sample(obj).update(measurement=_LONG), "solve"),
            "Pauli index 'xxx",
        ),
        (
            _long_in_reduction(lambda obj: _first_sample(obj).update(label=_LONG), "solve"),
            "label must be one of '0', '1/2', '1'; got 'xxx",
        ),
        (
            _long_in_reduction(
                lambda obj: obj["instance"]["m0"].__setitem__(0, _LONG),
                "solve", "--strategy", "affine",
            ),
            "expected a nonempty string of 0s and 1s, got 'xxx",
        ),
        (_long_literal, "line 2: bad literal 'xxx"),
    ],
    ids=["signs", "measurement", "label", "bit-string", "dimacs-literal"],
)
def test_a_long_bad_value_gives_a_short_message(make_argv, fragment, unit_reduction, capsys):
    code, stdout, err = run(capsys, *make_argv(unit_reduction))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and fragment in err, err[:300]
    # the first 40 characters of the value's repr, then its length
    assert "'%s... (1000000 characters)" % ("x" * 39) in err, err[:300]
    assert len(err.encode()) < 300


# a bad bit string names its field and row; the unit reduction's instance
# has size 3 and one matrix in ms
@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda obj: obj["instance"]["m0"].__setitem__(0, "102"),
            "instance field 'm0' row 0: expected a nonempty string of 0s and 1s, got '102'",
        ),
        (
            lambda obj: obj["instance"]["ms"][0].__setitem__(2, "10"),
            "instance field 'ms' matrix 0 row 2: expected 3 bits, got 2",
        ),
        (
            lambda obj: obj["instance"]["ms"][0].pop(),
            "instance field 'ms' matrix 0 must list 3 rows",
        ),
    ],
    ids=["m0-digit", "ms-width", "ms-rows"],
)
def test_solve_affine_names_the_bad_instance_field(edit, message, unit_reduction, capsys):
    obj = json.loads(unit_reduction.read_text())
    edit(obj)
    unit_reduction.write_text(dumps(obj))
    code, stdout, err = run(capsys, "solve", str(unit_reduction), "--strategy", "affine")
    assert (code, stdout, err) == (2, "", "error: %s: %s\n" % (unit_reduction, message))


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda block: block.update(phases="0101x0"),
            "tableau field 'phases': expected a nonempty string of 0s and 1s, got '0101x0'",
        ),
        (
            lambda block: block.update(phases="0000"),
            "tableau field 'phases': expected 6 bits, got 4",
        ),
        (
            lambda block: block["s"].__setitem__(4, "1" * 7),
            "tableau field 's' row 4: expected 6 bits, got 7",
        ),
    ],
    ids=["phases-digit", "phases-width", "s-width"],
)
def test_verify_names_the_bad_tableau_field(edit, message, tmp_path, capsys):
    samples, hidden = random_consistent_set(random.Random(123), 3, 3)
    obj = circuit_to_json(hidden)
    del obj["gates"]
    edit(obj["tableau"])
    circuit = tmp_path / "circuit.json"
    circuit.write_text(dumps(obj))
    spath = tmp_path / "samples.json"
    spath.write_text(dumps(sample_set_to_json(samples)))
    code, stdout, err = run(capsys, "verify", str(circuit), str(spath))
    assert (code, stdout, err) == (2, "", "error: %s: %s\n" % (circuit, message))


def test_single_measurement_hypothesis_verifies_against_its_input(tmp_path, capsys):
    batch = batch_fixture(tmp_path)
    hyp = tmp_path / "hyp.json"
    code, _, _ = run(
        capsys, "learn", "--mode", "single-measurement", "--input", str(batch),
        "--seed", "4", "--out", str(hyp),
    )
    assert code == 0
    code, stdout, _ = run(capsys, "verify", str(hyp), str(batch))
    assert code == 0 and last_report(stdout)["outcome"] == "consistent"


def test_reduce_output_of_a_six_clause_cnf_stays_small(tmp_path, capsys):
    # each measurement and each generator-key tuple is written once, in hex
    # words (0.30 MB); bit strings with a table of every generator make this
    # file 0.73 MB, a generator-index list per sample 1.65 MB, and spelling
    # out every sample's n generators as strings 21.4 MB
    rng = random.Random(2)
    clauses = [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 6), 3)] for _ in range(6)
    ]
    cnf = tmp_path / "six.cnf"
    cnf.write_text("p cnf 5 6\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses))
    out = tmp_path / "six.json"
    code, stdout, _ = run(capsys, "reduce", "--cnf", str(cnf), "--seed", "0", "--out", str(out))
    assert code == 0 and last_report(stdout)["counts"]["instance_size"] == 53
    assert out.stat().st_size < 3_000_000
