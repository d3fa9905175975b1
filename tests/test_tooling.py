import ast
import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_a_failing_hypothesis_test_fails_without_crashing_pytest(tmp_path):
    # hypothesis explains a failure with the help of libcst, whose import
    # warns; under filterwarnings = error that warning must not become an
    # INTERNALERROR that ends the session before the other test files run
    (tmp_path / "test_fails.py").write_text(FAILING)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out, out
    assert "1 failed" in out, out


SRC = PYPROJECT.parent / "src" / "cnotpac"


def _callee(node):
    """Name of the function or attribute that node calls; None unless a call."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return None


def _calls(tree, names):
    """Lines of the calls in tree to a function or attribute named in names."""
    return [node.lineno for node in ast.walk(tree) if _callee(node) in names]


def _state_wrapper_uses(source):
    """Lines that read .state.group or call StabilizerState(...): a state
    is its group, and StabilizerGroup.group is kept for the benchmark only."""
    tree = ast.parse(source)
    lines = _calls(tree, {"StabilizerState"})
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "group"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "state"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_guard_sees_both_wrapper_uses():
    bad = "a = s.state.group.keys\nb = StabilizerState(g)\nc = stabilizer.StabilizerState(g)\n"
    ok = "a = s.state.keys\nb = StabilizerState.zero_state(2)\nc = gs.group\n"
    assert _state_wrapper_uses(bad) == [1, 2, 3]
    assert _state_wrapper_uses(ok) == []


def test_no_module_reaches_through_a_state_wrapper():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = {p.name: _state_wrapper_uses(p.read_text()) for p in paths}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _measurement_reads(source):
    """Lines that read an attribute named measurement: a sample holds its
    measurement as a key and a sign bit, and only samples.py builds the
    PauliOperator from them."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "measurement"
    )


def _pauli_builds(source):
    """Lines that call z_power(...) or PauliOperator(...)."""
    return sorted(_calls(ast.parse(source), {"z_power", "PauliOperator"}))


# the modules whose paths build no Pauli object: search, reduce, learn and
# the stabilizer group
NO_PAULI_MODULES = ("search.py", "reduction.py", "learning.py", "stabilizer.py")


def test_the_guard_sees_both_pauli_uses():
    bad = "a = s.measurement.z\nb = z_power(n, 1)\nc = pauli.PauliOperator(n, 0, 1)\n"
    ok = "a = s.key >> n\nb = PauliOperator.from_raw(n, 0, 1 << n)\nc = measurement\n"
    assert (_measurement_reads(bad), _pauli_builds(bad)) == ([1], [2, 3])
    assert (_measurement_reads(ok), _pauli_builds(ok)) == ([], [])
    # a mutant of a guarded module: one read and one build appended to it
    source = (SRC / "search.py").read_text()
    end = source.count("\n")
    mutant = source + "m = sample.measurement\np = z_power(n, 1 << c)\n"
    assert _measurement_reads(mutant) == _measurement_reads(source) + [end + 1]
    assert _pauli_builds(mutant) == _pauli_builds(source) + [end + 2]


def test_no_internal_path_reads_a_measurement_or_builds_a_pauli():
    paths = sorted(SRC.glob("*.py"))
    assert {p.name for p in paths} >= set(NO_PAULI_MODULES) | {"samples.py"}
    reads = {p.name: _measurement_reads(p.read_text()) for p in paths if p.name != "samples.py"}
    assert {name: lines for name, lines in reads.items() if lines} == {}
    builds = {name: _pauli_builds((SRC / name).read_text()) for name in NO_PAULI_MODULES}
    assert {name: lines for name, lines in builds.items() if lines} == {}


# the sample-set reader's functions: they parse each 'paulis' entry to its
# key and sign bit, and build no Pauli object
READER_FUNCTIONS = ("sample_set_from_json", "_state_table_entry", "_sample_from_json")


def _reader_pauli_builds(source):
    """Lines in the reader's functions that call pauli_from_json(...) or
    PauliOperator(...), and the names of the reader functions found."""
    defs = [
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in READER_FUNCTIONS
    ]
    lines = [line for node in defs for line in _calls(node, {"pauli_from_json", "PauliOperator"})]
    return sorted(lines), {node.name for node in defs}


def test_the_guard_sees_a_pauli_built_by_the_reader():
    source = (SRC / "serialization.py").read_text()
    # mutants: the table parsed to objects, and a state's Paulis rebuilt
    line = "    measurements = [_pauli_fields(entry) for entry in table]\n"
    mutant = source.replace(line, "    measurements = [pauli_from_json(entry) for entry in table]\n")
    assert source.count(line) == 1
    assert _reader_pauli_builds(mutant)[0] == [source[:source.index(line)].count("\n") + 1]
    line = "    named = [_table_entry(measurements, i) for i in entry]\n"
    extra = "    PauliOperator(n, 0, 1)\n"
    assert source.count(line) == 1
    mutant = source.replace(line, line + extra)
    assert _reader_pauli_builds(mutant)[0] == [source[:source.index(line)].count("\n") + 2]
    # a build outside the reader's functions is not the reader's
    assert _reader_pauli_builds(source + "p = PauliOperator(1, 0, 1)\n")[0] == []


def test_the_sample_set_reader_builds_no_pauli():
    source = (SRC / "serialization.py").read_text()
    assert _reader_pauli_builds(source) == ([], set(READER_FUNCTIONS))


def _fold_triples(source):
    """Lines that unpack a _fold(...) result into three names: a raw Pauli
    is a phase and a key (e, key), not the old (e, x, z) triple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and _callee(node.value) == "_fold":
            shapes = [len(t.elts) for t in node.targets if isinstance(t, (ast.Tuple, ast.List))]
            if 3 in shapes:
                lines.append(node.lineno)
    return sorted(lines)


def test_the_guard_sees_a_fold_unpacked_into_three_names():
    bad = "e, x, z = _fold(n, keys, signs, mask)\n[e, x, z] = pauli._fold(n, k, s, m, 3)\n"
    ok = "e, key = _fold(n, keys, signs, mask)\ne, x, z = other(_fold(n, k, s, m))\n"
    assert _fold_triples(bad) == [1, 2]
    assert _fold_triples(ok) == []
    # a mutant of a module that folds: one triple unpacking appended to it
    source = (SRC / "tableau.py").read_text()
    mutant = source + "e, x, z = _fold(t.n, t.keys, t.signs, key, e)\n"
    assert _fold_triples(mutant) == _fold_triples(source) + [source.count("\n") + 1]


def test_no_module_unpacks_a_fold_into_three_names():
    paths = sorted(SRC.glob("*.py"))
    assert {"pauli.py", "tableau.py", "stabilizer.py", "search.py"} <= {p.name for p in paths}
    found = {p.name: _fold_triples(p.read_text()) for p in paths}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _single_scores(source):
    """Lines that call sample_code(...): outside tableau.py every scorer
    walks a whole set through sample_codes, which folds each distinct
    (state key tuple, measurement) once."""
    return _calls(ast.parse(source), {"sample_code"})


def test_the_guard_sees_a_single_sample_score():
    bad = "c = sample_code(t, s)\nd = tableau.sample_code(t, s)\n"
    ok = "c = sample_codes(t, ss)\nf = sample_code\n"
    assert _single_scores(bad) == [1, 2]
    assert _single_scores(ok) == []
    # a mutant of a scoring module: verify's old per-sample loop appended
    source = (SRC / "cli.py").read_text()
    mutant = source + "if sample_code(t, sample) != sample.code:\n    pass\n"
    assert _single_scores(source) == []
    assert _single_scores(mutant) == [source.count("\n") + 1]


def test_no_module_scores_one_sample_at_a_time():
    paths = sorted(SRC.glob("*.py"))
    assert {"cli.py", "search.py", "tableau.py"} <= {p.name for p in paths}
    found = {p.name: _single_scores(p.read_text()) for p in paths if p.name != "tableau.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


# the brute DFS's stages: their counters live on the search state, so no
# stage defines a nested function or declares a nonlocal
DFS_STAGES = ("_hits", "_node", "_leaf_parent")


def _stage_closures(source):
    """Lines in the DFS stages that define a function or lambda or declare
    a nonlocal, and the names of the stages found."""
    stages = [
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in DFS_STAGES
    ]
    inner = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.Nonlocal)
    lines = [
        node.lineno
        for stage in stages
        for node in ast.walk(stage)
        if node is not stage and isinstance(node, inner)
    ]
    return sorted(lines), {stage.name for stage in stages}


def test_the_guard_sees_a_nonlocal_counter_in_a_stage():
    source = (SRC / "search.py").read_text()
    # a mutant: the old closure counter appended to the parent of the leaves
    line = "    search.leaves += admitted.bit_count()\n"
    extra = "\n    def count(k):\n        nonlocal examined\n        examined += k\n"
    assert source.count(line) == 1
    at = source[: source.index(line)].count("\n") + 3
    assert _stage_closures(source.replace(line, line + extra))[0] == [at, at + 1]
    # a closure outside the stages is not theirs
    assert _stage_closures(source + "def f():\n    g = lambda: 0\n")[0] == []


def test_the_dfs_stages_define_no_closure():
    assert _stage_closures((SRC / "search.py").read_text()) == ([], set(DFS_STAGES))
