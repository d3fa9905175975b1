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


def _state_wrapper_uses(source):
    """Lines that read .state.group or call StabilizerState(...): a state
    is its group, and StabilizerGroup.group is kept for the benchmark only."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "group"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "state"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "StabilizerState":
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
