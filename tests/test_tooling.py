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
