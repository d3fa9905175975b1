"""The program surface the benchmark relies on.

bench/tracing.py wraps the functions and methods in its TARGETS list,
and bench/workloads.py calls into the package by name.  A deletion or
rename that would break either fails here, in the tier-1 suite, rather
than first in a benchmark run.  So does a change that makes a workload's
operations fail or give wrong output: each workload runs for half a second.
"""

import ast
import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load_by_path(name):
    spec = importlib.util.spec_from_file_location("_bench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _load_by_path("tracing")
    assert tracing.TARGETS
    for module, path, *_ in tracing.TARGETS:
        owner = importlib.import_module("cnotpac." + module)
        head, _, attr = path.rpartition(".")
        if head:
            # install() replaces the attribute in the class's own __dict__
            owner = getattr(owner, head)
            assert attr in owner.__dict__, path
        else:
            assert callable(getattr(owner, attr, None)), (module, path)


def test_every_name_the_workloads_use_exists():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    bound = {}  # local name -> the cnotpac object it was imported as
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cnotpac"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if alias.name not in vars(module):
                    # "from cnotpac import cli" names a submodule
                    importlib.import_module(node.module + "." + alias.name)
                assert hasattr(module, alias.name), (node.module, alias.name)
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    for name in ("search", "learning", "cli"):
        assert name in bound, name
    # attributes read off an imported module or class: search.brute_force_search,
    # StabilizerState.zero_state, ...
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = bound.get(node.value.id)
            if owner is not None:
                assert hasattr(owner, node.attr), (node.value.id, node.attr)


# --trace 1 also installs tracing.py's wrappers, StabilizerGroup.__init__
# among them, around the program
@pytest.mark.parametrize(
    "workload, trace",
    [
        pytest.param(workload, trace, id=workload + ("-traced" if trace == "1" else ""))
        for trace in ("0", "1")
        for workload in ("pipeline", "sweep", "learn")
    ],
)
def test_each_workload_runs_correctly(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", trace],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
