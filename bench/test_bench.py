"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402  (needs the program on the path)

BENCH = os.path.dirname(os.path.abspath(__file__))


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["pipeline", "sweep", "learn"])
def test_smoke_run_of_each_workload(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "0", "--seconds", "0", "--trace", str(trace)])
    result = _last_json(capsys.readouterr().out)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = set(result["metrics"])
    if trace:
        assert "trace.overhead_ratio" in names and "search.brute.leaves" in names
    else:
        assert names == {"ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb"}
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    t.enter("a")        # 0
    t.enter("b")        # 1
    t.exit()            # 3: b lasts 2
    t.enter("c")        # 4
    t.enter("d")        # 5
    t.exit()            # 6: d lasts 1
    t.exit()            # 8: c lasts 4, covers d
    t.exit()            # 10: a lasts 10, covers b and c
    assert dict(t.total_s) == {"a": 10.0, "b": 2.0, "c": 4.0, "d": 1.0}
    assert dict(t.self_s) == {"a": 4.0, "b": 2.0, "c": 3.0, "d": 1.0}
    assert t.stack == []


def _bindings():
    """Every (owner, attribute) -> object the tracer may replace."""
    out = {}
    modules = tracing._package_modules()
    for module, path, _, _, _ in tracing.TARGETS:
        owner = sys.modules["cnotpac." + module]
        head, _, attr = path.rpartition(".")
        if head:
            cls = getattr(owner, head)
            out[(cls, attr)] = cls.__dict__[attr]
        else:
            for m in modules:
                if attr in m.__dict__:
                    out[(m, attr)] = m.__dict__[attr]
    return out


def test_wrappers_are_installed_and_restored():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            during = _bindings()
            # one function imported by name into several modules, all wrapped
            from cnotpac import cli, search, tableau

            assert search.evaluate_sample is tableau.evaluate_sample is cli.evaluate_sample
            assert search.evaluate_sample is not before[(tableau, "evaluate_sample")]
            raise RuntimeError("leave the block early")
    assert all(during[key] is not value for key, value in before.items())
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", ["pipeline", "sweep", "learn"])
def test_exact_counts_repeat_at_the_same_seed(name, tmp_path):
    make, run_op, check = workloads.WORKLOADS[name]
    counts = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        ops = make(5, str(workdir))[:4]
        tracer = tracing.Tracer()
        _, failures, _ = run.run_pass(ops, run_op, check, str(workdir), tracer)
        assert failures == []
        counts.append(tracing.counts_of(tracer))
    assert counts[0] == counts[1]
    assert counts[0]["pauli.operators_created"] > 0


def test_corrupted_witness_counts_as_failed(tmp_path, monkeypatch):
    ops = workloads.make_pipeline(3, str(tmp_path))
    small = [op for op in ops if op.label in ("cnf00", "cnf01", "cnf02")]
    _, failures, _ = run.run_pass(small, workloads.run_pipeline, workloads.check_pipeline, str(tmp_path))
    assert failures == []

    def flipped(inst, a):
        good = workloads.CnotCircuit(inst.matrix_at(a), 0)
        return workloads.CnotCircuit(good.theta, 1)

    monkeypatch.setattr(workloads, "affine_witness", flipped)
    _, failures, _ = run.run_pass(small, workloads.run_pipeline, workloads.check_pipeline, str(tmp_path))
    assert len(failures) == len(small)
    assert all("verify exited 1" in f for f in failures)


def test_wrong_brute_witness_fails_the_check(tmp_path):
    op = workloads.make_pipeline(3, str(tmp_path))[0]
    outcome = workloads.run_pipeline(op, str(tmp_path), run.Stopwatch())
    assert workloads.check_pipeline(op, outcome) is None
    good = outcome["brute_circuit"]
    outcome["brute_circuit"] = workloads.CnotCircuit(good.theta, 1)
    assert "q = 0" in workloads.check_pipeline(op, outcome)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
