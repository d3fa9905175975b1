"""Spans and counts around the calls into each cnotpac module.

The benchmark does not change the program: ``traced(tracer)`` replaces
the public functions and methods listed in ``TARGETS`` with wrappers,
on their classes and in every cnotpac module that imported the same
function by name (``search.evaluate_sample``, the ``cli`` imports), and
puts every original back when the block ends.

A span is one call of a timed target.  Spans nest on one stack, and a
span's self time is its duration minus the part of it that its child
spans cover.  Spans are folded into per-name totals as they close
instead of being kept: a pass makes millions of them.  Sub-microsecond
targets are only counted, because a timed wrapper would cost more than
the call.
"""

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

SPAN = "span"
COUNT = "count"


class Tracer:
    """Span stack plus per-name call counts, total and self seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # [name, start, seconds covered by children]
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()  # work counters read off results

    def enter(self, name):
        self.stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, covered = self.stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        if self.stack:
            self.stack[-1][2] += duration

    def parent(self):
        return self.stack[-1][0] if self.stack else None


def _after_brute(tracer, result):
    tracer.counts["search.brute.leaves"] += result.circuits_examined


def _after_enumerate(tracer, result):
    tracer.counts["search.enumerate.hits"] += len(result)


def _after_check_consistent(tracer, result):
    if tracer.parent() == "search.enumerate":
        tracer.counts["search.enumerate.candidates"] += 1


def _after_decision(tracer, result):
    tracer.counts["search.decision.queries"] += result.queries


def _after_affine(tracer, result):
    tracer.counts["search.affine.assignments"] += result.assignments_examined


def _after_pac(tracer, result):
    tracer.counts["learning.pac.draws"] += result.draws
    tracer.counts["learning.pac.distinct"] += result.distinct
    tracer.counts["learning.pac.accepted"] += bool(result.accepted)


def _after_instance_to_samples(tracer, result):
    tracer.counts["reduction.samples_emitted"] += len(result)


def _after_dumps(tracer, result):
    tracer.counts["serialization.bytes_written"] += len(result.encode())


# (module, attribute path, span name, kind, hook called with a span's result)
TARGETS = [
    ("gf2", "BitMatrix.inverse", "gf2.inverse", SPAN, None),
    ("gf2", "BitMatrix.is_invertible", "gf2.is_invertible", COUNT, None),
    ("gf2", "BitMatrix.mul_vec", "gf2.mul_vec", COUNT, None),
    ("gf2", "BitMatrix.solve_affine", "gf2.solve_affine", SPAN, None),
    ("gf2", "BitMatrix.rank", "gf2.rank", SPAN, None),
    ("pauli", "PauliOperator.__init__", "pauli.init", COUNT, None),
    ("pauli", "PauliOperator.mul", "pauli.mul", COUNT, None),
    ("pauli", "PauliOperator.commutes", "pauli.commutes", COUNT, None),
    ("stabilizer", "StabilizerGroup.__init__", "stabilizer.group_init", SPAN, None),
    ("stabilizer", "StabilizerGroup.group_contains", "stabilizer.group_contains", SPAN, None),
    ("tableau", "CliffordTableau.conjugate_inverse", "tableau.conjugate_inverse", SPAN, None),
    ("tableau", "evaluate_sample", "tableau.evaluate_sample", SPAN, None),
    ("cnot", "CnotCircuit.__init__", "cnot.init", COUNT, None),
    ("cnot", "CnotCircuit.to_tableau", "cnot.to_tableau", SPAN, None),
    ("formula", "arithmetize_cnf", "formula.arithmetize_cnf", SPAN, None),
    ("formula", "formula_to_graph", "formula.formula_to_graph", SPAN, None),
    ("reduction", "instance_to_samples", "reduction.instance_to_samples", SPAN,
     _after_instance_to_samples),
    ("search", "brute_force_search", "search.brute", SPAN, _after_brute),
    ("search", "enumerate_consistent_circuits", "search.enumerate", SPAN, _after_enumerate),
    ("search", "check_consistent", "search.check_consistent", SPAN, _after_check_consistent),
    ("search", "search_from_decision", "search.decision", SPAN, _after_decision),
    ("search", "affine_family_search", "search.affine", SPAN, _after_affine),
    ("learning", "pac_learner", "learning.pac", SPAN, _after_pac),
    ("serialization", "sample_set_to_json", "serialization.sample_set_to_json", SPAN, None),
    ("serialization", "sample_set_from_json", "serialization.sample_set_from_json", SPAN, None),
    ("serialization", "parse_dimacs", "serialization.parse_dimacs", SPAN, None),
    ("serialization", "dumps", "serialization.dumps", SPAN, _after_dumps),
    ("cli", "cmd_reduce", "cli.reduce", SPAN, None),
    ("cli", "cmd_solve", "cli.solve", SPAN, None),
    ("cli", "cmd_verify", "cli.verify", SPAN, None),
]


def _wrap(tracer, name, kind, hook, fn):
    if kind == COUNT:
        calls = tracer.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            hook(tracer, result)
        return result

    return spanned


def _package_modules():
    return [m for key, m in sys.modules.items() if key == "cnotpac" or key.startswith("cnotpac.")]


def install(tracer):
    """Wrap every target; returns the (owner, attribute, original) list."""
    modules = _package_modules()
    patches = []
    for module, path, name, kind, hook in TARGETS:
        owner = sys.modules["cnotpac." + module]
        head, _, attr = path.rpartition(".")
        if head:
            owner = getattr(owner, head)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(tracer, name, kind, hook, original))
            patches.append((owner, attr, original))
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, name, kind, hook, original)
        for m in modules:
            if m.__dict__.get(attr) is original:
                setattr(m, attr, wrapped)
                patches.append((m, attr, original))
    return patches


def restore(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextlib.contextmanager
def traced(tracer):
    patches = install(tracer)
    try:
        yield
    finally:
        restore(patches)


# metrics that are call counts of a target under another name
_RENAMED_CALLS = {
    "pauli.operators_created": "pauli.init",
    "cnot.circuits_created": "cnot.init",
}
_CALLS = [
    "gf2.inverse", "gf2.is_invertible", "gf2.mul_vec", "gf2.solve_affine", "gf2.rank",
    "pauli.mul", "pauli.commutes", "stabilizer.group_init", "stabilizer.group_contains",
    "tableau.conjugate_inverse", "tableau.evaluate_sample", "cnot.to_tableau",
    "search.brute", "search.check_consistent",
]
_SELF_MS = [
    "gf2.inverse", "gf2.solve_affine", "gf2.rank", "stabilizer.group_init",
    "stabilizer.group_contains", "tableau.conjugate_inverse", "tableau.evaluate_sample",
    "cnot.to_tableau", "formula.arithmetize_cnf", "formula.formula_to_graph",
    "reduction.instance_to_samples", "search.brute", "search.enumerate",
    "search.check_consistent", "search.decision", "search.affine", "learning.pac",
    "serialization.sample_set_to_json", "serialization.sample_set_from_json",
    "serialization.parse_dimacs",
]
COUNTERS = [
    "reduction.samples_emitted", "search.brute.leaves", "search.enumerate.candidates",
    "search.enumerate.hits", "search.decision.queries", "search.affine.assignments",
    "learning.pac.draws", "learning.pac.distinct", "learning.pac.accepted",
    "serialization.bytes_written",
]
# inclusive milliseconds of the CLI subcommands
_TOTAL_MS = {"cli.reduce.ms": "cli.reduce", "cli.solve.ms": "cli.solve", "cli.verify.ms": "cli.verify"}


def counts_of(tracer):
    """The exact, deterministic part of the layer metrics."""
    out = {name + ".calls": tracer.calls[name] for name in _CALLS}
    out.update({metric: tracer.calls[name] for metric, name in _RENAMED_CALLS.items()})
    out.update({name: tracer.counts[name] for name in COUNTERS})
    draws = tracer.counts["learning.pac.draws"]
    out["learning.pac.distinct_ratio"] = tracer.counts["learning.pac.distinct"] / draws if draws else 0.0
    return out


def times_of(tracer):
    """Timed part of the layer metrics, in milliseconds or per second."""
    out = {name + ".self_ms": 1000.0 * tracer.self_s[name] for name in _SELF_MS}
    out.update({metric: 1000.0 * tracer.total_s[name] for metric, name in _TOTAL_MS.items()})
    brute_s = tracer.total_s["search.brute"]
    out["search.brute.leaves_per_s"] = tracer.counts["search.brute.leaves"] / brute_s if brute_s else 0.0
    return out
