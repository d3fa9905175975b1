"""The three benchmark workloads: seeded inputs, one operation, its check.

Each workload has three parts:

* ``make_<name>(seed, workdir)`` builds the list of operations from the
  seed alone.  Every slot of the list has a fixed shape (clause signs,
  pin types, sample counts, search depth), so every seed asks the same
  amount of work; the seed fills in the content.
* ``run_<name>(op, workdir, watch)`` performs one operation and returns
  its outcome.  Each call into the program sits inside ``with watch():``,
  which times it and, in a traced pass, traces it; nothing else is
  timed or traced.
* ``check_<name>(op, outcome)`` returns a failure message or ``None``.

Calls into the program go through module attributes (``search.…``) so
that the tracer's wrappers see them.
"""

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import List, Optional

from cnotpac import cli, learning, search
from cnotpac.cnot import CnotCircuit
from cnotpac.formula import eval_formula, num_variables, parse_formula
from cnotpac.gf2 import BitMatrix
from cnotpac.pauli import PauliOperator, z_power
from cnotpac.reduction import constrain_pauli_samples
from cnotpac.samples import Sample, SampleSet
from cnotpac.serialization import (
    circuit_from_json,
    circuit_to_json,
    dumps,
    instance_from_json,
    string_to_bits,
)
from cnotpac.stabilizer import StabilizerState
from cnotpac.tableau import CliffordTableau, Gate, apply_circuit_to_state

# brute and decision refuse n > 5 (EnumerationLimitError)
SEARCH_MAX_N = 5


def _random_theta(rng, n):
    while True:
        m = BitMatrix([rng.randrange(1, 1 << n) for _ in range(n)], n)
        if m.is_invertible():
            return m


def _random_full_z_state(rng, n):
    while True:
        zs = [rng.randrange(1, 1 << n) for _ in range(n)]
        if BitMatrix(zs, n).is_invertible():
            return StabilizerState.from_z_generators(n, zs, signs=rng.randrange(1 << n))


def _random_state(rng, n):
    """Generic stabilizer state: a random {H, P, CNOT} circuit applied to |0>."""
    t = CliffordTableau.identity(n)
    for _ in range(4 * n * n):
        kind = rng.randrange(3)
        if kind == 2:
            a = rng.randrange(n)
            b = rng.randrange(n - 1)
            t.apply_gate(Gate("cnot", control=a, target=b + (b >= a)))
        else:
            t.apply_gate(Gate("hp"[kind], qubit=rng.randrange(n)))
    return apply_circuit_to_state(t, StabilizerState.zero_state(n))


def _labelled(hidden_tab, state, measurement):
    return Sample(state, measurement, state.expectation(hidden_tab.conjugate_inverse(measurement)))


def _informative_sample(rng, hidden_tab, n):
    """Generic state measured on the hidden circuit's image of a group element.

    Its label is 0 or 1, so it rejects most wrong candidates."""
    state = _random_state(rng, n)
    g = state.group.element(rng.randrange(1, 1 << n))
    if rng.randrange(2):
        g = -g
    measurement = hidden_tab.inverse_tableau().conjugate_inverse(g)
    return _labelled(hidden_tab, state, measurement)


def _random_sample(rng, hidden_tab, n):
    """Generic state and a random Pauli measurement; usually labelled 1/2."""
    v = rng.randrange(1, 1 << (2 * n))
    measurement = PauliOperator(n, v & ((1 << n) - 1), v >> n, sign=rng.choice((1, -1)))
    return _labelled(hidden_tab, _random_state(rng, n), measurement)


def _same_circuit(a, b) -> bool:
    return a is not None and b is not None and a.theta.rows == b.theta.rows and a.q == b.q


# ---------------------------------------------------------------------------
# pipeline: reduce -> solve -> verify through the in-process CLI

# (variable count, clause sign patterns, satisfiable).  '+' is a positive
# literal, '-' a negated one; the seed picks the variables of each clause.
# The instance size n follows from the signs alone (a negated literal is
# one vertex cheaper), so every seed gives the same sizes, from 3 to 25.
CNF_SLOTS = [
    (1, ["+"], True),
    (1, ["-"], True),
    (2, ["+", "+"], True),
    (2, ["+", "-"], False),
    (2, ["+-"], True),
    (2, ["+", "-"], True),
    (3, ["-", "+-"], True),
    (2, ["++", "--"], True),
    (2, ["+", "+", "--"], False),
    (3, ["+++"], True),
    (3, ["++", "-", "-"], False),
    (4, ["+-", "-", "++"], True),
    (3, ["+-+", "-+"], True),
    (4, ["++-", "+", "-"], True),
    (3, ["+++", "+-"], True),
    (4, ["+-", "++", "-+"], True),
    (3, ["+", "-+", "--"], False),
    (4, ["+--", "+++", "+"], True),
    (4, ["++-", "+-+", "+-"], True),
]

# GF(2) polynomials given to `reduce --formula`; the seed renames variables.
FORMULA_SLOTS = [
    "x{a} + x{b}",
    "x{a} * x{a}",
    "x{a} + x{a}",
    "x{a} * (x{b} + x{c}) + x{c} * x{d}",
    "(x{a} + x{b} * x{c}) * (x{d} + 1)",
]


@dataclass
class PipelineOp:
    label: str
    reduce_args: List[str]
    num_vars: int
    satisfying: frozenset


def _cnf_truth(clauses, k):
    return frozenset(
        a
        for a in range(1 << k)
        if all(any(((a >> (abs(l) - 1)) & 1) == (l > 0) for l in c) for c in clauses)
    )


def _draw_cnf(rng, k, patterns, want_sat):
    for _ in range(10000):
        clauses = []
        for signs in patterns:
            vs = rng.sample(range(1, k + 1), len(signs))
            clauses.append([v if s == "+" else -v for v, s in zip(vs, signs)])
        truth = _cnf_truth(clauses, k)
        if bool(truth) == want_sat:
            return clauses, truth
    raise ValueError("slot %r cannot be %s" % (patterns, "sat" if want_sat else "unsat"))


def make_pipeline(seed, workdir):
    rng = random.Random("pipeline/%d" % seed)
    ops = []
    for i, (k, patterns, want_sat) in enumerate(CNF_SLOTS):
        clauses, truth = _draw_cnf(rng, k, patterns, want_sat)
        path = os.path.join(workdir, "in%02d.cnf" % i)
        with open(path, "w") as fh:
            fh.write("c benchmark slot %d\np cnf %d %d\n" % (i, k, len(clauses)))
            for c in clauses:
                fh.write(" ".join(map(str, c)) + " 0\n")
        args = ["--cnf", path, "--seed", str(rng.randrange(1 << 30))]
        ops.append(PipelineOp("cnf%02d" % i, args, k, truth))
    for i, template in enumerate(FORMULA_SLOTS):
        names = dict(zip("abcd", rng.sample(range(1, 5), 4)))
        text = template.format(**names)
        f = parse_formula(text)
        k = num_variables(f)
        truth = frozenset(a for a in range(1 << k) if eval_formula(f, a))
        args = ["--formula", text, "--seed", str(rng.randrange(1 << 30))]
        ops.append(PipelineOp("formula%d" % i, args, k, truth))
    return ops


def _cli(argv, watch):
    """Run the CLI in-process; returns (exit code, last stdout line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), watch():
        code = cli.main(argv)
    lines = out.getvalue().splitlines()
    return code, (lines[-1] if lines else "")


def affine_witness(inst, assignment):
    """The README witness for an assignment: theta = M(a), q = 0."""
    return CnotCircuit(inst.matrix_at(assignment), 0)


def run_pipeline(op, workdir, watch):
    red = os.path.join(workdir, op.label + ".json")
    outcome = {}
    code, report = _cli(["reduce", *op.reduce_args, "--out", red], watch)
    outcome["reduce"] = code
    if code != 0:
        return outcome
    n = json.loads(report)["counts"]["instance_size"]
    outcome["n"] = n
    aff = os.path.join(workdir, op.label + ".affine.json")
    outcome["affine"], _ = _cli(["solve", red, "--strategy", "affine", "--out", aff], watch)
    if n <= SEARCH_MAX_N:
        for strategy in ("brute", "decision"):
            out = os.path.join(workdir, "%s.%s.json" % (op.label, strategy))
            code, _ = _cli(["solve", red, "--strategy", strategy, "--out", out], watch)
            outcome[strategy] = code
            if code == 0:
                with open(out) as fh:
                    outcome[strategy + "_circuit"] = circuit_from_json(json.load(fh))
    if outcome["affine"] == 0:
        with open(red) as fh:
            inst = instance_from_json(json.load(fh)["instance"])
        with open(aff) as fh:
            a = string_to_bits(json.load(fh)["assignment"], inst.num_vars)
        outcome["instance"] = inst
        outcome["assignment"] = a
        wit = os.path.join(workdir, op.label + ".witness.json")
        with open(wit, "w") as fh:
            fh.write(dumps(circuit_to_json(affine_witness(inst, a))))
        outcome["verify"], _ = _cli(["verify", wit, red], watch)
    return outcome


def check_pipeline(op, outcome) -> Optional[str]:
    sat = bool(op.satisfying)
    want = 0 if sat else 1
    if outcome.get("reduce") != 0:
        return "reduce exited %r" % outcome.get("reduce")
    if outcome["affine"] != want:
        return "affine exited %d, truth table says %s" % (outcome["affine"], sat)
    if outcome["n"] <= SEARCH_MAX_N:
        if outcome.get("brute") != want or outcome.get("decision") != want:
            return "strategies disagree: %r" % outcome
    if not sat:
        return None
    inst = outcome["instance"]
    mask = (1 << op.num_vars) - 1
    a = outcome["assignment"]
    if a & ~mask or (a & mask) not in op.satisfying or inst.determinant_at(a) != 1:
        return "affine assignment %d is not a satisfying one with det M(a) = 1" % a
    brute = outcome.get("brute_circuit")
    if brute is not None:
        if not isinstance(brute, CnotCircuit) or brute.q != 0:
            return "brute witness is not a CNOT circuit with q = 0"
        if not any(
            inst.matrix_at(b) == brute.theta and inst.determinant_at(b) == 1
            for b in op.satisfying
        ):
            return "brute witness theta is not M(a) for a satisfying a"
    if outcome["verify"] != 0:
        return "verify exited %d on the M(a) witness" % outcome["verify"]
    return None


# ---------------------------------------------------------------------------
# sweep: the naive reference scan at n = 3

SWEEP_N = 3
# (exact pins, two-point pins, informative generic samples, 1/2-labelled
# generic samples); generic samples come first, so most candidates are
# evaluated on a generic sample before a pin rejects them.
SWEEP_SLOTS = [
    (1, 0, 1, 1),
    (0, 1, 2, 1),
    (1, 1, 1, 0),
    (0, 0, 3, 1),
    (0, 2, 1, 2),
] * 8


@dataclass
class SweepOp:
    samples: SampleSet
    hidden: CnotCircuit


def _pin_for(rng, hidden, n, two_point):
    x = rng.randrange(1, 1 << n)
    v = hidden.theta.mul_vec(x)
    sigma = (hidden.q & x).bit_count() & 1
    w = None
    if two_point:
        w = rng.choice([u for u in range(1, 1 << n) if u != v])
    return constrain_pauli_samples(n, z_power(n, x, sign=-1 if sigma else 1), v, w, rng)


def _hidden_samples(rng, hidden, n, exact, two_point, informative, half):
    tab = hidden.to_tableau()
    samples = [_informative_sample(rng, tab, n) for _ in range(informative)]
    samples += [_random_sample(rng, tab, n) for _ in range(half)]
    for _ in range(exact):
        samples += _pin_for(rng, hidden, n, False)
    for _ in range(two_point):
        samples += _pin_for(rng, hidden, n, True)
    return samples


def make_sweep(seed, workdir):
    rng = random.Random("sweep/%d" % seed)
    n = SWEEP_N
    ops = []
    for shape in SWEEP_SLOTS:
        hidden = CnotCircuit(_random_theta(rng, n), rng.randrange(1 << n))
        samples = _hidden_samples(rng, hidden, n, *shape)
        ops.append(SweepOp(SampleSet(n, samples), hidden))
    return ops


def run_sweep(op, workdir, watch):
    with watch():
        hits = search.enumerate_consistent_circuits(op.samples)
        witness = search.brute_force_search(op.samples)
    return {"hits": hits, "brute": witness}


def check_sweep(op, outcome) -> Optional[str]:
    hits = outcome["hits"]
    if not any(_same_circuit(h, op.hidden) for h in hits):
        return "hidden circuit missing from %d hits" % len(hits)
    if not _same_circuit(outcome["brute"].circuit, hits[0]):
        return "brute witness is not the first hit of the reference scan"
    return None


# ---------------------------------------------------------------------------
# learn: the PAC learner with the pruned search at n = 4

LEARN_N = 4
LEARN_SLOTS = 24
# generic (informative) samples plus full-Z samples sharing one
# measurement support: the full-Z ones form one image group that prunes
# row prefixes of the DFS.
LEARN_GENERIC = 9
LEARN_FULL_Z = 3


@dataclass
class LearnOp:
    pool: list
    full: SampleSet
    learner_seed: int


def make_learn(seed, workdir):
    """Pools labelled by a hidden circuit.

    The hidden circuit and the full-Z image group of slot i come from a
    table fixed by i, so the DFS depth (the leaves before the witness)
    is the same for every seed; the seed draws the generic samples and
    the learner's own draws."""
    n = LEARN_N
    rng = random.Random("learn/%d" % seed)
    ops = []
    for i in range(LEARN_SLOTS):
        slot = random.Random("learn-slot/%d" % i)
        hidden = CnotCircuit(_random_theta(slot, n), slot.randrange(1 << n))
        tab = hidden.to_tableau()
        x = slot.randrange(1, 1 << n)
        pool = [
            _labelled(tab, _random_full_z_state(slot, n), z_power(n, x, sign=slot.choice((1, -1))))
            for _ in range(LEARN_FULL_Z)
        ]
        pool += [_informative_sample(rng, tab, n) for _ in range(LEARN_GENERIC)]
        ops.append(LearnOp(pool, SampleSet(n, pool), rng.randrange(1 << 30)))
    return ops


def run_learn(op, workdir, watch):
    pool = op.pool

    def draw(r):
        return pool[r.randrange(len(pool))]

    with watch():
        return learning.pac_learner(
            draw, len(pool), search.brute_force_search, random.Random(op.learner_seed),
            full_set=op.full,
        )


def check_learn(op, result) -> Optional[str]:
    if not result.found:
        return "no hypothesis, though the hidden circuit is consistent"
    s = len(op.pool)
    if result.draws != math.ceil(3.0 * s * math.log(s)) or not 1 <= result.distinct <= s:
        return "draw counts %d/%d are off" % (result.draws, result.distinct)
    consistent = search.check_consistent(result.circuit, op.full)
    if result.accepted != consistent:
        return "accepted=%r but consistency with the pool is %r" % (result.accepted, consistent)
    return None


WORKLOADS = {
    "pipeline": (make_pipeline, run_pipeline, check_pipeline),
    "sweep": (make_sweep, run_sweep, check_sweep),
    "learn": (make_learn, run_learn, check_learn),
}
