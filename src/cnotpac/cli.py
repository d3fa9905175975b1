"""Command-line pipeline: reduce, solve, verify, learn, complexity.

Every subcommand is a function of the parsed arguments that writes
nothing: it returns its outcome, (code, digest, outcome, counts,
payload, text), or raises CliError or ValueError.  main alone writes,
prints and reports: the payload (the output file's text, or None) to
--out or else to stdout, then the human-readable text lines, then the
one-line JSON run report, so a run's stdout is always in that order and
an error, an unwritable --out included, leaves stdout empty.

Exit codes are uniform across subcommands: 0 means found/consistent/
success, 1 means no witness exists (or the learner failed), 2 means any
error (unreadable input, schema violation, size limit, bad parameters).
The report holds the command name, a sha256 digest of the primary
input, the seed (null for solve, verify and complexity), the outcome,
counters, wall time, and the tool version.  Output files are compact
canonical JSON (sorted keys, no whitespace, trailing newline), so
identical inputs and seed give identical bytes; input files may use any
JSON layout.
"""

import argparse
import functools
import hashlib
import json
import math
import random
import sys
import time

from . import __version__
from .formula import parse_formula
from .learning import (
    EmptyIntersectionError,
    LearningParameters,
    cnot_defaults,
    learn_single_measurement,
    pac_learner,
    sample_complexity,
    trivial_uniform_learner,
)
from .reduction import reduce_formula_to_samples, reduce_sat_to_samples
from .search import (
    affine_family_search,
    brute_force_decision,
    brute_force_search,
    check_consistent,
    search_from_decision,
)
from .serialization import (
    _MAX_CIRCUIT_QUBITS,
    DimacsError,
    _canonical,
    bits_to_string,
    circuit_from_json,
    circuit_to_json,
    dumps,
    instance_from_json,
    instance_to_json,
    parse_dimacs,
    sample_set_dumps,
    sample_set_from_json,
)
from .tableau import _is_symplectic_basis, sample_codes


class CliError(Exception):
    """Anything that should terminate with exit code 2."""


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise CliError("cannot read %s: %s" % (path, err))


def _load(path: str, data: bytes, from_json):
    """from_json of the JSON in data, the bytes read from path.  A decode
    or schema error names the file: bytes that are not UTF-8 and nesting
    deeper than the recursion limit are decode errors too."""
    try:
        obj = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
        raise CliError("%s is not valid JSON: %s" % (path, err))
    try:
        return from_json(obj)
    except ValueError as err:
        raise CliError("%s: %s" % (path, err))


def _write_out(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise CliError("cannot write %s: %s" % (path, err))


def _reject_unused(args, flags, where) -> None:
    """Exit 2 on the first of ``flags`` given where it would not be read."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise CliError("%s is not read %s" % (flag, where))


def _or(value, default):
    """A flag's value, or its default when the flag was not given."""
    return default if value is None else value


# ---------------------------------------------------------------------------
# subcommands


def cmd_reduce(args):
    if (args.cnf is None) == (args.formula is None):
        raise CliError("give exactly one of --cnf or --formula")
    rng = random.Random(args.seed)
    try:
        if args.cnf is not None:
            data = _read(args.cnf)
            digest = _digest(data)
            clauses = parse_dimacs(data.decode("utf-8", "replace"))
            samples, inst = reduce_sat_to_samples(clauses, rng)
        else:
            digest = _digest(args.formula.encode())
            samples, inst = reduce_formula_to_samples(parse_formula(args.formula), rng)
    except DimacsError as err:
        raise CliError("%s: %s" % (args.cnf, err))
    except RecursionError:  # the parser and the graph encoder recurse per nesting level
        raise CliError("formula nests deeper than the recursion limit %d" % sys.getrecursionlimit())
    # the canonical text of {"instance": ..., "samples": ...}, keys sorted
    payload = '{"instance":%s,"samples":%s}\n' % (
        _canonical(instance_to_json(inst)),
        sample_set_dumps(samples),
    )
    counts = {"samples": len(samples.samples), "instance_size": inst.size}
    text = "samples: %d\ninstance size: %d" % (len(samples.samples), inst.size)
    return 0, digest, "ok", counts, payload, text


def _affine_input(obj):
    """An instance, bare or of a reduce output, whose 'samples' must have its size as 'n'."""
    if not (isinstance(obj, dict) and "instance" in obj):
        return instance_from_json(obj)
    inst = instance_from_json(obj["instance"])
    samples = obj.get("samples", {"n": inst.size})
    n = samples.get("n") if isinstance(samples, dict) else None
    if type(n) is not int or n != inst.size:
        raise ValueError("field 'samples' must have 'n' = %d, the instance size" % inst.size)
    return inst


def _samples_input(obj):
    """A sample set, bare (it has 'n') or a reduce output's 'samples' member."""
    if isinstance(obj, dict) and "samples" in obj and "n" not in obj:
        obj = obj["samples"]
    return sample_set_from_json(obj)


def cmd_solve(args):
    data = _read(args.input)
    digest = _digest(data)
    counts = {}
    if args.strategy == "affine":
        inst = _load(args.input, data, _affine_input)
        result = affine_family_search(inst)
        counts["assignments_examined"] = result.assignments_examined
        if not result.found:
            return 1, digest, "none", counts, None, "no satisfying assignment"
        if inst.determinant_at(result.assignment) != 1:
            raise CliError("internal check failed: witness determinant is 0")
        assignment = bits_to_string(result.assignment, len(inst.ms))
        payload = dumps({"assignment": assignment})
        return 0, digest, "found", counts, payload, "assignment: %s" % assignment
    samples = _load(args.input, data, _samples_input)
    counts["samples"] = len(samples.samples)
    if args.strategy == "brute":
        result = brute_force_search(samples)
        counts["circuits_examined"] = result.circuits_examined
    else:
        result = search_from_decision(brute_force_decision, samples)
        counts["oracle_queries"] = result.queries
        if result.oracle_fault:
            raise CliError("decision oracle contradicted itself")
    if not result.found:
        return 1, digest, "none", counts, None, "no consistent circuit"
    if not check_consistent(result.circuit, samples):
        raise CliError("internal check failed: witness is not consistent")
    payload = dumps(circuit_to_json(result.circuit))
    return 0, digest, "found", counts, payload, "consistent circuit found"


def cmd_verify(args):
    circuit_bytes = _read(args.circuit)
    samples_bytes = _read(args.samples)
    digest = _digest(circuit_bytes + samples_bytes)
    hypothesis = _load(args.circuit, circuit_bytes, circuit_from_json)
    samples = _load(args.samples, samples_bytes, _samples_input)
    if hypothesis.n != samples.n:
        raise CliError(
            "qubit count mismatch: circuit has %d, samples have %d"
            % (hypothesis.n, samples.n)
        )
    t = hypothesis.to_tableau()
    counts = {"samples": len(samples.samples)}
    for index, (code, sample) in enumerate(zip(sample_codes(t, samples), samples)):
        if code != sample.code:
            counts["first_violation"] = index
            return 1, digest, "inconsistent", counts, None, "inconsistent at sample %d" % index
    return 0, digest, "consistent", counts, None, "consistent"


def _pac_input(obj):
    """(pool set, weights, s) of a pac input; ValueError on a bad field."""
    pool_set = sample_set_from_json(obj)
    pool = pool_set.samples
    if not pool:
        raise ValueError("pac input needs at least one sample")
    weights = obj.get("weights")
    if weights is not None:
        if (
            not isinstance(weights, list)
            or len(weights) != len(pool)
            or any(type(w) not in (int, float) or not 0 <= w <= sys.float_info.max for w in weights)
            or not any(weights)
            or not math.isfinite(sum(map(float, weights)))  # random.choices needs a finite total
        ):
            raise ValueError("weights must be finite nonnegative numbers matching the samples")
    s = obj.get("s", len(pool))
    if type(s) is not int or s < 1:
        raise ValueError("support bound 's' must be a positive integer")
    return pool_set, weights, s


def _learn_pac(args, rng):
    data = _read(args.input)
    pool_set, weights, s = _load(args.input, data, _pac_input)

    def draw(r):
        return r.choices(pool_set.samples, weights=weights, k=1)[0]

    result = pac_learner(
        draw, s, brute_force_search, rng, draw_constant=_or(args.draw_constant, 3.0),
        full_set=pool_set,
    )
    counts = {
        "draws": result.draws,
        "distinct": result.distinct,
        "samples": len(pool_set.samples),
    }
    if not result.found:
        return 1, _digest(data), "none", counts, None, "no consistent hypothesis"
    # the hypothesis's exact error under D: the weight it mislabels over the total
    t = result.circuit.to_tableau()
    mass = weights or [1] * len(pool_set.samples)
    codes = sample_codes(t, pool_set)
    wrong = (w for code, sample, w in zip(codes, pool_set, mass) if code != sample.code)
    counts["error"] = math.fsum(wrong) / math.fsum(mass)
    outcome = "found" if result.accepted else "found-unaccepted"
    payload = dumps(circuit_to_json(result.circuit))
    return 0, _digest(data), outcome, counts, payload, "hypothesis written"


def _learn_single(args, rng):
    data = _read(args.input)
    samples = _load(args.input, data, sample_set_from_json)
    counts = {"samples": len(samples.samples)}
    try:
        circuit = learn_single_measurement(samples, rng)
    except EmptyIntersectionError as err:
        return 1, _digest(data), "none", counts, None, "no consistent hypothesis: %s" % err
    except ValueError as err:  # the set breaks a precondition of the learner
        raise CliError("%s: %s" % (args.input, err))
    if not check_consistent(circuit, samples):
        raise CliError("internal check failed: hypothesis is not consistent")
    payload = dumps(circuit_to_json(circuit))
    return 0, _digest(data), "found", counts, payload, "hypothesis written"


def _learn_trivial(args, rng):
    if args.n is None:
        raise CliError("trivial mode needs --n")
    if args.n > _MAX_CIRCUIT_QUBITS:  # verify would refuse to load the circuit
        raise CliError("--n exceeds %d qubits" % _MAX_CIRCUIT_QUBITS)
    tableau = trivial_uniform_learner(args.n, rng)
    if not _is_symplectic_basis(tableau.keys, tableau.n):
        raise CliError("internal check failed: tableau is not symplectic")
    digest = _digest(("trivial n=%d" % args.n).encode())
    counts = {"gates": 4 * args.n * args.n}
    return 0, digest, "found", counts, dumps(circuit_to_json(tableau)), "hypothesis written"


def cmd_learn(args):
    rng = random.Random(args.seed)
    unused, learner = {
        "pac": (("--n",), _learn_pac),
        "single-measurement": (("--n", "--draw-constant"), _learn_single),
        "trivial": (("--input", "--draw-constant"), _learn_trivial),
    }[args.mode]
    _reject_unused(args, unused, "in %s mode" % args.mode)
    if args.mode in ("pac", "single-measurement") and args.input is None:
        raise CliError("%s mode needs --input" % args.mode)
    return learner(args, rng)


def cmd_complexity(args):
    if args.cnot_n is not None:
        _reject_unused(args, ("--alpha", "--beta", "--d", "--depth", "--size"), "with --cnot-n")
        params = cnot_defaults(
            args.cnot_n, args.epsilon, args.delta, depth_constant=_or(args.depth_constant, 1)
        )
    else:
        _reject_unused(args, ("--depth-constant",), "without --cnot-n")
        missing = [
            name
            for name, value in (
                ("--depth", args.depth),
                ("--size", args.size),
            )
            if value is None
        ]
        if missing:
            raise CliError("need --cnot-n or explicit %s" % " ".join(missing))
        params = LearningParameters(
            epsilon=args.epsilon,
            delta=args.delta,
            alpha=_or(args.alpha, 0.0),
            beta=_or(args.beta, 0.5),
            d=_or(args.d, 2),
            depth=args.depth,
            size=args.size,
        )
    m = sample_complexity(params)
    digest = _digest(json.dumps(vars(params), sort_keys=True).encode())
    text = "m = %d\nnote: all big-O constants are set to 1; treat m as a scale, not a guarantee" % m
    return 0, digest, "ok", {"m": m}, None, text


# ---------------------------------------------------------------------------
# argument parsing


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process: parse_args
    returns a fresh namespace on every call, so nothing carries over.
    It holds no command function; main looks the command up by name."""
    parser = argparse.ArgumentParser(
        prog="cnotpac",
        description="Reductions, consistency search, and learners for CNOT circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reduce_p = sub.add_parser(
        "reduce", help="turn a 3-CNF or formula into labeled samples"
    )
    reduce_p.add_argument("--cnf", help="DIMACS CNF file (clauses of up to 3 literals)")
    reduce_p.add_argument(
        "--formula", help="polynomial over GF(2), e.g. 'x1*(x2+x3)+x3*x4'"
    )
    reduce_p.add_argument("--seed", type=int, required=True)
    reduce_p.add_argument("--out", help="write the samples+instance JSON here")

    solve_p = sub.add_parser("solve", help="search for a consistent circuit")
    solve_p.add_argument("input", help="samples JSON (brute/decision) or instance JSON (affine)")
    solve_p.add_argument(
        "--strategy", choices=("brute", "affine", "decision"), default="brute"
    )
    solve_p.add_argument("--out", help="write the witness JSON here")

    verify_p = sub.add_parser("verify", help="check a circuit against samples")
    verify_p.add_argument("circuit")
    verify_p.add_argument("samples")

    learn_p = sub.add_parser("learn", help="run one of the learners")
    learn_p.add_argument(
        "--mode", choices=("pac", "single-measurement", "trivial"), required=True
    )
    learn_p.add_argument("--input", help="mode-specific input JSON")
    learn_p.add_argument("--n", type=int, help="qubit count (trivial mode)")
    learn_p.add_argument("--seed", type=int, required=True)
    learn_p.add_argument("--draw-constant", type=float, help="pac mode; default 3")
    learn_p.add_argument("--out", help="write the hypothesis JSON here")

    complexity_p = sub.add_parser(
        "complexity", help="evaluate the PAC sample-size bound"
    )
    complexity_p.add_argument("--epsilon", type=float, required=True)
    complexity_p.add_argument("--delta", type=float, required=True)
    complexity_p.add_argument(
        "--cnot-n", type=int, help="use CNOT-class defaults for this qubit count"
    )
    complexity_p.add_argument("--depth-constant", type=int, help="with --cnot-n; default 1")
    complexity_p.add_argument("--alpha", type=float, help="without --cnot-n; default 0")
    complexity_p.add_argument("--beta", type=float, help="without --cnot-n; default 0.5")
    complexity_p.add_argument("--d", type=int, help="without --cnot-n; default 2")
    complexity_p.add_argument("--depth", type=int)
    complexity_p.add_argument("--size", type=int)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # resolved on every call, so a cmd_* replaced after the parser was
    # built (the bench's tracing wrappers) is the one that runs
    command = {
        "reduce": cmd_reduce,
        "solve": cmd_solve,
        "verify": cmd_verify,
        "learn": cmd_learn,
        "complexity": cmd_complexity,
    }[args.command]
    started = time.monotonic()
    try:
        code, digest, outcome, counts, payload, text = command(args)
        if payload is not None:
            _write_out(args.out, payload)
    except (CliError, ValueError) as err:  # DimacsError and EnumerationLimitError too
        print("error: %s" % err, file=sys.stderr)
        return 2
    print(text)
    report = {
        "command": args.command,
        "input_digest": digest,
        "seed": getattr(args, "seed", None),
        "outcome": outcome,
        "counts": counts,
        "wall_time_s": round(time.monotonic() - started, 6),
        "version": __version__,
    }
    print(json.dumps(report, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
