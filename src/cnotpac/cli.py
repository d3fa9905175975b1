"""Command-line pipeline: reduce, solve, verify, learn, complexity.

Exit codes are uniform across subcommands: 0 means found/consistent/
success, 1 means no witness exists (or the learner failed), 2 means any
error (unreadable input, schema violation, size limit, bad parameters).
The last stdout line of every run is a one-line JSON run report with the
command name, a sha256 digest of the primary input, the seed (null for
solve and verify), the outcome, counters, wall time, and the tool
version.  Output files are compact canonical JSON (sorted keys, no
whitespace, trailing newline), so identical inputs and seed give
identical bytes; input files may use any JSON layout.
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
    batch_from_json,
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
from .tableau import is_symplectic, sample_code


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


def _load(path: str, data: bytes, from_json, field=None):
    """from_json of the JSON in data, the bytes read from path.  Given a
    field, a reduce output ({"samples", "instance"}) yields that member;
    a bare sample set also has "samples" and is told apart by its "n".
    A decode or schema error names the file: bytes that are not UTF-8
    and nesting deeper than the recursion limit are decode errors too."""
    try:
        obj = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
        raise CliError("%s is not valid JSON: %s" % (path, err))
    if isinstance(obj, dict) and field in obj and not (field == "samples" and "n" in obj):
        obj = obj[field]
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


def _report(command, digest, seed, outcome, counts, started) -> None:
    record = {
        "command": command,
        "input_digest": digest,
        "seed": seed,
        "outcome": outcome,
        "counts": counts,
        "wall_time_s": round(time.monotonic() - started, 6),
        "version": __version__,
    }
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_reduce(args) -> int:
    started = time.monotonic()
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
    text = '{"instance":%s,"samples":%s}\n' % (
        _canonical(instance_to_json(inst)),
        sample_set_dumps(samples),
    )
    _write_out(args.out, text)
    print("samples: %d" % len(samples.samples))
    print("instance size: %d" % inst.size)
    counts = {"samples": len(samples.samples), "instance_size": inst.size}
    _report("reduce", digest, args.seed, "ok", counts, started)
    return 0


def cmd_solve(args) -> int:
    started = time.monotonic()
    data = _read(args.input)
    digest = _digest(data)
    counts = {}
    if args.strategy == "affine":
        inst = _load(args.input, data, instance_from_json, "instance")
        result = affine_family_search(inst)
        counts["assignments_examined"] = result.assignments_examined
        if not result.found:
            print("no satisfying assignment")
            _report("solve", digest, None, "none", counts, started)
            return 1
        if inst.determinant_at(result.assignment) != 1:
            raise CliError("internal check failed: witness determinant is 0")
        k = len(inst.ms)
        witness = {"assignment": bits_to_string(result.assignment, k)}
        _write_out(args.out, dumps(witness))
        print("assignment: %s" % witness["assignment"])
        _report("solve", digest, None, "found", counts, started)
        return 0
    samples = _load(args.input, data, sample_set_from_json, "samples")
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
        print("no consistent circuit")
        _report("solve", digest, None, "none", counts, started)
        return 1
    if not check_consistent(result.circuit, samples):
        raise CliError("internal check failed: witness is not consistent")
    _write_out(args.out, dumps(circuit_to_json(result.circuit)))
    print("consistent circuit found")
    _report("solve", digest, None, "found", counts, started)
    return 0


def cmd_verify(args) -> int:
    started = time.monotonic()
    circuit_bytes = _read(args.circuit)
    samples_bytes = _read(args.samples)
    digest = _digest(circuit_bytes + samples_bytes)
    hypothesis = _load(args.circuit, circuit_bytes, circuit_from_json)
    samples = _load(args.samples, samples_bytes, sample_set_from_json, "samples")
    if hypothesis.n != samples.n:
        raise CliError(
            "qubit count mismatch: circuit has %d, samples have %d"
            % (hypothesis.n, samples.n)
        )
    t = hypothesis.to_tableau()
    counts = {"samples": len(samples.samples)}
    for index, sample in enumerate(samples.samples):
        if sample_code(t, sample) != sample.code:
            print("inconsistent at sample %d" % index)
            counts["first_violation"] = index
            _report("verify", digest, None, "inconsistent", counts, started)
            return 1
    print("consistent")
    _report("verify", digest, None, "consistent", counts, started)
    return 0


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
        print("no consistent hypothesis")
        return 1, _digest(data), "none", counts, None
    outcome = "found" if result.accepted else "found-unaccepted"
    return 0, _digest(data), outcome, counts, dumps(circuit_to_json(result.circuit))


def _learn_single(args, rng):
    data = _read(args.input)
    samples = _load(args.input, data, batch_from_json)
    counts = {"samples": len(samples.samples)}
    try:
        circuit = learn_single_measurement(samples, rng)
    except EmptyIntersectionError as err:
        print("no consistent hypothesis: %s" % err)
        return 1, _digest(data), "none", counts, None
    if not check_consistent(circuit, samples):
        raise CliError("internal check failed: hypothesis is not consistent")
    return 0, _digest(data), "found", counts, dumps(circuit_to_json(circuit))


def _learn_trivial(args, rng):
    if args.n is None:
        raise CliError("trivial mode needs --n")
    if args.n > _MAX_CIRCUIT_QUBITS:  # verify would refuse to load the circuit
        raise CliError("--n exceeds %d qubits" % _MAX_CIRCUIT_QUBITS)
    tableau = trivial_uniform_learner(args.n, rng)
    if not is_symplectic(tableau.s_matrix(), tableau.n):
        raise CliError("internal check failed: tableau is not symplectic")
    digest = _digest(("trivial n=%d" % args.n).encode())
    counts = {"gates": 4 * args.n * args.n}
    return 0, digest, "found", counts, dumps(circuit_to_json(tableau))


def cmd_learn(args) -> int:
    started = time.monotonic()
    rng = random.Random(args.seed)
    unused = {
        "pac": ("--n",),
        "single-measurement": ("--n", "--draw-constant"),
        "trivial": ("--input", "--draw-constant"),
    }[args.mode]
    _reject_unused(args, unused, "in %s mode" % args.mode)
    if args.mode in ("pac", "single-measurement") and args.input is None:
        raise CliError("%s mode needs --input" % args.mode)
    if args.mode == "pac":
        code, digest, outcome, counts, payload = _learn_pac(args, rng)
    elif args.mode == "single-measurement":
        code, digest, outcome, counts, payload = _learn_single(args, rng)
    else:
        code, digest, outcome, counts, payload = _learn_trivial(args, rng)
    if payload is not None:
        _write_out(args.out, payload)
        print("hypothesis written")
    _report("learn", digest, args.seed, outcome, counts, started)
    return code


def cmd_complexity(args) -> int:
    started = time.monotonic()
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
    print("m = %d" % m)
    print("note: all big-O constants are set to 1; treat m as a scale, not a guarantee")
    _report("complexity", digest, None, "ok", {"m": m}, started)
    return 0


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
    try:
        return command(args)
    except (CliError, ValueError) as err:  # DimacsError and EnumerationLimitError too
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
