"""JSON schemas and the DIMACS CNF reader.

Conventions shared by every schema:

* Bit vectors are strings of '0'/'1' whose character k is coordinate k
  (so qubit 0 / matrix column 0 comes first in the string).
* Labels serialize as the strings "0", "1/2", "1"; floats would not
  round-trip one half exactly.
* Serialization is canonical: sorted keys, compact separators (no
  whitespace), trailing newline.  Equal objects produce byte-identical
  files.  The loaders take any JSON layout, so files written indented
  still load.
* A sample set is {"n", "paulis", "samples", "states"}: each distinct
  Pauli is one entry of the 'paulis' table, and each distinct generator-key
  tuple is one entry of the 'states' table, n indices of +1-signed
  'paulis' entries.  A sample names its measurement by 'paulis' index,
  its state by 'states' index plus a bit string 'signs' (character k is 1
  when generator k is negated), and carries a label.  The states of a
  reduction pin share one key tuple and differ in signs, so a file of
  O(n^2) samples names about n + 1 tuples.

Schema violations, wrong-typed values included (JSON true is not an
integer), raise ValueError with a message naming the offending field;
DIMACS problems raise DimacsError carrying the line number.
"""

import json
import re
from typing import List, Optional, Union

from .cnot import CnotCircuit
from .gf2 import BitMatrix
from .pauli import PauliOperator
from .reduction import NonSingularityInstance
from .samples import Sample, SampleSet
from .stabilizer import StabilizerGroup
from .tableau import CliffordTableau, Gate, _is_symplectic_basis


class DimacsError(ValueError):
    """Malformed DIMACS input; .line is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


# label text by label code (index into samples.LABELS), and back
_LABEL_TEXT = ("0", "1/2", "1")
_CODES_BACK = {text: code for code, text in enumerate(_LABEL_TEXT)}


# A gate list, unlike a bit string, does not grow with n, yet building
# its circuit costs O(n^3 / 64) (about 3 s at n = 4096); the reduction's
# circuits stay far below this.
_MAX_CIRCUIT_QUBITS = 1024


def _canonical(obj) -> str:
    # the *_to_json trees never contain themselves
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def dumps(obj) -> str:
    return _canonical(obj) + "\n"


def bits_to_string(v: int, n: int) -> str:
    if v < 0 or v >> n:
        raise ValueError("value does not fit in %d bits" % n)
    # the sentinel bit n keeps leading zeros and gives "" for n = 0
    return format(v | 1 << n, "b")[:0:-1]


def string_to_bits(s: str, n: Optional[int] = None) -> int:
    # int() alone would also take "+1", " 1", "1_0" and non-ASCII digits
    if not isinstance(s, str) or not s or s.strip("01"):
        raise ValueError("expected a nonempty string of 0s and 1s, got %r" % (s,))
    if n is not None and len(s) != n:
        raise ValueError("expected %d bits, got %d" % (n, len(s)))
    return int(s[::-1], 2)


def _positive_int(obj: dict, field: str, what: str) -> int:
    """obj[field] as a positive int; JSON true is not an integer."""
    value = obj.get(field)
    if type(value) is not int or value < 1:
        raise ValueError("%s field %r must be a positive integer" % (what, field))
    return value


# ---------------------------------------------------------------------------
# Paulis, samples, sample sets


def pauli_to_json(p: PauliOperator) -> dict:
    return {
        "n": p.n,
        "sign": p.sign,
        "x": bits_to_string(p.x, p.n),
        "z": bits_to_string(p.z, p.n),
    }


def _pauli_fields(obj) -> tuple:
    """(n, key x | z << n, sign bit) of a serialized Pauli, validated."""
    if not isinstance(obj, dict):
        raise ValueError("Pauli must be an object")
    n = _positive_int(obj, "n", "Pauli")
    sign = obj.get("sign")
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError("Pauli field 'sign' must be 1 or -1")
    key = string_to_bits(obj.get("x"), n) | string_to_bits(obj.get("z"), n) << n
    return n, key, (1 - sign) // 2


def pauli_from_json(obj) -> PauliOperator:
    n, key, sign_bit = _pauli_fields(obj)
    return PauliOperator(n, key & (1 << n) - 1, key >> n, sign=-1 if sign_bit else 1)


def _table_entry(table: list, i):
    # a bare table[i] would take True and wrap a negative i to the end
    if type(i) is not int or not 0 <= i < len(table):
        raise ValueError("Pauli index %r is not an integer in [0, %d)" % (i, len(table)))
    return table[i]


def _state_table_entry(entry, n: int, measurements: List[tuple]) -> StabilizerGroup:
    """The group, every sign +, of the 'paulis' entries (n, key, sign bit)
    that one 'states' entry names.  A count, identity, commutation or
    independence fault raises the StabilizerGroup constructor's message."""
    if not isinstance(entry, list):
        raise ValueError("must list Pauli indices")
    named = [_table_entry(measurements, i) for i in entry]
    group = StabilizerGroup._from_keys(n, tuple(key for _, key, _ in named))
    if any(sign for _, _, sign in named):
        raise ValueError("names a negated Pauli; a sample's 'signs' carry the signs")
    return group


def _sample_from_json(obj, measurements: List[tuple], bases: List[StabilizerGroup]) -> Sample:
    """One entry of a sample set's 'samples': its state is the 'states'
    group bases[obj['state']] with the generators obj['signs'] names
    negated, and its measurement a 'paulis' entry's key and sign bit."""
    if not isinstance(obj, dict):
        raise ValueError("sample must be an object")
    t = obj.get("state")
    if type(t) is not int or not 0 <= t < len(bases):
        raise ValueError("sample field 'state' must be an index in [0, %d) of 'states'" % len(bases))
    base = bases[t]
    try:
        mask = string_to_bits(obj.get("signs"), base.n)
    except ValueError as err:
        raise ValueError("sample field 'signs': %s" % err) from None
    _, key, sign = _table_entry(measurements, obj.get("measurement"))
    label = obj.get("label")
    if not isinstance(label, str) or label not in _CODES_BACK:
        raise ValueError("label must be one of '0', '1/2', '1'; got %r" % (label,))
    if not key:
        raise ValueError("measurement must not be the identity")
    return Sample._unchecked(base.flip(mask), key, sign, _CODES_BACK[label])


def sample_set_dumps(ss: SampleSet) -> str:
    """The canonical text of sample_set_to_json(ss), without the newline.

    Each distinct Pauli is written once, as an entry of 'paulis' in order
    of first use (each sample's measurement, then, when its state's key
    tuple is new, that tuple's generators with sign +), and each distinct
    key tuple once, as an entry of 'states' in order of first use.  A
    sample then costs a measurement lookup, a key-tuple lookup and one
    format of its sign mask.  Keys are in sorted order, as _canonical
    writes them; each entry's format string renders exactly
    _canonical(pauli_to_json(p)), without a json.dumps per entry.
    """
    n = ss.n
    top = 1 << n
    full = top - 1
    # sign bit -> {key x | z << n: the entry's index as text}
    index: tuple = ({}, {})
    entries: List[str] = []
    tuples: dict = {}  # key tuple -> its 'states' index as text
    states: List[str] = []

    def add(key: int, sign: int) -> str:
        i = index[sign][key] = str(len(entries))
        # x and z as bits_to_string writes them; the key holds their range
        x, z = format(key & full | top, "b")[:0:-1], format(key >> n | top, "b")[:0:-1]
        entries.append('{"n":%d,"sign":%s,"x":"%s","z":"%s"}' % (n, "-1" if sign else "1", x, z))
        return i

    def add_state(keys: tuple) -> str:
        plus = index[0]
        t = tuples[keys] = str(len(states))
        states.append("[%s]" % ",".join([plus.get(key) or add(key, 0) for key in keys]))
        return t

    samples = []
    for s in ss.samples:
        group = s.state
        at = index[s.sign].get(s.key) or add(s.key, s.sign)
        t = tuples.get(group.keys) or add_state(group.keys)
        # character k is the sign bit of generator k
        samples.append(
            '{"label":"%s","measurement":%s,"signs":"%s","state":%s}'
            % (_LABEL_TEXT[s.code], at, format(group.signs | top, "b")[:0:-1], t)
        )
    return '{"n":%d,"paulis":[%s],"samples":[%s],"states":[%s]}' % (
        n, ",".join(entries), ",".join(samples), ",".join(states)
    )


def sample_set_to_json(ss: SampleSet) -> dict:
    """The parse of sample_set_dumps(ss)."""
    return json.loads(sample_set_dumps(ss))


def sample_set_from_json(obj) -> SampleSet:
    """Load a sample set: each 'paulis' entry is parsed once, to its key
    and sign bit, which a sample naming it takes.  Each 'states' entry's
    key tuple is validated once, as a StabilizerGroup with every sign +; a
    sample's state is that group's sign flip (StabilizerGroup.flip) by its
    'signs'.  No Pauli object is built, and no check is made per sample."""
    if not isinstance(obj, dict):
        raise ValueError("sample set must be an object")
    n = _positive_int(obj, "n", "sample set")
    table = obj.get("paulis")
    if not isinstance(table, list):
        raise ValueError("sample set field 'paulis' must be a list")
    measurements = [_pauli_fields(entry) for entry in table]
    if any(m != n for m, _, _ in measurements):
        raise ValueError("sample set field 'paulis' must hold %d-qubit Paulis" % n)
    states = obj.get("states")
    if not isinstance(states, list):
        raise ValueError("sample set field 'states' must be a list")
    bases = []
    for t, entry in enumerate(states):
        try:
            bases.append(_state_table_entry(entry, n, measurements))
        except ValueError as err:
            raise ValueError("sample set field 'states' entry %d: %s" % (t, err)) from None
    samples = obj.get("samples")
    if not isinstance(samples, list):
        raise ValueError("sample set field 'samples' must be a list")
    return SampleSet(n, [_sample_from_json(s, measurements, bases) for s in samples])


# ---------------------------------------------------------------------------
# circuits and tableaux


def gate_to_json(g: Gate) -> dict:
    if g.name == "cnot":
        return {"name": "cnot", "control": g.control, "target": g.target}
    return {"name": g.name, "qubit": g.qubit}


def gate_from_json(obj, n: int) -> Gate:
    if not isinstance(obj, dict) or "name" not in obj:
        raise ValueError("gate must be an object with a 'name'")
    name = obj["name"]
    if not isinstance(name, str):
        raise ValueError("gate field 'name' must be a string")
    fields = ("control", "target") if name == "cnot" else ("qubit",)
    for field in fields:
        if field in obj and type(obj[field]) is not int:
            raise ValueError("gate field %r must be an integer" % field)
    if name == "cnot":
        gate = Gate("cnot", control=obj.get("control"), target=obj.get("target"))
    else:
        gate = Gate(name, qubit=obj.get("qubit"))
    if gate.max_qubit() >= n:
        raise ValueError("gate %r addresses qubit %d out of range" % (name, gate.max_qubit()))
    return gate


def tableau_block(t: CliffordTableau) -> dict:
    s = t.s_matrix()
    return {
        "s": [bits_to_string(row, 2 * t.n) for row in s.rows],
        "phases": bits_to_string(t.phase_bits(), 2 * t.n),
    }


def tableau_from_block(obj, n: int) -> CliffordTableau:
    if not isinstance(obj, dict):
        raise ValueError("tableau must be an object")
    rows = obj.get("s")
    if not isinstance(rows, list) or len(rows) != 2 * n:
        raise ValueError("tableau field 's' must list 2n rows")
    s = BitMatrix([string_to_bits(r, 2 * n) for r in rows], 2 * n)
    t = CliffordTableau.from_s_matrix(s, string_to_bits(obj.get("phases"), 2 * n))
    if not _is_symplectic_basis(t.keys, n):
        raise ValueError("tableau is not symplectic (S^T Lambda S != Lambda)")
    return t


def circuit_to_json(c: Union[CnotCircuit, CliffordTableau]) -> dict:
    """Serialize a hypothesis.

    CnotCircuit inputs emit their synthesized gate list and the tableau
    block; raw tableaux emit only the tableau block (their gate history
    is unknown).
    """
    out = {"n": c.n}
    if isinstance(c, CnotCircuit):
        out["gates"] = [gate_to_json(g) for g in c.gates()]
    out["tableau"] = tableau_block(c.to_tableau())
    return out


def circuit_from_json(obj) -> Union[CnotCircuit, CliffordTableau]:
    """Load a hypothesis.

    Returns a CnotCircuit when a gate list of only x/cnot gates is
    present, the replayed CliffordTableau for other gate lists, and the
    embedded tableau when no gates are given.  A file carrying both
    gates and a tableau must agree between them.
    """
    if not isinstance(obj, dict):
        raise ValueError("circuit must be an object")
    n = _positive_int(obj, "n", "circuit")
    if n > _MAX_CIRCUIT_QUBITS:
        raise ValueError("circuit field 'n' exceeds %d qubits" % _MAX_CIRCUIT_QUBITS)
    gates = obj.get("gates")
    block = obj.get("tableau")
    if gates is None and block is None:
        raise ValueError("circuit needs a 'gates' list or a 'tableau' block")
    hypothesis: Union[CnotCircuit, CliffordTableau, None] = None
    if gates is not None:
        if not isinstance(gates, list):
            raise ValueError("circuit field 'gates' must be a list")
        parsed = [gate_from_json(g, n) for g in gates]
        if all(g.name in ("x", "cnot") for g in parsed):
            hypothesis = CnotCircuit.from_gates(n, parsed)
        else:
            t = CliffordTableau.identity(n)
            for g in parsed:
                t.apply_gate(g)
            hypothesis = t
    if block is not None:
        embedded = tableau_from_block(block, n)
        if hypothesis is None:
            hypothesis = embedded
        elif hypothesis.to_tableau() != embedded:
            raise ValueError("gates and tableau block disagree")
    return hypothesis


# ---------------------------------------------------------------------------
# instances


def matrix_to_json(m: BitMatrix) -> list:
    return [bits_to_string(row, m.n_cols) for row in m.rows]


def matrix_from_json(obj, size: int) -> BitMatrix:
    if not isinstance(obj, list) or len(obj) != size:
        raise ValueError("matrix must list %d rows" % size)
    return BitMatrix([string_to_bits(r, size) for r in obj], size)


def instance_to_json(inst: NonSingularityInstance) -> dict:
    return {
        "size": inst.size,
        "m0": matrix_to_json(inst.m0),
        "ms": [matrix_to_json(m) for m in inst.ms],
    }


def instance_from_json(obj) -> NonSingularityInstance:
    if not isinstance(obj, dict):
        raise ValueError("instance must be an object")
    size = _positive_int(obj, "size", "instance")
    m0 = matrix_from_json(obj.get("m0"), size)
    ms = obj.get("ms")
    if not isinstance(ms, list):
        raise ValueError("instance field 'ms' must be a list")
    return NonSingularityInstance(size, m0, [matrix_from_json(m, size) for m in ms])


# ---------------------------------------------------------------------------
# DIMACS


def _is_digits(token: str) -> bool:
    """True iff token is one or more ASCII digits (int() also takes '+',
    '_', surrounding spaces and non-ASCII digits)."""
    return token.isascii() and token.isdigit()


# a run of anything but ASCII whitespace; '\n' never reaches it
_ASCII_TOKEN = re.compile(r"[^ \t\r\x0b\x0c]+")


def parse_dimacs(text: str) -> List[List[int]]:
    """Read a DIMACS CNF file with at most 3 literals per clause.

    Comment lines start with 'c'; the header is 'p cnf VARS CLAUSES';
    clauses are whitespace-separated literals terminated by 0 and may
    span lines.  Counts are ASCII digits and literals ASCII digits with
    an optional leading '-'.  Variable indices must stay within the
    declared count and the clause count must match the header.  Lines
    end at '\\n' only (a trailing '\\r' is dropped) and tokens split at
    ASCII whitespace only, so line numbers match an editor's and other
    Unicode separators are part of a (bad) token.
    """
    n_vars = n_clauses = None
    clauses: List[List[int]] = []
    current: List[int] = []
    current_line = None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the text ends with a newline, not an empty line
    for lineno, raw in enumerate(lines, start=1):
        tokens = _ASCII_TOKEN.findall(raw)
        if not tokens or tokens[0].startswith("c"):
            continue
        if tokens[0].startswith("p"):
            if n_vars is not None:
                raise DimacsError("duplicate header", lineno)
            if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != "cnf":
                raise DimacsError("header must be 'p cnf VARS CLAUSES'", lineno)
            if not all(_is_digits(t) for t in tokens[2:]):
                raise DimacsError("header counts must be unsigned integers", lineno)
            n_vars, n_clauses = int(tokens[2]), int(tokens[3])
            continue
        if n_vars is None:
            raise DimacsError("clause before 'p cnf' header", lineno)
        for token in tokens:
            if not _is_digits(token[1:] if token.startswith("-") else token):
                raise DimacsError("bad literal %r" % token, lineno)
            lit = int(token)
            if lit == 0:
                clauses.append(current)
                current = []
                current_line = None
                continue
            if abs(lit) > n_vars:
                raise DimacsError(
                    "literal %d exceeds declared %d variables" % (lit, n_vars), lineno
                )
            if current_line is None:
                current_line = lineno
            current.append(lit)
            if len(current) > 3:
                raise DimacsError("clause has more than 3 literals", current_line)
    last = len(lines) or 1
    if n_vars is None:
        raise DimacsError("missing 'p cnf' header", 1)
    if current:
        raise DimacsError("unterminated clause (missing 0)", current_line or last)
    if len(clauses) != n_clauses:
        raise DimacsError(
            "header declares %d clauses, found %d" % (n_clauses, len(clauses)), last
        )
    return clauses
