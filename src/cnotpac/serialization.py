"""JSON schemas and the DIMACS CNF reader.

Conventions shared by every schema:

* Bit vectors are strings of '0'/'1' whose character k is coordinate k
  (so qubit 0 / matrix column 0 comes first in the string): instance
  matrices, the 'assignment' string, and tableau blocks.
* A sample set writes its w-bit values as words, W(w): exactly
  ceil(w / 4) lowercase hex digits, most significant first, with a value
  below 2^w (so qubit 0 is the low bit of the last digit).  The reader
  takes nothing else: no '0x', '_', blanks, '+', uppercase or non-ASCII
  digits, no other width, no bit at or above w.
* Labels serialize as the strings "0", "1/2", "1"; floats would not
  round-trip one half exactly.
* Serialization is canonical: sorted keys, compact separators (no
  whitespace), trailing newline.  Equal objects produce byte-identical
  files.  The loaders take any JSON layout, so files written indented
  still load.
* A sample set is {"n", "paulis", "samples", "states"}.  'paulis' is the
  table of distinct measurements, {"n", "sign", "x": W(n), "z": W(n)}
  each; 'states' the table of distinct generator-key tuples, each a list
  of its n keys x | z << n as W(2n) words.  A sample names its
  measurement by 'paulis' index and its state by 'states' index plus its
  sign mask 'signs', a W(n) word whose bit k is set when generator k is
  negated, and carries a label.  The states of a reduction pin share one
  key tuple and differ in signs, so a file of O(n^2) samples names about
  n + 1 tuples.

Schema violations, wrong-typed values included (JSON true is not an
integer), raise ValueError with a message naming the offending field;
DIMACS problems raise DimacsError carrying the line number.
"""

import json
import re
from typing import List, Optional, Union

from .cnot import CnotCircuit
from .gf2 import BitMatrix
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


def _echo(value) -> str:
    """repr(value) for an error message: past 40 characters, its first 40
    and the length of the string (or of the repr, for another value)."""
    text = repr(value)
    size = len(value) if isinstance(value, str) else len(text)
    return text if len(text) <= 40 else "%s... (%d characters)" % (text[:40], size)


def bits_to_string(v: int, n: int) -> str:
    if v < 0 or v >> n:
        raise ValueError("value does not fit in %d bits" % n)
    # the sentinel bit n keeps leading zeros and gives "" for n = 0
    return format(v | 1 << n, "b")[:0:-1]


def string_to_bits(s: str, n: Optional[int] = None) -> int:
    # int() alone would also take "+1", " 1", "1_0" and non-ASCII digits
    if not isinstance(s, str) or not s or s.strip("01"):
        raise ValueError("expected a nonempty string of 0s and 1s, got %s" % _echo(s))
    if n is not None and len(s) != n:
        raise ValueError("expected %d bits, got %d" % (n, len(s)))
    return int(s[::-1], 2)


def _bit_rows(rows, n: int, what: str) -> list:
    """The n-bit strings rows as ints; the message names what and the row."""
    out = []
    for i, r in enumerate(rows):
        try:
            out.append(string_to_bits(r, n))
        except ValueError as err:
            raise ValueError("%s row %d: %s" % (what, i, err)) from None
    return out


def _word_format(w: int) -> str:
    """The %-format of a W(w) word: ceil(w / 4) lowercase hex digits, zero-padded."""
    return "%%0%dx" % -(-w // 4)


def word_to_hex(v: int, w: int) -> str:
    """W(w): v as exactly ceil(w / 4) lowercase hex digits, most significant first."""
    if v < 0 or v >> w:
        raise ValueError("value does not fit in %d bits" % w)
    return _word_format(w) % v


def hex_to_word(s: str, w: int) -> int:
    """The value of the W(w) word s."""
    # int(s, 16) alone would also take "0x1", " 1", "+1", "1_0", "A" and
    # non-ASCII digits
    if not isinstance(s, str) or not s or s.strip("0123456789abcdef"):
        raise ValueError("expected a nonempty string of lowercase hex digits, got %s" % _echo(s))
    digits = -(-w // 4)
    if len(s) != digits:
        raise ValueError("expected %d hex digits, got %d" % (digits, len(s)))
    v = int(s, 16)
    if v >> w:
        raise ValueError("%s does not fit in %d bits" % (_echo(s), w))
    return v


def _word_field(obj: dict, field: str, w: int, what: str) -> int:
    """obj[field] as a W(w) word; the message names the field."""
    try:
        return hex_to_word(obj.get(field), w)
    except ValueError as err:
        raise ValueError("%s field %r: %s" % (what, field, err)) from None


def _positive_int(obj: dict, field: str, what: str) -> int:
    """obj[field] as a positive int; JSON true is not an integer."""
    value = obj.get(field)
    if type(value) is not int or value < 1:
        raise ValueError("%s field %r must be a positive integer" % (what, field))
    return value


# ---------------------------------------------------------------------------
# Paulis, samples, sample sets


def _pauli_fields(obj) -> tuple:
    """(n, key x | z << n, sign bit) of a serialized Pauli, validated."""
    if not isinstance(obj, dict):
        raise ValueError("Pauli must be an object")
    n = _positive_int(obj, "n", "Pauli")
    sign = obj.get("sign")
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError("Pauli field 'sign' must be 1 or -1")
    key = _word_field(obj, "x", n, "Pauli") | _word_field(obj, "z", n, "Pauli") << n
    return n, key, (1 - sign) // 2


def _state_entry(entry, n: int) -> StabilizerGroup:
    """The group, every sign +, of one 'states' entry: its n generator
    keys as W(2n) words.  A count, identity, commutation or independence
    fault raises the StabilizerGroup constructor's message."""
    if not isinstance(entry, list):
        raise ValueError("must list generator keys")
    keys = []
    for i, word in enumerate(entry):
        try:
            keys.append(hex_to_word(word, 2 * n))
        except ValueError as err:
            raise ValueError("key %d: %s" % (i, err)) from None
    return StabilizerGroup._from_keys(n, tuple(keys))


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
    mask = _word_field(obj, "signs", base.n, "sample")
    i = obj.get("measurement")
    # a bare measurements[i] would take True and wrap a negative i to the end
    if type(i) is not int or not 0 <= i < len(measurements):
        raise ValueError("Pauli index %s is not an integer in [0, %d)" % (_echo(i), len(measurements)))
    _, key, sign = measurements[i]
    label = obj.get("label")
    if not isinstance(label, str) or label not in _CODES_BACK:
        raise ValueError("label must be one of '0', '1/2', '1'; got %s" % _echo(label))
    if not key:
        raise ValueError("measurement must not be the identity")
    return Sample._unchecked(base.flip(mask), key, sign, _CODES_BACK[label])


def sample_set_dumps(ss: SampleSet) -> str:
    """The canonical text of sample_set_to_json(ss), without the newline.

    Each distinct measurement is written once, as an entry of 'paulis' in
    order of first use, and each distinct key tuple once, as an entry of
    'states' in order of first use.  A sample then costs a measurement
    lookup, a key-tuple lookup and one format of its sign mask.  Keys are
    in sorted order, as _canonical writes them; each entry's format
    string renders exactly _canonical of its {"n", "sign", "x", "z"}
    dict, without a json.dumps per entry.
    """
    n = ss.n
    full = (1 << n) - 1
    line = '{"label":"%%s","measurement":%%s,"signs":"%s","state":%%s}' % _word_format(n)
    key_word = '"%s"' % _word_format(2 * n)
    # sign bit -> {key x | z << n: the entry's index as text}
    index: tuple = ({}, {})
    entries: List[str] = []
    tuples: dict = {}  # key tuple -> its 'states' index as text
    states: List[str] = []
    samples = []
    for s in ss.samples:
        group = s.state
        at = index[s.sign].get(s.key)
        if at is None:
            at = index[s.sign][s.key] = str(len(entries))
            x, z = word_to_hex(s.key & full, n), word_to_hex(s.key >> n, n)
            entries.append('{"n":%d,"sign":%d,"x":"%s","z":"%s"}' % (n, 1 - 2 * s.sign, x, z))
        t = tuples.get(group.keys)
        if t is None:
            t = tuples[group.keys] = str(len(states))
            states.append("[%s]" % ",".join([key_word % key for key in group.keys]))
        samples.append(line % (_LABEL_TEXT[s.code], at, group.signs, t))
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
            bases.append(_state_entry(entry, n))
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
    s = BitMatrix(_bit_rows(rows, 2 * n, "tableau field 's'"), 2 * n)
    try:
        phases = string_to_bits(obj.get("phases"), 2 * n)
    except ValueError as err:
        raise ValueError("tableau field 'phases': %s" % err) from None
    t = CliffordTableau.from_s_matrix(s, phases)
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


def matrix_from_json(obj, size: int, what: str) -> BitMatrix:
    """A size x size matrix from its row strings; the message names what
    the matrix is, and the row."""
    if not isinstance(obj, list) or len(obj) != size:
        raise ValueError("%s must list %d rows" % (what, size))
    return BitMatrix(_bit_rows(obj, size, what), size)


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
    m0 = matrix_from_json(obj.get("m0"), size, "instance field 'm0'")
    ms = obj.get("ms")
    if not isinstance(ms, list):
        raise ValueError("instance field 'ms' must be a list")
    mats = [matrix_from_json(m, size, "instance field 'ms' matrix %d" % j) for j, m in enumerate(ms)]
    return NonSingularityInstance(size, m0, mats)


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
                raise DimacsError("bad literal %s" % _echo(token), lineno)
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
