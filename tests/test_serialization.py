import copy
import hashlib
import json
import pathlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from cnotpac.cli import main
from cnotpac.cnot import CnotCircuit
from cnotpac.pauli import PauliOperator, z_power
from cnotpac.reduction import graph_to_instance, reduce_formula_to_samples, reduce_sat_to_samples
from cnotpac.formula import formula_to_graph, parse_formula
from cnotpac.samples import Sample, SampleSet
from cnotpac.serialization import (
    DimacsError,
    _echo,
    bits_to_string,
    circuit_from_json,
    circuit_to_json,
    dumps,
    gate_from_json,
    gate_to_json,
    hex_to_word,
    instance_from_json,
    instance_to_json,
    parse_dimacs,
    sample_set_dumps,
    sample_set_from_json,
    sample_set_to_json,
    string_to_bits,
    tableau_block,
    word_to_hex,
)
from cnotpac.stabilizer import StabilizerGroup
from cnotpac.tableau import CliffordTableau, Gate, apply_circuit_to_state

from formula_corpus import CORPUS, golden_formula
from helpers import pauli_from_json, pauli_to_json, random_stabilizer_state, random_tableau, x_power
from test_search import random_cnot_circuit, random_consistent_set


def test_bitstring_convention():
    # character k of the string is coordinate k
    assert bits_to_string(0b110, 3) == "011"
    assert string_to_bits("011") == 0b110
    assert bits_to_string(0, 4) == "0000"
    rng = random.Random(110)
    for _ in range(50):
        n = rng.randrange(1, 12)
        v = rng.randrange(1 << n)
        assert string_to_bits(bits_to_string(v, n), n) == v
    with pytest.raises(ValueError):
        bits_to_string(0b100, 2)
    with pytest.raises(ValueError):
        string_to_bits("01x")
    with pytest.raises(ValueError):
        string_to_bits("011", 4)
    with pytest.raises(ValueError):
        string_to_bits("")


def test_bit_codec_round_trips_and_rejects_what_int_would_take():
    rng = random.Random(118)
    assert bits_to_string(0, 0) == ""
    for n in range(1, 65):
        for v in (0, 1, 1 << (n - 1), (1 << n) - 1, rng.randrange(1 << n)):
            text = bits_to_string(v, n)
            assert len(text) == n and set(text) <= {"0", "1"}
            assert text == "".join(str((v >> k) & 1) for k in range(n))
            assert string_to_bits(text, n) == v and string_to_bits(text) == v
    # int(..., 2) would take the signs, blanks, underscore and non-ASCII digit
    for text in ("", "+1", "-1", " 1", "1 ", "1_0", "\u0661", "0b1", None, 1, ["1"]):
        with pytest.raises(ValueError, match="nonempty string of 0s and 1s"):
            string_to_bits(text)
    for text, n in (("01", 3), ("0110", 3), ("1", 2)):
        with pytest.raises(ValueError, match="expected %d bits, got %d" % (n, len(text))):
            string_to_bits(text, n)
    for v, n in ((-1, 3), (8, 3), (1, 0)):
        with pytest.raises(ValueError, match="does not fit"):
            bits_to_string(v, n)


def test_echo_keeps_a_short_value_and_cuts_a_long_one():
    # up to 40 characters of repr stay whole, byte for byte
    for value in ("x" * 38, ["1"], None, 1.0, "\u0668"):
        assert _echo(value) == repr(value)
    # a longer one keeps 40 and gives a string's length, else the repr's
    assert _echo("x" * 39) == "'%s... (39 characters)" % ("x" * 39)
    long_list = [0] * 100
    assert _echo(long_list) == repr(long_list)[:40] + "... (300 characters)"


def test_hex_codec_round_trips_and_rejects_what_int_would_take():
    rng = random.Random(125)
    for w in range(1, 261):
        digits = -(-w // 4)
        for v in (0, 1, 1 << (w - 1), (1 << w) - 1, rng.randrange(1 << w)):
            word = word_to_hex(v, w)
            assert word == format(v, "x").zfill(digits) and len(word) == digits
            assert hex_to_word(word, w) == v
    # int(..., 16) would take the prefix, signs, blanks, underscore,
    # uppercase and non-ASCII digit
    for text in ("", "0x1", "+1", "-1", " 1", "1 ", "1_0", "A", "\u0661", "\uff11", None, 1, ["1"]):
        with pytest.raises(ValueError, match="nonempty string of lowercase hex digits"):
            hex_to_word(text, 8)
    for text, w in (("1", 5), ("001", 5), ("01", 4), ("0", 9)):
        with pytest.raises(ValueError, match="expected %d hex digits, got %d" % (-(-w // 4), len(text))):
            hex_to_word(text, w)
    # the top digit holds w mod 4 bits, or 4 when w is a multiple of 4
    for text, w in (("2", 1), ("4", 2), ("8", 3), ("20", 5), ("400", 10), ("8000", 15)):
        with pytest.raises(ValueError, match="does not fit in %d bits" % w):
            hex_to_word(text, w)
        assert hex_to_word("%x" % (int(text, 16) - 1), w) == int(text, 16) - 1
    for v, w in ((-1, 3), (8, 3), (16, 4), (1, 0)):
        with pytest.raises(ValueError, match="does not fit"):
            word_to_hex(v, w)


def test_pauli_round_trip():
    rng = random.Random(111)
    for _ in range(40):
        n = rng.randrange(1, 7)
        p = PauliOperator(
            n,
            rng.randrange(1 << n),
            rng.randrange(1 << n),
            sign=rng.choice((1, -1)),
        )
        assert pauli_from_json(pauli_to_json(p)) == p
    # x and z are W(n) words: Z on qubits 0 and 2 is z = 0b101
    assert pauli_to_json(z_power(3, 0b101, sign=-1)) == {
        "n": 3,
        "sign": -1,
        "x": "0",
        "z": "5",
    }
    assert pauli_to_json(PauliOperator(9, 0b100000001, 0b11)) == {
        "n": 9, "sign": 1, "x": "101", "z": "003"
    }
    for bad in (
        {"n": 2, "sign": 2, "x": "2", "z": "0"},
        {"n": 0, "sign": 1, "x": "", "z": ""},
        {"n": 2, "sign": 1, "x": "01", "z": "0"},
        {"n": 2, "sign": 1, "x": "4", "z": "0"},
        {"n": 2, "sign": 1, "x": "2", "z": "00"},
        {"sign": 1, "x": "2", "z": "0"},
        "not an object",
    ):
        with pytest.raises(ValueError):
            pauli_from_json(bad)


def one_sample_doc(s):
    """The sample-set document that holds s alone."""
    return sample_set_to_json(SampleSet(s.state.n, [s]))


# |10> (qubit 0 set) measured on -Z_0 with label 1: a table of -ZI and
# one 'states' entry, the key tuple (Z_0, Z_1)
_DOC = one_sample_doc(
    Sample(StabilizerGroup.computational_basis(2, 1), z_power(2, 1, sign=-1), Fraction(1))
)


def sample_from_json(obj, doc=_DOC):
    """obj loaded as the only sample of doc, over doc's Pauli table."""
    return sample_set_from_json(dict(doc, samples=[obj])).samples[0]


def test_sample_round_trip_label_strings():
    rng = random.Random(112)
    samples, _ = random_consistent_set(rng, 3, 20)
    seen = set()
    for s in samples.samples:
        doc = one_sample_doc(s)
        obj = doc["samples"][0]
        seen.add(obj["label"])
        back = sample_from_json(obj, doc)
        assert back.label == s.label
        assert back.measurement == s.measurement
        assert back.state.generators == s.state.generators
    assert seen <= {"0", "1/2", "1"}
    doc = one_sample_doc(
        Sample(StabilizerGroup.zero_state(2), z_power(2, 1), Fraction(1, 2))
    )
    obj = doc["samples"][0]
    assert obj["label"] == "1/2"
    obj["label"] = "0.5"
    with pytest.raises(ValueError):
        sample_from_json(obj, doc)


def test_sample_set_round_trip_and_determinism():
    rng = random.Random(113)
    samples, _ = random_consistent_set(rng, 3, 10)
    obj = sample_set_to_json(samples)
    back = sample_set_from_json(obj)
    assert back.n == samples.n and len(back.samples) == len(samples.samples)
    assert sample_set_to_json(back) == obj
    assert dumps(obj) == dumps(sample_set_to_json(back))
    assert dumps(obj).endswith("\n")
    # canonical form survives a JSON round trip byte for byte
    assert dumps(json.loads(dumps(obj))) == dumps(obj)


def test_cnot_circuit_round_trip():
    rng = random.Random(114)
    for n in (2, 3, 5):
        for _ in range(8):
            c = random_cnot_circuit(rng, n)
            back = circuit_from_json(circuit_to_json(c))
            assert isinstance(back, CnotCircuit)
            assert back.theta == c.theta and back.q == c.q
    # tableau block alone reconstructs the same map
    c = random_cnot_circuit(rng, 3)
    obj = circuit_to_json(c)
    del obj["gates"]
    back = circuit_from_json(obj)
    assert isinstance(back, CliffordTableau)
    assert back == c.to_tableau()


def test_clifford_tableau_round_trip():
    rng = random.Random(115)
    for n in (1, 2, 4):
        for _ in range(6):
            t = random_tableau(rng, n, 30)
            back = circuit_from_json(circuit_to_json(t))
            assert back == t


def test_circuit_with_clifford_gates_replays():
    gates = [Gate("h", qubit=0), Gate("cnot", control=0, target=1)]
    obj = {"n": 2, "gates": [{"name": "h", "qubit": 0}, {"name": "cnot", "control": 0, "target": 1}]}
    back = circuit_from_json(obj)
    expected = CliffordTableau.identity(2)
    for g in gates:
        expected.apply_gate(g)
    assert back == expected


def test_circuit_schema_violations():
    c = random_cnot_circuit(random.Random(116), 3)
    obj = circuit_to_json(c)
    # flip one phase bit so gates and tableau disagree
    phases = list(obj["tableau"]["phases"])
    phases[0] = "1" if phases[0] == "0" else "0"
    obj["tableau"]["phases"] = "".join(phases)
    with pytest.raises(ValueError, match="disagree"):
        circuit_from_json(obj)
    with pytest.raises(ValueError, match="symplectic"):
        circuit_from_json(
            {
                "n": 1,
                "tableau": {"s": ["10", "10"], "phases": "00"},
            }
        )
    with pytest.raises(ValueError, match="out of range"):
        circuit_from_json({"n": 2, "gates": [{"name": "x", "qubit": 5}]})
    with pytest.raises(ValueError, match="gates.*or.*tableau"):
        circuit_from_json({"n": 2})
    with pytest.raises(ValueError):
        circuit_from_json({"n": 2, "gates": [{"name": "toffoli", "qubit": 0}]})


def test_instance_round_trip():
    inst = graph_to_instance(formula_to_graph(golden_formula()))
    obj = instance_to_json(inst)
    back = instance_from_json(obj)
    assert back.size == inst.size
    assert back.m0 == inst.m0 and back.ms == inst.ms
    assert dumps(instance_to_json(back)) == dumps(obj)
    obj["m0"] = obj["m0"][:-1]
    with pytest.raises(ValueError):
        instance_from_json(obj)


def test_reduction_output_serializes():
    samples, inst = reduce_sat_to_samples([[1]], random.Random(117))
    text = dumps(
        {"samples": sample_set_to_json(samples), "instance": instance_to_json(inst)}
    )
    parsed = json.loads(text)
    assert sample_set_from_json(parsed["samples"]).n == inst.size
    assert instance_from_json(parsed["instance"]).size == 3


def _reference_json(ss):
    """sample_set_to_json built the plain way, from Pauli objects told apart
    by ==: 'paulis' lists the distinct measurements in order of first use,
    and 'states' the distinct unsigned generator tuples, each as its keys."""
    paulis, tuples, samples = [], [], []
    for s in ss.samples:
        if s.measurement not in paulis:
            paulis.append(s.measurement)
        gens = s.state.generators
        unsigned = tuple(PauliOperator(g.n, g.x, g.z) for g in gens)
        if unsigned not in tuples:
            tuples.append(unsigned)
        samples.append({
            "label": str(s.label),
            "measurement": paulis.index(s.measurement),
            "signs": word_to_hex(sum(g.sign_bit << k for k, g in enumerate(gens)), ss.n),
            "state": tuples.index(unsigned),
        })
    return {
        "n": ss.n,
        "paulis": [pauli_to_json(p) for p in paulis],
        "samples": samples,
        "states": [[word_to_hex(g.key(), 2 * ss.n) for g in t] for t in tuples],
    }


def test_corpus_reductions_round_trip_byte_for_byte():
    for name, f, n_vars in CORPUS:
        ss, _ = reduce_formula_to_samples(f, random.Random(120), num_vars=n_vars)
        text = dumps(sample_set_to_json(ss))
        assert text == dumps(_reference_json(ss)), name
        back = sample_set_from_json(json.loads(text))
        assert back.n == ss.n and back.samples == ss.samples, name
        for s, t in zip(ss.samples, back.samples):
            assert s.state.generators == t.state.generators, name


def _random_sample_set(rng, n):
    """Samples over generic states (X and Y generators, both signs) and
    random measurements of either sign, with every label; three states
    and three measurements are reused, so equal Paulis repeat."""
    states = [random_stabilizer_state(rng, n) for _ in range(3)]
    measurements = []
    for _ in range(3):
        v = rng.randrange(1, 1 << (2 * n))
        measurements.append(PauliOperator(n, v & ((1 << n) - 1), v >> n, sign=rng.choice((1, -1))))
    labels = (Fraction(0), Fraction(1, 2), Fraction(1))
    samples = [
        Sample(rng.choice(states), rng.choice(measurements), rng.choice(labels))
        for _ in range(rng.randrange(1, 4 * n))
    ]
    return SampleSet(n, samples)


def test_sample_set_text_is_the_canonical_dump():
    cases = [
        reduce_formula_to_samples(f, random.Random(122), num_vars=n_vars)[0]
        for _, f, n_vars in CORPUS
    ]
    rng = random.Random(123)
    randoms = [_random_sample_set(rng, n) for n in range(1, 9) for _ in range(4)]
    paulis = [p for ss in randoms for s in ss for p in (s.measurement, *s.state.generators)]
    assert {p.sign for p in paulis} == {1, -1}
    assert any(p.x & p.z for p in paulis) and any(p.x & ~p.z for p in paulis)
    assert {s.label for ss in randoms for s in ss} == {Fraction(0), Fraction(1, 2), Fraction(1)}
    for ss in cases + randoms:
        text = sample_set_dumps(ss)
        assert text + "\n" == dumps(_reference_json(ss))
        assert sample_set_to_json(ss) == _reference_json(ss)


@st.composite
def signed_paulis(draw):
    """Nonidentity signed Paulis at n = 1..128, where reduce writes, with
    x or z often 0 or full."""
    n = draw(st.integers(1, 128))
    bits = st.integers(0, (1 << n) - 1) | st.sampled_from((0, (1 << n) - 1))
    x, z = draw(bits), draw(bits)
    assume(x or z)
    return PauliOperator(n, x, z, sign=draw(st.sampled_from((1, -1))))


@settings(max_examples=100, deadline=None)
@given(signed_paulis())
@example(PauliOperator(128, (1 << 128) - 1, (1 << 128) - 1, sign=-1))
@example(PauliOperator(128, 0b1011 << 100, 0b0110 << 100, sign=-1))
@example(PauliOperator(1, 0, 1, sign=-1))
@example(PauliOperator(7, 0b1011, 0))
def test_each_table_entry_is_the_canonical_dump_of_its_pauli(p):
    ss = SampleSet(p.n, [Sample(StabilizerGroup.zero_state(p.n), p, Fraction(1, 2))])
    text = sample_set_dumps(ss)
    head = '{"n":%d,"paulis":[%s' % (p.n, dumps(pauli_to_json(p))[:-1])
    assert text.startswith(head) and text[len(head)] in ",]"
    assert text + "\n" == dumps(_reference_json(ss))


@pytest.mark.parametrize(
    "source", ["x1*(x2+x3)+x3*x4", "(x1 + x2*x3) * (x4 + 1)", [[1, -2], [2, 3], [-1]]]
)
def test_reduce_file_is_the_canonical_dump_of_its_payload(source, tmp_path, capsys):
    out = tmp_path / "reduction.json"
    if isinstance(source, str):
        args = ["--formula", source]
        ss, inst = reduce_formula_to_samples(parse_formula(source), random.Random(5))
    else:
        cnf = tmp_path / "in.cnf"
        cnf.write_text(
            "p cnf 3 %d\n" % len(source) + "".join(" ".join(map(str, c)) + " 0\n" for c in source)
        )
        args = ["--cnf", str(cnf)]
        ss, inst = reduce_sat_to_samples(source, random.Random(5))
    assert main(["reduce", *args, "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = {"samples": _reference_json(ss), "instance": instance_to_json(inst)}
    assert out.read_text() == dumps(payload)


# sha256 of what the reduce files below load back to: per file n, then per
# sample its label code and the reprs of its measurement and generators
# (a Sample's own repr would print the state's memory address).  It pins
# content, not bytes, so it holds across changes of the file layout.
SAMPLE_CONTENT_SHA256 = "f5d25a71edc50113da070746d326378f5cf3a1acea92d3436d4b4209169365a2"


def test_reduce_files_load_back_to_pinned_content(tmp_path, capsys):
    texts = []
    for _, f, n_vars in CORPUS:
        ss, _ = reduce_formula_to_samples(f, random.Random(124), num_vars=n_vars)
        texts.append(sample_set_dumps(ss))
    cnf = tmp_path / "in.cnf"
    out = tmp_path / "out.json"
    for source, text, seed in (
        (["--formula", "x1*(x2+x3)+x3*x4"], None, "7"),
        (["--cnf", str(cnf)], "p cnf 1 1\n-1 0\n", "11"),
        (["--cnf", str(cnf)], "p cnf 2 2\n1 0\n2 0\n", "12"),
    ):
        if text is not None:
            cnf.write_text(text)
        assert main(["reduce", *source, "--seed", seed, "--out", str(out)]) == 0
        texts.append(json.dumps(json.loads(out.read_text())["samples"]))
    capsys.readouterr()
    content = []
    for text in texts:
        ss = sample_set_from_json(json.loads(text))
        content.append((ss.n, [
            (s.code, repr(s.measurement), tuple(map(repr, s.state.generators)))
            for s in ss
        ]))
    assert hashlib.sha256(repr(content).encode()).hexdigest() == SAMPLE_CONTENT_SHA256


def test_one_load_shares_one_pauli_per_distinct_value(monkeypatch):
    ss, _ = reduce_formula_to_samples(golden_formula(), random.Random(121))
    obj = sample_set_to_json(ss)
    table, states = obj["paulis"], obj["states"]
    assert len({json.dumps(e, sort_keys=True) for e in table}) == len(table)
    # the table holds the distinct measurements only
    assert len(table) == len({(s.key, s.sign) for s in ss}) < len(obj["samples"])
    # one 'states' entry per distinct key tuple, far fewer than samples
    assert len({tuple(e) for e in states}) == len(states) < len(obj["samples"])
    made = []
    init = PauliOperator.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PauliOperator, "__init__", counted)
    back = sample_set_from_json(obj)
    made_by_load = len(made)
    # measurements: the key and sign bit of the table entry a sample names
    for entry, s in zip(obj["samples"], back.samples):
        p = pauli_from_json(table[entry["measurement"]])
        assert (s.key, s.sign) == (p.key(), p.sign_bit)
    # states: the key tuple of a 'states' entry and the sample's sign
    # mask, with the key tuple and the table shared by every group with
    # those keys, so no Pauli object is made per state
    shared = {}  # key tuple -> (keys, table) of its first group
    for entry, s in zip(obj["samples"], back.samples):
        group = s.state
        assert group.keys == tuple(int(word, 16) for word in states[entry["state"]])
        assert group.signs == int(entry["signs"], 16)
        first = shared.setdefault(group.keys, (group.keys, group._table))
        assert first[0] is group.keys and first[1] is group._table
    # no Pauli object, per table entry or per state
    assert made_by_load == 0


def twin_sample_set(field, value, where):
    """A two-sample set whose 'paulis' table repeats the first sample's
    measurement with field set to value: a twin that hashes like the valid
    entry.  The second sample measures the twin (where 'measurement'), or
    measures what the first does and names a second 'states' entry that
    repeats the first's keys (where 'state'), so that no sample names the
    twin: a state names keys, not table entries."""
    n = 3 if value == 3.0 else 1
    doc = one_sample_doc(Sample(StabilizerGroup.zero_state(n), z_power(n, 1), Fraction(1)))
    twin = dict(doc["paulis"][0], **{field: value})
    second = copy.deepcopy(doc["samples"][0])
    states = copy.deepcopy(doc["states"])
    if where == "state":
        states.append(list(states[0]))
        second["state"] = 1
    else:
        second["measurement"] = len(doc["paulis"])
    return dict(
        doc, paulis=doc["paulis"] + [twin], samples=doc["samples"] + [second], states=states
    )


TWINS = [("sign", True), ("n", True), ("n", 3.0)]
TWIN_IDS = ["sign-true", "n-true", "n-float"]


@pytest.mark.parametrize("where", ["state", "measurement"])
@pytest.mark.parametrize("field, value", TWINS, ids=TWIN_IDS)
def test_a_twin_of_a_loaded_pauli_is_still_validated(field, value, where):
    with pytest.raises(ValueError, match="Pauli field '%s'" % field):
        sample_set_from_json(twin_sample_set(field, value, where))


GOOD_DIMACS = """c a comment
c another comment
p cnf 4 3
1 -2 0
2 3
-4 0
-1 0
"""


def test_parse_dimacs_good():
    clauses = parse_dimacs(GOOD_DIMACS)
    assert clauses == [[1, -2], [2, 3, -4], [-1]]
    # empty clause is representable
    assert parse_dimacs("p cnf 1 1\n0\n") == [[]]
    assert parse_dimacs("p cnf 2 2\r\n1 0\r\n-2 0\r\n") == [[1], [-2]]


def test_parse_dimacs_errors():
    cases = [
        ("", 1, "missing"),
        ("1 0\n", 1, "header"),
        ("p cnf x 1\n", 1, "integers"),
        ("p dnf 1 1\n1 0\n", 1, "header"),
        ("p cnf 2 1\np cnf 2 1\n", 2, "duplicate"),
        ("p cnf 2 1\n1 q 0\n", 2, "literal"),
        ("p cnf 2 1\n1 3 0\n", 2, "exceeds"),
        ("p cnf 5 1\n1 2 3 4 0\n", 2, "more than 3"),
        ("p cnf 2 1\n1 2\n", 2, "unterminated"),
        ("p cnf 2 2\n1 0\n", 2, "declares"),
        # lines end at \n only and tokens split at ASCII whitespace only
        ("p cnf 2 2\n1 0\x1c2 0\n", 2, "literal"),
        ("p cnf 1 2\n1 0\u2028 1 0\nq 0\n", 2, "literal"),
        ("p cnf 1 2\n1 0\x0c1 0\nq 0\n", 3, "literal"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(DimacsError) as err:
            parse_dimacs(text)
        assert err.value.line == line, text
        assert fragment in str(err.value), text


def test_long_clause_cites_starting_line():
    text = "p cnf 9 1\n1 2\n3 4 0\n"
    with pytest.raises(DimacsError) as err:
        parse_dimacs(text)
    assert err.value.line == 2


def test_parse_dimacs_takes_only_ascii_digits():
    cases = [
        ("p cnf 10 1\n1_0 \u0663 0\n", 2),
        ("p cnf +3 1\n1 0\n", 1),
        ("p cnf 3 +1\n1 0\n", 1),
        ("p cnf -3 1\n1 0\n", 1),
        ("p cnf 3 1\n+1 0\n", 2),
        ("p cnf 3 1\n1 \u00b2 0\n", 2),
        ("p cnf 3 1\n1 --2 0\n", 2),
        ("p cnf 3 1\n- 0\n", 2),
        ("p cnf \uff13 1\n1 0\n", 1),
    ]
    for text, line in cases:
        with pytest.raises(DimacsError) as err:
            parse_dimacs(text)
        assert err.value.line == line, text
    assert parse_dimacs("p cnf 7 1\n-3 007 0\n") == [[-3, 7]]


_DIMACS_CHARS = "0123456789 -+_\npc\t\u00b2x."
# digits that int() reads as ASCII ones: Arabic-Indic and fullwidth
_LOOKALIKES = {str(d): (chr(0x660 + d), chr(0xFF10 + d)) for d in range(10)}


@st.composite
def mutated_cnfs(draw):
    """A valid CNF with one to three token edits: a character inserted or
    deleted, a '+' prefix, or a digit swapped for a non-ASCII lookalike."""
    n = draw(st.integers(1, 12))
    lit = st.tuples(st.integers(1, n), st.booleans()).map(lambda t: -t[0] if t[1] else t[0])
    clauses = draw(st.lists(st.lists(lit, max_size=3), max_size=4))
    lines = [["c", "fuzz"], ["p", "cnf", str(n), str(len(clauses))]]
    lines += [[str(v) for v in c] + ["0"] for c in clauses]
    for _ in range(draw(st.integers(1, 3))):
        tokens = lines[draw(st.integers(1, len(lines) - 1))]
        j = draw(st.integers(0, len(tokens) - 1))
        t = tokens[j]
        k = draw(st.integers(0, len(t)))
        ch = draw(st.sampled_from(_DIMACS_CHARS))
        edits = [t[:k] + ch + t[k:], t[:k] + t[k + 1:], "+" + t]
        edits += [t[:k] + alt + t[k + 1:] for alt in _LOOKALIKES.get(t[k:k + 1], ())]
        tokens[j] = draw(st.sampled_from(edits))
    return "".join(" ".join(tokens) + "\n" for tokens in lines)


@settings(
    max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.one_of(st.text(st.characters(blacklist_categories=("Cs",))), mutated_cnfs()))
def test_parse_dimacs_raises_only_dimacs_error_on_fuzzed_text(tmp_path, text):
    """parse_dimacs raises only DimacsError, and `reduce --cnf` on an input
    it rejects exits 2; an accepted input has only ASCII-digit tokens."""
    try:
        parse_dimacs(text)
    except DimacsError:
        cnf = tmp_path / "fuzz.cnf"
        cnf.write_bytes(text.encode("utf-8"))
        assert main(["reduce", "--cnf", str(cnf), "--seed", "1"]) == 2
        return
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("c"):
            continue
        if tokens[0].startswith("p"):
            assert all(re.fullmatch("[0-9]+", t) for t in tokens[2:]), line
        else:
            assert all(re.fullmatch("-?[0-9]+", t) for t in tokens), line


def test_tableau_block_shape():
    t = CliffordTableau.identity(2)
    block = tableau_block(t)
    assert len(block["s"]) == 4 and all(len(r) == 4 for r in block["s"])
    assert block["phases"] == "0000"


def test_dumps_is_compact_and_canonical():
    samples, inst = reduce_sat_to_samples([[1, -2]], random.Random(119))
    payload = {"samples": sample_set_to_json(samples), "instance": instance_to_json(inst)}
    text = dumps(payload)
    assert text.endswith("}\n") and "\n" not in text[:-1]
    assert ": " not in text and ", " not in text
    assert json.loads(text) == payload
    # key order does not matter: equal objects give equal bytes
    assert dumps(dict(reversed(list(payload.items())))) == text


def _pauli(**changes):
    obj = pauli_to_json(z_power(2, 1))
    obj.update(changes)
    return obj


def _sample(**changes):
    return dict(_DOC["samples"][0], **changes)


def _with(**changes):
    """_DOC with changes applied to its sample."""
    return dict(_DOC, samples=[_sample(**changes)])


def _with_entry(entry):
    """_DOC with entry as its 'states' entry 0."""
    return dict(_DOC, states=[entry])


def test_indices_name_table_entries():
    assert _DOC["paulis"] == [pauli_to_json(z_power(2, 1, sign=-1))]
    # the keys of Z_0 and Z_1 are 1 << 2 and 1 << 3, as W(4) words
    assert _DOC["states"] == [["4", "8"]]
    assert _DOC["samples"] == [{"label": "1", "measurement": 0, "signs": "1", "state": 0}]
    s = sample_set_from_json(_with_entry(["8", "4"])).samples[0]
    assert s.measurement == z_power(2, 1, sign=-1)
    # the state is read off the keys of +Z on qubit 1 and +Z on qubit 0
    # and the sign mask 1: generator 0 is negated
    assert s.state.keys == (z_power(2, 2).key(), z_power(2, 1).key())
    assert s.state.signs == 0b01
    assert s.state == StabilizerGroup.computational_basis(2, 0b10)
    assert s.state.generators[0] == z_power(2, 2, sign=-1)


def _gate_on_3(obj):
    return gate_from_json(obj, 3)


@pytest.mark.parametrize(
    "loader, obj, field",
    [
        (pauli_from_json, _pauli(n=True), "'n'"),
        (pauli_from_json, _pauli(n=2.0), "'n'"),
        (pauli_from_json, _pauli(sign=True), "'sign'"),
        (pauli_from_json, _pauli(sign=-1.0), "'sign'"),
        (sample_from_json, _sample(label=["1"]), "label"),
        (sample_from_json, _sample(label={"1": 1}), "label"),
        (sample_from_json, _sample(label=1), "label"),
        (sample_set_from_json, {"n": True, "paulis": [], "samples": []}, "'n'"),
        (_gate_on_3, {"name": "h", "qubit": "0"}, "'qubit'"),
        (_gate_on_3, {"name": "x", "qubit": True}, "'qubit'"),
        (_gate_on_3, {"name": "cnot", "control": [0], "target": 1}, "'control'"),
        (_gate_on_3, {"name": "cnot", "control": 0, "target": False}, "'target'"),
        (_gate_on_3, {"name": ["h"], "qubit": 0}, "'name'"),
        (circuit_from_json, {"n": True, "gates": []}, "'n'"),
        (circuit_from_json, {"n": 2, "gates": [{"name": "h", "qubit": "0"}]}, "'qubit'"),
        (circuit_from_json, {"n": 10 ** 18, "gates": []}, "'n'"),
        (instance_from_json, {"size": True, "m0": ["1"], "ms": []}, "'size'"),
        (sample_set_from_json, _with(measurement=True), r"index True is not an integer in \[0, 1\)"),
        (sample_set_from_json, _with(measurement=1.0), r"Pauli index 1\.0 is not"),
        (sample_set_from_json, _with(measurement=-1), "Pauli index -1 is not"),
        (sample_set_from_json, _with(measurement=1), "Pauli index 1 is not"),
        (sample_set_from_json, _with(measurement="0"), "Pauli index '0' is not"),
        (sample_set_from_json, dict(_DOC, n=3), "'paulis' must hold 3-qubit Paulis"),
        (sample_set_from_json, {"n": 2, "samples": []}, "'paulis' must be a list"),
        (sample_set_from_json, dict(_DOC, paulis={}), "'paulis' must be a list"),
        (sample_set_from_json, dict(_DOC, paulis=[{}]), "Pauli field 'n'"),
        (sample_from_json, _sample(label=1.0), "label"),
        (pauli_from_json, _pauli(x="02"), "Pauli field 'x'"),
        (pauli_from_json, _pauli(z=1), "Pauli field 'z'"),
    ],
)
def test_loaders_reject_wrong_typed_fields(loader, obj, field):
    with pytest.raises(ValueError, match=field):
        loader(obj)


_NOT_HEX = "expected a nonempty string of lowercase hex digits, got %r"
_ENTRY_0 = "sample set field 'states' entry 0: "

# 'states' entries whose good key comes before a bad one, each with the
# error it must raise: the message names the entry and its first bad key.
BAD_STATE_DOCS = [
    (_with_entry(["4", word]), _ENTRY_0 + "key 1: " + message)
    for word, message in [
        (True, _NOT_HEX % True),
        (1.0, _NOT_HEX % 1.0),
        ("-8", _NOT_HEX % "-8"),
        ("08", "expected 1 hex digits, got 2"),
        ("\u0668", _NOT_HEX % "\u0668"),
        (None, _NOT_HEX % None),
        ("A", _NOT_HEX % "A"),
    ]
]
BAD_STATE_IDS = ["true", "float", "negative", "past-end", "digit-string", "null", "string"]


# 'states' entries of valid words whose keys make no group, after a good
# entry: the loader must raise, word for word after the entry's name, what
# StabilizerGroup raises for the generators of those keys.
SECOND_ENTRY = "sample set field 'states' entry 1: "
_NO_GROUPS = [
    ([PauliOperator(2, 0, 0), z_power(2, 2)], "identity cannot be a generator"),
    ([z_power(2, 2)], "a pure state on 2 qubits needs exactly 2 generators"),
    ([z_power(2, 1), z_power(2, 1)], "generators are dependent"),
    ([z_power(2, 1), x_power(2, 1)], "generators 0 and 1 anticommute"),
]
BAD_GROUP_DOCS = [
    (
        {
            "n": 2,
            "paulis": [pauli_to_json(z_power(2, 2))],
            "samples": [
                {"label": "1", "measurement": 0, "signs": "0", "state": 0},
                {"label": "1", "measurement": 0, "signs": "0", "state": 1},
            ],
            "states": [["4", "8"], [word_to_hex(p.key(), 4) for p in gens]],
        },
        message,
    )
    for gens, message in _NO_GROUPS
]
BAD_GROUP_IDS = ["identity", "one-short", "dependent", "anticommuting"]


@pytest.mark.parametrize(
    "doc, message, gens", [d + (g,) for d, (g, _) in zip(BAD_GROUP_DOCS, _NO_GROUPS)],
    ids=BAD_GROUP_IDS,
)
def test_a_state_that_is_no_group_is_refused_with_the_constructor_message(doc, message, gens):
    with pytest.raises(ValueError) as err:
        sample_set_from_json(json.loads(dumps(doc)))
    assert str(err.value) == SECOND_ENTRY + message
    with pytest.raises(ValueError) as err:
        StabilizerGroup(gens)
    assert str(err.value) == message


def _without(field):
    """_DOC with field removed from its sample."""
    sample = _sample()
    del sample[field]
    return dict(_DOC, samples=[sample])


# a 5-qubit sample set, whose W(5) words have two digits and W(10) three
_DOC5 = one_sample_doc(
    Sample(
        StabilizerGroup.computational_basis(5, 0b10110),
        PauliOperator(5, 0b00011, 0b10100, sign=-1),
        Fraction(1, 2),
    )
)
_STATE = "sample field 'state' must be an index in [0, 1) of 'states'"
_SIGNS = "sample field 'signs': "
# Malformed 'states', 'state' and 'signs' fields beyond the bad keys and
# non-groups above, each with the message, naming the field, that it raises.
BAD_FIELD_CASES = [
    ("states-not-a-list", dict(_DOC, states={"0": ["4", "8"]}), "sample set field 'states' must be a list"),
    ("no-states", {k: v for k, v in _DOC.items() if k != "states"}, "sample set field 'states' must be a list"),
    ("entry-not-a-list", _with_entry(5), _ENTRY_0 + "must list generator keys"),
    ("entry-empty", _with_entry([]), _ENTRY_0 + "need at least one generator"),
    ("entry-one-long", _with_entry(["4", "8", "4"]), _ENTRY_0 + "a pure state on 2 qubits needs exactly 2 generators"),
    ("state-missing", _without("state"), _STATE),
    ("state-old-list", _with(state=["4", "8"]), _STATE),
    ("state-true", _with(state=True), _STATE),
    ("state-float", _with(state=0.0), _STATE),
    ("state-negative", _with(state=-1), _STATE),
    ("state-past-end", _with(state=1), _STATE),
    ("signs-missing", _without("signs"), _SIGNS + _NOT_HEX % None),
    ("signs-int", _with(signs=1), _SIGNS + _NOT_HEX % 1),
    ("signs-list", _with(signs=["1"]), _SIGNS + _NOT_HEX % ["1"]),
    ("signs-empty", _with(signs=""), _SIGNS + _NOT_HEX % ""),
    (
        "signs-short",
        dict(_DOC5, samples=[dict(_DOC5["samples"][0], signs="6")]),
        _SIGNS + "expected 2 hex digits, got 1",
    ),
    ("signs-long", _with(signs="01"), _SIGNS + "expected 1 hex digits, got 2"),
    ("signs-letter", _with(signs="x"), _SIGNS + _NOT_HEX % "x"),
    ("signs-plus", _with(signs="+1"), _SIGNS + _NOT_HEX % "+1"),
]
BAD_FIELD_IDS = [case[0] for case in BAD_FIELD_CASES]
BAD_FIELD_DOCS = [case[1:] for case in BAD_FIELD_CASES]


@pytest.mark.parametrize(
    "doc, message", BAD_STATE_DOCS + BAD_FIELD_DOCS, ids=BAD_STATE_IDS + BAD_FIELD_IDS
)
def test_a_bad_state_index_after_good_ones_is_named(doc, message):
    with pytest.raises(ValueError) as err:
        sample_set_from_json(json.loads(dumps(doc)))
    assert str(err.value) == message


def _put_word(field, word):
    """A copy of _DOC5 with word as its field: a 'paulis' entry's x or z,
    a sample's signs, or key 2 of its 'states' entry."""
    doc = copy.deepcopy(_DOC5)
    if field in ("x", "z"):
        doc["paulis"][0][field] = word
    elif field == "signs":
        doc["samples"][0]["signs"] = word
    else:
        doc["states"][0][2] = word
    return doc


def to_bit_string_layout(obj):
    """obj in the layout before hex words, in place: 'paulis' entries carry
    x and z as bit strings and list each state's generators with sign 1,
    a 'states' entry lists their indices, and 'signs' is a bit string."""
    n = obj["n"]
    paulis = obj["paulis"]
    for entry in paulis:
        entry["x"], entry["z"] = (bits_to_string(int(entry[f], 16), n) for f in "xz")

    def at(word):
        key = int(word, 16)
        x, z = bits_to_string(key & (1 << n) - 1, n), bits_to_string(key >> n, n)
        entry = {"n": n, "sign": 1, "x": x, "z": z}
        if entry not in paulis:
            paulis.append(entry)
        return paulis.index(entry)

    obj["states"] = [[at(word) for word in entry] for entry in obj["states"]]
    for s in obj["samples"]:
        s["signs"] = bits_to_string(int(s["signs"], 16), n)
    return obj


def _old_states(doc):
    """doc with only its 'states' in the bit-string layout."""
    old = to_bit_string_layout(copy.deepcopy(doc))
    return dict(doc, states=old["states"])


def _old_signs(doc):
    """doc with only its 'signs' in the bit-string layout."""
    old = to_bit_string_layout(copy.deepcopy(doc))
    return dict(doc, samples=old["samples"])


# (id, W(5) word, W(10) word, what refuses it): words that int(word, 16)
# reads, and words that break the width rule
_BAD_WORDS = [
    ("uppercase", "1A", "01A", "digits"),
    ("narrow", "1", "01", "width"),
    ("wide", "003", "0003", "width"),
    ("long", "0" * 10 ** 5, "0" * 10 ** 5, "width"),  # the message does not echo it
    ("overflow", "20", "400", "value"),
    ("hex-prefix", "0x1", "0x1", "digits"),
    ("blank", " 1", " 01", "digits"),
    ("plus", "+1", "+01", "digits"),
    ("underscore", "1_0", "1_0", "digits"),
    ("non-ascii-digit", "1\u0663", "01\u0663", "digits"),
    ("not-a-string", 17, 17, "digits"),
    ("empty", "", "", "digits"),
]
_FIELD_PREFIX = {
    "x": "Pauli field 'x': ",
    "z": "Pauli field 'z': ",
    "signs": _SIGNS,
    "key": _ENTRY_0 + "key 2: ",
}


def _word_message(word, digits, w, refused_by):
    if refused_by == "digits":
        return _NOT_HEX % (word,)
    if refused_by == "width":
        return "expected %d hex digits, got %d" % (digits, len(word))
    return "%r does not fit in %d bits" % (word, w)


# (field, digits, bits): x, z and signs of _DOC5 are W(5) words, a state key W(10)
_WORD_FIELDS = [("x", 2, 5), ("z", 2, 5), ("signs", 2, 5), ("key", 3, 10)]
# Each word field of _DOC5 with each bad word, and files in the layout
# before hex words, whole or in part; each with the message, naming the
# field, that it raises.
BAD_WORD_CASES = [
    (
        "%s-%s" % (field, name),
        _put_word(field, word),
        _FIELD_PREFIX[field] + _word_message(word, digits, w, refused_by),
    )
    for field, digits, w in _WORD_FIELDS
    for name, short, long, refused_by in _BAD_WORDS
    for word in [long if digits == 3 else short]
] + [
    ("old-index-list-states", _old_states(_DOC5), _ENTRY_0 + "key 0: " + _NOT_HEX % 1),
    ("old-bit-string-signs", _old_signs(_DOC5), _SIGNS + "expected 2 hex digits, got 5"),
    (
        "old-bit-string-layout",
        to_bit_string_layout(copy.deepcopy(_DOC5)),
        "Pauli field 'x': expected 2 hex digits, got 5",
    ),
]
BAD_WORD_IDS = [case[0] for case in BAD_WORD_CASES]
BAD_WORD_DOCS = [case[1:] for case in BAD_WORD_CASES]


@pytest.mark.parametrize("doc, message", BAD_WORD_DOCS, ids=BAD_WORD_IDS)
def test_a_bad_word_is_refused_naming_its_field(doc, message):
    with pytest.raises(ValueError) as err:
        sample_set_from_json(json.loads(dumps(doc)))
    assert str(err.value) == message


@st.composite
def shared_tuple_sets(draw):
    """Sample sets at n = 1..6 over one to three generic key tuples, whose
    first two samples share a key tuple with different signs."""
    n = draw(st.integers(1, 6))
    full = (1 << n) - 1
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    bases = [random_stabilizer_state(rng, n) for _ in range(draw(st.integers(1, 3)))]
    first = draw(st.integers(0, full))
    masks = [first, first ^ draw(st.integers(1, full))]
    picks = [bases[0], bases[0]]
    for _ in range(draw(st.integers(0, 10))):
        picks.append(draw(st.sampled_from(bases)))
        masks.append(draw(st.integers(0, full)))
    samples = []
    for base, mask in zip(picks, masks):
        v = draw(st.integers(1, (1 << 2 * n) - 1))
        measurement = PauliOperator(n, v & full, v >> n, sign=draw(st.sampled_from((1, -1))))
        label = draw(st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1))))
        samples.append(Sample(base.flip(mask), measurement, label))
    return SampleSet(n, samples)


@settings(max_examples=100, deadline=None)
@given(shared_tuple_sets())
def test_states_that_share_a_key_tuple_round_trip(ss):
    obj = sample_set_to_json(ss)
    assert len(obj["states"]) <= 3 and obj["samples"][0]["state"] == obj["samples"][1]["state"]
    back = sample_set_from_json(obj)
    assert back.n == ss.n and back.samples == ss.samples
    for s, t in zip(ss.samples, back.samples):
        assert (t.state.keys, t.state.signs) == (s.state.keys, s.state.signs)
        assert t.measurement == s.measurement and t.code == s.code
    assert sample_set_dumps(back) == sample_set_dumps(ss)


@st.composite
def wide_sample_sets(draw):
    """Sample sets at n = 1..130 over one or two generic states and
    measurements whose x, z and sign masks are often 0 or full, so every
    digit of a word, the top one included, is exercised."""
    n = draw(st.integers(1, 130))
    full = (1 << n) - 1
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    bases = [
        apply_circuit_to_state(random_tableau(rng, n, 3 * n), StabilizerGroup.zero_state(n))
        for _ in range(draw(st.integers(1, 2)))
    ]
    bits = st.integers(0, full) | st.sampled_from((0, full))
    samples = []
    for _ in range(draw(st.integers(1, 4))):
        x, z = draw(bits), draw(bits)
        assume(x or z)
        measurement = PauliOperator(n, x, z, sign=draw(st.sampled_from((1, -1))))
        state = draw(st.sampled_from(bases)).flip(draw(bits))
        label = draw(st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1))))
        samples.append(Sample(state, measurement, label))
    return SampleSet(n, samples)


@settings(max_examples=150, deadline=None)
@given(wide_sample_sets())
@example(SampleSet(130, [
    Sample(
        StabilizerGroup.computational_basis(130, (1 << 130) - 1),
        PauliOperator(130, (1 << 130) - 1, (1 << 130) - 1, sign=-1),
        Fraction(1, 2),
    )
]))
@example(SampleSet(1, [Sample(StabilizerGroup.computational_basis(1, 1), x_power(1, 1), Fraction(1, 2))]))
@example(SampleSet(6, [Sample(StabilizerGroup.computational_basis(6, 32), z_power(6, 33), Fraction(0))]))
def test_sample_sets_round_trip_at_every_width(ss):
    n = ss.n
    obj = json.loads(dumps(sample_set_to_json(ss)))
    # every word has its width exactly: W(n) for x, z and signs, W(2n) for keys
    words = [e[f] for e in obj["paulis"] for f in "xz"] + [s["signs"] for s in obj["samples"]]
    assert {len(word) for word in words} == {-(-n // 4)}
    assert {len(word) for entry in obj["states"] for word in entry} == {-(-n // 2)}
    back = sample_set_from_json(obj)
    assert back.n == n and back.samples == ss.samples
    for s, t in zip(ss.samples, back.samples):
        assert (t.state.keys, t.state.signs) == (s.state.keys, s.state.signs)
        assert (t.key, t.sign, t.code) == (s.key, s.sign, s.code)
    assert sample_set_dumps(back) == sample_set_dumps(ss)


README =pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_sample_set_example_is_the_canonical_dump():
    # the first code block of README "File formats": |00> and |10> share
    # the key tuple (Z_0, Z_1) and differ in signs
    section = README.read_text().split("\n## File formats\n", 1)[1]
    text = section.split("```\n", 2)[1].rstrip("\n")
    basis = StabilizerGroup.computational_basis
    ss = SampleSet(2, [
        Sample(basis(2, 0b00), z_power(2, 1), Fraction(1)),
        Sample(basis(2, 0b01), z_power(2, 1), Fraction(0)),
        Sample(basis(2, 0b01), PauliOperator(2, 0b11, 0), Fraction(1, 2)),
    ])
    assert sample_set_dumps(ss) == text
    back = sample_set_from_json(json.loads(text))
    assert back.samples == ss.samples and sample_set_dumps(back) == text


# ---------------------------------------------------------------------------
# fuzzing the JSON loaders: every failure must be a ValueError

_FIELDS = sorted(
    {"n", "sign", "x", "z", "state", "states", "signs", "measurement", "label", "samples",
     "paulis", "name",
     "qubit", "control", "target", "gates", "tableau", "s", "phases", "size",
     "m0", "ms"}
)
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.sampled_from(["0", "1", "01", "10", "001", "0 1", "1/2", "h", "x", "cnot"]),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=3), kids, max_size=5),
    max_leaves=16,
)

_LOADERS = [
    pauli_from_json,
    sample_from_json,
    sample_set_from_json,
    _gate_on_3,
    circuit_from_json,
    instance_from_json,
]


def _load_or_value_error(loader, obj):
    try:
        loader(obj)
    except ValueError:
        pass


def _valid_documents():
    rng = random.Random(123)
    samples, inst = reduce_sat_to_samples([[1]], rng)
    gates = [Gate("h", qubit=0), Gate("cnot", control=0, target=1), Gate("p", qubit=1)]
    replayed = CliffordTableau.identity(2)
    for g in gates:
        replayed.apply_gate(g)
    # a tableau document that also carries the gates it was replayed from
    replayed_doc = {
        "n": 2,
        "gates": [gate_to_json(g) for g in gates],
        "tableau": tableau_block(replayed),
    }
    small, _ = random_consistent_set(rng, 2, 3)
    # eight basis states under one Z-type measurement: a single-measurement set
    meas = z_power(3, 0b101, sign=-1)
    shared = SampleSet(3, [
        Sample(StabilizerGroup.computational_basis(3, v), meas, Fraction(v & 1))
        for v in range(8)
    ])
    return [
        (sample_set_from_json, sample_set_to_json(small)),
        (sample_set_from_json, sample_set_to_json(SampleSet(3, samples.samples[:3]))),
        (circuit_from_json, circuit_to_json(random_cnot_circuit(rng, 3))),
        (circuit_from_json, replayed_doc),
        (instance_from_json, instance_to_json(inst)),
        (sample_set_from_json, sample_set_to_json(shared)),
        (sample_set_from_json, _DOC),
    ]


_VALID = _valid_documents()


def _slots(node):
    """Every (container, key) pair of a JSON tree."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, child in items:
        yield node, key
        yield from _slots(child)


def _in_word_field(doc, node, key):
    """Whether slot (node, key) is a word: a 'paulis' entry's x or z, a
    sample's 'signs', or a key of a 'states' entry."""
    states = doc.get("states") if isinstance(doc, dict) else None
    if isinstance(states, list) and any(node is e for e in states):
        return True
    if isinstance(node, dict) and "label" in node:
        return key == "signs"
    return isinstance(node, dict) and "sign" in node and key in ("x", "z")


# near-words: hex digits with the characters int(s, 16) also takes
words = st.text("0123456789abcdefABx_ +-\u0663", max_size=5)


@settings(max_examples=300, deadline=None)
@given(json_trees)
def test_loaders_raise_only_value_error_on_arbitrary_json(obj):
    for loader in _LOADERS:
        _load_or_value_error(loader, obj)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(_VALID))), st.data())
def test_loaders_raise_only_value_error_on_mutated_documents(which, data):
    loader, doc = _VALID[which]
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        # half the time the edit lands in a word field, often as a near-word
        in_words = [(node, key) for node, key in slots if _in_word_field(doc, node, key)]
        values = json_trees
        if in_words and data.draw(st.booleans()):
            slots, values = in_words, words | json_trees
        node, key = data.draw(st.sampled_from(slots))
        if data.draw(st.booleans()):
            node[key] = data.draw(values)
        elif isinstance(node, dict):
            del node[key]
        else:
            node.pop(key)
    _load_or_value_error(loader, doc)
