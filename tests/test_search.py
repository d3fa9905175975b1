import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cnotpac.search
from cnotpac.cnot import CnotCircuit
from cnotpac.formula import Constant, arithmetize_cnf, eval_formula, formula_to_graph
from cnotpac.gf2 import BitMatrix, _insert, _reduce, complete_to_basis, dot
from cnotpac.pauli import PauliOperator, z_power
from cnotpac.reduction import (
    NonSingularityInstance,
    _pin_samples,
    constrain_pauli_samples,
    graph_to_instance,
    instance_to_samples,
    reduce_formula_to_samples,
    reduce_sat_to_samples,
)
from cnotpac.samples import Sample, SampleSet
from cnotpac.search import (
    DecisionSearchResult,
    EnumerationLimitError,
    _GenericSample,
    _Search,
    _brute_oracle,
    _compile,
    _gl_tableaus,
    _hits,
    _image,
    _image_key,
    _member_rows,
    affine_family_search,
    brute_force_decision,
    brute_force_search,
    check_consistent,
    enumerate_consistent_circuits,
    search_from_decision,
)
from cnotpac.serialization import sample_set_dumps, sample_set_from_json
from cnotpac.stabilizer import StabilizerGroup
from cnotpac.tableau import Gate, sample_code

from formula_corpus import CORPUS, SMALL_CNFS, SMALL_FORMULAS, golden_formula
from helpers import all_cnot_circuits, invertible_matrices, random_stabilizer_state


def random_cnot_circuit(rng, n):
    gates = []
    for _ in range(rng.randrange(1, 4 * n)):
        if n >= 2 and rng.random() < 0.7:
            a = rng.randrange(n)
            b = rng.randrange(n - 1)
            if b >= a:
                b += 1
            gates.append(Gate("cnot", control=a, target=b))
        else:
            gates.append(Gate("x", qubit=rng.randrange(n)))
    return CnotCircuit.from_gates(n, gates)


def random_consistent_set(rng, n, count):
    """Samples labeled by a hidden CNOT circuit over mixed state kinds."""
    hidden = random_cnot_circuit(rng, n)
    t = hidden.to_tableau()
    samples = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.4:
            state = StabilizerGroup.computational_basis(n, rng.randrange(1 << n))
        elif kind < 0.6:
            basis = complete_to_basis([], n, rng)
            state = StabilizerGroup.from_z_generators(n, basis, rng.randrange(1 << n))
        else:
            state = random_stabilizer_state(rng, n)
        v = rng.randrange(1, 1 << (2 * n))
        meas = PauliOperator(
            n, v & ((1 << n) - 1), v >> n, sign=-1 if rng.random() < 0.5 else 1
        )
        label = state.expectation(t.conjugate_inverse(meas))
        samples.append(Sample(state, meas, label))
    return SampleSet(n, samples), hidden


def test_empty_set_returns_identity():
    r = brute_force_search(SampleSet(2))
    assert r.found and r.circuit.theta == BitMatrix.identity(2) and r.circuit.q == 0
    assert r.circuits_examined == 1 and r.wall_time_s >= 0.0


def test_check_consistent_roundtrip_and_flip():
    rng = random.Random(71)
    samples, hidden = random_consistent_set(rng, 3, 12)
    assert check_consistent(hidden, samples)
    assert check_consistent(hidden.to_tableau(), samples)
    flip = next(s for s in samples if s.label == Fraction(1))
    flipped = Sample(flip.state, flip.measurement, Fraction(0))
    assert not check_consistent(hidden, samples.extended([flipped]))
    with pytest.raises(ValueError):
        check_consistent(CnotCircuit.identity(2), samples)


def test_brute_finds_consistent_on_random_sets():
    rng = random.Random(72)
    for n in (2, 3):
        for _ in range(6):
            samples, hidden = random_consistent_set(rng, n, 3 * n)
            r = brute_force_search(samples)
            assert r.found, "hidden circuit is a consistent witness"
            assert check_consistent(r.circuit, samples)
    samples, _ = random_consistent_set(random.Random(77), 4, 10)
    r = brute_force_search(samples)
    assert r.found and check_consistent(r.circuit, samples)


_GL = {n: list(invertible_matrices(n)) for n in (1, 2, 3, 4)}
_LABELS = (Fraction(0), Fraction(1, 2), Fraction(1))


@st.composite
def labeled_sets(draw):
    """(samples, hidden, flipped): n <= 3 samples labeled by a hidden CNOT
    circuit, mixing full-Z samples (the compiled image groups) with
    generic ones, and sometimes with one label changed afterwards."""
    n = draw(st.integers(1, 3))
    hidden = CnotCircuit(draw(st.sampled_from(_GL[n])).copy(), draw(st.integers(0, (1 << n) - 1)))
    t = hidden.to_tableau()
    samples = []
    for _ in range(draw(st.integers(1, 3 * n))):
        if draw(st.booleans()):
            basis = draw(st.sampled_from(_GL[n])).rows
            state = StabilizerGroup.from_z_generators(n, basis, draw(st.integers(0, (1 << n) - 1)))
            x, z = 0, draw(st.integers(1, (1 << n) - 1))
        else:
            state = random_stabilizer_state(random.Random(draw(st.integers(0, 1 << 16))), n)
            xz = draw(st.integers(1, (1 << (2 * n)) - 1))
            x, z = xz & ((1 << n) - 1), xz >> n
        meas = PauliOperator(n, x, z, sign=draw(st.sampled_from((1, -1))))
        samples.append(Sample(state, meas, state.expectation(t.conjugate_inverse(meas))))
    flipped = draw(st.booleans())
    if flipped:
        k = draw(st.integers(0, len(samples) - 1))
        s = samples[k]
        label = draw(st.sampled_from([v for v in _LABELS if v != s.label]))
        samples[k] = Sample(s.state, s.measurement, label)
    return SampleSet(n, samples), hidden, flipped


@settings(max_examples=60, deadline=None)
@given(labeled_sets())
def test_brute_is_lex_first_against_full_scan(case):
    samples, hidden, flipped = case
    hits = enumerate_consistent_circuits(samples)
    if not flipped:
        assert (hidden.theta, hidden.q) in [(c.theta, c.q) for c in hits]
    r = brute_force_search(samples)
    assert r.found == bool(hits)
    if hits:
        assert r.circuit.theta == hits[0].theta and r.circuit.q == hits[0].q


@st.composite
def grouped_sets(draw):
    """(samples, flipped) at n = 2..4, labeled by a hidden CNOT circuit:
    full-Z samples on one or two measurement supports, so that image
    groups repeat, plus generic samples; sometimes one label is flipped."""
    n = draw(st.integers(2, 4))
    hidden = CnotCircuit(draw(st.sampled_from(_GL[n])).copy(), draw(st.integers(0, (1 << n) - 1)))
    t = hidden.to_tableau()
    supports = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=2, unique=True))
    pairs = []
    for _ in range(draw(st.integers(1, 2 * n))):
        basis = draw(st.sampled_from(_GL[n])).rows
        state = StabilizerGroup.from_z_generators(n, basis, draw(st.integers(0, (1 << n) - 1)))
        pairs.append((state, z_power(n, draw(st.sampled_from(supports)))))
    for _ in range(draw(st.integers(0, 2))):
        state = random_stabilizer_state(random.Random(draw(st.integers(0, 1 << 16))), n)
        xz = draw(st.integers(1, (1 << (2 * n)) - 1))
        pairs.append((state, PauliOperator(n, xz & ((1 << n) - 1), xz >> n)))
    samples = []
    for state, p in pairs:
        meas = p if draw(st.booleans()) else -p
        samples.append(Sample(state, meas, state.expectation(t.conjugate_inverse(meas))))
    flipped = n < 4 and draw(st.booleans())  # a miss at n = 4 walks all of GL(4, 2)
    if flipped:
        k = draw(st.integers(0, len(samples) - 1))
        s = samples[k]
        label = draw(st.sampled_from([v for v in _LABELS if v != s.label]))
        samples[k] = Sample(s.state, s.measurement, label)
    return SampleSet(n, samples), flipped


@settings(max_examples=150, deadline=None)
@given(grouped_sets())
def test_leaves_are_exactly_the_thetas_every_group_permits(case):
    samples, flipped = case
    r = brute_force_search(samples)
    assert r.found or flipped
    # a generic sample can itself be full-Z and add a third support, whose
    # sign bit q.x is linked to the others', so the count goes through the
    # q-aware _leaves_up_to rather than each group's permitted images alone
    assert r.circuits_examined == _leaves_up_to(samples, r.circuit and r.circuit.theta)


@st.composite
def linked_sets(draw):
    """(samples, flipped) at n = 2..4, labeled by a hidden CNOT circuit:
    full-Z samples on the supports x1, x2 and x1 ^ x2, whose sign bits
    q.x are linked (q.x1 ^ q.x2 = q.(x1 ^ x2)), plus generic samples;
    sometimes one label is flipped (n < 4 only)."""
    n = draw(st.integers(2, 4))
    full = (1 << n) - 1
    hidden = CnotCircuit(draw(st.sampled_from(_GL[n])).copy(), draw(st.integers(0, full)))
    t = hidden.to_tableau()
    x1 = draw(st.integers(1, full))
    x2 = draw(st.integers(1, full).filter(lambda v: v != x1))
    pairs = []
    for x in (x1, x2, x1 ^ x2):
        for _ in range(draw(st.integers(1, 2))):
            basis = draw(st.sampled_from(_GL[n])).rows
            state = StabilizerGroup.from_z_generators(n, basis, draw(st.integers(0, full)))
            pairs.append((state, z_power(n, x)))
    for _ in range(draw(st.integers(0, 2))):
        state = random_stabilizer_state(random.Random(draw(st.integers(0, 1 << 16))), n)
        xz = draw(st.integers(1, (1 << (2 * n)) - 1))
        pairs.append((state, PauliOperator(n, xz & full, xz >> n)))
    samples = []
    for state, p in draw(st.permutations(pairs)):
        meas = p if draw(st.booleans()) else -p
        samples.append(Sample(state, meas, state.expectation(t.conjugate_inverse(meas))))
    flipped = n < 4 and draw(st.booleans())  # a miss at n = 4 walks all of GL(4, 2)
    if flipped:
        k = draw(st.integers(0, len(samples) - 1))
        s = samples[k]
        label = draw(st.sampled_from([v for v in _LABELS if v != s.label]))
        samples[k] = Sample(s.state, s.measurement, label)
    return SampleSet(n, samples), flipped


def _leaf_counts(samples):
    """(theta, the leaves up to it) for each invertible theta in lex
    order: a leaf is a theta for which some q satisfies every full-Z
    sample."""
    n = samples.n
    full_z = [
        s
        for s in samples
        if s.measurement.x == 0 and all(g.x == 0 for g in s.state.generators)
    ]
    # allowed[x][u]: the bits b = q.x for which expectation((-1)^b s Z^u)
    # equals the label of every sample measuring s Z^x, with u = theta x
    allowed: dict = {}
    for s in full_z:
        per_image = allowed.setdefault(s.measurement.z, {u: {0, 1} for u in range(1, 1 << n)})
        for u, bits in per_image.items():
            for b in (0, 1):
                if s.state.expectation(z_power(n, u, sign=(-1) ** b * s.measurement.sign)) != s.label:
                    bits.discard(b)
    count = 0
    for theta in _GL[n]:
        bits = [(x, per_image[theta.mul_vec(x)]) for x, per_image in allowed.items()]
        count += any(all(dot(q, x) in b for x, b in bits) for q in range(1 << n))
        yield theta, count


def _leaves_up_to(samples, witness):
    """The invertible thetas, in lex order up to the witness theta (all
    of them for None), for which some q satisfies every full-Z sample."""
    count = 0
    for theta, count in _leaf_counts(samples):
        if theta == witness:
            break
    return count


@settings(max_examples=100, deadline=None)
@given(linked_sets())
def test_leaves_are_exactly_the_thetas_with_a_q_for_every_full_z_sample(case):
    samples, flipped = case
    r = brute_force_search(samples)
    assert r.found or flipped
    assert r.circuits_examined == _leaves_up_to(samples, r.circuit and r.circuit.theta)


def _state_holding(rng, n, q):
    """A random pure state whose group holds q or -q: a random state with
    q measured on it, outcome +1, unless q is in its group up to sign."""
    gens = list(random_stabilizer_state(rng, n).generators)
    hit = [k for k, g in enumerate(gens) if not g.commutes(q)]
    if hit:
        k = hit[0]
        for j in hit[1:]:
            gens[j] = gens[j].mul(gens[k])
        gens[k] = q
    return StabilizerGroup(gens)


@st.composite
def leaf_parent_sets(draw, ns):
    """(samples, flipped) with n drawn from ns, labeled by a hidden CNOT
    circuit, for the DFS's last depth.  Generic samples have an X support
    px inside or outside the span of the hidden theta's rows 0..n-2, on a
    random state (mostly labeled 1/2) or one that holds the measurement's
    image up to sign (labeled 0 or 1; always at n = 4, where the full scan
    makes a circuit of every hit).  There are zero to two full-Z samples,
    sometimes a generic sample labeled 1/2 placed first, and sometimes one
    label flipped."""
    n = draw(st.sampled_from(ns))
    full = (1 << n) - 1
    hidden = CnotCircuit(draw(st.sampled_from(_GL[n])).copy(), draw(st.integers(0, full)))
    t = hidden.to_tableau()
    rows = hidden.theta.rows
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        mask = draw(st.integers(0, full >> 1))
        px = 0
        for r in range(n - 1):
            if mask >> r & 1:
                px ^= rows[r]
        if draw(st.booleans()):
            px ^= rows[n - 1]  # outside the span of rows 0..n-2
        p = PauliOperator(n, px, draw(st.integers(0 if px else 1, full)))
        if n == 4 or draw(st.booleans()):
            state = _state_holding(rng, n, t.conjugate_inverse(p))
        else:
            state = random_stabilizer_state(rng, n)
        pairs.append((state, p))
    for _ in range(draw(st.integers(0, 2))):
        basis = draw(st.sampled_from(_GL[n])).rows
        state = StabilizerGroup.from_z_generators(n, basis, draw(st.integers(0, full)))
        pairs.append((state, z_power(n, draw(st.integers(1, full)))))
    samples = []
    for state, p in draw(st.permutations(pairs)):
        meas = p if draw(st.booleans()) else -p
        samples.append(Sample(state, meas, state.expectation(t.conjugate_inverse(meas))))
    if draw(st.booleans()):
        while True:
            state = random_stabilizer_state(rng, n)
            xz = rng.randrange(1, 1 << (2 * n))
            meas = PauliOperator(n, xz & full, xz >> n)
            label = state.expectation(t.conjugate_inverse(meas))
            if label == Fraction(1, 2):
                samples.insert(0, Sample(state, meas, label))
                break
    flipped = draw(st.booleans())
    if flipped:
        k = draw(st.integers(0, len(samples) - 1))
        s = samples[k]
        label = draw(st.sampled_from([v for v in _LABELS if v != s.label]))
        samples[k] = Sample(s.state, s.measurement, label)
    return SampleSet(n, samples), flipped


def _check_against_the_full_scan(samples, flipped):
    hits = enumerate_consistent_circuits(samples)
    r = brute_force_search(samples)
    assert r.found == bool(hits)
    assert r.found or flipped
    if hits:
        assert r.circuit.theta == hits[0].theta and r.circuit.q == hits[0].q
    assert r.circuits_examined == _leaves_up_to(samples, r.circuit and r.circuit.theta)


# n = 1 makes the root the parent of the leaves
@settings(max_examples=60, deadline=None)
@given(leaf_parent_sets((1, 2, 3)))
def test_brute_witness_and_leaves_match_the_full_scan(case):
    _check_against_the_full_scan(*case)


@settings(max_examples=8, deadline=None)
@given(leaf_parent_sets((4,)))
def test_brute_witness_and_leaves_match_the_full_scan_at_n_4(case):
    _check_against_the_full_scan(*case)


def _check_every_hit(samples):
    """Every hit of the DFS, expanded over its q-space in ascending q, is
    the full scan's list of hits, and each carries the leaves up to it."""
    compiled = _compile(samples)
    hits = list(_hits(_Search(samples.n, *compiled))) if compiled else []
    expanded = [(rows, q) for rows, q_space, _ in hits for q in sorted(q_space.points())]
    assert expanded == [(c.theta.rows, c.q) for c in enumerate_consistent_circuits(samples)]
    counts = {tuple(theta.rows): count for theta, count in _leaf_counts(samples)}
    assert [leaves for *_, leaves in hits] == [counts[tuple(rows)] for rows, *_ in hits]


_HIT_CASES = (labeled_sets(), grouped_sets(), linked_sets())


# n = 1 makes the root the parent of the leaves
@settings(max_examples=80, deadline=None)
@given(st.one_of(*_HIT_CASES, leaf_parent_sets((1, 2, 3))).filter(lambda case: case[0].n < 4))
def test_every_hit_expands_to_the_full_scan_with_its_leaves(case):
    _check_every_hit(case[0])


@settings(max_examples=8, deadline=None)
@given(st.one_of(*_HIT_CASES[1:], leaf_parent_sets((4,))).filter(lambda case: case[0].n == 4))
def test_every_hit_expands_to_the_full_scan_with_its_leaves_at_n_4(case):
    _check_every_hit(case[0])


def test_the_first_hit_walks_no_further(monkeypatch):
    # brute and the brute oracle take the first hit of _hits, which must
    # not walk past the parent of the leaves that holds it
    calls = []
    stage = cnotpac.search._leaf_parent

    def spy(search, packed):
        calls.append(packed)
        return stage(search, packed)

    monkeypatch.setattr(cnotpac.search, "_leaf_parent", spy)
    r = brute_force_search(SampleSet(4))
    assert (len(calls), r.circuits_examined) == (1, 1)
    samples = next(s for s in _learn_shaped_sets() if brute_force_search(s).found)
    calls.clear()
    r = brute_force_search(samples)
    first = len(calls)
    ask, _ = _brute_oracle(samples)
    calls.clear()
    assert ask([])
    assert len(calls) == first
    calls.clear()
    hits = list(_hits(_Search(4, *_compile(samples))))
    assert hits[0][2] == r.circuits_examined
    assert 1 < first < len(calls)


@st.composite
def z_type_sets(draw):
    """(samples, flipped) at n = 2, 3, labeled by a hidden CNOT circuit:
    Z-type measurements on states whose generators have an x part, three
    in four of them holding the measurement's image up to sign (labeled
    0 or 1), plus up to one random measurement of a random state, and
    sometimes one label flipped."""
    n = draw(st.integers(2, 3))
    full = (1 << n) - 1
    hidden = CnotCircuit(draw(st.sampled_from(_GL[n])).copy(), draw(st.integers(0, full)))
    t = hidden.to_tableau()
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    pairs = []
    for _ in range(draw(st.integers(1, 2 * n))):
        p = z_power(n, draw(st.integers(1, full)), sign=draw(st.sampled_from((1, -1))))
        image = t.conjugate_inverse(p) if draw(st.integers(0, 3)) else None
        while True:
            state = _state_holding(rng, n, image) if image else random_stabilizer_state(rng, n)
            if any(g.x for g in state.generators):
                break
        pairs.append((state, p))
    if draw(st.booleans()):
        xz = draw(st.integers(1, (1 << (2 * n)) - 1))
        pairs.append((random_stabilizer_state(rng, n), PauliOperator(n, xz & full, xz >> n)))
    pairs = draw(st.permutations(pairs))
    samples = [Sample(s, p, s.expectation(t.conjugate_inverse(p))) for s, p in pairs]
    flipped = draw(st.booleans())
    if flipped:
        k = draw(st.integers(0, len(samples) - 1))
        s = samples[k]
        label = draw(st.sampled_from([v for v in _LABELS if v != s.label]))
        samples[k] = Sample(s.state, s.measurement, label)
    return SampleSet(n, samples), flipped


@settings(max_examples=60, deadline=None)
@given(z_type_sets())
def test_z_type_samples_on_states_with_an_x_part_match_the_full_scan(case):
    _check_against_the_full_scan(*case)


def _learn_shaped_sets(n=4, pools=16):
    """Seeded pools shaped like a PAC learner's input: generic samples
    labelled 0 or 1 (a generic state measured on the hidden circuit's
    image of one of its group elements), one random measurement of a
    generic state (mostly labelled 1/2), then full-Z samples sharing one
    measurement support.  Every other pool has its first label flipped,
    and each pool is yielded in both orders."""
    for seed in range(pools):
        rng = random.Random("brute-pin/%d" % seed)
        hidden = random_cnot_circuit(rng, n)
        t = hidden.to_tableau()
        inv = t.inverse_tableau()
        pairs = []
        for _ in range(6):
            state = random_stabilizer_state(rng, n)
            g = state.element(rng.randrange(1, 1 << n))
            pairs.append((state, inv.conjugate_inverse(-g if rng.randrange(2) else g)))
        xz = rng.randrange(1, 1 << (2 * n))
        pairs.append((random_stabilizer_state(rng, n), PauliOperator(n, xz & ((1 << n) - 1), xz >> n)))
        x = rng.randrange(1, 1 << n)
        for _ in range(3):
            basis = complete_to_basis([], n, rng)
            state = StabilizerGroup.from_z_generators(n, basis, rng.randrange(1 << n))
            pairs.append((state, z_power(n, x, sign=rng.choice((1, -1)))))
        samples = [Sample(s, p, s.expectation(t.conjugate_inverse(p))) for s, p in pairs]
        if seed % 2:
            s = samples[0]
            samples[0] = Sample(s.state, s.measurement, 1 - s.label)
        yield SampleSet(n, samples)
        yield SampleSet(n, samples[::-1])


# sha256 of the brute results (found, witness rows, q, circuits_examined)
# on _learn_shaped_sets, taken from a DFS that ran a row's span test before
# its equations and a leaf's q equations before its generic samples: the
# order of those checks must not change a witness or a leaf count
BRUTE_PIN_SHA256 = "60d9000a293d56c13c58e2c8174080b6bdcfa08e7ff8263a5f4e432b9addace1"


def _brute_results(sets):
    results = []
    for samples in sets:
        r = brute_force_search(samples)
        c = r.circuit
        results.append((r.found, c and tuple(c.theta.rows), c and c.q, r.circuits_examined))
    return results, hashlib.sha256(repr(results).encode()).hexdigest()


def test_brute_results_are_pinned_on_learn_shaped_pools():
    results, digest = _brute_results(_learn_shaped_sets())
    assert {found for found, *_ in results} == {True, False}
    assert len({examined for *_, examined in results}) > 8
    assert digest == BRUTE_PIN_SHA256, results


def _half_labelled_pool(n, seed, count):
    """A pool whose generic samples are all labelled 1/2, so they give the
    parent of the leaves no equations: random measurements of random
    states, redrawn until the hidden circuit gives 1/2, then full-Z
    samples sharing one measurement support."""
    rng = random.Random("brute-pin-half/%d" % seed)
    full = (1 << n) - 1
    t = random_cnot_circuit(rng, n).to_tableau()
    samples = []
    while len(samples) < count:
        state = random_stabilizer_state(rng, n)
        xz = rng.randrange(1, 1 << (2 * n))
        meas = PauliOperator(n, xz & full, xz >> n)
        label = state.expectation(t.conjugate_inverse(meas))
        if label == Fraction(1, 2):
            samples.append(Sample(state, meas, label))
    x = rng.randrange(1, 1 << n)
    for _ in range(3):
        basis = complete_to_basis([], n, rng)
        state = StabilizerGroup.from_z_generators(n, basis, rng.randrange(1 << n))
        meas = z_power(n, x, sign=rng.choice((1, -1)))
        samples.append(Sample(state, meas, state.expectation(t.conjugate_inverse(meas))))
    return SampleSet(n, samples)


# the same digest at n = 5, where the reference scan does not reach: the
# satisfiable pools 4, 6, 7 and 12 of _learn_shaped_sets(n=5) in both
# orders, then _half_labelled_pool(5, 0, 80); recorded from the DFS that
# tested every leaf of the parent of the leaves
BRUTE_PIN_N5_SHA256 = "21594c70d8ffe35f89fd7472974b7884930028161c5d35d27285f2c9379a5bf6"


def test_brute_results_are_pinned_on_learn_shaped_pools_at_n_5():
    sets = [s for k, s in enumerate(_learn_shaped_sets(n=5, pools=13)) if k // 2 in (4, 6, 7, 12)]
    sets.append(_half_labelled_pool(5, 0, 80))
    assert all(gs.half for gs in _compile(sets[-1])[1])
    results, digest = _brute_results(sets)
    assert all(found for found, *_ in results)
    assert digest == BRUTE_PIN_N5_SHA256, results


def test_compiled_reduction_solves_to_exactly_the_family_at_q_zero():
    # the paper's contract, read off the linear system at any n: the
    # solution set of compile(reduce(F)) is {(M(a), q = 0)} for all a
    for name, f, _ in CORPUS:
        samples, inst = reduce_formula_to_samples(f, random.Random(83))
        n = inst.size
        top = n * n + n
        compiled = _compile(samples)
        assert compiled is not None, name
        blocks, generic = compiled
        assert generic == [], name
        rows = [eq for block in blocks for eq in block]
        assert top - len(rows) == sum(1 for m in inst.ms if any(m.rows)), name
        for a in range(1 << inst.num_vars):
            packed = 0
            for i, row in enumerate(inst.matrix_at(a).rows):
                packed |= row << i * n
            for eq in rows:
                assert ((eq & packed).bit_count() ^ eq >> top) & 1 == 0, (name, a)


# the same contract as a bijection, read off the reference scan at n <= 4:
# the hits are exactly (M(a), 0) over the a with det M(a) = 1, no two share
# a theta, and there are as many as F has satisfying assignments
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_reduction_hits_are_the_family_one_per_satisfying_assignment(seed):
    rng = random.Random(seed)
    cases = [(f, reduce_formula_to_samples(f, rng, num_vars=k)) for _, f, k in CORPUS]
    cases += [(f, reduce_formula_to_samples(f, rng, num_vars=k)) for _, f, k in SMALL_FORMULAS]
    cases += [(arithmetize_cnf(c), reduce_sat_to_samples(c, rng)) for _, c in SMALL_CNFS]
    checked = 0
    for f, (samples, inst) in cases:
        if inst.size > 4:
            continue
        hits = enumerate_consistent_circuits(samples)
        assert all(h.q == 0 for h in hits)
        thetas = [tuple(h.theta.rows) for h in hits]
        assert len(set(thetas)) == len(thetas)
        assignments = range(1 << inst.num_vars)
        family = {tuple(inst.matrix_at(a).rows) for a in assignments if inst.determinant_at(a)}
        assert set(thetas) == family
        assert len(hits) == sum(eval_formula(f, a) for a in assignments)
        checked += 1
    assert checked == 12


def _rows_solved_per_sample(samples):
    """The full-Z rows of _compile's table, each sign character t from its
    own BitMatrix(zs, n).solve(signs)."""
    n = samples.n
    top = n * n + n
    table: dict = {}
    for s in samples:
        gens = s.state.generators
        if s.measurement.x or any(g.x for g in gens):
            continue
        signs = sum(g.sign_bit << k for k, g in enumerate(gens))
        t = BitMatrix([g.z for g in gens], n).solve(signs)
        x = s.measurement.z
        c = s.measurement.sign_bit ^ (s.code == 0)
        _insert(table, sum(x << r * n for r in range(n) if t >> r & 1) | x << n * n | c << top, top)
    return sorted(table.values())


def test_compile_inverts_each_support_tuple_once_with_the_same_table():
    cases = [reduce_formula_to_samples(f, random.Random(89))[0] for _, f, _ in CORPUS]
    rng = random.Random(97)
    for _ in range(40):
        n = rng.randrange(1, 6)
        hidden = random_cnot_circuit(rng, n)
        t = hidden.to_tableau()
        bases = [complete_to_basis([], n, rng) for _ in range(rng.randrange(1, 4))]
        samples = []
        for _ in range(rng.randrange(1, 4 * n)):
            state = StabilizerGroup.from_z_generators(n, rng.choice(bases), rng.randrange(1 << n))
            meas = z_power(n, rng.randrange(1, 1 << n), sign=rng.choice((1, -1)))
            samples.append(Sample(state, meas, state.expectation(t.conjugate_inverse(meas))))
        cases.append(SampleSet(n, samples))
    for samples in cases:
        blocks, generic = _compile(samples)
        assert generic == []
        assert sorted(row for block in blocks for row in block) == _rows_solved_per_sample(samples)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(0, 1 << 32))
def test_row_table_payload_is_the_inverse_transpose(n, seed):
    rng = random.Random(seed)
    while True:
        theta = BitMatrix([rng.randrange(1, 1 << n) for _ in range(n)], n)
        if theta.is_invertible():
            break
    full = (1 << n) - 1
    table = {}
    for r, v in enumerate(theta.rows):
        # the prune: v reduces to a zero matrix part iff it is in the span so far
        for w in range(1 << n):
            in_span = BitMatrix(theta.rows[:r] + [w], n).rank() == r
            assert (_reduce(table, w, n) & full == 0) == in_span
        _insert(table, v | 1 << (n + r), n)
    inv_t = theta.inverse().transpose()
    for px in range(1 << n):
        reduced = _reduce(table, px, n)
        assert reduced & full == 0
        assert reduced >> n == inv_t.mul_vec(px)


# the parent of the leaves solves for its last row e_c + sum a_i R_i, R its
# rows 0..n-2 and c the non-pivot column of their table: _image_key is the
# image's key at every a, and the a that satisfy _member_rows are exactly
# the last rows at which the q = 0 tableau does not label the sample 1/2
@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 5),
    st.sampled_from(("inside", "outside", "z-type")),
    st.booleans(),
    st.integers(0, 1 << 32),
)
def test_leaf_parent_solve_keeps_the_last_rows_whose_image_is_in_the_group(n, kind, held, seed):
    rng = random.Random(seed)
    full = (1 << n) - 1
    while True:
        theta = BitMatrix([rng.randrange(1, 1 << n) for _ in range(n)], n)
        if theta.is_invertible():
            break
    rows = theta.rows[: n - 1]
    table = {}
    for r, u in enumerate(rows):
        _insert(table, u | 1 << (n + r), n)
    c = next(j for j in range(n) if j not in table)
    px = 0
    if kind != "z-type":
        for u in rows:
            px ^= u * rng.getrandbits(1)
        if kind == "outside":
            px ^= theta.rows[n - 1]
    meas = PauliOperator(n, px, rng.randrange(0 if px else 1, full + 1), sign=rng.choice((1, -1)))
    image = CnotCircuit(theta.copy(), 0).to_tableau().conjugate_inverse(meas)
    while True:
        state = _state_holding(rng, n, image) if held else random_stabilizer_state(rng, n)
        if kind != "z-type" or any(g.x for g in state.generators):
            break
        held = held and n > 1 and rng.random() < 0.9  # n = 1 holds Z only in a Z state
    sample = Sample(state, meas, Fraction(1))
    gs = _GenericSample(sample)
    solved = _image(gs, n, table, rows, c)
    member = _member_rows(gs, solved, n)
    lasts = set()
    for a in range(1 << (n - 1)):
        v = 1 << c
        for i, u in enumerate(rows):
            if a >> i & 1:
                v ^= u
        lasts.add(v)
        t = CnotCircuit(BitMatrix(rows + [v], n), 0).to_tableau()
        assert _image_key(solved, a, n) == t.conjugate_inverse(meas).key()
        admitted = not any((row & (a | 1 << (n - 1))).bit_count() & 1 for row in member)
        assert admitted == (sample_code(t, sample) != 1)
    assert lasts == {v for v in range(1 << n) if BitMatrix(rows + [v], n).rank() == n}


# check_consistent scores each candidate through its own tableau, one q at
# a time: the bitmask scan over all q of a theta must give the same hits
@settings(max_examples=60, deadline=None)
@given(st.one_of(labeled_sets(), leaf_parent_sets((1, 2, 3))).map(lambda case: case[0]))
def test_enumerate_hits_match_a_per_circuit_scan_and_share_no_theta(samples):
    n = samples.n
    hits = enumerate_consistent_circuits(samples)
    assert hits == [c for c in all_cnot_circuits(n) if check_consistent(c, samples)]
    assert len({id(h.theta) for h in hits}) == len(hits)
    if n < 2 or len(hits) < 3:
        return
    before = [(list(h.theta.rows), h.q) for h in hits]
    hits[0].append(Gate("cnot", control=0, target=1))
    hits[-1].append(Gate("cnot", control=n - 1, target=0))
    for h, (rows, q) in list(zip(hits, before))[1:-1]:
        assert h.theta.rows == rows and h.q == q
    assert hits[0].theta.rows != before[0][0]
    assert hits[-1].theta.rows != before[-1][0]


def test_pin_search_lands_in_claimed_set():
    rng = random.Random(74)
    samples = SampleSet(
        3, constrain_pauli_samples(3, z_power(3, 0b101, sign=-1), 0b110, 0b001, rng)
    )
    r = brute_force_search(samples)
    assert r.found
    assert r.circuit.theta.mul_vec(0b101) in (0b110, 0b111)
    assert dot(r.circuit.q, 0b101) == 1
    # full scan equals the direct algebraic description of the pin
    claimed = [
        c
        for c in all_cnot_circuits(3)
        if c.theta.mul_vec(0b101) in (0b110, 0b111) and dot(c.q, 0b101) == 1
    ]
    scanned = enumerate_consistent_circuits(samples)
    assert [(c.theta, c.q) for c in scanned] == sorted(
        ((c.theta, c.q) for c in claimed), key=lambda p: (p[0].rows, p[1])
    )
    # a circuit outside the claimed set is rejected
    outsider = next(c for c in all_cnot_circuits(3) if c.theta.mul_vec(0b101) == 0b001)
    assert not check_consistent(outsider, samples)


def test_contradictory_pair_unsatisfiable():
    for n, v in ((3, 0b010), (4, 0b0001)):
        state = StabilizerGroup.zero_state(n)
        probe = z_power(n, v)
        pair = [Sample(state, probe, Fraction(1)), Sample(state, probe, Fraction(0))]
        # theta e_0 pinned to {0}: the forced theta x = 0 exit, with no leaf
        zero_pin = _pin_samples(n, 1, 0, 0, [], None)
        for samples in (SampleSet(n, pair), SampleSet(n, zero_pin)):
            assert _compile(samples) is None
            r = brute_force_search(samples)
            assert not r.found and r.circuits_examined == 0


def test_full_z_half_label_unsatisfiable():
    samples = SampleSet(
        2, [Sample(StabilizerGroup.zero_state(2), z_power(2, 0b01), Fraction(1, 2))]
    )
    assert not brute_force_search(samples).found


def test_half_labels_satisfiable_with_generic_state():
    # |++> assigns expectation 1/2 to Z1; the identity circuit matches it
    plus = StabilizerGroup([PauliOperator(2, 0b01, 0, 1), PauliOperator(2, 0b10, 0, 1)])
    samples = SampleSet(2, [Sample(plus, z_power(2, 0b01), Fraction(1, 2))])
    r = brute_force_search(samples)
    assert r.found and check_consistent(r.circuit, samples)


def test_unsat_reductions_return_none():
    from cnotpac.formula import Sum, Variable

    for f in (Constant(0), Sum(Variable(1), Variable(1))):
        samples, inst = reduce_formula_to_samples(f, random.Random(75))
        assert inst.size <= 4
        assert not brute_force_search(samples).found


def test_enumeration_limits():
    with pytest.raises(EnumerationLimitError):
        brute_force_search(SampleSet(6))
    with pytest.raises(EnumerationLimitError):
        enumerate_consistent_circuits(SampleSet(5))
    inst = NonSingularityInstance(
        1, BitMatrix([1], 1), [BitMatrix([0], 1)] * 25
    )
    with pytest.raises(EnumerationLimitError):
        affine_family_search(inst)


def test_the_scan_table_is_gl_n_2_in_row_lex_order():
    for n, size in ((1, 1), (2, 6), (3, 168), (4, 20160)):
        table = _gl_tableaus(n)
        assert len(table) == size == math.prod((1 << n) - (1 << i) for i in range(n))
        assert all(a[0] < b[0] for a, b in zip(table, table[1:]))
        for rows, keys in table:
            assert type(rows) is tuple and type(keys) is tuple
            assert list(keys) == CnotCircuit(BitMatrix(list(rows), n)).to_tableau().keys


def test_mutating_hits_leaves_the_next_scan_unchanged():
    rng = random.Random(91)
    for n in (2, 3, 4):
        # a hidden circuit's columns 0..n-2 and their q bits pinned exactly
        hidden = random_cnot_circuit(rng, n)
        samples = SampleSet(n, [])
        for c in range(n - 1):
            u, b = hidden.theta.mul_vec(1 << c), hidden.q >> c & 1
            samples = samples.extended(_pin_samples(n, 1 << c, b, u, [], None))
        hits = enumerate_consistent_circuits(samples)
        assert len(hits) == 1 << n and hidden in hits
        before = [(list(h.theta.rows), h.q) for h in hits]
        for h in hits[::2]:
            h.append(Gate("cnot", control=0, target=1))
        for h in hits[1::2]:
            h.theta.rows[0] ^= 1 << (n - 1)
        assert [(list(h.theta.rows), h.q) for h in hits] != before
        again = enumerate_consistent_circuits(samples)
        assert [(list(h.theta.rows), h.q) for h in again] == before


def test_the_scan_builds_each_q_zero_tableau_once_per_process(monkeypatch):
    # nothing is built at import: a fresh interpreter has an empty table
    probe = (
        "import cnotpac, cnotpac.cli, cnotpac.search as s; "
        "i = s._gl_tableaus.cache_info(); print(i.hits + i.misses, i.currsize)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.stdout.split() == ["0", "0"], out.stderr
    samples = random_consistent_set(random.Random(92), 3, 4)[0]
    calls = []
    to_tableau = CnotCircuit.to_tableau

    def counted(self):
        calls.append(self.n)
        return to_tableau(self)

    monkeypatch.setattr(CnotCircuit, "to_tableau", counted)
    _gl_tableaus.cache_clear()
    first = enumerate_consistent_circuits(samples)
    assert calls == [3] * 168
    assert enumerate_consistent_circuits(samples) == first
    assert len(calls) == 168
    with pytest.raises(EnumerationLimitError):
        enumerate_consistent_circuits(SampleSet(5))
    assert len(calls) == 168 and _gl_tableaus.cache_info().currsize == 1


def test_affine_family_golden_witness():
    inst = graph_to_instance(formula_to_graph(golden_formula()))
    r = affine_family_search(inst)
    # (a1, a2, a3, a4) tuples in lexicographic order: the fourth, (0,0,1,1)
    assert r.found and r.assignment == 0b1100 and r.assignments_examined == 4
    assert inst.determinant_at(r.assignment) == 1


def test_affine_family_constants():
    one = graph_to_instance(formula_to_graph(Constant(1)))
    r = affine_family_search(one)
    assert r.found and r.assignment == 0 and r.assignments_examined == 1
    zero = graph_to_instance(formula_to_graph(Constant(0)))
    r = affine_family_search(zero)
    assert not r.found and r.assignment is None and r.assignments_examined == 1


def test_affine_family_matches_truth_table():
    for name, f, n_vars in CORPUS:
        inst = graph_to_instance(formula_to_graph(f), num_vars=n_vars)
        r = affine_family_search(inst)
        sat = [a for a in range(1 << n_vars) if eval_formula(f, a)]
        assert r.found == bool(sat), name
        if r.found:
            assert inst.determinant_at(r.assignment) == 1


def test_search_from_decision_matches_brute():
    from cnotpac.formula import Sum, Variable

    for name, clauses in (("unit", [[1]]), ("negated-unit", [[-1]])):
        samples, inst = reduce_sat_to_samples(clauses, random.Random(78))
        n = inst.size
        assert n <= 4
        expected = brute_force_search(samples)
        r = search_from_decision(brute_force_decision, samples)
        assert r.found == expected.found, name
        assert not r.oracle_fault
        assert r.queries <= 1 + n * (3 * n - 1)
        if r.found:
            assert check_consistent(r.circuit, samples)
    for f in (Constant(0), Constant(1), Sum(Variable(1), Variable(1))):
        samples, inst = reduce_formula_to_samples(f, random.Random(79))
        expected = brute_force_search(samples)
        r = search_from_decision(brute_force_decision, samples)
        assert r.found == expected.found and not r.oracle_fault


def test_search_from_decision_random_sets():
    rng = random.Random(80)
    for n in (2, 3):
        samples, _ = random_consistent_set(rng, n, 2 * n)
        r = search_from_decision(brute_force_decision, samples)
        assert r.found and not r.oracle_fault
        assert check_consistent(r.circuit, samples)
        assert r.queries <= 1 + n * (3 * n - 1)


def test_search_from_decision_unit_cnf_query_count():
    samples, _ = reduce_sat_to_samples([[1]], random.Random(81))
    r = search_from_decision(brute_force_decision, samples)
    assert r.found and r.queries == 13


def test_search_from_decision_dishonest_oracles():
    samples, _ = reduce_sat_to_samples([[1]], random.Random(82))
    r = search_from_decision(lambda s: False, samples)
    assert r == DecisionSearchResult(False, None, 1, False)
    state = StabilizerGroup.zero_state(2)
    probe = z_power(2, 1)
    bad = SampleSet(2, [Sample(state, probe, Fraction(1)), Sample(state, probe, Fraction(0))])
    r = search_from_decision(lambda s: True, bad)
    assert not r.found and r.oracle_fault


def test_the_searches_build_no_pauli_objects(monkeypatch):
    # a sample's measurement is a key and a sign bit: brute search, the full
    # scan, the decision search with its pins, the reduction, the writer and
    # verify's scoring loop build no Pauli object, nor does the reader
    rng = random.Random(87)
    sets = [random_consistent_set(rng, n, 3 * n)[0] for n in (2, 3)]
    sets += [reduce_sat_to_samples(clauses, random.Random(88))[0] for clauses in ([[1]], [[-1]])]
    assert [s.n for s in sets] == [2, 3, 3, 4]
    made = []
    init = PauliOperator.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PauliOperator, "__init__", counted)
    for samples in sets:
        assert brute_force_search(samples).found
        assert enumerate_consistent_circuits(samples)
        assert search_from_decision(brute_force_decision, samples).found
    assert made == []
    # the golden formula links columns through computational-basis samples,
    # and a zero column of M0 that no variable touches gives the
    # contradictory pair
    dead = NonSingularityInstance(2, BitMatrix([0b01, 0b01], 2), [])
    reduced = [
        reduce_formula_to_samples(golden_formula(), random.Random(89))[0],
        instance_to_samples(dead, random.Random(89)),
    ]
    for ss in reduced:
        obj = json.loads(sample_set_dumps(ss))
        assert made == []
        loaded = sample_set_from_json(obj)
        assert made == []
        t = CnotCircuit.identity(ss.n).to_tableau()
        codes = [sample_code(t, s) for s in loaded]  # verify's loop
        assert made == [] and len(codes) == len(ss)


def _decision_cases():
    """Corpus and small-CNF reductions with n <= 5, seeded random consistent
    sets at n = 2..4 with generic samples, and unsatisfiable sets: the same
    random sets with one label changed, and a contradictory pin."""
    for _, f, n_vars in CORPUS:
        samples, inst = reduce_formula_to_samples(f, random.Random(84), num_vars=n_vars)
        if inst.size <= 5:
            yield samples
    for _, clauses in SMALL_CNFS:
        yield reduce_sat_to_samples(clauses, random.Random(85))[0]
    rng = random.Random(86)
    for n in (2, 3, 4):
        for _ in range(4):
            samples, _ = random_consistent_set(rng, n, 3 * n)
            yield samples
            for k, s in enumerate(samples):
                if s.code != 1:
                    flipped = Sample(s.state, s.measurement, 1 - s.label)
                    yield SampleSet(n, samples[:k] + [flipped] + samples[k + 1 :])
                    break
    yield SampleSet(3, _pin_samples(3, 1, 0, 0, [], None))


# sha256 of the decision results (found, witness rows, q, queries, fault) on
# _decision_cases, taken while every query recompiled the whole extended set
DECISION_PIN_SHA256 = "5d5deaf3c9c2b98b3a55157504e32b19fb4f71e270f8cfdce34eaa684f959b92"


def test_decision_results_are_pinned():
    results = []
    for samples in _decision_cases():
        r = search_from_decision(brute_force_decision, samples)
        c = r.circuit
        results.append((r.found, c and tuple(c.theta.rows), c and c.q, r.queries, r.oracle_fault))
    assert {found for found, *_ in results} == {True, False}
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == DECISION_PIN_SHA256, results


def test_a_wrapped_brute_oracle_gives_the_same_decision_result():
    # a caller's oracle is called on each extended set; the brute oracle
    # itself is answered from one compile, and the two must agree
    for samples in list(_decision_cases())[::3]:
        direct = search_from_decision(brute_force_decision, samples)
        wrapped = search_from_decision(lambda s: brute_force_decision(s), samples)
        assert wrapped == direct
