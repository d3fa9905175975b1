import hashlib
import math
import random
from fractions import Fraction

import pytest

from cnotpac.gf2 import dot
from cnotpac.learning import (
    EmptyIntersectionError,
    LearningParameters,
    _admissible_space,
    cnot_defaults,
    learn_single_measurement,
    pac_learner,
    sample_complexity,
    trivial_uniform_learner,
)
from cnotpac.pauli import PauliOperator, x_power, z_power
from cnotpac.samples import Sample, SampleSet
from cnotpac.search import SearchResult, brute_force_search, check_consistent
from cnotpac.serialization import circuit_to_json, dumps
from cnotpac.stabilizer import Membership, StabilizerGroup, StabilizerState
from cnotpac.tableau import is_symplectic

from helpers import random_signed_pauli, random_stabilizer_state
from test_search import random_cnot_circuit, random_consistent_set


# ---------------------------------------------------------------------------
# sample-size bound


def test_sample_complexity_frozen_regression():
    # evaluated once by hand from the formula with all constants 1:
    # depth 3, d 2, size 64, gap 1/2, eps = delta = 0.1
    p = cnot_defaults(8, epsilon=0.1, delta=0.1)
    assert sample_complexity(p) == 595911952


def test_sample_complexity_monotonicity():
    base = cnot_defaults(8, epsilon=0.1, delta=0.1)
    m = sample_complexity(base)
    assert sample_complexity(cnot_defaults(8, epsilon=0.05, delta=0.1)) > m
    assert sample_complexity(cnot_defaults(8, epsilon=0.1, delta=0.9)) < m
    bigger = LearningParameters(0.1, 0.1, 0.0, 0.5, d=2, depth=3, size=128)
    assert sample_complexity(bigger) > m
    rng = random.Random(91)
    for _ in range(25):
        eps = rng.uniform(0.01, 0.5)
        delta = rng.uniform(0.01, 0.5)
        p = LearningParameters(
            eps, delta, 0.0, 0.5, d=2, depth=rng.randrange(2, 6), size=rng.randrange(4, 64)
        )
        tighter = LearningParameters(
            eps / 2, delta, p.alpha, p.beta, p.d, p.depth, p.size
        )
        assert sample_complexity(tighter) > sample_complexity(p)
        surer = LearningParameters(
            eps, delta / 2, p.alpha, p.beta, p.d, p.depth, p.size
        )
        assert sample_complexity(surer) >= sample_complexity(p)


def test_parameter_validation():
    good = dict(epsilon=0.1, delta=0.1, alpha=0.0, beta=0.5, d=2, depth=1, size=4)
    LearningParameters(**good)
    for bad in (
        dict(good, epsilon=0.0),
        dict(good, epsilon=1.0),
        dict(good, delta=0.0),
        dict(good, alpha=0.5, beta=0.5),
        dict(good, alpha=-0.1),
        dict(good, beta=1.5),
        dict(good, d=1),
        dict(good, depth=0),
        dict(good, size=1),
    ):
        with pytest.raises(ValueError):
            LearningParameters(**bad)
    # alpha = 0 and beta = 1 are both admissible endpoints
    LearningParameters(0.1, 0.1, 0.0, 1.0, d=2, depth=1, size=4)


def test_cnot_defaults():
    p = cnot_defaults(8, 0.1, 0.2)
    assert (p.d, p.depth, p.size) == (2, 3, 64)
    assert p.alpha == 0.0 and p.beta == 0.5
    assert cnot_defaults(2, 0.1, 0.1).depth == 1
    assert cnot_defaults(5, 0.1, 0.1).depth == 3
    assert cnot_defaults(8, 0.1, 0.1, depth_constant=2).depth == 6
    with pytest.raises(ValueError):
        cnot_defaults(1, 0.1, 0.1)


# ---------------------------------------------------------------------------
# coupon-collector protocol


def hidden_sample_pool(rng, n, count):
    samples, hidden = random_consistent_set(rng, n, count)
    return list(samples.samples), hidden


def test_pac_learner_covers_small_support():
    rng = random.Random(92)
    pool, _ = hidden_sample_pool(rng, 3, 10)
    full = SampleSet(3, pool)
    result = pac_learner(
        lambda r: r.choice(pool), 10, brute_force_search, rng, full_set=full
    )
    assert result.draws == math.ceil(3 * 10 * math.log(10)) == 70
    assert result.distinct <= 10
    assert result.found and result.accepted
    assert check_consistent(result.circuit, full)


def test_pac_learner_single_point_distribution():
    rng = random.Random(93)
    pool, _ = hidden_sample_pool(rng, 2, 5)
    one = pool[0]
    for seed in range(10):
        result = pac_learner(
            lambda r: one, 1, brute_force_search, random.Random(seed)
        )
        assert result.draws == 1 and result.distinct == 1
        assert result.found
        assert check_consistent(result.circuit, SampleSet(2, [one]))


def test_pac_learner_unsatisfiable_support():
    state = StabilizerState.zero_state(2)
    probe = z_power(2, 0b01)
    pool = [
        Sample(state, probe, Fraction(1)),
        Sample(state, probe, Fraction(0)),
    ]
    full = SampleSet(2, pool)
    result = pac_learner(
        lambda r: r.choice(pool), 2, brute_force_search, random.Random(94), full_set=full
    )
    assert not result.found and result.circuit is None
    assert result.accepted is False


def test_pac_learner_all_seen_rate_matches_the_coupon_collector():
    # s distinct samples drawn uniformly m = ceil(s ln s) times: all s are
    # seen with probability sum_j (-1)^j C(s, j) (1 - j/s)^m
    s, runs = 6, 2000
    state = StabilizerState.zero_state(3)
    pool = []
    for v in range(1, s + 1):
        probe = z_power(3, v)
        pool.append(Sample(state, probe, state.expectation(probe)))
    m = math.ceil(s * math.log(s))
    exact = sum(
        (-1) ** j * math.comb(s, j) * (1 - Fraction(j, s)) ** m for j in range(s + 1)
    )
    assert m == 11 and abs(float(exact) - 0.3562) < 1e-4

    def not_found(sample_set):
        assert len(sample_set) <= s
        return SearchResult(False, None, 0, 0.0)

    all_seen = 0
    for seed in range(runs):
        result = pac_learner(
            lambda r: r.choice(pool), s, not_found, random.Random(seed), draw_constant=1
        )
        assert result.draws == m and result.distinct <= s
        assert not result.found and result.circuit is None
        all_seen += result.distinct == s
    p = float(exact)
    assert abs(all_seen / runs - p) <= 5 * math.sqrt(p * (1 - p) / runs)


def test_pac_learner_rejects_bad_support_bound():
    with pytest.raises(ValueError):
        pac_learner(lambda r: None, 0, brute_force_search, random.Random(0))


# ---------------------------------------------------------------------------
# single-measurement learner


def full_z_state(rng, n):
    from cnotpac.gf2 import complete_to_basis

    basis = complete_to_basis([], n, rng)
    return StabilizerState.from_z_generators(n, basis, rng.randrange(1 << n))


def batch(measurement, pairs) -> SampleSet:
    """The sample set of (state, 0 or 1 label) pairs under one measurement."""
    return SampleSet(measurement.n, [Sample(st, measurement, label) for st, label in pairs])


def random_batch(rng, n, count):
    """Batch labeled by a hidden circuit; full-Z states keep labels binary."""
    hidden = random_cnot_circuit(rng, n)
    t = hidden.to_tableau()
    z = rng.randrange(1, 1 << n)
    measurement = z_power(n, z, sign=-1 if rng.randrange(2) else 1)
    pairs = []
    for _ in range(count):
        if rng.randrange(2):
            state = StabilizerState.computational_basis(n, rng.randrange(1 << n))
        else:
            state = full_z_state(rng, n)
        label = state.expectation(t.conjugate_inverse(measurement))
        assert label.denominator == 1
        pairs.append((state, int(label)))
    return batch(measurement, pairs), hidden


def mixed_state(rng, n, generic):
    """A full-Z state or, twice as often, a computational-basis one; with
    generic set, a generic state a quarter of the time."""
    kind = rng.randrange(3 + generic)
    if kind == 0:
        return full_z_state(rng, n)
    if kind < 3:
        return StabilizerState.computational_basis(n, rng.randrange(1 << n))
    return random_stabilizer_state(rng, n)


def plus_state(n, signs=0):
    """An X-basis state: its group holds no Z-type element but the identity."""
    gens = [x_power(n, 1 << j, sign=-1 if signs >> j & 1 else 1) for j in range(n)]
    return StabilizerState(StabilizerGroup(gens))


def test_z_constraints_are_exact():
    # (-1)^b Z^u is a member iff every row w has w.(u | b << n) = 0, for
    # every (u, b), u = 0 included (+I is a member, -I is not)
    rng = random.Random(95)
    for n in (1, 2, 3, 4):
        states = [plus_state(n, rng.randrange(1 << n))]
        for _ in range(6):
            states += [random_stabilizer_state(rng, n), full_z_state(rng, n)]
        if n == 2:
            # Z1Z2 = -(X1X2)(Y1Y2): a Z-type member whose factors have x parts
            states += [
                StabilizerState(StabilizerGroup([x_power(2, 3), PauliOperator(2, 3, 3, sign)]))
                for sign in (1, -1)
            ]
        for state in states:
            rows = state.group.z_constraints()
            for point in range(1 << (n + 1)):
                u, b = point & ((1 << n) - 1), point >> n
                image = PauliOperator(n, 0, u, sign=-1 if b else 1)
                member = state.group.group_contains(image) == Membership.PLUS
                assert all(dot(w, point) == 0 for w in rows) == member, (n, point)


def _admits(state, measurement, label, point):
    """Whether the image (-1)^(sigma + gamma) Z^u of the measurement
    (-1)^sigma Z^x, point = u | gamma << n, gets the label on the state."""
    n = state.n
    u, gamma = point & ((1 << n) - 1), point >> n
    negative = measurement.sign_bit ^ gamma
    if u == 0:
        # image is +I or -I with expectation 1 or 0 outright
        return negative != label
    image = PauliOperator(n, 0, u, sign=-1 if negative else 1)
    return state.group.group_contains(image) == (Membership.PLUS if label else Membership.MINUS)


def test_stacked_constraints_are_the_intersection():
    # the one linear system admits exactly the points every sample admits
    rng = random.Random(102)
    empty = 0
    for trial in range(150):
        n = 1 + trial % 3
        measurement = z_power(n, rng.randrange(1, 1 << n), sign=-1 if rng.randrange(2) else 1)
        pairs = [(mixed_state(rng, n, 1), rng.randrange(2)) for _ in range(rng.randrange(1, 5))]
        want = {
            point
            for point in range(1 << (n + 1))
            if all(_admits(state, measurement, label, point) for state, label in pairs)
        }
        space = _admissible_space(batch(measurement, pairs))
        if space is None:
            empty += 1
            assert not want
        else:
            assert set(space.points()) == want
    assert 0 < empty < 150


def test_single_sample_batch():
    samples = batch(z_power(3, 0b001), [(StabilizerState.zero_state(3), 1)])
    circuit = learn_single_measurement(samples, random.Random(96))
    assert circuit.theta.is_invertible()
    assert check_consistent(circuit, samples)
    sign, image = dot(circuit.q, 0b001), circuit.theta.mul_vec(0b001)
    assert sign == 0, "positive coset of the all-zeros state"


def test_round_trip_against_hidden_circuits():
    rng = random.Random(97)
    for n, trials, count in ((3, 20, 8), (5, 8, 20), (6, 4, 24)):
        for _ in range(trials):
            samples, _ = random_batch(rng, n, count)
            circuit = learn_single_measurement(samples, rng)
            assert circuit.theta.is_invertible()
            assert check_consistent(circuit, samples)


class CountingRng:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.draws = 0

    def randrange(self, *args):
        self.draws += 1
        return self.rng.randrange(*args)


def test_completion_draw_budget():
    rng = random.Random(98)
    n = 5
    total = 0
    trials = 60
    for seed in range(trials):
        samples, _ = random_batch(rng, n, 12)
        meter = CountingRng(seed)
        learn_single_measurement(samples, meter)
        total += meter.draws
    assert total / trials <= 4 * n


def pin_batches():
    """Seeded (measurement, [(state, label)]) batches at n = 1..6.

    States are full-Z, computational-basis and, in odd batches, generic
    ones.  A label is the hidden circuit's where that is 0 or 1 and a
    coin flip where it is 1/2, so generic states make contradictory
    batches too; every fourth batch repeats its first state with the
    other label, and each n ends with an X-basis batch whose only
    admissible image is the identity.
    """
    rng = random.Random(2020)
    for n in range(1, 7):
        for i in range(16):
            t = random_cnot_circuit(rng, n).to_tableau()
            measurement = z_power(n, rng.randrange(1, 1 << n), sign=-1 if rng.randrange(2) else 1)
            pairs = []
            for _ in range(rng.randrange(1, 3 * n + 2)):
                state = mixed_state(rng, n, i % 2)
                label = state.expectation(t.conjugate_inverse(measurement))
                pairs.append((state, int(label) if label.denominator == 1 else rng.randrange(2)))
            if i % 4 == 3:
                pairs.append((pairs[0][0], 1 - pairs[0][1]))
            yield measurement, pairs
        label = rng.randrange(2)
        pairs = [(plus_state(n, rng.randrange(1 << n)), label) for _ in range(rng.randrange(1, n + 2))]
        yield z_power(n, rng.randrange(1, 1 << n)), pairs


# sha256 of the pin transcript below, recorded while the learner took a
# batch type of its own and intersected the constraints pairwise: 54
# circuits, 42 contradictory and 6 identity-only batches
SINGLE_MEASUREMENT_PIN_SHA256 = "1ddc8cb153cdef23322c88c94c515c2416f752ede14cf6f0df3135c57b5e208a"


def test_single_measurement_learner_is_pinned():
    # per batch: n, the completion draw count, and the circuit or the error
    lines = []
    for seed, (measurement, pairs) in enumerate(pin_batches()):
        meter = CountingRng(seed)
        try:
            out = dumps(circuit_to_json(learn_single_measurement(batch(measurement, pairs), meter)))
        except ValueError as err:
            out = "%s: %s\n" % (type(err).__name__, err)
        lines.append("%d %d %s" % (measurement.n, meter.draws, out))
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == SINGLE_MEASUREMENT_PIN_SHA256


def test_contradictory_batch_raises():
    state = StabilizerState.zero_state(2)
    samples = batch(z_power(2, 0b01), [(state, 1), (state, 0)])
    with pytest.raises(EmptyIntersectionError, match="constraints are contradictory"):
        learn_single_measurement(samples, random.Random(99))


def test_identity_only_batch_raises():
    # |+> has no Z-type stabilizer: label 1 admits only the image +I
    samples = batch(z_power(1, 1), [(plus_state(1), 1)])
    with pytest.raises(EmptyIntersectionError, match="only the identity image is admissible"):
        learn_single_measurement(samples, random.Random(0))


def test_batch_validation():
    zero = StabilizerState.zero_state(2)
    with pytest.raises(ValueError, match="measurement must be a nonidentity Z-type Pauli"):
        learn_single_measurement(batch(x_power(2, 0b01), [(zero, 1)]), random.Random(0))
    with pytest.raises(ValueError, match="samples must share one measurement"):
        learn_single_measurement(
            SampleSet(2, [Sample(zero, z_power(2, v), Fraction(1)) for v in (1, 2)]),
            random.Random(0),
        )
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        learn_single_measurement(
            batch(z_power(2, 0b01), [(zero, 1), (zero, Fraction(1, 2))]), random.Random(0)
        )
    with pytest.raises(ValueError, match="batch must contain at least one sample"):
        learn_single_measurement(SampleSet(2, []), random.Random(0))
    # an identity measurement or a state on other qubits makes no Sample at all
    with pytest.raises(ValueError, match="measurement must not be the identity"):
        Sample(zero, PauliOperator(2, 0, 0), Fraction(1))
    with pytest.raises(ValueError, match="state and measurement qubit counts differ"):
        Sample(StabilizerState.zero_state(3), z_power(2, 0b01), Fraction(1))


# ---------------------------------------------------------------------------
# uniform random circuit output


def test_trivial_learner_is_symplectic():
    for n in (1, 2, 4, 6):
        for seed in range(6):
            t = trivial_uniform_learner(n, random.Random(seed))
            assert is_symplectic(t.s_matrix(), n)


def test_trivial_learner_seed_sensitivity():
    distinct = 0
    for pair in range(100):
        a = trivial_uniform_learner(3, random.Random(2 * pair))
        b = trivial_uniform_learner(3, random.Random(2 * pair + 1))
        if a != b:
            distinct += 1
    assert distinct == 100
    again = trivial_uniform_learner(3, random.Random(0))
    assert again == trivial_uniform_learner(3, random.Random(0))


def test_trivial_learner_output_is_pinned():
    # gate updates fold only the images they touch; the circuit must not move
    t = trivial_uniform_learner(64, random.Random(7))
    digest = hashlib.sha256(dumps(circuit_to_json(t)).encode()).hexdigest()
    assert digest == "b82f282db17a1df37f44f1a31140e1716a36953d7048f8f4efc1b3f0cd3632ab"


def test_random_signed_pauli_properties():
    rng = random.Random(100)
    seen_minus = seen_plus = False
    for _ in range(200):
        p = random_signed_pauli(3, rng)
        assert p.n == 3 and (p.x or p.z)
        assert 0 <= p.x < 8 and 0 <= p.z < 8
        seen_minus |= p.sign_bit == 1
        seen_plus |= p.sign_bit == 0
    assert seen_minus and seen_plus
    a = random_signed_pauli(4, random.Random(5))
    b = random_signed_pauli(4, random.Random(5))
    assert (a.x, a.z, a.sign_bit) == (b.x, b.z, b.sign_bit)


def test_half_label_rarity_for_random_paulis():
    # the exact non-half frequency for nonidentity draws is
    # (2^n - 1) / (4^n - 1); check a seeded estimate within 3 sigma
    rng = random.Random(101)
    n = 4
    state = random_stabilizer_state(rng, n)
    draws = 20000
    hits = 0
    for _ in range(draws):
        p = random_signed_pauli(n, rng)
        if state.expectation(p) != Fraction(1, 2):
            hits += 1
    truth = (2**n - 1) / (4**n - 1)
    sigma = math.sqrt(truth * (1 - truth) / draws)
    assert abs(hits / draws - truth) <= 3 * sigma
