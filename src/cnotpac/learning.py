"""Learners for the consistency problem and its tractable special cases.

Three layers live here.  `sample_complexity` evaluates the generic
sample-size bound for PAC learning shallow circuit classes, with every
big-O constant set to 1.  `pac_learner` is the coupon-collector protocol:
draw O(s log s) samples, deduplicate, and hand the observed set to a
consistency search.  The remaining functions are the efficient proper
learners for the two special cases where consistency is easy: a single
repeated Z-type measurement (one linear system of z_constraints rows), and
learning with respect to zero-error-indistinguishable hypotheses, where
a uniformly random circuit already works.
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from .cnot import CnotCircuit
from .gf2 import AffineSubspace, BitMatrix, complete_to_basis
from .samples import Sample, SampleSet
from .search import check_consistent
from .tableau import CliffordTableau, Gate


# draw_constant and s come from user input; 10^6 draws take about 4 s on an
# 11-sample pool, and far more is a runaway rather than a learning run
_MAX_DRAWS = 10**6


class EmptyIntersectionError(ValueError):
    """No hypothesis satisfies every constraint in the sample set."""


class LearningParameters:
    """Problem-size knobs for the sample-complexity bound.

    depth and size describe the hypothesis class (circuit depth bound and
    gate-set size); d is the qudit dimension; (alpha, beta) is the error
    gap separating acceptable from unacceptable hypotheses; epsilon and
    delta are the usual PAC accuracy and confidence parameters.
    """

    def __init__(
        self,
        epsilon: float,
        delta: float,
        alpha: float,
        beta: float,
        d: int,
        depth: int,
        size: int,
    ):
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 <= alpha < beta <= 1.0:
            raise ValueError("need 0 <= alpha < beta <= 1")
        if d < 2:
            raise ValueError("qudit dimension d must be at least 2")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if size < 2:
            raise ValueError("gate-set size must be at least 2")
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.d = d
        self.depth = depth
        self.size = size


def cnot_defaults(
    n: int, epsilon: float, delta: float, depth_constant: int = 1
) -> LearningParameters:
    """Parameters for the n-qubit CNOT class.

    Qubits (d = 2), depth depth_constant * ceil(log2 n), gate-set size
    n^2 (a CNOT is an ordered qubit pair), and the (0, 1/2) error gap:
    a wrong CNOT hypothesis is detected with probability at least 1/2
    on a distinguishing sample.
    """
    if n < 2:
        raise ValueError("need at least 2 qubits")
    if depth_constant < 1:
        raise ValueError("depth_constant must be at least 1")
    return LearningParameters(
        epsilon=epsilon,
        delta=delta,
        alpha=0.0,
        beta=0.5,
        d=2,
        depth=depth_constant * math.ceil(math.log2(n)),
        size=n * n,
    )


def sample_complexity(p: LearningParameters) -> int:
    """Training-set size sufficient for proper PAC learning the class.

    Evaluates
        ceil((1/eps) * (D d^4 G^2 ln(D) ln^2(D d^4 G^2 ln(G) / ((b-a) eps))
                        + ln(1/delta)))
    with D = depth and G = size.  The bound is asymptotic; every hidden
    constant is set to 1 here, so treat the output as a scale, not a
    guarantee.
    """
    a = p.depth * p.d**4 * p.size**2
    try:
        inner = a * math.log(p.size) / ((p.beta - p.alpha) * p.epsilon)
        m = a * math.log(p.depth) * math.log(inner) ** 2 + math.log(1.0 / p.delta)
        return math.ceil(m / p.epsilon)
    except OverflowError:
        raise ValueError(
            "sample-size bound overflows a float: depth, d or size is too large"
        ) from None


@dataclass
class PacLearnResult:
    found: bool
    circuit: Optional[CnotCircuit]
    draws: int
    distinct: int
    accepted: Optional[bool]


def pac_learner(
    draw: Callable,
    s: int,
    search: Callable,
    rng,
    draw_constant: float = 3.0,
    full_set: Optional[SampleSet] = None,
) -> PacLearnResult:
    """Coupon-collector protocol: oversample, dedupe, search.

    draw(rng) must yield one labeled sample from the hidden distribution;
    s bounds the support size.  Draws ceil(draw_constant * s * ln s)
    samples (at least one; more than _MAX_DRAWS is an error),
    deduplicates them preserving draw order, and runs the consistency
    search on the observed set.  When full_set is given, the decision
    protocol's acceptance bit is also computed: accept iff a hypothesis
    was found and it is consistent with the full hidden set.
    """
    if s < 1:
        raise ValueError("support bound s must be positive")
    if not (math.isfinite(draw_constant) and draw_constant > 0):
        raise ValueError("draw_constant must be finite and positive, got %r" % draw_constant)
    try:
        expected = draw_constant * s * math.log(s)
    except OverflowError:
        expected = math.inf
    if expected > _MAX_DRAWS:
        raise ValueError(
            "draw_constant * s * ln s exceeds the limit of %d draws" % _MAX_DRAWS
        )
    count = max(1, math.ceil(expected))
    seen = set()
    observed: List[Sample] = []
    n = None
    for _ in range(count):
        sample = draw(rng)
        if n is None:
            n = sample.state.n
        key = (sample.state.keys, sample.state.signs, sample.key, sample.sign, sample.code)
        if key not in seen:
            seen.add(key)
            observed.append(sample)
    result = search(SampleSet(n, observed))
    accepted = None
    if full_set is not None:
        accepted = bool(result.found) and check_consistent(result.circuit, full_set)
    return PacLearnResult(
        found=result.found,
        circuit=result.circuit,
        draws=count,
        distinct=len(observed),
        accepted=accepted,
    )


def _admissible_space(samples: SampleSet) -> Optional[AffineSubspace]:
    """The points u | (q.x << n) every sample admits (None if none): the
    image (-1)^(sigma + q.x) Z^u of (-1)^sigma Z^x gets label 0 or 1 iff
    w.(u | (q.x << n)) = w_n (sigma + [label 0]) for every row w of the
    state's z_constraints, one linear system for all samples."""
    if not samples.samples:
        raise ValueError("sample set must contain at least one sample")
    n = samples.n
    first = samples.samples[0]
    if first.key & ((1 << n) - 1):
        raise ValueError("measurement must be a nonidentity Z-type Pauli")
    rows: List[int] = []
    rhs = 0
    for s in samples:
        if s.key != first.key or s.sign != first.sign:
            raise ValueError("samples must share one measurement")
        if s.code == 1:
            raise ValueError("labels must be 0 or 1")
        c = first.sign ^ (1 if s.code == 0 else 0)
        for w in s.state.z_constraints():
            rhs |= (w >> n & c) << len(rows)
            rows.append(w)
    return BitMatrix(rows, n + 1).solve_affine(rhs)


def learn_single_measurement(samples: SampleSet, rng) -> CnotCircuit:
    """Proper learner for the single-measurement special case: a nonempty
    set sharing one nonidentity Z-type measurement, labels 0 or 1 (else
    ValueError).  Solves the per-sample constraints as one linear system,
    picks any admissible nonidentity image, and extends the measurement-
    to-image pair to full bases of the Z-type Paulis by random completion
    (expected O(n) draws).  The returned circuit maps basis to basis and
    is therefore consistent with every sample in the set.
    """
    space = _admissible_space(samples)
    if space is None:
        raise EmptyIntersectionError("constraints are contradictory")
    n = samples.n
    mask = (1 << n) - 1
    witness = None
    for point in space.points():
        if point & mask:
            witness = point
            break
    if witness is None:
        raise EmptyIntersectionError("only the identity image is admissible")
    u = witness & mask
    gamma = witness >> n
    basis_x = complete_to_basis([samples.samples[0].key >> n], n, rng)
    basis_u = complete_to_basis([u], n, rng)
    theta = BitMatrix(basis_u, n).transpose() @ BitMatrix(basis_x, n).transpose().inverse()
    q = BitMatrix(basis_x, n).solve(gamma)
    return CnotCircuit(theta, q)


def trivial_uniform_learner(n: int, rng) -> CliffordTableau:
    """Output a random Clifford circuit of 4 n^2 gates.

    Against a distribution where almost every label is 1/2 (a uniformly
    random signed Pauli measurement is almost never in the state's group,
    up to sign), any valid hypothesis achieves near-zero error, so a
    random gate sequence over {H, P, CNOT} suffices.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    t = CliffordTableau.identity(n)
    for _ in range(4 * n * n):
        kind = rng.randrange(3) if n >= 2 else rng.randrange(2)
        if kind == 0:
            t.apply_gate(Gate("h", qubit=rng.randrange(n)))
        elif kind == 1:
            t.apply_gate(Gate("p", qubit=rng.randrange(n)))
        else:
            a = rng.randrange(n)
            b = rng.randrange(n - 1)
            if b >= a:
                b += 1
            t.apply_gate(Gate("cnot", control=a, target=b))
    return t
