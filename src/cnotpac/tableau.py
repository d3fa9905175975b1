"""Clifford circuits as tableaus of conjugated generator images.

For a circuit C the tableau stores the inverse images C† G_r C in key
order, as image keys and a sign mask like a stabilizer group's
generators: image r is that of the generator whose symplectic key is
1 << r, so X_0 .. X_{n-1} come first, then Z_0 .. Z_{n-1}, and
conjugation folds the stored keys and signs as they are (pauli._fold).
Pauli objects are built only for the public cols and conjugate_inverse.
Only s_matrix, phase_bits and _image_keys (from_s_matrix, is_symplectic)
convert to and from the external interleaved layout (X_0, Z_0, X_1, Z_1,
...) of the symplectic matrix and the JSON block.
Storing inverse images makes sample evaluation a single substitution:
tr[(I + P)/2 C rho C†] = tr[(I + C†PC)/2 rho], so a hypothesis circuit
is scored against a sample without ever inverting anything.  Scoring
stays in raw form (sample_codes): the sample's measurement key folded
over the images gives a raw form (e, key), which is looked up in the
state's group with no Pauli object made.  A set is scored by distinct
(state key tuple, measurement): the states of a reduction pin share one
key tuple and differ in signs, so each distinct probe is folded and
looked up once, and each sample costs one parity of its sign mask.  The
memo keys on the tuple's identity: a tuple's hash is not cached, and
hashing n ints per sample costs most of what the fold saves.  Forward
conjugation C P C† goes through inverse_tableau, whose images are read
off one echelon table of the stored image keys (gf2._inverse_rows) on
every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .gf2 import BitMatrix, _inverse_rows, _transpose
from .pauli import PauliOperator, _anticommutation_rows, _fold, _operators, _raw_sign_bit
from .stabilizer import LABELS, StabilizerGroup

_SINGLE_QUBIT_GATES = ("x", "z", "h", "p")


@dataclass(frozen=True)
class Gate:
    """One gate of a circuit: x/z/h/p on a qubit, or cnot control->target."""

    name: str
    qubit: Optional[int] = None
    control: Optional[int] = None
    target: Optional[int] = None

    def __post_init__(self):
        if self.name in _SINGLE_QUBIT_GATES:
            if self.qubit is None or self.qubit < 0:
                raise ValueError("%s gate needs a qubit" % self.name)
            if self.control is not None or self.target is not None:
                raise ValueError("%s gate takes no control/target" % self.name)
        elif self.name == "cnot":
            if self.control is None or self.target is None:
                raise ValueError("cnot needs control and target")
            if self.control == self.target:
                raise ValueError("cnot control equals target")
            if self.control < 0 or self.target < 0:
                raise ValueError("negative qubit index")
            if self.qubit is not None:
                raise ValueError("cnot takes no single qubit")
        else:
            raise ValueError("unknown gate %r" % self.name)

    def max_qubit(self) -> int:
        if self.name == "cnot":
            return max(self.control, self.target)
        return self.qubit


class CliffordTableau:
    """Mutable tableau of the 2n inverse generator images, in key order:
    keys[r] is image r's key x | z << n, and bit r of signs is set when
    image r is negated."""

    __slots__ = ("n", "keys", "signs")

    def __init__(self, cols: Iterable[PauliOperator]):
        cols = list(cols)
        if not cols or len(cols) % 2:
            raise ValueError("need 2n generator images")
        n = cols[0].n
        if len(cols) != 2 * n:
            raise ValueError("expected %d images, got %d" % (2 * n, len(cols)))
        for c in cols:
            if c.n != n:
                raise ValueError("image qubit count mismatch")
        self.n = n
        self.keys = [c.key() for c in cols]
        self.signs = sum(c.sign_bit << r for r, c in enumerate(cols))

    @classmethod
    def _unchecked(cls, n: int, keys: list, signs: int) -> "CliffordTableau":
        """Tableau that takes keys, a fresh list of 2n image keys on n
        qubits built by the caller, and signs as they are: no checks."""
        t = cls.__new__(cls)
        t.n = n
        t.keys = keys
        t.signs = signs
        return t

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        if n < 1:
            raise ValueError("need 2n generator images")
        return cls._unchecked(n, [1 << r for r in range(2 * n)], 0)

    @classmethod
    def from_s_matrix(cls, s: BitMatrix, phases: int = 0) -> "CliffordTableau":
        """Inverse of s_matrix()/phase_bits(): the image of the generator
        in interleaved column c is column c of s, negated when bit c of
        phases is set."""
        n = s.n_rows // 2
        if n < 1 or s.n_rows != 2 * n or s.n_cols != 2 * n:
            raise ValueError("symplectic part must be 2n x 2n")
        if phases < 0 or phases >> 2 * n:
            raise ValueError("phase mask outside %d generator images" % (2 * n))
        signs = sum(
            (phases >> 2 * j & 1) << j | (phases >> 2 * j + 1 & 1) << (n + j) for j in range(n)
        )
        return cls._unchecked(n, _image_keys(s, n), signs)

    @property
    def cols(self) -> tuple:
        """The signed images, built from keys and signs on each access."""
        return _operators(self.n, self.keys, self.signs)

    def s_matrix(self) -> BitMatrix:
        """The 2n x 2n symplectic part: column c holds the image of the
        interleaved generator c, and rows interleave x_i/z_i of each image."""
        n, keys = self.n, self.keys
        # columns X_0, Z_0, X_1, Z_1, ...; row b of the transpose is bit b
        # of every key, x_b for b < n and z_{b - n} after
        rows = _transpose([k for pair in zip(keys[:n], keys[n:]) for k in pair], 2 * n)
        return BitMatrix([r for pair in zip(rows[:n], rows[n:]) for r in pair], 2 * n)

    def phase_bits(self) -> int:
        """Sign bits of the images, bit c for interleaved generator c."""
        n, signs = self.n, self.signs
        return sum((signs >> j & 1) << 2 * j | (signs >> n + j & 1) << 2 * j + 1 for j in range(n))

    def conjugate_inverse(self, p: PauliOperator) -> PauliOperator:
        """C† P C, by expanding P over the stored generator images; raises
        unless it is Hermitian (the tableau is invalid)."""
        if p.n != self.n:
            raise ValueError("qubit count mismatch")
        e, key = p.raw()
        return PauliOperator.from_raw(p.n, *_fold(p.n, self.keys, self.signs, key, e))

    def apply_gate(self, g: Gate) -> None:
        """Append gate g to the circuit (it acts after everything so far)."""
        if g.max_qubit() >= self.n:
            raise ValueError("gate acts outside %d qubits" % self.n)
        n, keys, signs = self.n, self.keys, self.signs
        a = g.qubit
        images = []
        if g.name == "x":
            signs ^= 1 << (n + a)
        elif g.name == "z":
            signs ^= 1 << a
        elif g.name == "h":
            keys[a], keys[n + a] = keys[n + a], keys[a]
            if (signs >> a ^ signs >> (n + a)) & 1:
                signs ^= 1 << a | 1 << (n + a)
        elif g.name == "p":
            # C†(-Y_a)C: -Y_a = i^3 X_a Z_a, folded over the two images it touches
            images = [(a, _fold(n, keys, signs, 1 << a | 1 << (n + a), 3))]
        else:  # cnot
            # C†(X_a X_b)C and C†(Z_a Z_b)C, each factor pair in key order
            a, b = g.control, g.target
            pair = 1 << a | 1 << b
            images = [(a, _fold(n, keys, signs, pair)), (n + b, _fold(n, keys, signs, pair << n))]
        # every image is checked Hermitian before any is stored
        for r, key, bit in [(r, key, _raw_sign_bit(n, e, key)) for r, (e, key) in images]:
            keys[r] = key
            signs = signs & ~(1 << r) | bit << r
        self.signs = signs

    def inverse_tableau(self) -> "CliffordTableau":
        """Tableau of C^{-1}; its inverse images are the forward images of C.

        The key of forward image r names the stored images whose keys sum
        to 1 << r: the payload left by reducing 1 << r through one table
        of the stored keys.  Its sign is read off conjugating it back.
        Raises unless image r anticommutes with image r + n (mod 2n) alone,
        as X_j does with Z_j.
        """
        n, keys = self.n, self.keys
        inverse = _inverse_rows(keys, 2 * n)
        signs = 0
        for r, key in enumerate(inverse):
            e = (key >> n & key).bit_count()
            signs |= _raw_sign_bit(n, *_fold(n, keys, self.signs, key, e)) << r
        if not _is_symplectic_basis(keys, n):
            raise ValueError("tableau is not a valid Clifford image")
        return CliffordTableau._unchecked(n, inverse, signs)

    def to_tableau(self) -> "CliffordTableau":
        return self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CliffordTableau)
            and self.n == other.n
            and self.keys == other.keys
            and self.signs == other.signs
        )

    def __hash__(self):
        return hash((self.n, tuple(self.keys), self.signs))

    def __repr__(self) -> str:
        return "CliffordTableau(n=%d, cols=%r)" % (self.n, list(self.cols))


def apply_circuit_to_state(t: CliffordTableau, state: StabilizerGroup) -> StabilizerGroup:
    """The state C rho C†, by conjugating every generator forward."""
    inv = t.inverse_tableau()
    return StabilizerGroup(inv.conjugate_inverse(g) for g in state.generators)


def sample_codes(t: CliffordTableau, samples) -> Iterator[int]:
    """Label codes (indices into LABELS) that the tableau t assigns to the
    samples, yielded lazily and in order: rho's expectation of t†Pt.

    Each distinct (state key tuple, measurement key, sign bit) is folded
    over the images and looked up in the group once.  A sample's code is
    then one parity: the member's phase is e0 + 2 |signs & mask| mod 4,
    e0 the unsigned generators' fold, which is _fold's own sign rule.
    The memo keys on the key tuple's id and holds the tuple, so no id is
    reused while the walk lasts, even if the caller drops its samples.

    Raises ValueError at the first sample that conjugating and measuring
    through Pauli objects would raise on: a qubit-count mismatch, a
    non-Hermitian image of P (t is not a valid Clifford tableau) and an
    identity image of P.
    """
    n, keys, signs = t.n, t.keys, t.signs
    memo: dict = {}
    for sample in samples:
        state = sample.state
        probe = (id(state.keys), sample.key, sample.sign)
        entry = memo.get(probe)
        if entry is None:
            if state.n != n:
                raise ValueError("qubit count mismatch")
            e, key = _fold(n, keys, signs, sample.key, sample.phase)
            _raw_sign_bit(n, e, key)
            if not key:
                raise ValueError("identity is not a useful measurement")
            mask = state.member_mask(key)
            # parity 1: the unsigned member's phase is e + 2, not e
            parity = None if mask is None else (_fold(n, state.keys, 0, mask)[0] - e) % 4 // 2
            entry = memo[probe] = (mask, parity, state.keys)
        mask, parity, _ = entry
        if mask is None:
            yield 1
        else:
            yield 0 if parity ^ (state.signs & mask).bit_count() & 1 else 2


def sample_code(t: CliffordTableau, sample) -> int:
    """Label code that the tableau t assigns to one sample: sample_codes
    on that sample alone, with its checks."""
    return next(sample_codes(t, (sample,)))


def evaluate_sample(h, sample) -> Fraction:
    """Expectation the hypothesis circuit h assigns to one labeled sample.

    h may be a CliffordTableau or anything with to_tableau().  The value
    is tr[(I + P)/2 h rho h†] computed as rho's expectation of h†Ph.
    """
    return LABELS[sample_code(h.to_tableau(), sample)]


def lambda_matrix(n: int) -> BitMatrix:
    """The symplectic form: interleaved 2x2 off-diagonal blocks."""
    rows = []
    for i in range(n):
        rows.append(1 << (2 * i + 1))
        rows.append(1 << (2 * i))
    return BitMatrix(rows, 2 * n)


def _image_keys(s: BitMatrix, n: int) -> list:
    """The image keys, in key order, that the columns of the 2n x 2n
    symplectic part s hold in the interleaved layout."""
    xs = _transpose(s.rows[0::2], 2 * n)
    zs = _transpose(s.rows[1::2], 2 * n)
    keys = [x | z << n for x, z in zip(xs, zs)]
    return keys[0::2] + keys[1::2]


def _is_symplectic_basis(keys, n: int) -> bool:
    """Whether image r anticommutes with image r + n (mod 2n) alone, as
    X_j does with Z_j: the 2n keys are the images of a Clifford."""
    width = 2 * n
    return _anticommutation_rows(keys, n) == [1 << (r + n) % width for r in range(width)]


def is_symplectic(s: BitMatrix, n: int) -> bool:
    """Whether S^T Lambda S = Lambda over F_2: entry (i, j) of S^T Lambda S
    is 1 iff the images in columns i and j anticommute, so this is the
    check inverse_tableau makes, on s's image keys."""
    if s.n_rows != 2 * n or s.n_cols != 2 * n:
        return False
    return _is_symplectic_basis(_image_keys(s, n), n)
