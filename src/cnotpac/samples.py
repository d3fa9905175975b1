"""Labeled measurement samples: a state, a measurement key and sign bit, a label code."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .pauli import PauliOperator, _operators
from .stabilizer import LABELS, StabilizerGroup

# label code by the label's (numerator, denominator): cheaper than hashing
# or comparing Fractions, and Sample builds one code per sample
_CODES = {v.as_integer_ratio(): code for code, v in enumerate(LABELS)}


@dataclass(frozen=True, init=False, repr=False, slots=True)
class Sample:
    """One training example: the expectation of (I+P)/2 against a state.

    key is P's key x | z << n, sign its sign bit and code the label's index
    into LABELS (0 -> 0, 1 -> 1/2, 2 -> 1): the ints every internal path
    reads.  measurement and label are derived on each access.
    """

    state: StabilizerGroup
    key: int
    sign: int
    code: int

    def __init__(self, state: StabilizerGroup, measurement: PauliOperator, label):
        code = _CODES.get(Fraction(label).as_integer_ratio())
        if code is None:
            raise ValueError("label must be 0, 1/2, or 1")
        if measurement.is_identity():
            raise ValueError("measurement must not be the identity")
        if measurement.n != state.n:
            raise ValueError("state and measurement qubit counts differ")
        self._set(state, measurement.key(), measurement.sign_bit, code)

    @classmethod
    def _unchecked(cls, state: StabilizerGroup, key: int, sign: int, code: int) -> "Sample":
        """The sample of checked parts, taken as they are: no checks."""
        return cls.__new__(cls)._set(state, key, sign, code)

    def _set(self, state: StabilizerGroup, key: int, sign: int, code: int) -> "Sample":
        put = object.__setattr__
        put(self, "state", state)
        put(self, "key", key)
        put(self, "sign", sign)
        put(self, "code", code)
        return self

    @property
    def measurement(self) -> PauliOperator:
        """The signed measurement, built from key and sign on each access."""
        return _operators(self.state.n, (self.key,), self.sign)[0]

    @property
    def label(self) -> Fraction:
        return LABELS[self.code]

    @property
    def phase(self) -> int:
        """e in the measurement's raw form (e, key): 2 sign + |x & z| mod 4."""
        return (2 * self.sign + (self.key & self.key >> self.state.n).bit_count()) % 4

    def __repr__(self) -> str:
        fields = (self.state, self.measurement, self.label)
        return "Sample(state=%r, measurement=%r, label=%r)" % fields


class SampleSet:
    """An ordered collection of samples on a fixed qubit count."""

    __slots__ = ("n", "samples")

    def __init__(self, n: int, samples: Iterable[Sample] = ()):
        if type(n) is not int or n < 1:
            raise ValueError("need at least one qubit, got n = %r" % (n,))
        samples = list(samples)
        for s in samples:
            if s.state.n != n:
                raise ValueError("sample qubit count mismatch")
        self.n = n
        self.samples = samples

    def extended(self, extra: Iterable[Sample]) -> "SampleSet":
        return SampleSet(self.n, self.samples + list(extra))

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, i):
        return self.samples[i]

    def __repr__(self) -> str:
        return "SampleSet(n=%d, %d samples)" % (self.n, len(self.samples))
