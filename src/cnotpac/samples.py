"""Labeled measurement samples: (stabilizer state, signed Pauli, expectation)."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List

from .pauli import PauliOperator
from .stabilizer import LABELS, StabilizerGroup

# label code by the label's (numerator, denominator): cheaper than hashing
# or comparing Fractions, and Sample builds one code per sample
_CODES = {(v.numerator, v.denominator): code for code, v in enumerate(LABELS)}


@dataclass(frozen=True)
class Sample:
    """One training example: the expectation of (I+P)/2 against a state.

    label is the Fraction seen at the API and JSON boundary; code is its
    index into LABELS (0 -> 0, 1 -> 1/2, 2 -> 1), which every internal
    comparison uses.  code is derived, so it takes no part in equality,
    hashing or repr.
    """

    state: StabilizerGroup
    measurement: PauliOperator
    label: Fraction
    code: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        label = self.label
        if type(label) is not Fraction:
            label = Fraction(label)
            object.__setattr__(self, "label", label)
        code = _CODES.get((label.numerator, label.denominator))
        if code is None:
            raise ValueError("label must be 0, 1/2, or 1")
        object.__setattr__(self, "code", code)
        if self.measurement.is_identity():
            raise ValueError("measurement must not be the identity")
        if self.measurement.n != self.state.n:
            raise ValueError("state and measurement qubit counts differ")


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
