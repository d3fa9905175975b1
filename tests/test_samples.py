import re
from fractions import Fraction

import pytest

from cnotpac.pauli import z_power
from cnotpac.samples import LABELS, Sample, SampleSet
from cnotpac.stabilizer import StabilizerGroup

ZERO = StabilizerGroup.zero_state(2)
PROBE = z_power(2, 0b01)


@pytest.mark.parametrize(
    "value, code",
    [
        (0, 0),
        (LABELS[0], 0),
        (0.5, 1),
        ("1/2", 1),
        (Fraction(1, 2), 1),
        (LABELS[1], 1),
        (1, 2),
        (LABELS[2], 2),
    ],
)
def test_every_form_of_a_label_gives_the_same_sample(value, code):
    s = Sample(ZERO, PROBE, value)
    ref = Sample(ZERO, PROBE, LABELS[code])
    assert type(s.label) is Fraction and s.label == LABELS[code]
    assert s.code == ref.code == code
    assert s == ref and hash(s) == hash(ref) and repr(s) == repr(ref)


@pytest.mark.parametrize("value", [0.3, 2, Fraction(-1, 2)])
def test_a_label_outside_0_half_1_is_refused(value):
    with pytest.raises(ValueError, match=r"^label must be 0, 1/2, or 1$"):
        Sample(ZERO, PROBE, value)


@pytest.mark.parametrize("n", [0, -1, 2.0, True, "2", None])
def test_a_sample_set_needs_a_positive_int_qubit_count(n):
    with pytest.raises(ValueError, match=r"^need at least one qubit, got n = %s$" % re.escape(repr(n))):
        SampleSet(n, [])


def test_a_sample_set_refuses_samples_of_another_qubit_count():
    ss = SampleSet(2, [Sample(ZERO, PROBE, 1)])
    assert ss.n == 2 and len(ss) == 1
    with pytest.raises(ValueError, match="^sample qubit count mismatch$"):
        SampleSet(3, ss)
