from fractions import Fraction

import pytest

from cnotpac.pauli import z_power
from cnotpac.samples import LABELS, Sample
from cnotpac.stabilizer import StabilizerState

ZERO = StabilizerState.zero_state(2)
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
