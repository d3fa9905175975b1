import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from cnotpac.pauli import PauliOperator, z_power
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


def test_a_sample_holds_ints_and_derives_its_measurement_and_label():
    s = Sample(ZERO, -PROBE, Fraction(1, 2))
    assert (s.state, s.key, s.sign, s.code) == (ZERO, PROBE.key(), 1, 1)
    assert s.measurement == -PROBE and s.label == LABELS[1]
    trusted = Sample._unchecked(ZERO, PROBE.key(), 1, 1)
    assert trusted == s and hash(trusted) == hash(s) and repr(trusted) == repr(s)
    assert Sample(ZERO, PROBE, Fraction(1, 2)) != s  # the sign bit takes part
    with pytest.raises(AttributeError):
        s.key = 0


@pytest.mark.parametrize(
    "measurement, message",
    [
        (PauliOperator(2, 0, 0), "measurement must not be the identity"),
        (z_power(3, 1), "state and measurement qubit counts differ"),
    ],
)
def test_the_public_constructor_keeps_its_checks(measurement, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        Sample(ZERO, measurement, 1)


REPR_SCRIPT = """
from cnotpac.pauli import z_power
from cnotpac.samples import Sample
from cnotpac.stabilizer import StabilizerGroup
print(repr(Sample(StabilizerGroup.zero_state(2), z_power(2, 0b01), 1)))
"""


def test_two_processes_print_the_same_repr_of_one_sample():
    # a group's repr lists its signed generators, not an object address, so
    # a sample's repr is the same in every process, whatever its hash seed
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", REPR_SCRIPT], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    want = "Sample(state=StabilizerGroup(+ZI, +IZ), measurement=+ZI, label=Fraction(1, 1))\n"
    assert outs == [want, want]
    assert repr(Sample(ZERO, PROBE, 1)) + "\n" == want
