"""One real-number rule: every real argument passes ``qstate.validate_real``.

The sites are the family angles, in ``FamilySpec`` and in the batch
builder ``family_amplitudes``, ``EntanglementMetric.measure`` and the
ends of a sweep grid.  Each takes a ``numbers.Real``, not a bool, that is
finite, and refuses anything else with a ValueError that names the
argument and quotes the value by ``reprlib.repr``, so a huge value cannot
flood the message.  A valid value is stored as a Python float, so the
records built from it serialise to JSON.
"""
from __future__ import annotations

import reprlib
from fractions import Fraction

import numpy as np
import pytest

from entdist import EntanglementMetric, FamilySpec
from entdist.cli import SweepSpec
from entdist.families import family_amplitudes

_Z = [0.0, 0.0, 1.0]

# (site, call with the value, argument name in the message)
_SITES = [
    ("phi", lambda v: FamilySpec("brs", m=3, phi=v), "angle 'phi'"),
    ("theta", lambda v: FamilySpec("ghzl", m=3, theta=v), "angle 'theta'"),
    ("phase", lambda v: FamilySpec("ghzl", m=3, phase=v), "angle 'phase'"),
    ("gamma", lambda v: FamilySpec("threeq", gamma=v), "angle 'gamma'"),
    ("tau", lambda v: FamilySpec("threeq", tau=v), "angle 'tau'"),
    # "0.5", True and a 0-d array once passed as angles here, and 10**400 raised an OverflowError
    ("family_amplitudes", lambda v: family_amplitudes(FamilySpec("brs", m=3), "phi", [0.1, v]),
     "angle 'phi'"),
    ("measure", lambda v: EntanglementMetric(1, np.zeros((1, 1)), [_Z], v), "measure"),
]
# a sweep grid's ends: a float infinity or NaN goes to the span check instead
_GRID_SITES = [
    ("start", lambda v: SweepSpec(FamilySpec("brs", m=3), "phi", v, 1.0, 3), "angle 'phi' start"),
    ("stop", lambda v: SweepSpec(FamilySpec("brs", m=3), "phi", 0.0, v, 3), "angle 'phi' stop"),
]
_NOT_REAL = {
    "bool": True, "numpy-bool": np.bool_(False), "0-d-array": np.array(0.5), "str": "0.5",
    "str-exp": "1e-8", "None": None, "complex": 1j, "nan": np.nan, "inf": np.inf, "-inf": -np.inf,
    "huge-int": 10**400,
}


@pytest.mark.parametrize(
    "call, name, value",
    [
        pytest.param(call, name, value, id=f"{site}-{label}")
        for site, call, name in _SITES
        for label, value in _NOT_REAL.items()
    ],
)
def test_sites_refuse_what_is_not_a_finite_real(call, name, value):
    """A bool, a 0-d array, a string, None, a complex, a non-finite or a huge int raises a ValueError naming it."""
    with pytest.raises(ValueError) as err:
        call(value)
    message = str(err.value)
    assert message.startswith(f"{name} must be a finite real number")
    assert message.endswith(f", got {reprlib.repr(value)}")
    if len(repr(value)) <= 30:  # an ordinary value is quoted whole
        assert message.endswith(f", got {value!r}")


@pytest.mark.parametrize(
    "call, name, value",
    [
        pytest.param(call, name, value, id=f"{site}-{label}")
        for site, call, name in _SITES + _GRID_SITES
        for label, value in {"huge-int": 10**400, "long-str": "9" * 1000}.items()
    ],
)
def test_a_huge_value_is_quoted_in_short(call, name, value):
    """10**400 once made a 447-character message; the quote keeps both ends of the value."""
    with pytest.raises(ValueError) as err:
        call(value)
    message = str(err.value)
    assert message.startswith(f"{name} must be a finite real number")
    assert len(message) <= len(name) + 80  # the wording and a 40-character quote
    assert "..." in message


@pytest.mark.parametrize(
    "value",
    [0, np.int64(1), np.float32(0.5), np.float64(0.25), Fraction(1, 4), 10**300],
    ids=["int", "int64", "float32", "float64", "fraction", "big-int"],
)
def test_valid_reals_are_stored_as_python_floats(value):
    """np.float32 and a 0-d array once reached a record and failed json.dumps."""
    spec = FamilySpec("brs", m=3, phi=value)
    assert type(spec.phi) is float
    assert spec.phi == float(value)
    em = EntanglementMetric(1, np.zeros((1, 1)), [_Z], 0 * value)
    assert type(em.measure) is float
