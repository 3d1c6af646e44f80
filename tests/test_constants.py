"""Constants table self-consistency and the atomic scales built from it."""

import inspect
from math import pi

import pytest

import rotoshift
from rotoshift import (CODATA2018, PhysicalConstants, ValidationError,
                       atomic_velocity)


def test_fine_structure_identity():
    c = CODATA2018
    derived = c.elementary_charge ** 2 / (4 * pi * c.epsilon0 * c.hbar * c.light_speed)
    assert abs(derived - c.fine_structure) <= 1e-9 * c.fine_structure


def test_bohr_radius_identity():
    c = CODATA2018
    derived = (4 * pi * c.epsilon0 * c.hbar ** 2
               / (c.electron_mass * c.elementary_charge ** 2))
    assert abs(derived - c.bohr_radius) <= 1e-9 * c.bohr_radius


def test_inconsistent_table_rejected():
    with pytest.raises(ValidationError):
        PhysicalConstants(fine_structure=7.3e-3)


def test_atomic_velocity_hydrogen():
    v = atomic_velocity(1)
    c = CODATA2018
    # alpha * c, about 2.19e6 m/s
    assert v == pytest.approx(c.fine_structure * c.light_speed, rel=1e-9)
    assert v == pytest.approx(2.19e6, rel=5e-3)


def test_atomic_velocity_scales_linearly():
    assert atomic_velocity(2) == 2 * atomic_velocity(1)


@pytest.mark.parametrize("bad", [0, -1, 1.5, True])
def test_atomic_velocity_rejects_bad_charge(bad):
    with pytest.raises(ValidationError):
        atomic_velocity(bad)


def test_atomic_scales_are_consistent():
    c = CODATA2018
    # hartree equals alpha^2 m c^2
    assert c.hartree == pytest.approx(
        c.fine_structure ** 2 * c.electron_mass * c.light_speed ** 2, rel=1e-12)


def test_no_public_callable_takes_a_constants_table():
    # every formula reads the one compiled-in CODATA2018 table
    takers = [name for name in rotoshift.__all__
              if callable(obj := getattr(rotoshift, name))
              and not (isinstance(obj, type) and issubclass(obj, Exception))
              and "constants" in inspect.signature(obj).parameters]
    assert takers == []
