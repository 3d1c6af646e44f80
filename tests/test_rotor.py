"""Rotor geometry, fictitious fields, and the resonance guard."""

from math import isfinite, pi

import numpy as np
import pytest

from rotoshift import (CODATA2018, Coulomb, CrossedFields, Harmonic,
                       ResonanceError, RotorConfig, ValidationError,
                       crossed_field_levels, drive_field_vector,
                       fictitious_fields)


def coulomb_rotor(Omega=2 * pi * 80e6, R=5e-11):
    return RotorConfig(Omega=Omega, R=R, model=Coulomb())


def test_model_validation():
    with pytest.raises(ValidationError):
        Harmonic(omega0=0.0)
    with pytest.raises(ValidationError):
        Harmonic(omega0=-1.0)
    with pytest.raises(ValidationError):
        Coulomb(Z=0)
    Coulomb(Z=2)
    # Z alpha < 1 keeps the atomic speed below c: Z = 137 is the largest charge
    Coulomb(Z=137)
    for Z in (138, 500):
        with pytest.raises(ValidationError, match="at most 137"):
            Coulomb(Z=Z)


def test_rotor_validation():
    with pytest.raises(ValidationError):
        RotorConfig(Omega=float("nan"), R=1e-10, model=Coulomb())
    with pytest.raises(ValidationError):
        RotorConfig(Omega=1e9, R=-1e-10, model=Coulomb())


def test_velocity_is_exact_cross_product():
    r = coulomb_rotor(Omega=3.7e12, R=2e-10)
    assert np.array_equal(np.cross([0.0, 0.0, r.Omega], r.radius_vec), [r.v_c, 0.0, 0.0])
    assert r.v_c == r.Omega * r.R


def test_fictitious_fields_vanish_at_rest():
    f = fictitious_fields(coulomb_rotor(Omega=0.0))
    assert np.all(f.pseudo_E == 0.0)
    assert np.all(f.pseudo_B == 0.0)


def test_fictitious_field_magnitudes():
    # e*E = m Omega^2 R ~ 1.15e-23 N for an 80 MHz, 0.5 angstrom orbit
    c = CODATA2018
    r = coulomb_rotor()
    f = fictitious_fields(r)
    force = c.elementary_charge * float(np.linalg.norm(f.pseudo_E))
    assert force == pytest.approx(c.electron_mass * r.Omega ** 2 * r.R, rel=1e-12)
    assert force == pytest.approx(1.15e-23, rel=5e-3)
    eB = c.elementary_charge * float(np.linalg.norm(f.pseudo_B))
    assert eB == pytest.approx(2 * c.electron_mass * abs(r.Omega), rel=1e-12)


def test_fictitious_field_scaling():
    f1 = fictitious_fields(coulomb_rotor(Omega=1e9))
    f2 = fictitious_fields(coulomb_rotor(Omega=2e9))
    assert np.all(f2.pseudo_E == 4.0 * f1.pseudo_E)
    assert np.all(f2.pseudo_B == 2.0 * f1.pseudo_B)


def test_fictitious_field_directions():
    r = coulomb_rotor()
    f = fictitious_fields(r)
    # electric part along the orbit vector, magnetic part along the axis
    E = f.pseudo_E
    assert E[0] == 0.0 and E[2] == 0.0
    assert np.dot(E, r.radius_vec) > 0
    assert f.pseudo_B[0] == 0.0 and f.pseudo_B[1] == 0.0
    assert np.sign(f.pseudo_B[2]) == np.sign(r.Omega)


def test_resonance_guard():
    w0 = 1e13
    with pytest.raises(ResonanceError):
        RotorConfig(Omega=w0, R=1e-10, model=Harmonic(omega0=w0))
    with pytest.raises(ResonanceError):
        RotorConfig(Omega=w0 * (1 + 1e-8), R=1e-10, model=Harmonic(omega0=w0))
    # just outside the guard band is allowed
    RotorConfig(Omega=w0 * (1 + 1e-3), R=1e-10, model=Harmonic(omega0=w0))
    # Coulomb binding has no trap resonance
    RotorConfig(Omega=w0, R=1e-10, model=Coulomb())


def test_crossed_fields_validation():
    with pytest.raises(ValidationError):
        CrossedFields(pseudo_E=np.zeros(3), pseudo_B=np.array([1e-3, 0.0, 1.0]))
    with pytest.raises(ValidationError):
        CrossedFields(pseudo_E=np.array([1.0, 2.0]), pseudo_B=np.zeros(3))


def test_total_stark_field_sums_drive():
    bare = CrossedFields(pseudo_E=np.array([0.0, 2.0, 0.0]),
                         pseudo_B=np.array([0.0, 0.0, 1.0]))
    assert bare.total_stark_magnitude() == pytest.approx(2.0)


@pytest.mark.filterwarnings("ignore::rotoshift.PerturbativeRegimeWarning")
@pytest.mark.parametrize("size", [1e200, 1e-200], ids=["square-overflows", "square-underflows"])
def test_total_stark_magnitude_exact_where_its_square_is_not(size):
    f = CrossedFields(pseudo_E=np.array([size, 0.0, 0.0]), pseudo_B=np.zeros(3))
    assert f.total_stark_magnitude() == size
    assert all(isfinite(crossed_field_levels(3, m_z, f)) for m_z in range(-2, 3))


def test_drive_field_orientation():
    r = coulomb_rotor()
    rhat = r.radius_vec / r.R
    along = drive_field_vector(r, 100.0)
    against = drive_field_vector(r, 100.0, antiparallel=True)
    assert np.allclose(along, 100.0 * rhat)
    assert np.allclose(against, -100.0 * rhat)
    with pytest.raises(ValidationError):
        drive_field_vector(r, -1.0)
    with pytest.raises(ValidationError):
        drive_field_vector(coulomb_rotor(R=0.0), 1.0)


def test_drive_cancels_pseudo_field():
    c = CODATA2018
    r = coulomb_rotor()
    star = c.electron_mass * r.Omega ** 2 * r.R / c.elementary_charge
    # a genuine drive is added to the pseudo-field
    f = CrossedFields(pseudo_E=fictitious_fields(r).pseudo_E
                      + drive_field_vector(r, star, antiparallel=True),
                      pseudo_B=fictitious_fields(r).pseudo_B)
    residual = f.total_stark_magnitude()
    assert residual <= 1e-12 * star
