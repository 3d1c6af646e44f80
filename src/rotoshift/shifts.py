"""Observable photon frequency shifts of rotating emitters.

The emitted frequency follows from quasi-energy bookkeeping: the photon
carries away the quasi-energy difference of the two levels plus Omega times
its angular-momentum projection M.  The shift relative to the emitter at
rest splits into a kinematic part, Omega (M - Delta m_z), which vanishes
when emission conserves angular momentum, and a dynamic part from the field
dressing of the levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi, sqrt
from typing import Optional, Tuple

import numpy as np

from .constants import CODATA2018, PhysicalConstants, atomic_velocity
from .errors import (OutOfRegimeError, UnphysicalTransitionError,
                     ValidationError)
from .quasienergy import (SpectrumResult, driven_splitting_parameter,
                          splitting_expansion_parameter)
from .rotor import Coulomb, Harmonic, RotorConfig

#: Expansion coefficient of the leading dynamic shift, from the Taylor
#: expansion of sqrt(1 + x^2) about x = 0 in this library's exact formula.
SERIES_COEFFICIENT = 9.0 / 8.0

#: Alternative coefficient in circulation for the same expansion; it is
#: 4 pi^2 times larger, consistent with quoting the orbital velocity in
#: revolutions rather than radians.  Reports carry both so the discrepancy
#: stays visible.
ALT_SERIES_COEFFICIENT = 9.0 * pi ** 2 / 2.0

#: Nonrelativistic guard: reject Doppler evaluation above this v/c.
MAX_DOPPLER_BETA = 0.01

#: Validity ceiling for the series expansion parameter x = 3nROmega/2v_a.
MAX_SERIES_PARAMETER = 0.3


@dataclass(frozen=True)
class FieldModeLabel:
    """Cylindrical field-mode quantum numbers (omega, M, k_z, helicity)."""

    omega: float
    M: int
    k_z: float
    chi: int

    def __post_init__(self):
        if not self.omega > 0:
            raise ValidationError("mode frequency must be positive")
        if self.chi not in (-1, 1):
            raise ValidationError("helicity must be +1 or -1")
        if abs(self.k_z) > self.omega / CODATA2018.light_speed * (1 + 1e-12):
            raise ValidationError("axial wavenumber exceeds omega/c")


@dataclass(frozen=True)
class Transition:
    """Upper and lower level labels (q, m_z) plus the photon projection M.

    M=None means angular-momentum conservation fixes M = m_z - m_z'.
    """

    upper: Tuple[int, int]
    lower: Tuple[int, int]
    M: Optional[int] = None

    def __post_init__(self):
        for name in ("upper", "lower"):
            pair = tuple(getattr(self, name))
            if len(pair) != 2 or not all(isinstance(v, int) and not isinstance(v, bool)
                                         for v in pair):
                raise ValidationError(f"{name} must be a pair of integers (q, m_z)")
            object.__setattr__(self, name, pair)
        if self.M is not None and (not isinstance(self.M, int) or isinstance(self.M, bool)):
            raise ValidationError("photon projection M must be an integer or None")

    def effective_M(self) -> int:
        if self.M is not None:
            return self.M
        return self.upper[1] - self.lower[1]


@dataclass(frozen=True)
class ShiftReport:
    """Full account of one transition's rotational frequency shift (rad/s)."""

    transition: Transition
    omega_rest: float
    omega_rotating: float
    drfs: float
    kinematic_part: float
    dynamic_part: float
    ratios: dict = field(default_factory=dict)


def doppler_frequency(deltaE: float, v, k,
                      constants: PhysicalConstants = CODATA2018) -> float:
    """Frequency of a photon emitted by a uniformly moving source, rad/s.

    omega = deltaE/hbar + v . k, the nonrelativistic first-order Doppler
    formula; motion perpendicular to k leaves the frequency untouched.
    Speeds above c/100 are rejected since the quadratic terms dropped here
    become visible.
    """
    if not deltaE > 0:
        raise ValidationError("transition energy must be positive")
    v = np.asarray(v, dtype=float)
    k = np.asarray(k, dtype=float)
    if v.shape != (3,) or k.shape != (3,):
        raise ValidationError("velocity and wavevector must be 3-vectors")
    speed = float(np.linalg.norm(v))
    if speed > MAX_DOPPLER_BETA * constants.light_speed:
        raise OutOfRegimeError("source speed beyond the nonrelativistic window")
    return deltaE / constants.hbar + float(v @ k)


def self_consistent_doppler(deltaE: float, v, k_direction,
                            constants: PhysicalConstants = CODATA2018) -> float:
    """Doppler frequency with |k| = omega/c enforced self-consistently.

    Solves omega = deltaE/hbar + (v . k_hat) omega/c in closed form,
    omega = (deltaE/hbar) / (1 - v . k_hat / c); the speed guard of
    doppler_frequency keeps the denominator within 1% of one.
    """
    k_hat = np.asarray(k_direction, dtype=float)
    norm = float(np.linalg.norm(k_hat))
    if norm == 0:
        raise ValidationError("propagation direction must be nonzero")
    k_hat = k_hat / norm
    rest = doppler_frequency(deltaE, v, np.zeros(3), constants)
    return rest / (1.0 - float(np.dot(v, k_hat)) / constants.light_speed)


def rotational_kinematic_shift(Omega: float, M: int) -> float:
    """Frequency offset Omega*M a photon of projection M picks up, rad/s."""
    return Omega * M


def emitted_frequency(levels: SpectrumResult, t: Transition, Omega: float,
                      constants: PhysicalConstants = CODATA2018) -> float:
    """Photon frequency from quasi-energy conservation, rad/s.

    omega = (quasi-energy difference)/hbar + Omega*M.  Both transition
    labels must be present in the supplied spectrum; the result must come
    out positive to describe emission.
    """
    upper = levels.quasi_energy(t.upper)
    lower = levels.quasi_energy(t.lower)
    omega = (upper - lower) / constants.hbar + Omega * t.effective_M()
    if not omega > 0:
        raise UnphysicalTransitionError("computed emission frequency is not positive")
    return omega


# ---------------------------------------------------------------------------
# rotational shift of the hydrogen emitter
# ---------------------------------------------------------------------------


def _rest_frequency_coulomb(t: Transition, Z: int,
                            constants: PhysicalConstants) -> float:
    n, n_prime = t.upper[0], t.lower[0]
    v_a = atomic_velocity(Z, constants)
    m = constants.electron_mass
    return (m * v_a ** 2 / (2.0 * constants.hbar)) * (1.0 / n_prime ** 2 - 1.0 / n ** 2)


def _check_transition_labels(t: Transition):
    for (q, m_z), name in ((t.upper, "upper"), (t.lower, "lower")):
        if q < 1 or abs(m_z) > q - 1:
            raise ValidationError(f"{name} level needs q >= 1 and |m_z| <= q-1")


def _turntable_report(t: Transition, rotor: RotorConfig,
                      constants: PhysicalConstants, splitting) -> ShiftReport:
    # shared body of the undriven and driven report; splitting(q) gives x
    if not isinstance(rotor.model, Coulomb):
        raise ValidationError("rotor model must be Coulomb")
    _check_transition_labels(t)
    (n, m_z), (n_prime, m_zp) = t.upper, t.lower
    Omega = rotor.Omega
    x_u = splitting(n)
    x_l = splitting(n_prime)
    # sqrt(1+x^2) - 1 evaluated stably for small x
    excess_u = x_u * x_u / (sqrt(1.0 + x_u * x_u) + 1.0)
    excess_l = x_l * x_l / (sqrt(1.0 + x_l * x_l) + 1.0)
    dynamic = -Omega * m_z * excess_u + Omega * m_zp * excess_l
    kinematic = Omega * (t.effective_M() - (m_z - m_zp))
    drfs = kinematic + dynamic
    omega_rest = _rest_frequency_coulomb(t, rotor.model.Z, constants)
    return ShiftReport(transition=t, omega_rest=omega_rest,
                       omega_rotating=omega_rest + drfs, drfs=drfs,
                       kinematic_part=kinematic, dynamic_part=dynamic,
                       ratios={})


def drfs_exact(t: Transition, rotor: RotorConfig,
               constants: PhysicalConstants = CODATA2018) -> ShiftReport:
    """Rotational frequency shift of a hydrogen transition, exact form.

    Computed strictly as the quasi-energy difference of the two rotating
    levels plus Omega*M, so the lower level's root term enters with a plus
    sign.  The report decomposes the shift into the kinematic part
    Omega (M - Delta m_z) and the dynamic square-root excess.
    """
    report = _turntable_report(
        t, rotor, constants, lambda q: splitting_expansion_parameter(q, rotor, constants))
    if report.omega_rest > 0 and t.effective_M() == t.upper[1] - t.lower[1]:
        report.ratios["transverse_doppler"] = transverse_doppler_ratio(
            t, rotor.Omega, report.omega_rest, constants, Z=rotor.model.Z)
    return report


def driven_shift_report(t: Transition, rotor: RotorConfig, drive_E,
                        constants: PhysicalConstants = CODATA2018) -> ShiftReport:
    """Rotational frequency shift with a genuine drive field included.

    Same quasi-energy bookkeeping as drfs_exact, with the drive folded
    into each level's splitting parameter.  The series expansion and the
    transverse Doppler ratio are not defined in this regime, so the ratio
    map stays empty.
    """
    return _turntable_report(
        t, rotor, constants, lambda q: driven_splitting_parameter(q, rotor, drive_E, constants))


def harmonic_shift_report(t: Transition, rotor: RotorConfig,
                          constants: PhysicalConstants = CODATA2018) -> ShiftReport:
    """Rotational frequency shift of a harmonic-trap transition.

    The rotating-trap levels depend on Omega only through -Omega m_z and a
    level-independent depression, so the dynamic part is identically zero:
    with M = Delta m_z the emitted line is exactly the rest line, whatever
    the rotation rate.
    """
    if not isinstance(rotor.model, Harmonic):
        raise ValidationError("rotor model must be Harmonic")
    (N, m_z), (N_prime, m_zp) = t.upper, t.lower
    if N < 0 or N_prime < 0 or abs(m_z) > N or abs(m_zp) > N_prime:
        raise ValidationError("harmonic levels need N >= 0 and |m_z| <= N")
    omega_rest = rotor.model.omega0 * (N - N_prime)
    kinematic = rotor.Omega * (t.effective_M() - (m_z - m_zp))
    drfs = kinematic + 0.0
    ratios = {}
    if omega_rest > 0 and rotor.v_c != 0:
        scale = omega_rest * rotor.v_c ** 2 / (2.0 * constants.light_speed ** 2)
        ratios["transverse_doppler"] = drfs / scale
    return ShiftReport(transition=t, omega_rest=omega_rest,
                       omega_rotating=omega_rest + drfs, drfs=drfs,
                       kinematic_part=kinematic, dynamic_part=0.0,
                       ratios=ratios)


def drfs_series(t: Transition, rotor: RotorConfig,
                constants: PhysicalConstants = CODATA2018,
                coefficient: float = SERIES_COEFFICIENT) -> float:
    """Leading-order rotational shift, rad/s.

    Expands the exact shift to second order in x = 3nROmega/2v_a, giving
    coefficient * (n'^2 m_z' - n^2 m_z) * Omega * (v_c/v_a)^2 on top of the
    kinematic part.  Both levels must sit inside the expansion window
    x < 0.3.  Pass coefficient=ALT_SERIES_COEFFICIENT for the
    revolutions-convention prefactor.
    """
    if not isinstance(rotor.model, Coulomb):
        raise ValidationError("rotor model must be Coulomb")
    _check_transition_labels(t)
    (n, m_z), (n_prime, m_zp) = t.upper, t.lower
    for q in (n, n_prime):
        x = splitting_expansion_parameter(q, rotor, constants)
        if x >= MAX_SERIES_PARAMETER:
            raise OutOfRegimeError(
                f"expansion parameter {x:.3g} for shell {q} is outside the "
                f"series window (< {MAX_SERIES_PARAMETER})")
    v_a = atomic_velocity(rotor.model.Z, constants)
    kinematic = rotor.Omega * (t.effective_M() - (m_z - m_zp))
    dynamic = (coefficient * (n_prime ** 2 * m_zp - n ** 2 * m_z)
               * rotor.Omega * (rotor.v_c / v_a) ** 2)
    return kinematic + dynamic


def transverse_doppler_ratio(t: Transition, Omega: float, omega_rest: float,
                             constants: PhysicalConstants = CODATA2018,
                             Z: int = 1) -> float:
    """Series shift divided by the transverse Doppler scale omega v_c^2/2c^2.

    The orbital velocity cancels, leaving
    (9/4) (n'^2 m_z' - n^2 m_z) (c/v_a)^2 (Omega/omega): the ratio depends
    only on the two frequencies.  Defined for angular-momentum-conserving
    emission (M = Delta m_z), where the kinematic part vanishes.
    """
    if not omega_rest > 0:
        raise ValidationError("rest frequency must be positive")
    _check_transition_labels(t)
    (n, m_z), (n_prime, m_zp) = t.upper, t.lower
    if t.effective_M() != m_z - m_zp:
        raise ValidationError("ratio is defined for M = m_z - m_z' emission")
    v_a = atomic_velocity(Z, constants)
    c = constants.light_speed
    return (2.0 * SERIES_COEFFICIENT * (n_prime ** 2 * m_zp - n ** 2 * m_z)
            * (c / v_a) ** 2 * (Omega / omega_rest))


def force_ratio(rotor: RotorConfig, drive_E: float,
                constants: PhysicalConstants = CODATA2018) -> float:
    """Centrifugal force on the electron over the drive-field force.

    m Omega^2 R / (e E); zero rotation gives exactly zero.
    """
    if not drive_E > 0:
        raise ValidationError("drive field must be positive")
    m = constants.electron_mass
    e = constants.elementary_charge
    return m * rotor.Omega ** 2 * rotor.R / (e * drive_E)


#: Rounded engineering coefficient for force_ratio_engineering; the exact
#: value 4 pi^2 m/e is about 0.2% higher.
ENGINEERING_COEFFICIENT = 2.24e-10


def force_ratio_engineering(rotor: RotorConfig, drive_E: float,
                            constants: PhysicalConstants = CODATA2018) -> float:
    """Force ratio from the rounded rule of thumb 2.24e-10 (f/Hz)^2 R / E.

    Uses the rotation frequency in cycles per second; agrees with the
    direct SI evaluation to half a percent, the rounding of the
    coefficient.
    """
    if not drive_E > 0:
        raise ValidationError("drive field must be positive")
    f = rotor.Omega / (2.0 * pi)
    return ENGINEERING_COEFFICIENT * f ** 2 * rotor.R / drive_E


def velocity_ratio_squared(rotor: RotorConfig,
                           constants: PhysicalConstants = CODATA2018) -> float:
    """(v_c / v_a)^2, the small parameter of the whole rotational problem."""
    if not isinstance(rotor.model, Coulomb):
        raise ValidationError("rotor model must be Coulomb")
    v_a = atomic_velocity(rotor.model.Z, constants)
    return (rotor.v_c / v_a) ** 2
