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
from math import copysign, hypot, pi
from typing import Optional, Tuple

import numpy as np

from .constants import CODATA2018, atomic_velocity
from .errors import (OutOfRegimeError, UnphysicalTransitionError,
                     ValidationError, double_precision)
# driven_splitting_parameter stays importable here for perfbench/spans.py
from .quasienergy import (SpectrumResult, _fan_level, _require_coulomb, _turntable_force,
                          driven_splitting_parameter, ho_rotating_levels,
                          splitting_expansion_parameter)
from .rotor import RotorConfig

#: Expansion coefficient of the leading dynamic shift, from the Taylor
#: expansion of hypot(1, x) about x = 0 in this library's exact formula.
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
    """Full account of one transition's rotational frequency shift (rad/s).

    quasi_energies holds the (upper, lower) rotating levels in J, whose
    difference over hbar plus Omega M is the emitted line, and
    splitting_factors the fan rate over the rotation rate, hypot(1, x), of
    each level (exactly one for the harmonic trap).
    """

    transition: Transition
    omega_rest: float
    omega_rotating: float
    drfs: float
    kinematic_part: float
    dynamic_part: float
    quasi_energies: Tuple[float, float]
    splitting_factors: Tuple[float, float]
    ratios: dict = field(default_factory=dict)


def doppler_frequency(deltaE: float, v, k) -> float:
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
    if speed > MAX_DOPPLER_BETA * CODATA2018.light_speed:
        raise OutOfRegimeError("source speed beyond the nonrelativistic window")
    return deltaE / CODATA2018.hbar + float(v @ k)


def self_consistent_doppler(deltaE: float, v, k_direction) -> float:
    """Doppler frequency with |k| = omega/c enforced self-consistently.

    Solves omega = deltaE/hbar + (v . k_hat) omega/c in closed form,
    omega = (deltaE/hbar) / (1 - v . k_hat / c); the speed guard of
    doppler_frequency keeps the denominator within 1% of one.
    """
    k_hat = np.asarray(k_direction, dtype=float)
    # hypot scales before squaring, so no finite direction has length 0 or inf
    norm = hypot(*k_hat)
    if norm == 0:
        raise ValidationError("propagation direction must be nonzero")
    k_hat = k_hat / norm
    rest = doppler_frequency(deltaE, v, np.zeros(3))
    return rest / (1.0 - float(np.dot(v, k_hat)) / CODATA2018.light_speed)


def emitted_frequency(levels: SpectrumResult, t: Transition, Omega: float) -> float:
    """Photon frequency from quasi-energy conservation, rad/s.

    omega = (quasi-energy difference)/hbar + Omega*M.  Both transition
    labels must be present in the supplied spectrum; the result must come
    out positive to describe emission.
    """
    upper = levels.quasi_energy(t.upper)
    lower = levels.quasi_energy(t.lower)
    omega = (upper - lower) / CODATA2018.hbar + Omega * t.effective_M()
    if not omega > 0:
        raise UnphysicalTransitionError("computed emission frequency is not positive")
    return omega


# ---------------------------------------------------------------------------
# rotational shift of the hydrogen emitter
# ---------------------------------------------------------------------------


def _rest_frequency_coulomb(t: Transition, Z: int) -> float:
    n, n_prime = t.upper[0], t.lower[0]
    v_a = atomic_velocity(Z)
    m = CODATA2018.electron_mass
    return (m * v_a ** 2 / (2.0 * CODATA2018.hbar)) * (1.0 / n_prime ** 2 - 1.0 / n ** 2)


def _check_transition_labels(t: Transition):
    for (q, m_z), name in ((t.upper, "upper"), (t.lower, "lower")):
        if q < 1 or abs(m_z) > q - 1:
            raise ValidationError(f"{name} level needs q >= 1 and |m_z| <= q-1")


def _turntable_report(t: Transition, rotor: RotorConfig, drive_E) -> ShiftReport:
    # shared body of the undriven (drive_E None) and driven report
    force, Z = _turntable_force(rotor, drive_E)
    _check_transition_labels(t)
    (n, m_z), (n_prime, m_zp) = t.upper, t.lower
    Omega = rotor.Omega
    levels, excess, factors = [], [], []
    for q, m in (t.upper, t.lower):
        # one fan rate per shell; the warning names the public function's caller
        level, s = _fan_level(q, m, Omega, force, Z, stacklevel=4)
        levels.append(level)
        # Omega_fan - Omega, stable for small omega_S, finite with the level
        excess.append(copysign(s * (s / (hypot(Omega, s) + abs(Omega))) if s else 0.0, Omega))
        factors.append(hypot(1.0, s / abs(Omega) if s else 0.0))

    dynamic = m_zp * excess[1] - m_z * excess[0]
    kinematic = Omega * (t.effective_M() - (m_z - m_zp))
    drfs = kinematic + dynamic
    omega_rest = _rest_frequency_coulomb(t, Z)
    return ShiftReport(transition=t, omega_rest=omega_rest,
                       omega_rotating=omega_rest + drfs, drfs=drfs,
                       kinematic_part=kinematic, dynamic_part=dynamic,
                       quasi_energies=tuple(levels), splitting_factors=tuple(factors),
                       ratios={})


def drfs_exact(t: Transition, rotor: RotorConfig) -> ShiftReport:
    """Rotational frequency shift of a hydrogen transition, exact form.

    Computed strictly as the quasi-energy difference of the two rotating
    levels plus Omega*M, so the lower level's root term enters with a plus
    sign.  The report decomposes the shift into the kinematic part
    Omega (M - Delta m_z) and the dynamic square-root excess.
    """
    report = _turntable_report(t, rotor, None)
    if report.omega_rest > 0 and t.effective_M() == t.upper[1] - t.lower[1]:
        report.ratios["transverse_doppler"] = transverse_doppler_ratio(
            t, rotor.Omega, report.omega_rest, Z=rotor.model.Z)
    return report


def driven_shift_report(t: Transition, rotor: RotorConfig, drive_E) -> ShiftReport:
    """Rotational frequency shift with a genuine drive field included.

    Same quasi-energy bookkeeping as drfs_exact, with the drive folded
    into each level's splitting parameter.  The series expansion and the
    transverse Doppler ratio are not defined in this regime, so the ratio
    map stays empty.
    """
    return _turntable_report(t, rotor, drive_E)


def harmonic_shift_report(t: Transition, rotor: RotorConfig) -> ShiftReport:
    """Rotational frequency shift of a harmonic-trap transition.

    The rotating-trap levels depend on Omega only through -Omega m_z and a
    level-independent depression, so the dynamic part is identically zero:
    with M = Delta m_z the emitted line is exactly the rest line, whatever
    the rotation rate.
    """
    # ho_rotating_levels checks the model and both labels
    (N, m_z), (N_prime, m_zp) = t.upper, t.lower
    levels = (ho_rotating_levels(N, m_z, rotor), ho_rotating_levels(N_prime, m_zp, rotor))
    omega_rest = rotor.model.omega0 * (N - N_prime)
    kinematic = rotor.Omega * (t.effective_M() - (m_z - m_zp))
    drfs = kinematic + 0.0
    ratios = {}
    # the levels above already squared v_c, so this cannot overflow
    scale = omega_rest * rotor.v_c ** 2 / (2.0 * CODATA2018.light_speed ** 2)
    if scale > 0:
        # v_c**2 can underflow to zero even when v_c is not
        ratios["transverse_doppler"] = drfs / scale
    return ShiftReport(transition=t, omega_rest=omega_rest,
                       omega_rotating=omega_rest + drfs, drfs=drfs,
                       kinematic_part=kinematic, dynamic_part=0.0,
                       quasi_energies=levels, splitting_factors=(1.0, 1.0),
                       ratios=ratios)


def drfs_series(t: Transition, rotor: RotorConfig,
                coefficient: float = SERIES_COEFFICIENT) -> float:
    """Leading-order rotational shift, rad/s.

    Expands the exact shift to second order in x = 3nROmega/2v_a, giving
    coefficient * (n'^2 m_z' - n^2 m_z) * Omega * (v_c/v_a)^2 on top of the
    kinematic part.  Both levels must sit inside the expansion window
    x < 0.3.  Pass coefficient=ALT_SERIES_COEFFICIENT for the
    revolutions-convention prefactor.
    """
    _require_coulomb(rotor)
    _check_transition_labels(t)
    (n, m_z), (n_prime, m_zp) = t.upper, t.lower
    for q in (n, n_prime):
        x = splitting_expansion_parameter(q, rotor)
        if x >= MAX_SERIES_PARAMETER:
            raise OutOfRegimeError(
                f"expansion parameter {x:.3g} for shell {q} is outside the "
                f"series window (< {MAX_SERIES_PARAMETER})")
    v_a = atomic_velocity(rotor.model.Z)
    kinematic = rotor.Omega * (t.effective_M() - (m_z - m_zp))
    dynamic = (coefficient * (n_prime ** 2 * m_zp - n ** 2 * m_z)
               * rotor.Omega * (rotor.v_c / v_a) ** 2)
    return kinematic + dynamic


def transverse_doppler_ratio(t: Transition, Omega: float, omega_rest: float,
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
    v_a = atomic_velocity(Z)
    c = CODATA2018.light_speed
    return (2.0 * SERIES_COEFFICIENT * (n_prime ** 2 * m_zp - n ** 2 * m_z)
            * (c / v_a) ** 2 * (Omega / omega_rest))


def force_ratio(rotor: RotorConfig, drive_E: float) -> float:
    """Centrifugal force on the electron over the drive-field force.

    m Omega^2 R / (e E); zero rotation gives exactly zero.
    """
    if not drive_E > 0:
        raise ValidationError("drive field must be positive")
    m = CODATA2018.electron_mass
    e = CODATA2018.elementary_charge
    with double_precision("force ratio"):
        return m * rotor.Omega ** 2 * rotor.R / (e * drive_E)


#: Rounded engineering coefficient for force_ratio_engineering; the exact
#: value 4 pi^2 m/e is about 0.2% higher.
ENGINEERING_COEFFICIENT = 2.24e-10


def force_ratio_engineering(rotor: RotorConfig, drive_E: float) -> float:
    """Force ratio from the rounded rule of thumb 2.24e-10 (f/Hz)^2 R / E.

    Uses the rotation frequency in cycles per second; agrees with the
    direct SI evaluation to half a percent, the rounding of the
    coefficient.
    """
    if not drive_E > 0:
        raise ValidationError("drive field must be positive")
    f = rotor.Omega / (2.0 * pi)
    return ENGINEERING_COEFFICIENT * f ** 2 * rotor.R / drive_E


def velocity_ratio_squared(rotor: RotorConfig) -> float:
    """(v_c / v_a)^2, the small parameter of the whole rotational problem."""
    v_a = atomic_velocity(_require_coulomb(rotor).Z)
    with double_precision("velocity ratio"):
        return (rotor.v_c / v_a) ** 2
