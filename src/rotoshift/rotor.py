"""Rotating-emitter geometry and the effective fields rotation induces.

The rotation axis is fixed to +z throughout the library.  The orbit vector R
is placed along -y and the orbital velocity along +x, so that v_c = Omega x R
holds as an exact vector identity (the spectra themselves are orientation
independent, which the test suite checks).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import hypot, sqrt
from typing import Union

import numpy as np

from .constants import CODATA2018
from .errors import OutOfRegimeError, ResonanceError, ValidationError

#: Minimum allowed |omega0^2 - Omega^2| as a fraction of omega0^2.  Closer to
#: the trap resonance the displaced-frame construction has diverging
#: denominators and no stationary rotating-frame spectrum to report.
RESONANCE_TOLERANCE = 1e-6

# Largest rotation or trap rate (rad/s) whose square double precision holds;
# the level formulas square both, so a faster rate is rejected where it enters.
_MAX_SQUARABLE_RATE = sqrt(sys.float_info.max)
# Largest nuclear charge: Z alpha < 1 keeps the atomic speed v_a = Z alpha c
# below the speed of light.
_MAX_Z = int(1.0 / CODATA2018.fine_structure)


@dataclass(frozen=True)
class Harmonic:
    """Isotropic harmonic binding with trap frequency omega0 (rad/s)."""
    omega0: float

    def __post_init__(self):
        if not self.omega0 > 0:
            raise ValidationError("trap frequency omega0 must be positive")
        if self.omega0 > _MAX_SQUARABLE_RATE:
            raise OutOfRegimeError("trap frequency leaves the double-precision range when squared")


@dataclass(frozen=True)
class Coulomb:
    """Hydrogen-like binding with nuclear charge Z."""
    Z: int = 1

    def __post_init__(self):
        if not isinstance(self.Z, int) or isinstance(self.Z, bool) or self.Z < 1:
            raise ValidationError("nuclear charge Z must be an integer >= 1")
        if self.Z > _MAX_Z:
            raise ValidationError(f"nuclear charge Z must be at most {_MAX_Z}, "
                                  "where the atomic speed Z alpha c stays below c")


@dataclass(frozen=True)
class RotorConfig:
    """Uniform rotation of a bound emitter about the z axis.

    Omega is the signed rotation rate in rad/s, R the orbit radius in m
    (distance from the axis to the binding center), and model selects the
    binding potential.
    """

    Omega: float
    R: float
    model: Union[Harmonic, Coulomb]

    def __post_init__(self):
        if not np.isfinite(self.Omega):
            raise ValidationError("rotation rate must be finite")
        if abs(self.Omega) > _MAX_SQUARABLE_RATE:
            raise OutOfRegimeError("rotation rate leaves the double-precision range when squared")
        if not (np.isfinite(self.R) and self.R >= 0):
            raise ValidationError("orbit radius must be finite and nonnegative")
        if isinstance(self.model, Harmonic):
            w0sq = self.model.omega0 ** 2
            if abs(w0sq - self.Omega ** 2) < RESONANCE_TOLERANCE * w0sq:
                raise ResonanceError(
                    "rotation rate within the resonance guard band of the trap frequency")

    @property
    def v_c(self) -> float:
        """Orbital velocity Omega*R (m/s, signed with Omega)."""
        return self.Omega * self.R

    @property
    def radius_vec(self) -> np.ndarray:
        return np.array([0.0, -self.R, 0.0])


@dataclass(frozen=True)
class CrossedFields:
    """Effective crossed fields acting on the bound electron.

    pseudo_E (V/m) is the centrifugal-equivalent electric field in the
    orbital plane, to which a genuine drive field is simply added, and
    pseudo_B (T) the Coriolis-equivalent magnetic field along the rotation
    axis.
    """

    pseudo_E: np.ndarray
    pseudo_B: np.ndarray

    def __post_init__(self):
        for name in ("pseudo_E", "pseudo_B"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,) or not np.all(np.isfinite(v)):
                raise ValidationError(f"{name} must be a finite 3-vector")
            object.__setattr__(self, name, v)
        planar = float(np.hypot(self.pseudo_B[0], self.pseudo_B[1]))
        if planar > 1e-12 * max(1.0, float(np.abs(self.pseudo_B[2]))):
            raise ValidationError("pseudo-magnetic field must lie along the rotation axis")

    def total_stark_magnitude(self) -> float:
        # hypot scales before squaring, so no finite field over- or underflows
        return hypot(*self.pseudo_E)


def fictitious_fields(rotor: RotorConfig) -> CrossedFields:
    """Crossed fields that mimic the inertial forces of uniform rotation.

    The electron feels an effective electric field with e*E = m Omega^2 R
    pointing along the orbit vector and an effective magnetic field with
    e*B = 2 m Omega along the axis.  Both vanish for Omega = 0.
    """
    m = CODATA2018.electron_mass
    e = CODATA2018.elementary_charge
    E_vec = (m * rotor.Omega ** 2 / e) * rotor.radius_vec
    B_vec = np.array([0.0, 0.0, 2.0 * m * rotor.Omega / e])
    return CrossedFields(pseudo_E=E_vec, pseudo_B=B_vec)


def drive_field_vector(rotor: RotorConfig, magnitude: float,
                       antiparallel: bool = False) -> np.ndarray:
    """True drive field along the orbit vector, of the given magnitude (V/m).

    antiparallel=True points it against the centrifugal pseudo-field so the
    two Stark contributions compete instead of adding.
    """
    if magnitude < 0:
        raise ValidationError("drive field magnitude must be nonnegative")
    if rotor.R == 0:
        raise ValidationError("drive orientation undefined for zero orbit radius")
    rhat = rotor.radius_vec / rotor.R
    return (-magnitude if antiparallel else magnitude) * rhat
