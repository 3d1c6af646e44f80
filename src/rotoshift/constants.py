"""Physical constants of the rotating-emitter formulas, in SI.

Constant values are compiled in (CODATA 2018) rather than looked up at
runtime, so that report files are reproducible regardless of the installed
version of any third-party constants table.  CODATA2018 is the one table:
every formula in the package reads it directly, and no function takes a
constants argument.  Computations run in SI; every public interface takes
and returns SI unless its docstring says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

from .errors import ValidationError


@dataclass(frozen=True)
class PhysicalConstants:
    """SI values of the constants the rotating-emitter formulas need."""

    # h/2pi at full double precision, h = 6.62607015e-34 J s exact; the
    # 10-digit rounding 1.054571817e-34 would miss the alpha and a0
    # identities below by about 6e-10.
    hbar: float = 1.0545718176461565e-34   # reduced Planck constant, J s
    electron_mass: float = 9.1093837015e-31  # kg
    elementary_charge: float = 1.602176634e-19  # C (exact)
    epsilon0: float = 8.8541878128e-12     # vacuum permittivity, F/m
    light_speed: float = 299792458.0       # m/s (exact)
    fine_structure: float = 7.2973525693e-3  # dimensionless
    bohr_radius: float = 5.29177210903e-11   # m

    def __post_init__(self):
        # The stored table must be self-consistent: alpha and a0 are
        # redundant with (e, eps0, hbar, c, m) and have to agree with them.
        e, h, c, m = (self.elementary_charge, self.hbar,
                      self.light_speed, self.electron_mass)
        alpha = e * e / (4.0 * pi * self.epsilon0 * h * c)
        a0 = 4.0 * pi * self.epsilon0 * h * h / (m * e * e)
        if abs(alpha - self.fine_structure) > 1e-9 * self.fine_structure:
            raise ValidationError("fine-structure value inconsistent with e, eps0, hbar, c")
        if abs(a0 - self.bohr_radius) > 1e-9 * self.bohr_radius:
            raise ValidationError("Bohr-radius value inconsistent with e, eps0, hbar, m")

    @property
    def hartree(self) -> float:
        """Atomic unit of energy in J."""
        return self.fine_structure ** 2 * self.electron_mass * self.light_speed ** 2


CODATA2018 = PhysicalConstants()

def atomic_velocity(Z: int) -> float:
    """Characteristic orbital speed of a bound electron, in m/s.

    v_a = Z e^2 / (4 pi eps0 hbar); for Z=1 this is alpha*c, about
    2.19e6 m/s.  Scales linearly with the nuclear charge.
    """
    if not isinstance(Z, int) or isinstance(Z, bool) or Z < 1:
        raise ValidationError("nuclear charge Z must be an integer >= 1")
    e = CODATA2018.elementary_charge
    return Z * e * e / (4.0 * pi * CODATA2018.epsilon0 * CODATA2018.hbar)
