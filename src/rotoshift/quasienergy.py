"""Quasi-energy spectra of rotating emitters, numeric and closed form.

The numeric route diagonalizes Hermitian matrices from the operators
module; the closed-form route evaluates the displaced-oscillator and
crossed-field level formulas directly.  Tests hold the two routes against
each other, so neither is allowed to borrow results from the other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import copysign, hypot
from typing import Tuple

import numpy as np

from .constants import CODATA2018, atomic_velocity
from .errors import (PerturbativeRegimeWarning, RotoshiftError,
                     StateNotFoundError, ValidationError, double_precision)
from .operators import HermitianOperator, TruncatedBasis
from .rotor import Coulomb, CrossedFields, Harmonic, RotorConfig


@dataclass(frozen=True)
class SpectrumResult:
    """Levels of one spectrum computation, ascending in quasi-energy.

    Each entry is (label, quasi_energy in J).  Closed-form spectra carry
    physical labels such as (N, m_z) or (n, m_z), repeated once per
    degenerate state; diagonalization results label states by position
    index, since a bare eigenvalue has no quantum numbers attached.
    Ties are broken by label order so output files are reproducible.
    """

    levels: Tuple[Tuple[tuple, float], ...]

    def __post_init__(self):
        for _, value in self.levels:
            if not np.isfinite(value):
                raise ValidationError("every quasi-energy must be finite")
        ordered = tuple(sorted(self.levels, key=lambda lv: (lv[1], lv[0])))
        object.__setattr__(self, "levels", ordered)

    def energies(self) -> np.ndarray:
        return np.array([value for _, value in self.levels])

    def quasi_energy(self, label: tuple) -> float:
        """Quasi-energy of the first level carrying the given label."""
        label = tuple(label)
        for lab, value in self.levels:
            if lab == label:
                return value
        raise StateNotFoundError(f"no level labeled {label!r} in this spectrum")


def eigen_spectrum(operator) -> SpectrumResult:
    """All eigenvalues of a Hermitian operator, ascending.

    Accepts a HermitianOperator or a raw matrix, which from_matrix checks
    and splits into its uncoupled blocks; each block is diagonalized on its
    own.  Each eigenpair is checked against the residual bound
    ||Hv - lambda v|| <= 1e-10 ||H||, with ||H|| the largest |eigenvalue|
    of the whole spectrum, dividing by ||H|| before squaring; dense
    symmetric solvers sit orders of magnitude below that, so a violation
    indicates a broken input.
    """
    if not isinstance(operator, HermitianOperator):
        # a raw matrix is indexed by placeholder occupation labels (i, 0, 0)
        basis = TruncatedBasis(kind="HO3D", labels=tuple((i, 0, 0) for i in range(len(operator))))
        operator = HermitianOperator.from_matrix(basis, operator)
    solved = [(block,) + tuple(np.linalg.eigh(block)) for _, block in operator.blocks]
    vals = np.sort(np.concatenate([np.zeros(0)] + [v for _, v, _ in solved]))
    norm = max(float(np.max(np.abs(vals), initial=0.0)), 1e-300)
    for block, v, vecs in solved:
        residual = np.linalg.norm((block @ vecs - vecs * v) / norm, axis=0)
        if np.any(residual > 1e-10):
            raise RotoshiftError("eigensolver residual exceeds tolerance")
    levels = tuple(((i,), float(v)) for i, v in enumerate(vals))
    return SpectrumResult(levels=levels)


def first_order_degenerate_levels(E0: float, W) -> SpectrumResult:
    """Levels E0 + eig(W) of a degenerate manifold under perturbation W."""
    inner = eigen_spectrum(W)
    levels = tuple((lab, E0 + val) for lab, val in inner.levels)
    return SpectrumResult(levels=levels)


# ---------------------------------------------------------------------------
# closed forms: displaced harmonic trap
# ---------------------------------------------------------------------------


def _require_harmonic(rotor: RotorConfig) -> Harmonic:
    if not isinstance(rotor.model, Harmonic):
        raise ValidationError("rotor model must be Harmonic")
    return rotor.model


def ho_rotating_levels(N: int, m_z: int, rotor: RotorConfig) -> float:
    """Closed-form quasi-energy of the rotating trap, in joules.

    hbar omega0 (N + 3/2) - hbar Omega m_z minus a level-independent
    depression m omega0^2 Omega^2 R^2 / (2 (omega0^2 - Omega^2)) from the
    displaced equilibrium.  Valid for any N >= 0 and |m_z| <= N.
    """
    model = _require_harmonic(rotor)
    if not isinstance(N, int) or isinstance(N, bool) or N < 0:
        raise ValidationError("shell number N must be a nonnegative integer")
    if not isinstance(m_z, int) or isinstance(m_z, bool) or abs(m_z) > N:
        raise ValidationError("m_z must be an integer with |m_z| <= N")
    w0 = model.omega0
    h = CODATA2018.hbar
    with double_precision("trap depression"):
        depression = (CODATA2018.electron_mass * w0 ** 2 * rotor.v_c ** 2
                      / (2.0 * (w0 ** 2 - rotor.Omega ** 2)))
    return h * w0 * (N + 1.5) - h * rotor.Omega * m_z - depression


def ho_shell_multiplicity(N: int, m_z: int) -> int:
    """Number of shell-N oscillator states with axial angular momentum m_z."""
    if abs(m_z) > N:
        return 0
    return (N - abs(m_z)) // 2 + 1


def ho_rotating_spectrum(N_max: int, rotor: RotorConfig) -> SpectrumResult:
    """Closed-form spectrum of all shells through N_max, with degeneracies.

    Labels are (N, m_z), repeated once per degenerate state, so the level
    multiset is directly comparable to a full diagonalization of the same
    truncation.
    """
    _require_harmonic(rotor)
    if not isinstance(N_max, int) or isinstance(N_max, bool) or N_max < 0:
        raise ValidationError("N_max must be a nonnegative integer")
    levels = []
    for N in range(N_max + 1):
        for m_z in range(-N, N + 1):
            value = ho_rotating_levels(N, m_z, rotor)
            levels.extend(((N, m_z), value) for _ in range(ho_shell_multiplicity(N, m_z)))
    return SpectrumResult(levels=tuple(levels))


# ---------------------------------------------------------------------------
# closed forms: hydrogen shell in crossed fields
# ---------------------------------------------------------------------------


def _check_shell_numbers(n: int, m_z: int):
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError("principal quantum number must be a positive integer")
    if not isinstance(m_z, int) or isinstance(m_z, bool) or abs(m_z) > n - 1:
        raise ValidationError("m_z must be an integer with |m_z| <= n-1")


def _bohr_level(n: int, Z: int) -> float:
    v_a = atomic_velocity(Z)
    return -CODATA2018.electron_mass * v_a ** 2 / (2.0 * n * n)


def _fan_rate(n: int, omega_L: float, force: float, Z: int) -> Tuple[float, float]:
    # (signed fan rate, omega_S) of shell n: hypot(omega_L, omega_S), signed
    # like omega_L (+ for pure Stark), with omega_S = 3 n a / (2 v_a) for the
    # in-plane acceleration a = F / m, F = e |E_tot|; finite wherever a is
    omega_S = 3.0 * n * (force / CODATA2018.electron_mass) / (2.0 * atomic_velocity(Z))
    return copysign(hypot(omega_L, omega_S), omega_L), omega_S


def _fan_level(n: int, m_z: int, omega_L: float, force: float, Z: int,
               stacklevel: int = 3) -> Tuple[float, float]:
    # (E_n - hbar m_z Omega_fan, omega_S); warns, at the public function's caller
    # stacklevel frames up, when the fan spreads over 1% of the next shell gap
    _check_shell_numbers(n, m_z)
    fan, omega_S = _fan_rate(n, omega_L, force, Z)
    level = _bohr_level(n, Z)
    gap = abs(_bohr_level(n + 1, Z) - level)
    if 2.0 * (n - 1) * CODATA2018.hbar * abs(fan) > 0.01 * gap:
        warnings.warn("splitting exceeds 1% of the shell gap; first-order "
                      "levels are no longer reliable", PerturbativeRegimeWarning,
                      stacklevel=stacklevel)
    return level - CODATA2018.hbar * fan * m_z, omega_S


def crossed_field_levels(n: int, m_z: int, fields: CrossedFields, Z: int = 1) -> float:
    """First-order level of a hydrogen shell in crossed E and B fields, J.

    The degenerate shell fans out into 2n-1 equidistant sublevels
    -hbar m_z Omega_fan below and above the unperturbed level, where
    Omega_fan = hypot(omega_L, omega_S) takes the sign of the Larmor rate
    omega_L = e B_z / 2m (+ if it is zero) and omega_S grows as n times the
    total in-plane electric field.
    """
    e = CODATA2018.elementary_charge
    omega_L = e * float(fields.pseudo_B[2]) / (2.0 * CODATA2018.electron_mass)
    return _fan_level(n, m_z, omega_L, e * fields.total_stark_magnitude(), Z)[0]


def _require_coulomb(rotor: RotorConfig) -> Coulomb:
    if not isinstance(rotor.model, Coulomb):
        raise ValidationError("rotor model must be Coulomb")
    return rotor.model


def _turntable_force(rotor: RotorConfig, drive_E) -> Tuple[float, int]:
    # (F, Z) on the turntable, where omega_L = Omega and the in-plane force
    # is F = |m Omega^2 R rhat + e E|; no drive keeps to scalar arithmetic
    model = _require_coulomb(rotor)
    m = CODATA2018.electron_mass
    if drive_E is None:
        return m * rotor.Omega ** 2 * rotor.R, model.Z
    drive = np.asarray(drive_E, dtype=float)
    if drive.shape != (3,) or not np.all(np.isfinite(drive)):
        raise ValidationError("drive field must be a finite 3-vector")
    if rotor.Omega == 0.0 and np.any(drive != 0.0):
        raise ValidationError("drive field with zero rotation leaves the "
                              "quasi-energy frame undefined")
    force = m * rotor.Omega ** 2 * rotor.radius_vec + CODATA2018.elementary_charge * drive
    return hypot(*force), model.Z


def splitting_expansion_parameter(n: int, rotor: RotorConfig) -> float:
    """Dimensionless x = 3 n R Omega / (2 v_a) controlling the Stark/Zeeman mix."""
    return driven_splitting_parameter(n, rotor, None)


def rotating_coulomb_levels(n: int, m_z: int, rotor: RotorConfig) -> float:
    """Quasi-energy of a hydrogen level on the turntable, in joules.

    Bohr level minus hbar m_z sign(Omega) hypot(Omega, x Omega), where
    x = 3nROmega/2v_a collects the centrifugal Stark contribution.  R=0
    leaves the pure rotational splitting -hbar Omega m_z.
    """
    force, Z = _turntable_force(rotor, None)
    return _fan_level(n, m_z, rotor.Omega, force, Z)[0]


def driven_splitting_parameter(n: int, rotor: RotorConfig, drive_E) -> float:
    """Splitting parameter with a genuine drive field folded in.

    x = 3 n |m Omega^2 R + e E| / (2 m v_a |Omega|), the vector sum taken
    between the centrifugal term along the orbit vector and the drive.
    Zero rotation with a nonzero drive has no quasi-energy frame and is
    rejected; zero rotation with zero drive gives x = 0.
    """
    force, Z = _turntable_force(rotor, drive_E)
    omega_S = _fan_rate(n, rotor.Omega, force, Z)[1]
    return omega_S / abs(rotor.Omega) if omega_S else 0.0


def driven_rotating_levels(n: int, m_z: int, rotor: RotorConfig, drive_E) -> float:
    """Rotating hydrogen level with a genuine drive field added, in joules.

    The drive adds vectorially to the centrifugal term, so depending on the
    orientation it deepens the splitting or cancels it; an antiparallel
    drive with eE = m Omega^2 R collapses the root to exactly 1.  As Omega
    goes to zero under a drive, the fan tends to the Stark fan.
    """
    force, Z = _turntable_force(rotor, drive_E)
    return _fan_level(n, m_z, rotor.Omega, force, Z)[0]


def rotating_coulomb_spectrum(n_max: int, rotor: RotorConfig) -> SpectrumResult:
    """Closed-form turntable spectrum of all shells through n_max.

    Labels are (n, m_z), repeated once per degenerate orbital (a given m_z
    occurs in the n - |m_z| states with l >= |m_z|).
    """
    _require_coulomb(rotor)
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise ValidationError("n_max must be a positive integer")
    levels = []
    for n in range(1, n_max + 1):
        for m_z in range(-(n - 1), n):
            value = rotating_coulomb_levels(n, m_z, rotor)
            levels.extend(((n, m_z), value) for _ in range(n - abs(m_z)))
    return SpectrumResult(levels=tuple(levels))
