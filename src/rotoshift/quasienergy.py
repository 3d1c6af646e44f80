"""Quasi-energy spectra of rotating emitters, numeric and closed form.

The numeric route diagonalizes dense Hermitian matrices from the operators
module; the closed-form route evaluates the displaced-oscillator and
crossed-field level formulas directly.  Tests hold the two routes against
each other, so neither is allowed to borrow results from the other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import sqrt
from typing import Optional, Sequence, Tuple

import numpy as np

from .constants import CODATA2018, PhysicalConstants, atomic_velocity
from .errors import (PerturbativeRegimeWarning, RotoshiftError,
                     StateNotFoundError, ValidationError)
from .operators import HermitianOperator, TruncatedBasis
from .rotor import Coulomb, CrossedFields, Harmonic, RotorConfig

_METHODS = ("Diagonalization", "FirstOrderPT", "Analytic")


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
    method: str
    basis_info: str = ""

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValidationError(f"unknown spectrum method {self.method!r}")
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

    Accepts a HermitianOperator or a raw matrix (validated for
    hermiticity).  Each eigenpair is checked against the residual bound
    ||Hv - lambda v|| <= 1e-10 ||H||; dense symmetric solvers sit orders of
    magnitude below that, so a violation indicates a broken input.
    """
    if not isinstance(operator, HermitianOperator):
        basis = TruncatedBasis(kind="HO3D", labels=tuple((i,) for i in range(len(operator))))
        operator = HermitianOperator.from_matrix(basis, operator)
    H = operator.matrix
    vals, vecs = np.linalg.eigh(H)
    norm = float(np.max(np.abs(vals))) if len(vals) else 0.0
    if len(vals):
        residual = np.linalg.norm(H @ vecs - vecs * vals, axis=0)
        if np.any(residual > 1e-10 * max(norm, 1e-300)):
            raise RotoshiftError("eigensolver residual exceeds tolerance")
    levels = tuple(((i,), float(v)) for i, v in enumerate(vals))
    return SpectrumResult(levels=levels, method="Diagonalization",
                          basis_info=f"{operator.basis.kind} dim {operator.basis.dimension}")


def first_order_degenerate_levels(E0: float, W) -> SpectrumResult:
    """Levels E0 + eig(W) of a degenerate manifold under perturbation W."""
    inner = eigen_spectrum(W)
    levels = tuple((lab, E0 + val) for lab, val in inner.levels)
    return SpectrumResult(levels=levels, method="FirstOrderPT",
                          basis_info=inner.basis_info)


# ---------------------------------------------------------------------------
# closed forms: displaced harmonic trap
# ---------------------------------------------------------------------------


def _require_harmonic(rotor: RotorConfig) -> Harmonic:
    if not isinstance(rotor.model, Harmonic):
        raise ValidationError("rotor model must be Harmonic")
    return rotor.model


def ho_rotating_levels(N: int, m_z: int, rotor: RotorConfig,
                       constants: PhysicalConstants = CODATA2018) -> float:
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
    h = constants.hbar
    depression = (constants.electron_mass * w0 ** 2 * rotor.v_c ** 2
                  / (2.0 * (w0 ** 2 - rotor.Omega ** 2)))
    return h * w0 * (N + 1.5) - h * rotor.Omega * m_z - depression


def ho_shell_multiplicity(N: int, m_z: int) -> int:
    """Number of shell-N oscillator states with axial angular momentum m_z."""
    if abs(m_z) > N:
        return 0
    return (N - abs(m_z)) // 2 + 1


def ho_rotating_spectrum(N_max: int, rotor: RotorConfig,
                         constants: PhysicalConstants = CODATA2018) -> SpectrumResult:
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
            value = ho_rotating_levels(N, m_z, rotor, constants)
            levels.extend(((N, m_z), value) for _ in range(ho_shell_multiplicity(N, m_z)))
    return SpectrumResult(levels=tuple(levels), method="Analytic",
                          basis_info=f"HO3D shells <= {N_max}")


# ---------------------------------------------------------------------------
# closed forms: hydrogen shell in crossed fields
# ---------------------------------------------------------------------------


def _check_shell_numbers(n: int, m_z: int):
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError("principal quantum number must be a positive integer")
    if not isinstance(m_z, int) or isinstance(m_z, bool) or abs(m_z) > n - 1:
        raise ValidationError("m_z must be an integer with |m_z| <= n-1")


def _bohr_level(n: int, Z: int, constants: PhysicalConstants) -> float:
    v_a = atomic_velocity(Z, constants)
    return -constants.electron_mass * v_a ** 2 / (2.0 * n * n)


def _warn_if_nonperturbative(n: int, splitting_rate: float, Z: int,
                             constants: PhysicalConstants, stacklevel: int = 3):
    # full spread of the n-manifold fan vs the gap to the next shell;
    # stacklevel points the warning at the caller of the public function
    spread = 2.0 * (n - 1) * constants.hbar * abs(splitting_rate)
    gap = abs(_bohr_level(n + 1, Z, constants) - _bohr_level(n, Z, constants))
    if spread > 0.01 * gap:
        warnings.warn("splitting exceeds 1% of the shell gap; first-order "
                      "levels are no longer reliable", PerturbativeRegimeWarning,
                      stacklevel=stacklevel)


def crossed_field_levels(n: int, m_z: int, fields: CrossedFields,
                         constants: PhysicalConstants = CODATA2018,
                         Z: int = 1) -> float:
    """First-order level of a hydrogen shell in crossed E and B fields, J.

    The degenerate shell fans out into 2n-1 equidistant sublevels
    -hbar m_z sqrt(omega_L^2 + omega_S^2) below and above the unperturbed
    level, with omega_L the Larmor rate of the axial magnetic field and
    omega_S proportional to n times the total in-plane electric field.
    """
    _check_shell_numbers(n, m_z)
    e = constants.elementary_charge
    m = constants.electron_mass
    omega_L = e * float(fields.pseudo_B[2]) / (2.0 * m)
    E_tot = fields.total_stark_magnitude()
    omega_S = (6.0 * np.pi * constants.epsilon0 * constants.hbar
               / (Z * e * m)) * n * E_tot
    rate = sqrt(omega_L ** 2 + omega_S ** 2)
    _warn_if_nonperturbative(n, rate, Z, constants)
    return _bohr_level(n, Z, constants) - constants.hbar * m_z * rate


def _require_coulomb(rotor: RotorConfig) -> Coulomb:
    if not isinstance(rotor.model, Coulomb):
        raise ValidationError("rotor model must be Coulomb")
    return rotor.model


def splitting_expansion_parameter(n: int, rotor: RotorConfig,
                                  constants: PhysicalConstants = CODATA2018) -> float:
    """Dimensionless x = 3 n R Omega / (2 v_a) controlling the Stark/Zeeman mix."""
    model = _require_coulomb(rotor)
    v_a = atomic_velocity(model.Z, constants)
    return 3.0 * n * rotor.R * abs(rotor.Omega) / (2.0 * v_a)


def rotating_coulomb_levels(n: int, m_z: int, rotor: RotorConfig,
                            constants: PhysicalConstants = CODATA2018) -> float:
    """Quasi-energy of a hydrogen level on the turntable, in joules.

    Bohr level minus hbar Omega m_z sqrt(1 + x^2) where x = 3nROmega/2v_a
    collects the centrifugal Stark contribution.  R=0 leaves the pure
    rotational splitting -hbar Omega m_z.
    """
    return _turntable_level(n, m_z, rotor, constants,
                            lambda q: splitting_expansion_parameter(q, rotor, constants))


def _turntable_level(n: int, m_z: int, rotor: RotorConfig,
                     constants: PhysicalConstants, splitting) -> float:
    # shared body of the undriven and driven level; splitting(q) gives x
    model = _require_coulomb(rotor)
    _check_shell_numbers(n, m_z)
    x = splitting(n)
    root = sqrt(1.0 + x * x)
    _warn_if_nonperturbative(n, rotor.Omega * root, model.Z, constants, stacklevel=4)
    return (_bohr_level(n, model.Z, constants)
            - constants.hbar * rotor.Omega * m_z * root)


def driven_splitting_parameter(n: int, rotor: RotorConfig, drive_E,
                               constants: PhysicalConstants = CODATA2018) -> float:
    """Splitting parameter with a genuine drive field folded in.

    x = 3 n |m Omega^2 R + e E| / (2 m v_a |Omega|), the vector sum taken
    between the centrifugal term along the orbit vector and the drive.
    Zero rotation with a nonzero drive has no quasi-energy frame and is
    rejected; zero rotation with zero drive gives x = 0.
    """
    model = _require_coulomb(rotor)
    drive = np.zeros(3) if drive_E is None else np.asarray(drive_E, dtype=float)
    if drive.shape != (3,) or not np.all(np.isfinite(drive)):
        raise ValidationError("drive field must be a finite 3-vector")
    if rotor.Omega == 0.0:
        if np.any(drive != 0.0):
            raise ValidationError("drive field with zero rotation leaves the "
                                  "quasi-energy frame undefined")
        return 0.0
    m = constants.electron_mass
    e = constants.elementary_charge
    force = m * rotor.Omega ** 2 * rotor.radius_vec + e * drive
    v_a = atomic_velocity(model.Z, constants)
    return 3.0 * n * float(np.linalg.norm(force)) / (2.0 * m * v_a * abs(rotor.Omega))


def driven_rotating_levels(n: int, m_z: int, rotor: RotorConfig,
                           drive_E, constants: PhysicalConstants = CODATA2018) -> float:
    """Rotating hydrogen level with a genuine drive field added, in joules.

    The drive adds vectorially to the centrifugal term, so depending on the
    orientation it deepens the splitting or cancels it; an antiparallel
    drive with eE = m Omega^2 R collapses the root to exactly 1.
    """
    return _turntable_level(n, m_z, rotor, constants,
                            lambda q: driven_splitting_parameter(q, rotor, drive_E, constants))


def rotating_coulomb_spectrum(n_max: int, rotor: RotorConfig,
                              constants: PhysicalConstants = CODATA2018) -> SpectrumResult:
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
            value = rotating_coulomb_levels(n, m_z, rotor, constants)
            levels.extend(((n, m_z), value) for _ in range(n - abs(m_z)))
    return SpectrumResult(levels=tuple(levels), method="Analytic",
                          basis_info=f"Coulomb shells <= {n_max}")
