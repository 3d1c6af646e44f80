"""Quasi-energy spectra of rotating emitters, numeric and closed form.

The numeric route diagonalizes Hermitian operators from the operators
module; the closed-form route evaluates the displaced-oscillator and
crossed-field level formulas directly.  Tests hold the two routes against
each other, so neither is allowed to borrow results from the other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import copysign, hypot, isfinite, sqrt
from typing import Tuple

import numpy as np

from .constants import CODATA2018, atomic_velocity
from .errors import (OutOfRegimeError, PerturbativeRegimeWarning, RotoshiftError,
                     StateNotFoundError, ValidationError, double_precision)
from .operators import HermitianOperator, _circular_mode
from .rotor import Coulomb, CrossedFields, Harmonic, RotorConfig


def _finite(energies: np.ndarray) -> np.ndarray:
    # the one check every spectrum array passes on its way out
    if not np.isfinite(energies).all():
        raise ValidationError("every quasi-energy must be finite")
    return energies


@dataclass(frozen=True)
class SpectrumResult:
    """Closed-form levels, ascending in quasi-energy.

    labels is an int64 array of (q, m_z) rows, such as (N, m_z) or (n, m_z),
    repeated once per degenerate state; energies holds each row's
    quasi-energy in J.  Ties are broken by label order so output files are
    reproducible.  Both arrays are read-only.
    """

    labels: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)
        energies = _finite(np.array(self.energies, dtype=float))
        if (energies.ndim != 1 or labels.shape != (len(energies), 2)
                or np.any(labels != np.asarray(self.labels))):
            raise ValidationError("a spectrum needs one integer (q, m_z) row per quasi-energy")
        order = np.lexsort((labels[:, 1], labels[:, 0], energies))
        for name, column in (("labels", labels[order]), ("energies", energies[order])):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def quasi_energy(self, label: tuple) -> float:
        """Quasi-energy of the first level carrying the given label."""
        label = tuple(label)
        hits = np.flatnonzero((self.labels == label).all(axis=1)) if len(label) == 2 else ()
        if not len(hits):
            raise StateNotFoundError(f"no level labeled {label!r} in this spectrum")
        return float(self.energies[hits[0]])


@lru_cache(maxsize=64)
def _flip_bases(flip: tuple):
    # (P, M, gathers) of a flip, built once, read-only: P's columns are e_k + e_f(k) for
    # each pair k < f(k), or e_k for a fixed k, and M's e_k - e_f(k), all normalized.  Each
    # row of P and of M has one entry (M's is 0 at a fixed k), so with r pairs the
    # eigenvectors [(PU + MV)/sqrt(2), (PU - MV)/sqrt(2), PU beyond r] are
    # U.take(iu) wu + Vt.take(iv) wv: iu and iv are flat indices of the entry of U and of
    # V^T that each vector entry reads, wu and wv the entries of P and M times +-1/sqrt(2)
    flip = np.array(flip)
    k, eye, swap = np.arange(len(flip)), np.eye(len(flip)), np.eye(len(flip))[flip]
    P = np.maximum(eye, swap)[:, k <= flip]
    P /= np.sqrt(P.sum(axis=0))
    M = (eye - swap)[:, k < flip] * sqrt(0.5)
    low, fixed, r = np.minimum(k, flip), k == flip, M.shape[1]
    pairs, rest = np.arange(r), np.arange(r, P.shape[1])
    half, ones = np.full(r, sqrt(0.5)), np.ones(len(rest))
    # the column of P and of M that holds each row's entry
    p_col, m_col = np.searchsorted(k[k <= flip], low), np.searchsorted(k[k < flip], low)
    iu = p_col[:, None] * P.shape[1] + np.r_[pairs, pairs, rest]
    iv = np.r_[pairs, pairs, 0 * rest] * r + np.where(fixed, 0, m_col)[:, None]
    wu = np.where(fixed, 1.0, sqrt(0.5))[:, None] * np.r_[half, half, ones]
    wv = (np.sign(flip - k) * sqrt(0.5))[:, None] * np.r_[half, -half, 0 * ones]
    for a in (P, M, iu, iv, wu, wv):
        a.flags.writeable = False
    return P, M, (iu, wu, iv, wv)


def _flip_eigh(block: np.ndarray, flip: np.ndarray):
    # eigenpairs of a block with b[flip][:, flip] == -b by an SVD of half its size: b maps
    # P (flip +1) onto M (flip -1) and back, so B = P^T b M holds all of it; B = U S V^T
    # gives +-s on (P u_j +- M v_j)/sqrt(2), and a zero on P u_j for each j beyond len(s)
    P, M, (iu, wu, iv, wv) = _flip_bases(tuple(flip.tolist()))
    U, s, Vt = np.linalg.svd(P.T @ block @ M)
    vecs = U.take(iu) * wu
    if len(s):  # with no pairs V is empty, and so is M V
        vecs += Vt.take(iv) * wv
    return np.concatenate([s, -s, np.zeros(len(flip) - 2 * len(s))]), vecs


def eigen_spectrum(operator: HermitianOperator) -> np.ndarray:
    """All eigenvalues of a HermitianOperator, as an ascending array.

    Each real symmetric block of the operator is diagonalized on its own,
    by eigh or, given a flip, by an SVD of half its size.  Each eigenpair is
    checked on the block itself against the residual bound
    ||Hv - lambda v|| <= 1e-10 ||H||, with ||H|| the largest |eigenvalue|
    of the whole spectrum, dividing by ||H|| before squaring; dense
    symmetric solvers sit orders of magnitude below that, so a violation
    indicates a broken input.
    """
    if not isinstance(operator, HermitianOperator):
        raise ValidationError(f"expected a HermitianOperator, got {type(operator).__name__}")
    solved = [(block,) + tuple(np.linalg.eigh(block) if flip is None else _flip_eigh(block, flip))
              for (_, block), flip in zip(operator.blocks, operator.flips)]
    vals = np.sort(np.concatenate([np.zeros(0)] + [v for _, v, _ in solved]))
    norm = max(float(np.max(np.abs(vals), initial=0.0)), 1e-300)
    for block, v, vecs in solved:
        residual = np.linalg.norm((block @ vecs - vecs * v) / norm, axis=0)
        if np.any(residual > 1e-10):
            raise RotoshiftError("eigensolver residual exceeds tolerance")
    return _finite(vals)


def first_order_degenerate_levels(E0: float, W: HermitianOperator) -> np.ndarray:
    """Levels E0 + eig(W) of a degenerate manifold under perturbation W, ascending."""
    return _finite(E0 + eigen_spectrum(W))


# ---------------------------------------------------------------------------
# closed forms: displaced harmonic trap
# ---------------------------------------------------------------------------


def _ho_levels(N, m_z, rotor: RotorConfig):
    # the trap level formula, elementwise; the depression is formed once
    if not isinstance(rotor.model, Harmonic):
        raise ValidationError("rotor model must be Harmonic")
    w0 = rotor.model.omega0
    h = CODATA2018.hbar
    with double_precision("trap depression"):
        depression = (CODATA2018.electron_mass * w0 ** 2 * rotor.v_c ** 2
                      / (2.0 * (w0 ** 2 - rotor.Omega ** 2)))
    return h * w0 * (N + 1.5) - h * rotor.Omega * m_z - depression


def ho_rotating_levels(N: int, m_z: int, rotor: RotorConfig) -> float:
    """Closed-form quasi-energy of the rotating trap, in joules.

    hbar omega0 (N + 3/2) - hbar Omega m_z minus a level-independent
    depression m omega0^2 Omega^2 R^2 / (2 (omega0^2 - Omega^2)) from the
    displaced equilibrium.  Valid for any N >= 0 and |m_z| <= N.
    """
    if not isinstance(N, int) or isinstance(N, bool) or N < 0:
        raise ValidationError("shell number N must be a nonnegative integer")
    if not isinstance(m_z, int) or isinstance(m_z, bool) or abs(m_z) > N:
        raise ValidationError("m_z must be an integer with |m_z| <= N")
    return _ho_levels(N, m_z, rotor)


def ho_shell_multiplicity(N: int, m_z: int) -> int:
    """Number of shell-N oscillator states with axial angular momentum m_z, elementwise."""
    excess = N - abs(m_z)
    return (excess >= 0) * (excess // 2 + 1)


def ho_rotating_spectrum(N_max: int, rotor: RotorConfig) -> SpectrumResult:
    """Closed-form spectrum of all shells through N_max, with degeneracies.

    Labels are (N, m_z), repeated once per degenerate state, so the level
    multiset is directly comparable to a full diagonalization of the same
    truncation.
    """
    if not isinstance(N_max, int) or isinstance(N_max, bool) or N_max < 0:
        raise ValidationError("N_max must be a nonnegative integer")
    # every (N, m_z) with |m_z| <= N_max; those with |m_z| > N have no state
    N, m_z = np.indices((N_max + 1, 2 * N_max + 1)).reshape(2, -1) - [[0], [N_max]]
    labels = np.repeat(np.stack([N, m_z], axis=1), ho_shell_multiplicity(N, m_z), axis=0)
    return SpectrumResult(labels, _ho_levels(labels[:, 0], labels[:, 1], rotor))


# ---------------------------------------------------------------------------
# numeric oracle: the trap in circular quanta
# ---------------------------------------------------------------------------

# largest truncation bound of a reported level, in units of hbar omega0
_CERTIFIED = 3e-13
# largest mode basis tried, and the size up to which it grows in steps of 3
_MAX_STATES = 400
_SMALL_STEPS = 96


def _mode_levels(slope: float, drive: float, count: int):
    # (levels, leaks) of the ladder states k = 0 .. count-1 of slope n - drive (a + a+),
    # from the smallest basis in the schedule whose every leak is below _CERTIFIED/sqrt(2).
    # k counts upward from the lowest level when the slope is positive, downward from
    # the highest when it is negative.  The leak drive sqrt(K) |u_{K-1}| of an eigenvector
    # u of the K-state truncation is the norm of its residual in the full ladder, so an
    # exact level lies within it (Weinstein)
    picked = slice(count) if slope > 0 else slice(-1, -count - 1, -1)
    states = count + 1
    while True:
        mode = _circular_mode(slope, drive, states)
        vals, vecs = np.linalg.eigh(mode)
        leaks = abs(drive) * sqrt(states) * np.abs(vecs[-1, picked])
        if leaks.max() <= _CERTIFIED / sqrt(2):
            break
        if states == _MAX_STATES:
            raise OutOfRegimeError(f"no circular-mode basis of up to {_MAX_STATES} states "
                                   f"certifies the levels to {_CERTIFIED:g} hbar omega0")
        states = min(states + (3 if states < _SMALL_STEPS else states // 4), _MAX_STATES)
    norm = max(abs(vals[0]), abs(vals[-1]), 1e-300)
    if np.any(np.linalg.norm((mode @ vecs - vecs * vals) / norm, axis=0) > 1e-10):
        raise RotoshiftError("eigensolver residual exceeds tolerance")
    return vals[picked], leaks


def _ho_circular_levels(N_max: int, rotor: RotorConfig):
    """Levels of the rotating trap through shell N_max, from its circular quanta.

    With a+- = (a_x -+ i a_y)/sqrt(2), L_z = n+ - n- and, in a real gauge, the
    trap is h+ + h- + n_z + 3/2 in units of hbar omega0, where
    h+- = (1 -+ Omega/omega0) n - (v/2)(a + a+) and v is the orbital speed in
    trap units.  The two modes never couple, so each is one tridiagonal, solved
    on its own and grown until it is certified.  Level (i, j, n_z) is
    e+[i] + e-[j] + n_z + 3/2 with label (N, m_z) = (i + j + n_z, i - j).
    Returns (labels, energies, bounds): one int64 (N, m_z) row per state with
    N <= N_max, sorted by label and within a label by energy; the energies and
    the truncation bounds hypot(leak+[i], leak-[j]) are in J.  Reads no closed
    form; OutOfRegimeError when no basis up to _MAX_STATES certifies the levels.
    """
    if not isinstance(rotor.model, Harmonic):
        raise ValidationError("rotor model must be Harmonic")
    omega0 = rotor.model.omega0
    wrel = rotor.Omega / omega0
    drive = 0.5 * rotor.v_c * sqrt(CODATA2018.electron_mass / (CODATA2018.hbar * omega0))
    if not isfinite(drive):
        raise OutOfRegimeError("the orbital speed leaves the double-precision range")
    (plus, leak_plus), (minus, leak_minus) = (
        _mode_levels(slope, drive, N_max + 1) for slope in (1.0 - wrel, 1.0 + wrel))
    i, j, n_z = np.indices((N_max + 1,) * 3).reshape(3, -1)
    keep = i + j + n_z <= N_max
    i, j, n_z = i[keep], j[keep], n_z[keep]
    quantum = CODATA2018.hbar * omega0
    energies = (plus[i] + minus[j] + n_z + 1.5) * quantum
    labels = np.stack([i + j + n_z, i - j], axis=1)
    order = np.lexsort((energies, labels[:, 1], labels[:, 0]))
    bounds = np.hypot(leak_plus[i], leak_minus[j]) * quantum
    return labels[order], _finite(energies[order]), bounds[order]


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
    if not isfinite(omega_S):
        raise OutOfRegimeError("Stark rate leaves the double-precision range")
    return copysign(hypot(omega_L, omega_S), omega_L), omega_S


def _fan_level(n: int, m_z: int, omega_L: float, force: float, Z: int,
               stacklevel: int = 3) -> Tuple[float, float]:
    # (E_n - hbar m_z Omega_fan, omega_S), also over an m_z array; warns, at the public
    # function's caller stacklevel frames up, when the fan spreads over 1% of the next shell gap
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
    total electric field.  The fan is equidistant only when E is
    perpendicular to B or either field is zero, so an E with a component
    along a nonzero B_z is refused.
    """
    e = CODATA2018.elementary_charge
    omega_L = e * float(fields.pseudo_B[2]) / (2.0 * CODATA2018.electron_mass)
    _check_shell_numbers(n, m_z)
    E = fields.total_stark_magnitude()
    if fields.pseudo_B[2] != 0 and abs(fields.pseudo_E[2]) > 1e-12 * E:
        raise ValidationError("the crossed-field fan needs E perpendicular to B when B_z != 0")
    return _fan_level(n, m_z, omega_L, e * E, Z)[0]


def _require_coulomb(rotor: RotorConfig) -> Coulomb:
    if not isinstance(rotor.model, Coulomb):
        raise ValidationError("rotor model must be Coulomb")
    return rotor.model


def _turntable_force(rotor: RotorConfig, drive_E) -> Tuple[float, int]:
    # (F, Z) on the turntable, where omega_L = Omega and the in-plane force
    # is F = |m Omega^2 R rhat + e E|; no drive keeps to scalar arithmetic.  The
    # fan is equidistant only for a force perpendicular to B_z, so E_z is refused
    model = _require_coulomb(rotor)
    m = CODATA2018.electron_mass
    if drive_E is None:
        return m * rotor.Omega ** 2 * rotor.R, model.Z
    drive = np.asarray(drive_E, dtype=float)
    if drive.shape != (3,) or not np.all(np.isfinite(drive)):
        raise ValidationError("drive field must be a finite 3-vector")
    if abs(drive[2]) > 1e-12 * hypot(*drive):
        raise ValidationError("the turntable fan needs a drive field in the orbit plane")
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
    _check_shell_numbers(n, m_z)
    return _fan_level(n, m_z, rotor.Omega, force, Z)[0]


def driven_splitting_parameter(n: int, rotor: RotorConfig, drive_E) -> float:
    """Splitting parameter with a genuine drive field folded in.

    x = 3 n |m Omega^2 R + e E| / (2 m v_a |Omega|), the vector sum taken
    between the centrifugal term along the orbit vector and the drive, which
    must lie in the orbit plane.  Zero rotation with a nonzero drive has no
    quasi-energy frame and is rejected; zero rotation with zero drive gives x = 0.
    """
    force, Z = _turntable_force(rotor, drive_E)
    omega_S = _fan_rate(n, rotor.Omega, force, Z)[1]
    return omega_S / abs(rotor.Omega) if omega_S else 0.0


def driven_rotating_levels(n: int, m_z: int, rotor: RotorConfig, drive_E) -> float:
    """Rotating hydrogen level with a genuine drive field added, in joules.

    The drive adds vectorially to the centrifugal term, so depending on the
    orientation it deepens the splitting or cancels it; an antiparallel
    drive with eE = m Omega^2 R collapses the root to exactly 1.  As Omega
    goes to zero under a drive, the fan tends to the Stark fan.  A drive with a
    component along the rotation axis is refused: the fan is then not equidistant.
    """
    force, Z = _turntable_force(rotor, drive_E)
    _check_shell_numbers(n, m_z)
    return _fan_level(n, m_z, rotor.Omega, force, Z)[0]


def rotating_coulomb_spectrum(n_max: int, rotor: RotorConfig) -> SpectrumResult:
    """Closed-form turntable spectrum of all shells through n_max.

    Labels are (n, m_z), repeated once per degenerate orbital (a given m_z
    occurs in the n - |m_z| states with l >= |m_z|).
    """
    force, Z = _turntable_force(rotor, None)
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise ValidationError("n_max must be a positive integer")
    n, m_z = np.indices((n_max, 2 * n_max - 1)).reshape(2, -1) + [[1], [1 - n_max]]
    labels = np.repeat(np.stack([n, m_z], axis=1), np.maximum(n - abs(m_z), 0), axis=0)
    energies = []
    for q in range(1, n_max + 1):
        # one fan per shell, so a shell warns at most once, naming the caller
        energies.append(_fan_level(q, labels[labels[:, 0] == q, 1], rotor.Omega, force, Z)[0])
    return SpectrumResult(labels, np.concatenate(energies))
