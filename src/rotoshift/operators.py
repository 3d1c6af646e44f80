"""Truncated bases and Hermitian operator matrices for rotating emitters.

Two models are covered: a three-dimensional harmonic trap whose center moves
on a circle, and a hydrogen-like atom held at fixed distance from a rotation
axis.  Matrices are assembled element by element from exact ladder-operator
or dipole matrix elements, then projected onto the truncated basis, so each
stored entry is exact; truncation only removes couplings out of the basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, sqrt
from typing import Tuple

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .constants import CODATA2018, PhysicalConstants
from .errors import ResonanceError, SelectionRuleError, ValidationError
from .rotor import RESONANCE_TOLERANCE, CrossedFields, Harmonic, RotorConfig

# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedBasis:
    """Ordered, labeled basis of a finite model subspace.

    kind is "HO3D" (Cartesian occupation triples (n_x, n_y, n_z)) or
    "HydrogenManifold" (fixed-n hydrogenic labels (n, l, m_l)).  Labels are
    unique and sorted lexicographically; that order fixes matrix layout and
    all tie-breaking downstream.
    """

    kind: str
    labels: Tuple[tuple, ...]

    def __post_init__(self):
        if self.kind not in ("HO3D", "HydrogenManifold"):
            raise ValidationError(f"unknown basis kind {self.kind!r}")
        if list(self.labels) != sorted(set(self.labels)):
            raise ValidationError("basis labels must be unique and lexicographically sorted")

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix over a labeled truncated basis."""

    basis: TruncatedBasis
    matrix: np.ndarray
    hermiticity_defect: float

    @classmethod
    def from_matrix(cls, basis: TruncatedBasis, matrix: np.ndarray) -> "HermitianOperator":
        # the cast copies, so the stored matrix shares no memory with the caller
        matrix = np.array(matrix, dtype=complex if np.iscomplexobj(matrix) else float)
        if matrix.shape != (basis.dimension, basis.dimension):
            raise ValidationError("matrix dimension does not match basis dimension")
        defect = float(np.max(np.abs(matrix - matrix.conj().T))) if matrix.size else 0.0
        scale = float(np.max(np.abs(matrix))) if matrix.size else 0.0
        if defect > 1e-12 * max(scale, 1e-300):
            raise ValidationError("matrix is not Hermitian to working precision")
        matrix.flags.writeable = False
        return cls(basis=basis, matrix=matrix, hermiticity_defect=defect)


def build_ho_basis(N_max: int) -> TruncatedBasis:
    """All oscillator occupation triples with n_x+n_y+n_z <= N_max.

    The dimension is the tetrahedral number (N_max+1)(N_max+2)(N_max+3)/6,
    e.g. 286 for N_max=10.
    """
    if not isinstance(N_max, int) or isinstance(N_max, bool) or N_max < 0:
        raise ValidationError("N_max must be a nonnegative integer")
    labels = [(nx, ny, nz)
              for nx in range(N_max + 1)
              for ny in range(N_max + 1 - nx)
              for nz in range(N_max + 1 - nx - ny)]
    labels.sort()
    return TruncatedBasis(kind="HO3D", labels=tuple(labels))


def hydrogen_manifold_basis(n: int) -> TruncatedBasis:
    """All (n, l, m_l) labels of one principal shell; dimension n^2."""
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= 10:
        raise ValidationError("principal quantum number must satisfy 1 <= n <= 10")
    labels = [(n, l, m) for l in range(n) for m in range(-l, l + 1)]
    labels.sort()
    return TruncatedBasis(kind="HydrogenManifold", labels=tuple(labels))


# ---------------------------------------------------------------------------
# harmonic trap on a turntable
# ---------------------------------------------------------------------------


def _ho_hops(basis: TruncatedBasis):
    """Label array and hop function of an HO3D basis.

    hop(dx, dy, dz) returns (source, target, n_x, n_y): the basis indices
    of every label n whose shift n + (dx, dy, dz) stays inside the basis,
    the indices of the shifted labels, and the source occupations.  Targets
    come from a label -> index table padded by one on each side.
    """
    if basis.kind != "HO3D":
        raise ValidationError("oscillator operators need an HO3D basis")
    labels = np.array(basis.labels, dtype=np.int64).reshape(-1, 3)
    table = np.full(tuple(labels.max(axis=0) + 3), -1, dtype=np.int64)
    table[tuple(labels.T + 1)] = np.arange(len(labels))

    def hop(dx: int, dy: int, dz: int = 0):
        target = table[tuple(labels.T + 1 + np.array([[dx], [dy], [dz]]))]
        source = np.flatnonzero(target >= 0)
        return source, target[source], labels[source, 0], labels[source, 1]

    return labels, hop


def _ho_lz(labels: np.ndarray, hop) -> np.ndarray:
    # l_z = i (a_x a_y+ - a_x+ a_y) in the gauge |n> -> i^{n_x} |n>
    L = np.zeros((len(labels), len(labels)))
    source, target, nx, ny = hop(-1, 1)
    L[target, source] = -np.sqrt(nx * (ny + 1))
    source, target, nx, ny = hop(1, -1)
    L[target, source] = -np.sqrt((nx + 1) * ny)
    return L


def ho_rotating_hamiltonian(basis: TruncatedBasis, rotor: RotorConfig,
                            constants: PhysicalConstants = CODATA2018) -> HermitianOperator:
    """Rotating-frame Hamiltonian of the circularly translated harmonic trap.

    Assembles p^2/2m + m omega0^2 r^2/2 - Omega L_z - v_c . p over the
    occupation basis, with the orbital velocity along +x.  Entries are in
    joules.  The first two terms are diagonal, the angular-momentum term
    couples (n_x, n_y) -> (n_x -+ 1, n_y +- 1) within an oscillator shell,
    and the velocity term couples adjacent shells through p_x.  No term
    changes n_z.

    The matrix is written in the gauge |n> -> i^{n_x} |n>, where every
    ladder element is real: L_z has elements -sqrt(n_x (n_y + 1)) and
    -sqrt((n_x + 1) n_y), and -v p_x has -v sqrt((n_x + 1)/2) and
    -v sqrt(n_x/2) in trap units.  The gauge leaves the spectrum unchanged.
    """
    if not isinstance(rotor.model, Harmonic):
        raise ValidationError("rotor model must be Harmonic")
    labels, hop = _ho_hops(basis)
    omega0 = rotor.model.omega0
    wrel = rotor.Omega / omega0
    # dimensionless orbital velocity in trap units sqrt(hbar omega0 / m)
    vrel = rotor.v_c * sqrt(constants.electron_mass / (constants.hbar * omega0))

    H = -wrel * _ho_lz(labels, hop)
    np.fill_diagonal(H, labels.sum(axis=1) + 1.5)
    # -v p_x with p_x = (a_x+ + a_x)/sqrt(2) in trap units and this gauge
    source, target, nx, _ = hop(1, 0)
    H[target, source] = -vrel * np.sqrt((nx + 1) / 2.0)
    source, target, nx, _ = hop(-1, 0)
    H[target, source] = -vrel * np.sqrt(nx / 2.0)
    H *= constants.hbar * omega0
    return HermitianOperator.from_matrix(basis, H)


def ho_lz_matrix(basis: TruncatedBasis) -> HermitianOperator:
    """Axial angular momentum over the occupation basis, in units of hbar.

    Written in the same real gauge |n> -> i^{n_x} |n> as
    ho_rotating_hamiltonian: the elements are -sqrt(n_x (n_y + 1)) and
    -sqrt((n_x + 1) n_y).
    """
    labels, hop = _ho_hops(basis)
    return HermitianOperator.from_matrix(basis, _ho_lz(labels, hop))


def displacement_parameters(rotor: RotorConfig,
                            constants: PhysicalConstants = CODATA2018):
    """Momentum and position offsets that make the rotating trap Hamiltonian static.

    Returns (a, b): a = m omega0^2/(omega0^2 - Omega^2) Omega x R is the
    momentum shift (kg m/s) and b = Omega^2/(omega0^2 - Omega^2) R the
    position shift (m).  Both diverge at the trap resonance, which the
    rotor configuration already guards against.
    """
    if not isinstance(rotor.model, Harmonic):
        raise ValidationError("displacement parameters are defined for the Harmonic model")
    omega0 = rotor.model.omega0
    denom = omega0 ** 2 - rotor.Omega ** 2
    if abs(denom) < RESONANCE_TOLERANCE * omega0 ** 2:
        raise ResonanceError("rotation rate within the resonance guard band")
    m = constants.electron_mass
    a = (m * omega0 ** 2 / denom) * rotor.velocity_vec
    b = (rotor.Omega ** 2 / denom) * rotor.radius_vec
    return a, b


# ---------------------------------------------------------------------------
# hydrogen shell under crossed fields
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _laguerre_nodes(count: int):
    return laggauss(count)


def _genlaguerre(k: int, alpha: int, x: np.ndarray) -> np.ndarray:
    # L_k^(alpha)(x) by the three-term recurrence in k
    prev, cur = np.ones_like(x), 1.0 + alpha - x
    if k == 0:
        return prev
    for j in range(1, k):
        prev, cur = cur, ((2 * j + 1 + alpha - x) * cur - (j + alpha) * prev) / (j + 1)
    return cur


def _radial_norm(n: int, l: int) -> float:
    return sqrt((2.0 / n) ** 3 * factorial(n - l - 1) / (2.0 * n * factorial(n + l)))


def radial_dipole_integral(n: int, l: int, l_prime: int) -> float:
    """Radial dipole element <n l' | r | n l> within one shell, in a0/Z units.

    Evaluated by Gauss-Laguerre quadrature of the hydrogenic radial
    functions (positive near the origin, associated-Laguerre form); the
    integrand is a polynomial times the quadrature weight, so the result is
    exact to machine precision.  With this phase convention the same-shell
    element is negative; its magnitude is (3n/2) sqrt(n^2 - l_>^2).
    """
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= 10:
        raise ValidationError("principal quantum number must satisfy 1 <= n <= 10")
    for name, l_ in (("l", l), ("l_prime", l_prime)):
        if not isinstance(l_, int) or isinstance(l_, bool) or not 0 <= l_ <= n - 1:
            raise ValidationError(f"{name} must be an integer in [0, n-1]")
    if abs(l - l_prime) != 1:
        raise SelectionRuleError("radial dipole element requires |l - l'| = 1")
    # substitution rho = 2r/n; the two e^{-rho/2} factors supply the
    # Gauss-Laguerre weight, the rest is a degree 2n+1 polynomial
    x, w = _laguerre_nodes(80)
    np_, npp = _radial_norm(n, l), _radial_norm(n, l_prime)
    poly = (x ** (l + l_prime)
            * _genlaguerre(n - l - 1, 2 * l + 1, x)
            * _genlaguerre(n - l_prime - 1, 2 * l_prime + 1, x))
    val = np_ * npp * np.sum(w * poly * (n * x / 2.0) ** 3) * (n / 2.0)
    return float(val)


def _angular_cos(lp: int, mp: int, l: int, m: int) -> float:
    # <l' m'| cos(theta) |l m>, Condon-Shortley phases
    if mp != m:
        return 0.0
    if lp == l + 1:
        return sqrt((l + 1.0 - m) * (l + 1.0 + m) / ((2 * l + 1.0) * (2 * l + 3.0)))
    if lp == l - 1:
        return sqrt((l - m) * (l + m) / ((2 * l - 1.0) * (2 * l + 1.0)))
    return 0.0


def _angular_sin_exp(lp: int, mp: int, l: int, m: int, s: int) -> float:
    # <l' m'| sin(theta) e^{i s phi} |l m> for s = +-1
    if mp != m + s:
        return 0.0
    if lp == l + 1:
        if s == 1:
            return -sqrt((l + m + 1.0) * (l + m + 2.0) / ((2 * l + 1.0) * (2 * l + 3.0)))
        return sqrt((l - m + 1.0) * (l - m + 2.0) / ((2 * l + 1.0) * (2 * l + 3.0)))
    if lp == l - 1:
        if s == 1:
            return sqrt((l - m) * (l - m - 1.0) / ((2 * l - 1.0) * (2 * l + 1.0)))
        return -sqrt((l + m) * (l + m - 1.0) / ((2 * l - 1.0) * (2 * l + 1.0)))
    return 0.0


def manifold_position_matrices(n: int):
    """Cartesian position matrices (x, y, z) over one shell, in a0/Z units.

    Built from the radial quadrature and the spherical-harmonic ladder
    formulas; all three are Hermitian and vanish on the diagonal by parity.
    """
    basis = hydrogen_manifold_basis(n)
    d = basis.dimension
    radial = {(l, lp): radial_dipole_integral(n, l, lp)
              for l in range(n) for lp in (l - 1, l + 1) if 0 <= lp < n}
    X = np.zeros((d, d), dtype=complex)
    Y = np.zeros((d, d), dtype=complex)
    Z = np.zeros((d, d), dtype=complex)
    for j, (_, l, m) in enumerate(basis.labels):
        for i, (_, lp, mp) in enumerate(basis.labels):
            if abs(lp - l) != 1:
                continue
            rad = radial[l, lp]
            plus = _angular_sin_exp(lp, mp, l, m, +1)
            minus = _angular_sin_exp(lp, mp, l, m, -1)
            X[i, j] = rad * 0.5 * (plus + minus)
            Y[i, j] = rad * (plus - minus) / 2j
            Z[i, j] = rad * _angular_cos(lp, mp, l, m)
    return basis, X, Y, Z


def manifold_perturbation(n: int, fields: CrossedFields,
                          constants: PhysicalConstants = CODATA2018,
                          Z: int = 1) -> HermitianOperator:
    """First-order perturbation matrix of one hydrogen shell in crossed fields.

    W = -e (E_pseudo + E_drive) . r - (e/2m) B L_z restricted to the n^2
    degenerate states, in joules.  The magnetic part is diagonal in m_l; the
    Stark part mixes l by one through the dipole elements.  For n=1 the
    matrix is identically zero (no linear Stark shift, single m_l).
    """
    if not isinstance(Z, int) or isinstance(Z, bool) or Z < 1:
        raise ValidationError("nuclear charge Z must be an integer >= 1")
    basis, X, Y, Zmat = manifold_position_matrices(n)
    e = constants.elementary_charge
    length = constants.bohr_radius / Z
    Ex, Ey, Ez = (float(c) for c in fields.total_stark_field())
    W = -e * length * (Ex * X + Ey * Y + Ez * Zmat)
    larmor = e * float(fields.pseudo_B[2]) / (2.0 * constants.electron_mass)
    for j, (_, _, m) in enumerate(basis.labels):
        W[j, j] += -larmor * constants.hbar * m
    return HermitianOperator.from_matrix(basis, W)
