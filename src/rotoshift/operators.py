"""Truncated bases and Hermitian operator matrices for rotating emitters.

Two models are covered: a three-dimensional harmonic trap whose center moves
on a circle, and a hydrogen-like atom held at fixed distance from a rotation
axis.  Matrices are assembled by index arithmetic over a label -> index
table from exact ladder-operator or dipole matrix elements, so each stored
entry is exact; truncation only removes couplings out of the basis.  The
shell's x and y follow from z through the commutators with L+-.  Each
operator is kept as the blocks an exact symmetry leaves uncoupled: the n_z
sectors of the trap, the sigma_z-parity classes of the shell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import factorial, sqrt
from operator import lt
from typing import Tuple

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .constants import CODATA2018
from .errors import SelectionRuleError, ValidationError
from .rotor import CrossedFields, Harmonic, RotorConfig

# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedBasis:
    """Ordered, labeled basis of a finite model subspace.

    kind is "HO3D" (Cartesian occupation triples (n_x, n_y, n_z) of
    nonnegative integers) or "HydrogenManifold" (fixed-n hydrogenic labels
    (n, l, m_l)).  Labels are unique and sorted lexicographically; that
    order fixes matrix layout and all tie-breaking downstream.
    """

    kind: str
    labels: Tuple[tuple, ...]

    def __post_init__(self):
        if self.kind not in ("HO3D", "HydrogenManifold"):
            raise ValidationError(f"unknown basis kind {self.kind!r}")
        # both checks map builtins over the labels, so they run in C
        if self.kind == "HO3D":
            flat = list(chain.from_iterable(self.labels))
            if not (set(map(type, self.labels)) <= {tuple} and set(map(len, self.labels)) <= {3}
                    and set(map(type, flat)) <= {int} and min(flat, default=0) >= 0):
                raise ValidationError("HO3D labels must be triples of nonnegative integers")
        # strictly increasing means unique and sorted
        if not all(map(lt, self.labels, self.labels[1:])):
            raise ValidationError("basis labels must be unique and lexicographically sorted")

    @property
    def dimension(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian operator over a labeled truncated basis, kept as the blocks
    a symmetry leaves uncoupled: (indices, block) pairs whose indices
    partition the basis, each block a read-only dense Hermitian array over
    its indices.  Built by from_blocks, which checks all of that.
    """

    basis: TruncatedBasis
    blocks: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    hermiticity_defect: float

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, scattered from the blocks on every read."""
        dim = self.basis.dimension
        dense = np.zeros((dim, dim), np.result_type(float, *(b for _, b in self.blocks)))
        for indices, block in self.blocks:
            dense[np.ix_(indices, indices)] = block
        dense.flags.writeable = False
        return dense

    @classmethod
    def from_blocks(cls, basis: TruncatedBasis, blocks) -> "HermitianOperator":
        """Operator from (indices, block) pairs whose indices partition the basis."""
        # the casts copy, so no stored array shares memory with the caller
        blocks = [(np.array(i, dtype=np.int64),
                   np.array(b, dtype=complex if np.iscomplexobj(b) else float))
                  for i, b in blocks]
        if any(i.ndim != 1 or b.shape != (len(i), len(i)) for i, b in blocks):
            raise ValidationError("block dimension does not match its indices")
        taken = np.concatenate([np.zeros(0, np.int64)] + [i for i, _ in blocks])
        if not np.array_equal(np.sort(taken), np.arange(basis.dimension)):
            raise ValidationError("block indices must partition the basis")
        if not all(np.isfinite(b).all() for _, b in blocks):
            raise ValidationError("matrix entries must be finite")
        defect = max([0.0] + [np.max(np.abs(b - b.conj().T), initial=0.0) for _, b in blocks])
        scale = max([0.0] + [np.max(np.abs(b), initial=0.0) for _, b in blocks])
        if defect > 1e-12 * max(scale, 1e-300):
            raise ValidationError("matrix is not Hermitian to working precision")
        for i, b in blocks:
            i.flags.writeable = b.flags.writeable = False
        return cls(basis=basis, blocks=tuple(blocks), hermiticity_defect=float(defect))


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
    return TruncatedBasis(kind="HO3D", labels=tuple(labels))


def hydrogen_manifold_basis(n: int) -> TruncatedBasis:
    """All (n, l, m_l) labels of one principal shell; dimension n^2."""
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= 10:
        raise ValidationError("principal quantum number must satisfy 1 <= n <= 10")
    labels = [(n, l, m) for l in range(n) for m in range(-l, l + 1)]
    return TruncatedBasis(kind="HydrogenManifold", labels=tuple(labels))


def _label_hops(labels):
    """Label array and hop function of a sorted list of unique labels.

    hop(*shift) returns (source, target): the indices of every label whose
    shift by `shift` stays inside the list, and the indices of the shifted
    labels; callers read occupations from labels[source].  Targets come
    from a label -> index table padded by one on each side of each label
    component's range.
    """
    labels = np.asarray(labels, dtype=np.int64)
    low = labels.min(axis=0) - 1
    table = np.full(tuple(labels.max(axis=0) - low + 2), -1, dtype=np.int64)
    table[tuple((labels - low).T)] = np.arange(len(labels))

    def hop(*shift: int):
        target = table[tuple((labels - low + shift).T)]
        source = np.flatnonzero(target >= 0)
        return source, target[source]

    return labels, hop


# ---------------------------------------------------------------------------
# harmonic trap on a turntable
# ---------------------------------------------------------------------------


def _ho_sectors(basis: TruncatedBasis) -> list:
    # (indices, labels, hop) of each n_z sector, n_z ascending
    if basis.kind != "HO3D":
        raise ValidationError("oscillator operators need an HO3D basis")
    labels = np.array(basis.labels, dtype=np.int64)
    # not np.unique, which imports numpy.ma on its first call
    sectors = [np.flatnonzero(labels[:, 2] == nz) for nz in sorted(set(labels[:, 2].tolist()))]
    return [(indices, *_label_hops(labels[indices])) for indices in sectors]


def _ho_lz(labels: np.ndarray, hop) -> np.ndarray:
    # l_z = i (a_x a_y+ - a_x+ a_y) in the gauge |n> -> i^{n_x} |n>
    L = np.zeros((len(labels), len(labels)))
    source, target = hop(-1, 1, 0)
    nx, ny = labels[source, 0], labels[source, 1]
    L[target, source] = -np.sqrt(nx * (ny + 1))
    source, target = hop(1, -1, 0)
    nx, ny = labels[source, 0], labels[source, 1]
    L[target, source] = -np.sqrt((nx + 1) * ny)
    return L


def ho_rotating_hamiltonian(basis: TruncatedBasis, rotor: RotorConfig) -> HermitianOperator:
    """Rotating-frame Hamiltonian of the circularly translated harmonic trap.

    Assembles p^2/2m + m omega0^2 r^2/2 - Omega L_z - v_c . p over the
    occupation basis, with the orbital velocity along +x.  Entries are in
    joules.  The first two terms are diagonal, the angular-momentum term
    couples (n_x, n_y) -> (n_x -+ 1, n_y +- 1) within an oscillator shell,
    and the velocity term couples adjacent shells through p_x.  No term
    changes n_z, so each n_z sector is assembled as its own block.

    The matrix is written in the gauge |n> -> i^{n_x} |n>, where every
    ladder element is real: L_z has elements -sqrt(n_x (n_y + 1)) and
    -sqrt((n_x + 1) n_y), and -v p_x has -v sqrt((n_x + 1)/2) and
    -v sqrt(n_x/2) in trap units.  The gauge leaves the spectrum unchanged.
    """
    if not isinstance(rotor.model, Harmonic):
        raise ValidationError("rotor model must be Harmonic")
    omega0 = rotor.model.omega0
    wrel = rotor.Omega / omega0
    # dimensionless orbital velocity in trap units sqrt(hbar omega0 / m)
    vrel = rotor.v_c * sqrt(CODATA2018.electron_mass / (CODATA2018.hbar * omega0))

    blocks = []
    for indices, labels, hop in _ho_sectors(basis):
        H = -wrel * _ho_lz(labels, hop)
        np.fill_diagonal(H, labels.sum(axis=1) + 1.5)
        # -v p_x with p_x = (a_x+ + a_x)/sqrt(2) in trap units and this gauge
        source, target = hop(1, 0, 0)
        H[target, source] = -vrel * np.sqrt((labels[source, 0] + 1) / 2.0)
        source, target = hop(-1, 0, 0)
        H[target, source] = -vrel * np.sqrt(labels[source, 0] / 2.0)
        H *= CODATA2018.hbar * omega0
        blocks.append((indices, H))
    return HermitianOperator.from_blocks(basis, blocks)


def ho_lz_matrix(basis: TruncatedBasis) -> HermitianOperator:
    """Axial angular momentum over the occupation basis, in units of hbar.

    Written in the same real gauge |n> -> i^{n_x} |n> as
    ho_rotating_hamiltonian: the elements are -sqrt(n_x (n_y + 1)) and
    -sqrt((n_x + 1) n_y).
    """
    return HermitianOperator.from_blocks(
        basis, [(indices, _ho_lz(labels, hop)) for indices, labels, hop in _ho_sectors(basis)])


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


@lru_cache(maxsize=None)
def _radial_table(n: int) -> np.ndarray:
    # radial[l', l] = <n l'| r |n l>, each direction its own quadrature;
    # depends on n alone, so it is built once per shell and shared read-only
    radial = np.zeros((n, n))
    for l in range(n - 1):
        radial[l + 1, l] = radial_dipole_integral(n, l, l + 1)
        radial[l, l + 1] = radial_dipole_integral(n, l + 1, l)
    radial.flags.writeable = False
    return radial


def manifold_position_matrices(n: int):
    """Cartesian position matrices (x, y, z) over one shell, in a0/Z units.

    z is the radial quadrature times the cos(theta) factor
    sqrt((l< + 1 - m)(l< + 1 + m) / ((2 l< + 1)(2 l< + 3))) on each
    l -> l +- 1 hop, l< the smaller of the two l.  x and y follow from
    x + iy = -[L+, z] and x - iy = [L-, z], with L+ sqrt(l(l+1) - m(m+1))
    on the m -> m+1 hop and L- its transpose; L+- keeps n and l, so the
    commutators are exact inside the shell.  All three are Hermitian and
    vanish on the diagonal by parity; x and z are real, y purely imaginary.
    """
    basis = hydrogen_manifold_basis(n)
    labels, hop = _label_hops(basis.labels)
    Z = np.zeros((basis.dimension, basis.dimension))
    for dl in (-1, 1):
        source, target = hop(0, dl, 0)
        l, m = labels[source, 1], labels[source, 2]
        low = l + min(dl, 0)
        cos = np.sqrt((low + 1 - m) * (low + 1 + m) / ((2 * low + 1) * (2 * low + 3)))
        Z[target, source] = _radial_table(n)[l + dl, l] * cos
    Lp = np.zeros_like(Z)
    source, target = hop(0, 0, 1)
    l, m = labels[source, 1], labels[source, 2]
    Lp[target, source] = np.sqrt(l * (l + 1) - m * (m + 1))
    plus = Z @ Lp - Lp @ Z
    minus = Lp.T @ Z - Z @ Lp.T
    X = 0.5 * (plus + minus)
    Y = 0.5j * (minus - plus)
    return basis, X.astype(complex), Y, Z.astype(complex)


def manifold_perturbation(n: int, fields: CrossedFields, Z: int = 1) -> HermitianOperator:
    """First-order perturbation of one hydrogen shell in crossed fields, in J.

    W = -e E . r - (e/2m) B_z L_z over the n^2 degenerate states.  An
    in-plane E keeps the sigma_z parity (-1)^(l+m), so W is then kept as the
    blocks of the two parity classes; an E with a z component gives one block.
    """
    if not isinstance(Z, int) or isinstance(Z, bool) or Z < 1:
        raise ValidationError("nuclear charge Z must be an integer >= 1")
    basis, X, Y, Zmat = manifold_position_matrices(n)
    e = CODATA2018.elementary_charge
    length = CODATA2018.bohr_radius / Z
    Ex, Ey, Ez = (float(c) for c in fields.pseudo_E)
    W = -e * length * (Ex * X + Ey * Y + Ez * Zmat)
    larmor = e * float(fields.pseudo_B[2]) / (2.0 * CODATA2018.electron_mass)
    labels = np.array(basis.labels)
    diagonal = np.arange(basis.dimension)
    W[diagonal, diagonal] += -larmor * CODATA2018.hbar * labels[:, 2]
    parity = (labels[:, 1] + labels[:, 2]) % 2 if Ez == 0 else np.zeros_like(diagonal)
    # not np.unique, which imports numpy.ma
    classes = [np.flatnonzero(parity == p) for p in sorted(set(parity.tolist()))]
    return HermitianOperator.from_blocks(basis, [(i, W[np.ix_(i, i)]) for i in classes])
