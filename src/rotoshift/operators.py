"""Truncated bases and Hermitian operator matrices for rotating emitters.

Two models are covered: a three-dimensional harmonic trap whose center moves
on a circle, and a hydrogen-like atom held at fixed distance from a rotation
axis.  Matrices are assembled by index arithmetic over a label -> index
table from exact ladder-operator or dipole matrix elements, so each stored
entry is exact; truncation only removes couplings out of the basis.  The
shell's x follows from z through the commutators with L+-.  Each
operator is real symmetric and kept as the blocks an exact symmetry
leaves uncoupled: the trap's n_z sectors, the shell's sigma_z-parity classes.
The trap also splits into two uncoupled circular modes, each a tridiagonal
over its own number states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import factorial, hypot, sqrt
from operator import lt
from typing import Optional, Tuple

import numpy as np

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
    partition the basis, each block a read-only dense real symmetric array
    over its indices.  flips holds per block None or a read-only involution f
    of its positions with b[f][:, f] == -b.  Built by from_blocks, which checks
    all of that.
    """

    basis: TruncatedBasis
    blocks: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    hermiticity_defect: float
    flips: Tuple[Optional[np.ndarray], ...]

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, scattered from the blocks on every read."""
        dim = self.basis.dimension
        dense = np.zeros((dim, dim))
        for indices, block in self.blocks:
            dense[np.ix_(indices, indices)] = block
        dense.flags.writeable = False
        return dense

    @classmethod
    def from_blocks(cls, basis: TruncatedBasis, blocks) -> "HermitianOperator":
        """Operator from real (indices, block) or (indices, block, flip) entries
        whose indices partition the basis; a None flip is the same as none."""
        copied, flips = [], []
        for entry in blocks:
            i, b, flip = entry if len(entry) == 3 else (*entry, None)
            # checked before the cast to float, which would drop an imaginary part
            if np.iscomplexobj(b):
                raise ValidationError("operator blocks must be real")
            # the casts copy, so no stored array shares memory with the caller
            copied.append((np.array(i, dtype=np.int64), np.array(b, dtype=float)))
            flips.append(None if flip is None else np.array(flip))
        blocks = copied
        if any(i.ndim != 1 or b.shape != (len(i), len(i)) for i, b in blocks):
            raise ValidationError("block dimension does not match its indices")
        taken = np.concatenate([np.zeros(0, np.int64)] + [i for i, _ in blocks])
        if not np.array_equal(np.sort(taken), np.arange(basis.dimension)):
            raise ValidationError("block indices must partition the basis")
        # NaN and inf propagate into the largest |entry|, the scale
        scales = [np.max(np.abs(b), initial=0.0) for _, b in blocks]
        if not np.isfinite(scales).all():
            raise ValidationError("matrix entries must be finite")
        tolerance = 1e-12 * max(max(scales, default=0.0), 1e-300)
        defect = max([0.0] + [np.max(np.abs(b - b.T), initial=0.0) for _, b in blocks])
        if defect > tolerance:
            raise ValidationError("matrix is not Hermitian to working precision")
        for (_, b), f in zip(blocks, flips):
            k = np.arange(len(b))
            # clipped, f[f] == k still holds only when f is an involution of range(len(b))
            if f is not None and (f.dtype.kind not in "iu" or f.shape != k.shape
                                  or not (f.take(f, mode="clip") == k).all()):
                raise ValidationError("a block flip must be an involution of its positions")
            if f is not None and np.abs(b.take(f, 0).take(f, 1) + b).max(initial=0.0) > tolerance:
                raise ValidationError("a block flip must reverse the block's sign")
        for a in chain(*blocks, (f for f in flips if f is not None)):
            a.flags.writeable = False
        return cls(basis, tuple(blocks), float(defect), tuple(flips))


def build_ho_basis(N_max: int) -> TruncatedBasis:
    """All oscillator occupation triples with n_x+n_y+n_z <= N_max.

    The dimension is the tetrahedral number (N_max+1)(N_max+2)(N_max+3)/6,
    e.g. 286 for N_max=10.
    """
    if not isinstance(N_max, int) or isinstance(N_max, bool) or N_max < 0:
        raise ValidationError("N_max must be a nonnegative integer")
    return _ho_basis(N_max)


@lru_cache(maxsize=8)
def _ho_basis(N_max: int) -> TruncatedBasis:
    labels = [(nx, ny, nz)
              for nx in range(N_max + 1)
              for ny in range(N_max + 1 - nx)
              for nz in range(N_max + 1 - nx - ny)]
    return TruncatedBasis(kind="HO3D", labels=tuple(labels))


def _shell_number(n) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= 10:
        raise ValidationError("principal quantum number must satisfy 1 <= n <= 10")
    return n


def hydrogen_manifold_basis(n: int) -> TruncatedBasis:
    """All (n, l, m_l) labels of one principal shell; dimension n^2."""
    labels = [(n, l, m) for l in range(_shell_number(n)) for m in range(-l, l + 1)]
    return TruncatedBasis(kind="HydrogenManifold", labels=tuple(labels))


def _label_hops(labels):
    """Label array and hop function of a sorted list of unique labels.

    hop(*shift) returns (source, target): the indices of every label whose
    shift by `shift` stays inside the list, and the indices of the shifted
    labels; callers read occupations from labels[source].  Targets come
    from a label -> index table padded by one on each side of each label
    component's range; each range takes in 0, so an empty list has one too.
    """
    labels = np.asarray(labels, dtype=np.int64)
    low = labels.min(axis=0, initial=0) - 1
    table = np.full(tuple(labels.max(axis=0, initial=0) - low + 2), -1, dtype=np.int64)
    table[tuple((labels - low).T)] = np.arange(len(labels))

    def hop(*shift: int):
        target = table[tuple((labels - low + shift).T)]
        source = np.flatnonzero(target >= 0)
        return source, target[source]

    return labels, hop


# ---------------------------------------------------------------------------
# harmonic trap on a turntable
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _ho_plane(basis: TruncatedBasis):
    # (plane, hop, lz, sectors): all (n_x, n_y) labels, sorted, their hop function,
    # l_z over them, and (n_z, indices, cut) per n_z sector; cut picks it from the plane.
    # They depend on the basis alone, so they are built once and shared read-only
    if basis.kind != "HO3D":
        raise ValidationError("oscillator operators need an HO3D basis")
    labels = np.array(basis.labels, dtype=np.int64).reshape(-1, 3)
    # sorted labels pass each (n_x, n_y) in one run; not np.unique, which imports numpy.ma
    first = np.diff(labels[:, :2], axis=0, prepend=-1).any(axis=1)
    position = np.cumsum(first) - 1
    indices = {z: np.flatnonzero(labels[:, 2] == z) for z in sorted(set(labels[:, 2].tolist()))}
    sectors = tuple((n_z, i, np.ix_(position[i], position[i])) for n_z, i in indices.items())
    plane, hop = _label_hops(labels[first, :2])
    # l_z = i (a_x a_y+ - a_x+ a_y) in the gauge |n> -> i^{n_x} |n>; a hop by
    # d from occupation n has the ladder factor sqrt(n + max(d, 0))
    lz = np.zeros((len(plane), len(plane)))
    for dx, dy in ((-1, 1), (1, -1)):
        source, target = hop(dx, dy)
        lz[target, source] = -np.sqrt((plane[source, 0] + max(dx, 0))
                                      * (plane[source, 1] + max(dy, 0)))
    for a in chain([plane, lz], *((i, *cut) for _, i, cut in sectors)):
        a.flags.writeable = False
    return plane, hop, lz, sectors


def ho_rotating_hamiltonian(basis: TruncatedBasis, rotor: RotorConfig) -> HermitianOperator:
    """Rotating-frame Hamiltonian of the circularly translated harmonic trap.

    Assembles p^2/2m + m omega0^2 r^2/2 - Omega L_z - v_c . p over the
    occupation basis, with the orbital velocity along +x.  Entries are in
    joules.  The first two terms are diagonal, the angular-momentum term
    couples (n_x, n_y) -> (n_x -+ 1, n_y +- 1) within an oscillator shell,
    and the velocity term couples adjacent shells through p_x.  No term
    changes n_z, so each n_z sector's block is cut from one plane operator.

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

    plane, hop, lz, sectors = _ho_plane(basis)
    U = -wrel * lz
    np.fill_diagonal(U, plane.sum(axis=1) + 1.5)
    # -v p_x with p_x = (a_x+ + a_x)/sqrt(2) in trap units and this gauge
    for dx in (1, -1):
        source, target = hop(dx, 0)
        U[target, source] = -vrel * np.sqrt((plane[source, 0] + max(dx, 0)) / 2.0)
    def blocks():
        # one at a time, so that from_blocks copies each before the next is cut
        for n_z, indices, cut in sectors:
            H = U[cut]
            np.fill_diagonal(H, H.diagonal() + n_z)
            H *= CODATA2018.hbar * omega0
            yield indices, H
    return HermitianOperator.from_blocks(basis, blocks())


def ho_lz_matrix(basis: TruncatedBasis) -> HermitianOperator:
    """Axial angular momentum over the occupation basis, in units of hbar.

    Written in the same real gauge |n> -> i^{n_x} |n> as
    ho_rotating_hamiltonian: the elements are -sqrt(n_x (n_y + 1)) and
    -sqrt((n_x + 1) n_y).  Its blocks are cut from L_z over the plane.
    """
    _, _, lz, sectors = _ho_plane(basis)
    return HermitianOperator.from_blocks(basis, ((i, lz[cut]) for _, i, cut in sectors))


def _circular_mode(slope: float, drive: float, states: int) -> np.ndarray:
    # slope n - drive (a + a+) over the number states 0 .. states-1 of one circular mode,
    # in trap units: n = a+ a on the diagonal, and a+ |k-1> = sqrt(k) |k> beside it
    mode = np.zeros((states, states))
    mode.flat[::states + 1] = slope * np.arange(states)
    ladder = np.sqrt(np.arange(1, states))
    mode.flat[1::states + 1] = mode.flat[states::states + 1] = -drive * ladder
    return mode


# ---------------------------------------------------------------------------
# hydrogen shell under crossed fields
# ---------------------------------------------------------------------------


def _lagval(x, c):
    # sum c_k L_k(x) by Clenshaw's recurrence, as numpy.polynomial.laguerre.lagval
    nd, c0, c1 = len(c), c[-2], c[-1]
    for i in range(3, len(c) + 1):
        nd = nd - 1
        c0, c1 = c[-i] - (c1 * (nd - 1)) / nd, c0 + (c1 * ((2 * nd - 1) - x)) / nd
    return c0 + c1 * (1 - x)


@lru_cache(maxsize=None)
def _laguerre_nodes(count: int):
    # numpy.polynomial.laguerre.laggauss step for step, so bit for bit, without
    # importing numpy.polynomial's nine modules (0.7 MB resident per process)
    c, k = np.eye(count + 1)[-1], np.arange(count)
    companion = np.diag(2.0 * k + 1.0) + np.diag(-k[1:], 1) + np.diag(-k[1:], -1)
    x = np.linalg.eigvalsh(companion)
    # one Newton step; L_count' = -(L_0 + ... + L_{count-1})
    dy, df = _lagval(x, c), _lagval(x, -np.ones(count))
    x -= dy / df
    fm = _lagval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w /= w.sum()
    return x, w


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
    _shell_number(n)
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
    l -> l +- 1 hop, l< the smaller of the two l.  x follows from
    x + iy = -[L+, z] and x - iy = [L-, z], with L+ sqrt(l(l+1) - m(m+1))
    on the m -> m+1 hop and L- its transpose; L+- keeps n and l, so the
    commutators are exact inside the shell; y is x turned about z by 90
    degrees, i (m' - m) x elementwise.  All three are new arrays, Hermitian,
    and zero on the diagonal by parity; x and z are real, y purely imaginary.
    """
    basis, x, z, m_l, _ = _shell(_shell_number(n))
    return basis, x.copy(), 1j * (m_l - m_l[:, None]) * x, z.copy()


@lru_cache(maxsize=None)
def _shell(n: int):
    # (basis, x, z, m_l, parity classes): what of one shell depends on n alone,
    # built once and shared read-only; x and z take 16 n^4 bytes, 0.4 MiB for
    # all n <= 10.  Each class is (indices, cut, flip), flip its m -> -m permutation
    basis = hydrogen_manifold_basis(n)
    labels, hop = _label_hops(basis.labels)
    z = np.zeros((basis.dimension, basis.dimension))
    for dl in (-1, 1):
        source, target = hop(0, dl, 0)
        l, m = labels[source, 1], labels[source, 2]
        low = l + min(dl, 0)
        cos = np.sqrt((low + 1 - m) * (low + 1 + m) / ((2 * low + 1) * (2 * low + 3)))
        z[target, source] = _radial_table(n)[l + dl, l] * cos
    source, target = hop(0, 0, 1)
    l, m = labels[source, 1], labels[source, 2]
    lp = np.sqrt(l * (l + 1) - m * (m + 1))
    # x = ([z, L+] + [L-, z])/2, each product a shift of z's rows or columns along the hops
    zLp, Lpz, Lmz, zLm = (np.zeros_like(z) for _ in range(4))
    zLp[:, source], Lpz[target] = z[:, target] * lp, lp[:, None] * z[source]
    Lmz[source], zLm[:, target] = lp[:, None] * z[target], z[:, source] * lp
    x = 0.5 * ((zLp - Lpz) + (Lmz - zLm))
    # (l, -m) sits at l(l + 1) - m, in the same class as (l, m)
    l, m_l = labels[:, 1], labels[:, 2]
    mirror, parity = l * (l + 1) - m_l, (l + m_l) % 2
    classes = tuple((i, np.ix_(i, i), np.searchsorted(i, mirror[i]))
                    for i in (np.flatnonzero(parity == p) for p in (0, 1)) if len(i))
    for a in chain([x, z, m_l], *((i, *cut, flip) for i, cut, flip in classes)):
        a.flags.writeable = False
    return basis, x, z, m_l, classes


def manifold_perturbation(n: int, fields: CrossedFields, Z: int = 1) -> HermitianOperator:
    """First-order perturbation of one hydrogen shell in crossed fields, in J.

    W = -e E . r - (e/2m) B_z L_z over the n^2 degenerate states, written in the
    frame turned about z that puts E's in-plane part on +x, where x and z are real:
    W = -e a0/Z (hypot(E_x, E_y) x + E_z z) - (e B_z/2m) hbar m_l.  The turn commutes
    with z and L_z, so the spectrum is unchanged.  An in-plane E keeps the sigma_z
    parity (-1)^(l+m), so W is then kept as the blocks of the two parity classes,
    each with its m -> -m permutation as flip: x and L_z are odd under x -> -x, so
    W changes sign.  An E with a z component gives one block and no flip.
    """
    if not isinstance(Z, int) or isinstance(Z, bool) or Z < 1:
        raise ValidationError("nuclear charge Z must be an integer >= 1")
    basis, x, z, m_l, classes = _shell(_shell_number(n))
    e = CODATA2018.elementary_charge
    Ex, Ey, Ez = (float(c) for c in fields.pseudo_E)
    larmor = e * float(fields.pseudo_B[2]) / (2.0 * CODATA2018.electron_mass)
    W = (-e * (CODATA2018.bohr_radius / Z) * (hypot(Ex, Ey) * x + Ez * z)
         - np.diag(larmor * CODATA2018.hbar * m_l))
    parts = classes if Ez == 0 else [(np.arange(basis.dimension), ..., None)]
    return HermitianOperator.from_blocks(basis, [(i, W[cut], flip) for i, cut, flip in parts])
