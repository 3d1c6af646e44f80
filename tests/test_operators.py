"""Matrix assembly checks against independent oracles.

The harmonic Hamiltonian is compared with a closed-form level list computed
here from scratch; the hydrogen dipole blocks are compared against
Gauss-Laguerre-independent closed forms and against sympy's Gaunt
coefficients for the angular factors.
"""

import tracemalloc
from math import hypot, pi, sqrt

import numpy as np
import pytest

from rotoshift import operators
from rotoshift import (CODATA2018, Coulomb, CrossedFields, Harmonic,
                       HermitianOperator, ResonanceError, RotorConfig,
                       SelectionRuleError, TruncatedBasis, ValidationError,
                       build_ho_basis,
                       fictitious_fields, ho_lz_matrix,
                       ho_rotating_hamiltonian, hydrogen_manifold_basis,
                       eigen_spectrum, manifold_perturbation,
                       manifold_position_matrices, radial_dipole_integral)

OMEGA0 = 1e13  # reference trap frequency, rad/s


def harmonic_rotor(wrel, vrel):
    """Rotor with Omega = wrel*omega0 and orbital speed vrel trap units."""
    Omega = wrel * OMEGA0
    c = CODATA2018
    v_unit = sqrt(c.hbar * OMEGA0 / c.electron_mass)
    R = 0.0 if vrel == 0 else vrel * v_unit / Omega
    return RotorConfig(Omega=Omega, R=R, model=Harmonic(omega0=OMEGA0))


def reference_ho_levels(N_max, rotor, c=CODATA2018):
    """Closed-form rotating-trap levels, written out independently here."""
    w0, W, R = rotor.model.omega0, rotor.Omega, rotor.R
    shift = -c.electron_mass * w0 ** 2 * W ** 2 * R ** 2 / (2.0 * (w0 ** 2 - W ** 2))
    vals = []
    for N in range(N_max + 1):
        for m in range(-N, N + 1):
            mult = (N - abs(m)) // 2 + 1
            vals.extend([c.hbar * w0 * (N + 1.5) - c.hbar * W * m + shift] * mult)
    return np.sort(np.asarray(vals))


# ---------------------------------------------------------------------------
# bases and the Hermitian wrapper
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N_max,dim", [(0, 1), (1, 4), (10, 286), (14, 680)])
def test_ho_basis_dimension(N_max, dim):
    basis = build_ho_basis(N_max)
    assert basis.dimension == dim
    assert basis.dimension == (N_max + 1) * (N_max + 2) * (N_max + 3) // 6
    assert list(basis.labels) == sorted(set(basis.labels))


def test_ho_basis_validation():
    with pytest.raises(ValidationError):
        build_ho_basis(-1)
    with pytest.raises(ValidationError):
        build_ho_basis(2.5)


def test_basis_rejects_unsorted_labels():
    with pytest.raises(ValidationError):
        TruncatedBasis(kind="HO3D", labels=((1, 0, 0), (0, 0, 0)))
    with pytest.raises(ValidationError):
        TruncatedBasis(kind="other", labels=((0, 0, 0),))
    # oscillator labels are triples of nonnegative integers: a 1-tuple used
    # to reach ho_rotating_hamiltonian as an IndexError, and a negative
    # occupation gave an unphysical level of 0.5 hbar omega0
    for labels in (((0,), (1,)), ((-1, 0, 0), (0, 0, 0)), ((0, 0, 0.5),)):
        with pytest.raises(ValidationError, match="triples"):
            TruncatedBasis(kind="HO3D", labels=labels)


@pytest.mark.parametrize("n,dim", [(1, 1), (2, 4), (5, 25)])
def test_hydrogen_basis_dimension(n, dim):
    assert hydrogen_manifold_basis(n).dimension == dim


def test_hydrogen_basis_range():
    with pytest.raises(ValidationError):
        hydrogen_manifold_basis(0)
    with pytest.raises(ValidationError):
        hydrogen_manifold_basis(11)


def test_non_hermitian_matrix_rejected():
    basis = build_ho_basis(0)
    with pytest.raises(ValidationError):
        HermitianOperator.from_blocks(basis, [([0], np.array([[1.0 + 1.0j]]))])
    with pytest.raises(ValidationError):
        HermitianOperator.from_blocks(basis, [([0, 1], np.zeros((2, 2)))])
    # a NaN passes the Hermiticity comparison, and inf - inf is NaN
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="finite"):
            HermitianOperator.from_blocks(basis, [([0], np.array([[bad]]))])
    two = build_ho_basis(1)
    off = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(ValidationError, match="finite"):
        HermitianOperator.from_blocks(two, [(np.arange(4), np.pad(off, (0, 2)))])


def test_operator_matrix_is_read_only():
    basis = build_ho_basis(1)
    op = ho_lz_matrix(basis)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 1.0


def test_block_constructor_validates_and_freezes():
    basis = build_ho_basis(1)  # 4 states
    sym = np.array([[1.0, 2.0], [2.0, 3.0]])
    with pytest.raises(ValidationError, match="Hermitian"):
        HermitianOperator.from_blocks(basis, [([0, 1], [[1.0, 2.0], [0.0, 3.0]]),
                                              ([2, 3], sym)])
    for indices in ([[0, 1], [1, 2]], [[0, 1], [2, 4]], [[0, 1], [2, 2]], [[0, 1]]):
        with pytest.raises(ValidationError, match="partition"):
            HermitianOperator.from_blocks(basis, [(i, np.eye(len(i))) for i in indices])
    with pytest.raises(ValidationError, match="dimension"):
        HermitianOperator.from_blocks(basis, [([0, 1, 2], sym), ([3], [[1.0]])])
    op = HermitianOperator.from_blocks(basis, [([3, 0], sym), ([1], [[5.0]]), ([2], [[7.0]])])
    assert sym.flags.writeable  # the caller's array is copied, not frozen
    for indices, block in op.blocks:
        for array in (indices, block):
            with pytest.raises(ValueError):
                array[0] = 0
    want = np.array([[3.0, 0, 0, 2.0], [0, 5.0, 0, 0], [0, 0, 7.0, 0], [2.0, 0, 0, 1.0]])
    assert np.array_equal(op.matrix, want)
    # blocks are real: a cast to float would drop an imaginary part, so a complex
    # block is refused, Hermitian or with a zero imaginary part alike
    for block in ([[0.0, 1j], [-1j, 0.0]], np.eye(2, dtype=complex)):
        with pytest.raises(ValidationError, match="real"):
            HermitianOperator.from_blocks(basis, [([0, 1], block), ([2, 3], sym)])


def test_block_flip_is_checked_and_frozen():
    basis = build_ho_basis(1)  # 4 states
    # b[f][:, f] == -b for f swapping positions 0 and 1 and fixing 2
    odd = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, -2.0], [2.0, -2.0, 0.0]])
    flip = [1, 0, 2]
    op = HermitianOperator.from_blocks(basis, [([0, 1, 2], odd, flip), ([3], [[5.0]])])
    assert op.flips[0].tolist() == flip and op.flips[1] is None
    with pytest.raises(ValueError):
        op.flips[0][0] = 0
    assert np.array_equal(op.matrix[:3, :3], odd)
    # a None flip is the same as none
    plain = HermitianOperator.from_blocks(basis, [([0, 1, 2], odd, None), ([3], [[5.0]])])
    assert plain.flips == (None, None)
    bad_flips = ([1, 2, 0],          # a permutation, not an involution
                 [1, 0],             # wrong length
                 [1, 0, 3],          # outside the block
                 [-2, 0, 2],         # negative
                 [1.0, 0.0, 2.0],    # not integers
                 [[1, 0, 2]])        # not one row
    for bad in bad_flips:
        with pytest.raises(ValidationError, match="involution"):
            HermitianOperator.from_blocks(basis, [([0, 1, 2], odd, bad), ([3], [[5.0]])])
    # the flip must reverse the block's sign, to 1e-12 of the largest entry
    even = odd.copy()
    even[1, 1] = 1.0
    for block, bad in ((odd, [0, 1, 2]), (even, flip)):
        with pytest.raises(ValidationError, match="sign"):
            HermitianOperator.from_blocks(basis, [([0, 1, 2], block, bad), ([3], [[0.0]])])
    # a fixed position's diagonal entry must vanish
    with pytest.raises(ValidationError, match="sign"):
        HermitianOperator.from_blocks(basis, [([0, 1, 2], odd, flip), ([3], [[5.0]], [0])])
    near = odd.copy()
    near[1, 1] = -1.0 - 1e-14
    HermitianOperator.from_blocks(basis, [([0, 1, 2], near, flip), ([3], [[0.0]])])


def test_oscillator_blocks_are_the_nz_sectors_and_match_the_dense_route():
    basis = build_ho_basis(8)
    op = ho_rotating_hamiltonian(basis, harmonic_rotor(0.3, 0.05))
    nz = np.array(basis.labels)[:, 2]
    assert [sorted(set(nz[i])) for i, _ in op.blocks] == [[z] for z in range(9)]
    assert all(b.dtype == np.float64 for _, b in op.blocks)
    got = eigen_spectrum(op)
    want = np.linalg.eigvalsh(op.matrix)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_oscillator_route_never_forms_the_dense_matrix():
    # one dense float64 matrix at basis_n_max 20 takes 1771^2 * 8 bytes
    basis = build_ho_basis(20)
    rotor = harmonic_rotor(0.07, 0.02)
    tracemalloc.start()
    try:
        eigen_spectrum(ho_rotating_hamiltonian(basis, rotor))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < basis.dimension ** 2 * 8


def dense_ho_reference(basis, rotor):
    """H and L_z over `basis`, entry by entry from the real-gauge ladder
    formulas, in the operation order of the assembly so that entries agree
    to the bit."""
    c = CODATA2018
    w0 = rotor.model.omega0
    wrel = rotor.Omega / w0
    vrel = rotor.v_c * sqrt(c.electron_mass / (c.hbar * w0))
    scale = c.hbar * w0
    index = {label: i for i, label in enumerate(basis.labels)}
    H = np.zeros((basis.dimension, basis.dimension))
    L = np.zeros_like(H)
    for (nx, ny, nz), j in index.items():
        H[j, j] = (nx + ny + nz + 1.5) * scale
        for target, element, lz in (((nx - 1, ny + 1, nz), -sqrt(nx * (ny + 1)), True),
                                    ((nx + 1, ny - 1, nz), -sqrt((nx + 1) * ny), True),
                                    ((nx + 1, ny, nz), sqrt((nx + 1) / 2.0), False),
                                    ((nx - 1, ny, nz), sqrt(nx / 2.0), False)):
            if target in index:
                H[index[target], j] = (-wrel if lz else -vrel) * element * scale
                if lz:
                    L[index[target], j] = element
    return H, L


def _subset_basis():
    # a fixed 60 % label subset of N <= 8; the test below checks that its
    # n_z sectors differ in their (n_x, n_y) label sets
    rng = np.random.default_rng(2024)
    labels = build_ho_basis(8).labels
    return TruncatedBasis("HO3D", tuple(l for l in labels if rng.random() < 0.6))


@pytest.mark.parametrize("basis", [
    _subset_basis(),
    TruncatedBasis("HO3D", tuple((nx, ny, 3) for nx in range(6) for ny in range(6 - nx))),
    TruncatedBasis("HO3D", ()),
], ids=["random-subset", "one-sector", "empty"])
def test_plane_cut_blocks_match_dense_ladder_reference(basis):
    rotor = harmonic_rotor(0.3, 0.05)
    H, L = dense_ho_reference(basis, rotor)
    assert np.array_equal(ho_rotating_hamiltonian(basis, rotor).matrix, H)
    assert np.array_equal(ho_lz_matrix(basis).matrix, L)


def test_subset_basis_sectors_differ_in_plane_labels():
    # the premise of the random-subset case: no one sector's plane labels
    # serve every sector
    planes = {}
    for nx, ny, nz in _subset_basis().labels:
        planes.setdefault(nz, set()).add((nx, ny))
    assert len(planes) > 1
    assert len({frozenset(p) for p in planes.values()}) == len(planes)
    union = set().union(*planes.values())
    assert all(p != union for p in planes.values())


# ---------------------------------------------------------------------------
# rotating harmonic trap
# ---------------------------------------------------------------------------


def test_rest_hamiltonian_is_diagonal():
    basis = build_ho_basis(3)
    rotor = RotorConfig(Omega=0.0, R=0.0, model=Harmonic(omega0=OMEGA0))
    H = ho_rotating_hamiltonian(basis, rotor).matrix
    c = CODATA2018
    expect = np.diag([c.hbar * OMEGA0 * (nx + ny + nz + 1.5)
                      for (nx, ny, nz) in basis.labels])
    assert np.array_equal(H, expect)


def test_hamiltonian_hermiticity_defect():
    basis = build_ho_basis(8)
    op = ho_rotating_hamiltonian(basis, harmonic_rotor(0.3, 0.05))
    scale = float(np.max(np.abs(op.matrix)))
    assert op.hermiticity_defect <= 1e-12 * scale


def test_pure_rotation_spectrum_is_exact():
    # with v_c = 0 truncation is exact: levels are hbar w0 (N+3/2) - hbar W m
    basis = build_ho_basis(6)
    rotor = harmonic_rotor(0.37, 0.0)
    got = np.sort(np.linalg.eigvalsh(ho_rotating_hamiltonian(basis, rotor).matrix))
    want = reference_ho_levels(6, rotor)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_lz_commutes_with_pure_rotation_hamiltonian():
    basis = build_ho_basis(6)
    H = ho_rotating_hamiltonian(basis, harmonic_rotor(0.4, 0.0)).matrix
    L = ho_lz_matrix(basis).matrix
    comm = H @ L - L @ H
    assert np.max(np.abs(comm)) <= 1e-10 * np.max(np.abs(H)) * np.max(np.abs(L))


def test_real_gauge_matches_ladder_matrices():
    # build L_z = i (a_x a_y+ - a_x+ a_y) and the rotating-frame Hamiltonian
    # from complex ladder elements, then move them to the gauge D = diag(i^n_x)
    c = CODATA2018
    basis = build_ho_basis(6)
    rotor = harmonic_rotor(0.3, 0.05)
    wrel = rotor.Omega / OMEGA0
    vrel = rotor.v_c * sqrt(c.electron_mass / (c.hbar * OMEGA0))
    index = {label: i for i, label in enumerate(basis.labels)}
    dim = basis.dimension
    L = np.zeros((dim, dim), dtype=complex)
    P = np.zeros((dim, dim), dtype=complex)
    for (nx, ny, nz), j in index.items():
        for target, value, out in (((nx - 1, ny + 1, nz), 1j * sqrt(nx * (ny + 1)), L),
                                   ((nx + 1, ny - 1, nz), -1j * sqrt((nx + 1) * ny), L),
                                   ((nx + 1, ny, nz), 1j * sqrt((nx + 1) / 2), P),
                                   ((nx - 1, ny, nz), -1j * sqrt(nx / 2), P)):
            if target in index:
                out[index[target], j] = value
    H = np.diag([sum(label) + 1.5 for label in basis.labels]) - wrel * L - vrel * P
    H *= c.hbar * OMEGA0
    D = np.diag([1j ** nx for nx, _, _ in basis.labels])
    for got, ladder in ((ho_rotating_hamiltonian(basis, rotor).matrix, H),
                        (ho_lz_matrix(basis).matrix, L)):
        assert np.isrealobj(got)
        want = D.conj().T @ ladder @ D
        assert np.max(np.abs(want.imag)) <= 1e-15 * np.max(np.abs(want))
        assert np.max(np.abs(got - want.real)) <= 1e-14 * np.max(np.abs(want))


def test_lz_spectrum_multiplicities():
    N_max = 5
    basis = build_ho_basis(N_max)
    eigs = np.linalg.eigvalsh(ho_lz_matrix(basis).matrix)
    rounded = np.round(eigs).astype(int)
    assert np.max(np.abs(eigs - rounded)) <= 1e-9
    want = []
    for N in range(N_max + 1):
        for m in range(-N, N + 1):
            want.extend([m] * ((N - abs(m)) // 2 + 1))
    assert sorted(rounded.tolist()) == sorted(want)


@pytest.mark.parametrize("wrel,vrel", [
    (0.05, 0.02), (0.1, 0.02), (0.2, 0.005),
    (0.3, 1e-4), (0.5, 5e-5), (0.5, 0.0),
])
def test_lowest_levels_match_closed_form(wrel, vrel):
    # truncated diagonalization agrees with the closed form to 1e-8 on the
    # lowest half of the spectrum at N_max = 14 for these operating points
    N_max = 14
    basis = build_ho_basis(N_max)
    rotor = harmonic_rotor(wrel, vrel)
    got = np.sort(np.linalg.eigvalsh(ho_rotating_hamiltonian(basis, rotor).matrix))
    want = reference_ho_levels(N_max, rotor)
    keep = basis.dimension // 2
    rel = np.abs(got[:keep] - want[:keep]) / np.abs(want[:keep])
    assert np.max(rel) <= 1e-8


def test_hamiltonian_needs_matching_model_and_basis():
    with pytest.raises(ValidationError):
        ho_rotating_hamiltonian(hydrogen_manifold_basis(2), harmonic_rotor(0.1, 0.0))
    rotor = RotorConfig(Omega=1e9, R=0.0, model=Coulomb())
    with pytest.raises(ValidationError):
        ho_rotating_hamiltonian(build_ho_basis(2), rotor)


def test_resonant_rotor_rejected_at_construction():
    with pytest.raises(ResonanceError):
        RotorConfig(Omega=OMEGA0, R=1e-10, model=Harmonic(omega0=OMEGA0))


# ---------------------------------------------------------------------------
# hydrogen shell dipole blocks
# ---------------------------------------------------------------------------


def closed_form_radial(n, l, lp):
    lg = max(l, lp)
    return 1.5 * n * sqrt(n * n - lg * lg)


def test_radial_integral_matches_closed_form():
    # quadrature route vs the closed form, every in-shell pair up to n=5
    for n in range(2, 6):
        for l in range(n - 1):
            got = radial_dipole_integral(n, l, l + 1)
            assert got == pytest.approx(-closed_form_radial(n, l, l + 1), rel=1e-10)
            assert radial_dipole_integral(n, l + 1, l) == pytest.approx(got, rel=1e-12)


def test_laguerre_nodes_are_numpys_bit_for_bit():
    from numpy.polynomial.laguerre import laggauss
    for count in (2, 3, 10, 80):
        for ours, numpys in zip(operators._laguerre_nodes(count), laggauss(count)):
            assert ours.tobytes() == numpys.tobytes()


def test_radial_integral_known_value():
    # <2s| r |2p> = -3 sqrt(3) a0 with positive-at-origin radial phases
    assert radial_dipole_integral(2, 0, 1) == pytest.approx(-3.0 * sqrt(3.0), rel=1e-12)


def test_radial_integral_selection_rules():
    with pytest.raises(SelectionRuleError):
        radial_dipole_integral(3, 0, 0)
    with pytest.raises(SelectionRuleError):
        radial_dipole_integral(3, 0, 2)
    with pytest.raises(ValidationError):
        radial_dipole_integral(1, 0, 1)
    with pytest.raises(ValidationError):
        radial_dipole_integral(0, 0, 1)


def test_shell_radial_quadratures_run_once(monkeypatch):
    calls = []

    def counted(n, l, l_prime):
        calls.append((n, l, l_prime))
        return radial_dipole_integral(n, l, l_prime)
    monkeypatch.setattr(operators, "radial_dipole_integral", counted)
    operators._radial_table.cache_clear()
    operators._shell.cache_clear()
    first = manifold_position_matrices(7)
    again = manifold_position_matrices(7)
    assert len(calls) == 2 * (7 - 1)
    for a, b in zip(first[1:], again[1:]):
        assert np.array_equal(a, b)
    table = operators._radial_table(7)
    assert table[1, 0] == radial_dipole_integral(7, 0, 1)
    with pytest.raises(ValueError):
        table[1, 0] = 0.0


def test_basis_only_arrays_are_built_once_and_read_only():
    shell = operators._shell(4)
    assert operators._shell(4) is shell
    assert build_ho_basis(6) is build_ho_basis(6)
    plane = operators._ho_plane(build_ho_basis(6))
    assert operators._ho_plane(build_ho_basis(6)) is plane
    _, x, z, m, classes = shell
    labels, _, lz, sectors = plane
    _, indices, cut = sectors[0]
    i, (rows, cols), flip = classes[0]
    shared = [x, z, m, i, rows, cols, flip, labels, lz, indices, *cut]
    for a in shared:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    # the position matrices are handed out as new arrays, so a caller may change them
    _, X, Y, Z = manifold_position_matrices(4)
    X[...] = Y[...] = Z[...] = 0.0
    assert all(a.any() for a in manifold_position_matrices(4)[1:])


def test_cached_builders_check_arguments_on_a_warm_cache():
    # True == 1 and 2.0 == 2: a cache keyed by value could answer them from the
    # entries of 1 and 2, so the argument checks run before the cache
    build_ho_basis(1)
    for bad in (True, 1.0):
        with pytest.raises(ValidationError):
            build_ho_basis(bad)
    manifold_position_matrices(1)
    manifold_position_matrices(2)
    for bad in (True, 2.0, 0, 11):
        with pytest.raises(ValidationError):
            manifold_position_matrices(bad)


def test_perturbation_blocks_bit_identical_on_cold_and_warm_cache():
    cases = [fictitious_fields(RotorConfig(Omega=2e12, R=0.0, model=Coulomb())),
             fictitious_fields(RotorConfig(Omega=2e12, R=1e-10, model=Coulomb())),
             CrossedFields(pseudo_E=np.array([3e8, -1e8, 2e8]), pseudo_B=np.array([0.0, 0.0, 4.0]))]

    def raw(op):
        return [(i.tobytes(), b.tobytes()) for i, b in op.blocks], op.hermiticity_defect
    for n in range(1, 11):
        for fields in cases:
            operators._shell.cache_clear()
            cold = raw(manifold_perturbation(n, fields))
            assert raw(manifold_perturbation(n, fields)) == cold


def _spherical_components(n):
    """Shell basis and the q = +1, -1, 0 matrices x + iy, x - iy and z."""
    basis, X, Y, Z = manifold_position_matrices(n)
    return basis, ((1, X + 1j * Y), (-1, X - 1j * Y), (0, Z))


def test_angular_factors_match_gaunt_coefficients():
    # independent oracle: cos(theta) = sqrt(4pi/3) Y_10 and
    # sin(theta) e^{+-i phi} = -+ sqrt(8pi/3) Y_1+-1, so every angular factor
    # of x + iy, x - iy and z is a Gaunt integral with a known prefactor
    pytest.importorskip("sympy")
    from sympy.physics.wigner import gaunt

    def oracle(lp, mp, l, m, q):
        pref = {0: sqrt(4 * pi / 3), 1: -sqrt(8 * pi / 3), -1: sqrt(8 * pi / 3)}[q]
        g = float(gaunt(lp, 1, l, -mp, q, m))
        return pref * (-1.0) ** mp * g

    n = 5
    basis, components = _spherical_components(n)
    checked = 0
    for q, M in components:
        for j, (_, l, m) in enumerate(basis.labels):
            for i, (_, lp, mp) in enumerate(basis.labels):
                if abs(lp - l) != 1 or mp != m + q:
                    continue
                angular = M[i, j] / radial_dipole_integral(n, l, lp)
                assert abs(angular - oracle(lp, mp, l, m, q)) <= 1e-12
                checked += 1
    assert checked > 0


def test_angular_factors_vanish_off_selection_rule():
    basis, components = _spherical_components(5)
    index = {label: k for k, label in enumerate(basis.labels)}
    z = dict(components)[0]
    plus = dict(components)[1]
    assert z[index[5, 2, 1], index[5, 1, 0]] == 0.0     # m' != m
    assert z[index[5, 3, 0], index[5, 1, 0]] == 0.0     # |l' - l| != 1
    assert plus[index[5, 2, 0], index[5, 1, 0]] == 0.0  # m' != m + 1
    # and exactly zero on every off-rule pair of the shell
    for q, M in components:
        for j, (_, l, m) in enumerate(basis.labels):
            for i, (_, lp, mp) in enumerate(basis.labels):
                if abs(lp - l) != 1 or mp != m + q:
                    assert M[i, j] == 0.0


def test_position_matrices_structure():
    basis, X, Y, Z = manifold_position_matrices(3)
    for M in (X, Y, Z):
        assert np.max(np.abs(M - M.conj().T)) <= 1e-13 * max(np.max(np.abs(M)), 1.0)
        assert np.all(np.diag(M) == 0.0)
    # real x and z, purely imaginary y, with these phase conventions
    assert np.max(np.abs(X.imag)) == 0.0
    assert np.max(np.abs(Z.imag)) == 0.0
    assert np.max(np.abs(Y.real)) == 0.0


def test_zeeman_part_is_diagonal():
    c = CODATA2018
    B = 0.7
    fields = CrossedFields(pseudo_E=np.zeros(3), pseudo_B=np.array([0.0, 0.0, B]))
    op = manifold_perturbation(3, fields)
    W = op.matrix
    assert np.max(np.abs(W - np.diag(np.diag(W)))) == 0.0
    larmor = c.elementary_charge * B / (2.0 * c.electron_mass)
    for j, (_, _, m) in enumerate(op.basis.labels):
        assert W[j, j] == pytest.approx(-larmor * c.hbar * m, rel=1e-12, abs=1e-60)


def test_ground_shell_perturbation_is_zero():
    fields = CrossedFields(pseudo_E=np.array([1e5, 0.0, 0.0]),
                           pseudo_B=np.array([0.0, 0.0, 1.0]))
    W = manifold_perturbation(1, fields).matrix
    assert W.shape == (1, 1) and W[0, 0] == 0.0


def test_first_shell_stark_eigenvalues():
    # n=2 linear Stark effect: +-3 e a0 E and two zeros
    c = CODATA2018
    E = 1e6
    fields = CrossedFields(pseudo_E=np.array([0.0, 0.0, E]), pseudo_B=np.zeros(3))
    W = manifold_perturbation(2, fields).matrix
    eigs = np.sort(np.linalg.eigvalsh(W))
    unit = 3.0 * c.elementary_charge * c.bohr_radius * E
    want = np.array([-unit, 0.0, 0.0, unit])
    assert np.max(np.abs(eigs - want)) <= 1e-10 * unit


def test_stark_eigenvalues_rotation_invariant():
    # same spectrum whichever in-plane direction the field points
    E = 2e5
    for n in (2, 3):
        along_x = manifold_perturbation(
            n, CrossedFields(pseudo_E=np.array([E, 0.0, 0.0]), pseudo_B=np.zeros(3)))
        along_y = manifold_perturbation(
            n, CrossedFields(pseudo_E=np.array([0.0, E, 0.0]), pseudo_B=np.zeros(3)))
        ex = np.sort(np.linalg.eigvalsh(along_x.matrix))
        ey = np.sort(np.linalg.eigvalsh(along_y.matrix))
        assert np.max(np.abs(ex - ey)) <= 1e-12 * np.max(np.abs(ex))


def test_perturbation_scales_with_nuclear_charge():
    # dipole length shrinks as 1/Z, so the Stark block scales down with Z
    E = 1e6
    fields = CrossedFields(pseudo_E=np.array([0.0, 0.0, E]), pseudo_B=np.zeros(3))
    w1 = manifold_perturbation(2, fields, Z=1).matrix
    w2 = manifold_perturbation(2, fields, Z=2).matrix
    assert np.allclose(w1, 2.0 * w2, rtol=1e-12, atol=0.0)
    with pytest.raises(ValidationError):
        manifold_perturbation(2, fields, Z=0)


@pytest.mark.parametrize("n", range(1, 11))
def test_shell_blocks_are_the_parity_classes_and_drop_nothing(n):
    c = CODATA2018
    _, X, Y, Zm = manifold_position_matrices(n)
    labels = np.array(hydrogen_manifold_basis(n).labels)
    parity = (labels[:, 1] + labels[:, 2]) % 2
    classes = [np.flatnonzero(parity == p) for p in (0, 1) if np.any(parity == p)]
    in_plane = np.append(np.random.default_rng(n).normal(size=2) * 1e8, 0.0)
    cases = [
        (fictitious_fields(RotorConfig(Omega=2e12, R=1e-10, model=Coulomb())), classes),
        # R = 0: W is diagonal, and still kept as the two parity blocks
        (fictitious_fields(RotorConfig(Omega=2e12, R=0.0, model=Coulomb())), classes),
        (CrossedFields(pseudo_E=np.array([3e8, -1e8, 0.0]), pseudo_B=np.array([0.0, 0.0, 4.0])),
         classes),
        (CrossedFields(pseudo_E=in_plane, pseudo_B=np.zeros(3)), classes),
        (CrossedFields(pseudo_E=np.zeros(3), pseudo_B=np.zeros(3)), classes),
        (CrossedFields(pseudo_E=np.array([3e8, -1e8, 2e8]), pseudo_B=np.array([0.0, 0.0, 4.0])),
         [np.arange(n * n)]),
    ]
    for fields, want in cases:
        op = manifold_perturbation(n, fields)
        assert [i.tolist() for i, _ in op.blocks] == [i.tolist() for i in want]
        assert all(b.dtype == np.float64 for _, b in op.blocks)
        # an in-plane E gives each parity block its m -> -m permutation as flip
        for (i, _), flip in zip(op.blocks, op.flips):
            assert (np.array_equal(labels[i[flip]], labels[i] * [1, 1, -1])
                    if fields.pseudo_E[2] == 0 else flip is None)
        Ex, Ey, Ez = fields.pseudo_E
        zeeman = np.diag(c.elementary_charge * fields.pseudo_B[2] / (2.0 * c.electron_mass)
                         * c.hbar * labels[:, 2])
        # W in the frame turned about z that puts E's in-plane part on +x, in
        # the operation order of the assembly, so that entries agree to the bit
        turned = -c.elementary_charge * c.bohr_radius * (hypot(Ex, Ey) * X + Ez * Zm) - zeeman
        assert np.array_equal(op.matrix, turned)
        got = eigen_spectrum(op)
        exact = np.linalg.eigvalsh(op.matrix)
        assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))
        # the flip's fixed positions, the n states with m = 0, give the fan's zero
        # level exactly; with no field at all every level is zero
        if fields.pseudo_E[2] == 0:
            field = np.any(fields.pseudo_E) or fields.pseudo_B[2]
            assert np.count_nonzero(got == 0.0) == (n if field else n * n)
        # the turn is a unitary similarity: W with complex y, unturned, has the same spectrum
        unturned = -c.elementary_charge * c.bohr_radius * (Ex * X + Ey * Y + Ez * Zm) - zeeman
        exact = np.linalg.eigvalsh(unturned)
        assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_fictitious_fields_feed_perturbation():
    # end to end: rotor -> fields -> W, magnetic diagonal where it should be
    rotor = RotorConfig(Omega=2 * pi * 80e6, R=5e-11, model=Coulomb())
    op = manifold_perturbation(2, fictitious_fields(rotor))
    c = CODATA2018
    # Larmor rate for e B/m = 2 Omega is just Omega itself
    idx = {label: i for i, label in enumerate(op.basis.labels)}[(2, 1, 1)]
    assert op.matrix[idx, idx] == pytest.approx(-c.hbar * rotor.Omega, rel=1e-12)
