"""Closed-form level formulas held against brute-force diagonalization.

The perturbation-theory oracle here recomputes every reference quantity
(Bohr levels, Larmor and Stark rates) from the constants table directly, so
agreement with the closed forms is a genuine two-route check.
"""

from math import pi, sqrt

import numpy as np
import pytest

from rotoshift import operators, quasienergy

from rotoshift import (CODATA2018, Coulomb, CrossedFields, Harmonic,
                       PerturbativeRegimeWarning, RotoshiftError, RotorConfig,
                       SpectrumResult, StateNotFoundError, ValidationError,
                       atomic_velocity, build_ho_basis, crossed_field_levels,
                       driven_rotating_levels, driven_splitting_parameter,
                       drive_field_vector, eigen_spectrum,
                       fictitious_fields, first_order_degenerate_levels,
                       ho_rotating_hamiltonian, ho_rotating_levels,
                       ho_rotating_spectrum, ho_shell_multiplicity,
                       manifold_perturbation, rotating_coulomb_levels,
                       rotating_coulomb_spectrum, splitting_expansion_parameter,
                       Transition, drfs_exact, driven_shift_report)

C = CODATA2018


def bohr_level(n, Z=1):
    # independent route through alpha*c; good to ~1e-11 relative against the
    # library's e^2/(4 pi eps0 hbar) definition, so only for approx checks
    v = Z * C.fine_structure * C.light_speed
    return -0.5 * C.electron_mass * v * v / (n * n)


def lib_bohr(n):
    # the library's own unperturbed level, recovered through a zero-field
    # evaluation; used where a test asserts exact internal consistency
    return crossed_field_levels(n, 0, no_fields())


# ---------------------------------------------------------------------------
# spectrum containers and the numeric route
# ---------------------------------------------------------------------------


def test_spectrum_result_sorts_with_label_tiebreak():
    s = SpectrumResult(levels=(((1,), 2.0), ((0,), 2.0), ((2,), 1.0)))
    assert [lab for lab, _ in s.levels] == [(2,), (0,), (1,)]
    assert np.all(np.diff(s.energies()) >= 0)


def test_spectrum_result_validation():
    with pytest.raises(ValidationError):
        SpectrumResult(levels=(((0,), float("nan")),))


def test_quasi_energy_lookup():
    s = SpectrumResult(levels=(((2, 1), 5.0), ((2, 1), 7.0), ((1, 0), 1.0)))
    assert s.quasi_energy((1, 0)) == 1.0
    # duplicate labels resolve to the lowest level
    assert s.quasi_energy((2, 1)) == 5.0
    with pytest.raises(StateNotFoundError):
        s.quasi_energy((9, 9))


def test_eigen_spectrum_simple_matrices():
    s = eigen_spectrum(np.diag([3.0, -1.0, 2.0]).astype(complex))
    assert np.allclose(s.energies(), [-1.0, 2.0, 3.0])
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.allclose(eigen_spectrum(flip).energies(), [-1.0, 1.0])


def test_eigen_spectrum_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        eigen_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def interleaved_blocks():
    # a real symmetric 3x3 block and a complex Hermitian 4x4 block, their
    # rows and columns shuffled into each other
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = np.zeros((7, 7), dtype=complex)
    H[:3, :3] = A + A.T
    H[3:, 3:] = B + B.conj().T
    order = rng.permutation(7)
    return H[np.ix_(order, order)], order


def test_eigen_spectrum_splits_interleaved_blocks():
    H, order = interleaved_blocks()
    blocks = operators._coupled_blocks(H)
    assert sorted(sorted(order[b].tolist()) for b in blocks) == [[0, 1, 2], [3, 4, 5, 6]]
    got = eigen_spectrum(H).energies()
    want = np.linalg.eigvalsh(H)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_eigen_spectrum_residual_check_fires(monkeypatch):
    eigh = np.linalg.eigh

    def perturbed(matrix):
        vals, vecs = eigh(matrix)
        return vals, vecs + 1e-6
    monkeypatch.setattr(quasienergy.np.linalg, "eigh", perturbed)
    with pytest.raises(RotoshiftError, match="residual"):
        eigen_spectrum(interleaved_blocks()[0])


def test_first_order_levels_offset():
    W = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    s = first_order_degenerate_levels(-2.0, W)
    assert np.allclose(s.energies(), [-2.5, -1.5])
    zero = first_order_degenerate_levels(1.25, np.zeros((3, 3), dtype=complex))
    assert np.all(zero.energies() == 1.25)


# ---------------------------------------------------------------------------
# harmonic closed forms
# ---------------------------------------------------------------------------


def test_ho_level_at_rest():
    rotor = RotorConfig(Omega=0.0, R=0.0, model=Harmonic(omega0=1e13))
    for N in range(4):
        assert ho_rotating_levels(N, 0, rotor) == pytest.approx(
            C.hbar * 1e13 * (N + 1.5), rel=1e-14)


def test_ho_level_validation():
    rotor = RotorConfig(Omega=0.0, R=0.0, model=Harmonic(omega0=1e13))
    with pytest.raises(ValidationError):
        ho_rotating_levels(-1, 0, rotor)
    with pytest.raises(ValidationError):
        ho_rotating_levels(2, 3, rotor)
    with pytest.raises(ValidationError):
        ho_rotating_levels(2, 0, RotorConfig(Omega=0.0, R=0.0, model=Coulomb()))


def test_ho_multiplicities_fill_each_shell():
    for N in range(8):
        total = sum(ho_shell_multiplicity(N, m) for m in range(-N, N + 1))
        assert total == (N + 1) * (N + 2) // 2
    assert ho_shell_multiplicity(3, 5) == 0


def test_ho_spectrum_size_and_order():
    rotor = RotorConfig(Omega=1e12, R=1e-10, model=Harmonic(omega0=1e13))
    s = ho_rotating_spectrum(10, rotor)
    assert len(s.levels) == 286
    assert np.all(np.diff(s.energies()) >= 0)


def test_ho_closed_form_tracks_diagonalization():
    # two-route agreement on the lowest half at a benign operating point
    rotor = RotorConfig(Omega=1e12, R=2e-12, model=Harmonic(omega0=1e13))
    basis = build_ho_basis(12)
    numeric = eigen_spectrum(ho_rotating_hamiltonian(basis, rotor)).energies()
    closed = ho_rotating_spectrum(12, rotor).energies()
    keep = basis.dimension // 2
    rel = np.abs(numeric[:keep] - closed[:keep]) / np.abs(closed[:keep])
    assert np.max(rel) <= 1e-8


# ---------------------------------------------------------------------------
# crossed-field closed forms vs perturbation theory
# ---------------------------------------------------------------------------


def no_fields():
    return CrossedFields(pseudo_E=np.zeros(3), pseudo_B=np.zeros(3))


def test_crossed_field_level_reduces_to_bohr():
    for n in (1, 2, 5):
        got = crossed_field_levels(n, 0, no_fields())
        assert got == pytest.approx(bohr_level(n), rel=1e-9)
    # hydrogen ground state around -13.6 eV
    assert crossed_field_levels(1, 0, no_fields()) == pytest.approx(
        -13.6057 * 1.602176634e-19, rel=1e-4)


def test_crossed_field_zeeman_only():
    B = 1.3
    fields = CrossedFields(pseudo_E=np.zeros(3), pseudo_B=np.array([0.0, 0.0, B]))
    larmor = C.elementary_charge * B / (2.0 * C.electron_mass)
    for m_z in (-1, 0, 1):
        got = crossed_field_levels(2, m_z, fields)
        assert got == pytest.approx(bohr_level(2) - C.hbar * m_z * larmor, rel=1e-12)


def test_crossed_field_stark_only_matches_textbook_n2():
    E = 1e5
    fields = CrossedFields(pseudo_E=np.array([E, 0.0, 0.0]), pseudo_B=np.zeros(3))
    split = crossed_field_levels(2, 0, fields) - crossed_field_levels(2, 1, fields)
    assert split == pytest.approx(3.0 * C.elementary_charge * C.bohr_radius * E,
                                  rel=1e-12)


def test_crossed_field_fan_is_equidistant():
    fields = CrossedFields(pseudo_E=np.array([2e4, 1e4, 0.0]),
                           pseudo_B=np.array([0.0, 0.0, 0.8]))
    vals = [crossed_field_levels(3, m, fields) for m in range(-2, 3)]
    steps = np.diff(vals)
    assert np.allclose(steps, steps[0], rtol=1e-12)


def test_crossed_field_validation():
    with pytest.raises(ValidationError):
        crossed_field_levels(2, 2, no_fields())
    with pytest.raises(ValidationError):
        crossed_field_levels(0, 0, no_fields())


def test_closed_form_matches_perturbation_oracle():
    # random weak crossed fields: the 2n-1 closed-form sublevels with their
    # n-|m_z| multiplicities must reproduce eig(W) on the shell
    rng = np.random.default_rng(1234)
    for n in (2, 3, 4):
        for _ in range(6):
            B = rng.uniform(0.1, 2.0)
            Emag = rng.uniform(1e3, 5e4)
            phi = rng.uniform(0.0, 2 * pi)
            fields = CrossedFields(
                pseudo_E=np.array([Emag * np.cos(phi), Emag * np.sin(phi), 0.0]),
                pseudo_B=np.array([0.0, 0.0, B]))
            pt = first_order_degenerate_levels(
                lib_bohr(n), manifold_perturbation(n, fields)).energies()
            closed = np.sort(np.concatenate([
                [crossed_field_levels(n, m, fields)] * (n - abs(m))
                for m in range(-(n - 1), n)]))
            scale = closed[-1] - closed[0]
            assert np.max(np.abs(pt - closed)) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# turntable hydrogen closed forms
# ---------------------------------------------------------------------------


def coulomb_rotor(Omega, R):
    return RotorConfig(Omega=Omega, R=R, model=Coulomb())


def test_splitting_parameter_formula():
    r = coulomb_rotor(1e12, 3e-10)
    x = splitting_expansion_parameter(2, r)
    assert x == pytest.approx(3.0 * 2 * 3e-10 * 1e12 / (2.0 * atomic_velocity(1)),
                              rel=1e-12)
    # stronger binding shrinks the parameter
    r2 = RotorConfig(Omega=1e12, R=3e-10, model=Coulomb(Z=2))
    assert splitting_expansion_parameter(2, r2) == pytest.approx(x / 2.0, rel=1e-12)


def test_rotating_level_at_rest_is_bohr():
    r = coulomb_rotor(0.0, 1e-10)
    for n in (1, 2, 3):
        # exact: zero rotation contributes exactly zero splitting
        assert rotating_coulomb_levels(n, n - 1, r) == lib_bohr(n)
        assert rotating_coulomb_levels(n, n - 1, r) == pytest.approx(
            bohr_level(n), rel=1e-9)


def test_rotating_level_on_axis_is_pure_splitting():
    r = coulomb_rotor(7e11, 0.0)
    for m_z in (-2, 0, 2):
        got = rotating_coulomb_levels(3, m_z, r)
        assert got == lib_bohr(3) - C.hbar * r.Omega * m_z


def test_rotating_splitting_grows_with_radius_and_rate():
    def split(Omega, R):
        return (rotating_coulomb_levels(3, -1, coulomb_rotor(Omega, R))
                - rotating_coulomb_levels(3, 1, coulomb_rotor(Omega, R)))

    radii = [0.0, 1e-10, 3e-10, 1e-9]
    vals = [split(1e12, R) for R in radii]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    rates = [1e10, 1e11, 1e12]
    vals = [split(W, 5e-10) for W in rates]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.filterwarnings("ignore::rotoshift.PerturbativeRegimeWarning")
def test_substitution_identity_on_sample_grid():
    # turntable closed form == crossed-field closed form fed the fictitious
    # fields of the same rotor, for either sense of rotation; the
    # strong-field corners warn, which is fine
    for n in (2, 4):
        for Omega in (1e10, 1e12, -1e10, -1e12):
            for R in (1e-11, 1e-9):
                rotor = coulomb_rotor(Omega, R)
                fields = fictitious_fields(rotor)
                for m_z in range(-(n - 1), n):
                    a = rotating_coulomb_levels(n, m_z, rotor)
                    b = crossed_field_levels(n, m_z, fields)
                    assert abs(a - b) <= 1e-12 * abs(a)


@pytest.mark.filterwarnings("ignore::rotoshift.PerturbativeRegimeWarning")
@pytest.mark.parametrize("Omega", [1e12, -1e12])
def test_crossed_field_label_follows_zeeman_sign(Omega):
    # pure Zeeman limit (R = 0): the fan level labeled m_z sits where the
    # m_l = m_z diagonal element of the brute-force shell matrix puts it,
    # so a negative Larmor rate reverses the fan instead of mirroring it
    fields = fictitious_fields(coulomb_rotor(Omega, 0.0))
    for n in range(1, 5):
        W = manifold_perturbation(n, fields)
        E_n = lib_bohr(n)
        for i, (_, _, m_l) in enumerate(W.basis.labels):
            got = crossed_field_levels(n, m_l, fields) - E_n
            assert got == pytest.approx(W.matrix[i, i].real, rel=1e-9,
                                        abs=1e-15 * abs(E_n))


def test_spectrum_counts_states():
    s = rotating_coulomb_spectrum(3, coulomb_rotor(1e11, 1e-10))
    assert len(s.levels) == 1 + 4 + 9
    labels = [lab for lab, _ in s.levels]
    assert labels.count((3, 0)) == 3 and labels.count((3, 2)) == 1


def test_perturbative_warning_fires_when_fan_widens():
    with pytest.warns(PerturbativeRegimeWarning):
        rotating_coulomb_levels(5, 4, coulomb_rotor(5e13, 1e-9))
    # weak regime stays silent
    import warnings as w
    with w.catch_warnings():
        w.simplefilter("error")
        rotating_coulomb_levels(2, 1, coulomb_rotor(1e10, 1e-10))


def test_perturbative_warning_points_at_the_caller():
    # the default warning filter deduplicates by location, so the warning
    # must name the calling line, not a line inside the library
    rotor = coulomb_rotor(5e13, 1e-9)
    # only the upper level warns: shell 1 has no fan
    t = Transition(upper=(5, 4), lower=(1, 0))
    drive = drive_field_vector(rotor, 1e3)
    with pytest.warns(PerturbativeRegimeWarning) as undriven:
        rotating_coulomb_levels(5, 4, rotor)
    with pytest.warns(PerturbativeRegimeWarning) as driven:
        driven_rotating_levels(5, 4, rotor, None)
    with pytest.warns(PerturbativeRegimeWarning) as exact:
        drfs_exact(t, rotor)
    with pytest.warns(PerturbativeRegimeWarning) as report:
        driven_shift_report(t, rotor, drive)
    for record in (undriven, driven, exact, report):
        assert [r.filename for r in record] == [__file__]


# ---------------------------------------------------------------------------
# driven rotation
# ---------------------------------------------------------------------------


def test_driven_reduces_to_undriven():
    r = coulomb_rotor(8e11, 2e-10)
    for drive in (None, np.zeros(3)):
        got = driven_rotating_levels(3, 2, r, drive)
        assert got == rotating_coulomb_levels(3, 2, r)


def test_driven_cancellation_collapses_root():
    # an antiparallel drive with e E = m Omega^2 R wipes out the Stark part
    r = coulomb_rotor(2 * pi * 80e6, 5e-11)
    star = C.electron_mass * r.Omega ** 2 * r.R / C.elementary_charge
    drive = drive_field_vector(r, star, antiparallel=True)
    got = driven_rotating_levels(2, 1, r, drive)
    assert got == lib_bohr(2) - C.hbar * r.Omega * 1.0
    assert driven_splitting_parameter(2, r, drive) <= 1e-12


def test_driven_parallel_deepens_splitting():
    r = coulomb_rotor(2 * pi * 80e6, 5e-11)
    x0 = driven_splitting_parameter(2, r, None)
    x1 = driven_splitting_parameter(2, r, drive_field_vector(r, 100.0))
    assert x1 > x0
    # a 100 V/m lab field dwarfs the centrifugal term by six orders
    assert x1 / x0 > 1e6


def test_driven_zero_rotation():
    still = coulomb_rotor(0.0, 5e-11)
    assert driven_splitting_parameter(2, still, None) == 0.0
    with pytest.raises(ValidationError):
        driven_splitting_parameter(2, still, np.array([10.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        driven_rotating_levels(2, 1, still, np.array([10.0, 0.0, 0.0]))


def test_driven_validation():
    r = coulomb_rotor(1e9, 5e-11)
    with pytest.raises(ValidationError):
        driven_splitting_parameter(2, r, np.array([np.inf, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        driven_rotating_levels(2, 1, RotorConfig(Omega=1e9, R=0.0,
                                                 model=Harmonic(omega0=1e13)),
                               None)
