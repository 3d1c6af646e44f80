"""Closed-form level formulas held against brute-force diagonalization.

The perturbation-theory oracle here recomputes every reference quantity
(Bohr levels, Larmor and Stark rates) from the constants table directly, so
agreement with the closed forms is a genuine two-route check.
"""

import os
from math import pi, sqrt

import numpy as np
import pytest

from rotoshift import quasienergy

from rotoshift import (CODATA2018, Coulomb, CrossedFields, Harmonic, HermitianOperator,
                       OutOfRegimeError, PerturbativeRegimeWarning, RotoshiftError, RotorConfig,
                       SpectrumResult, StateNotFoundError, ValidationError,
                       atomic_velocity, build_ho_basis, crossed_field_levels,
                       driven_rotating_levels, driven_splitting_parameter,
                       drive_field_vector, eigen_spectrum,
                       fictitious_fields, first_order_degenerate_levels,
                       ho_rotating_hamiltonian, ho_rotating_levels,
                       ho_rotating_spectrum, ho_shell_multiplicity,
                       manifold_perturbation, rotating_coulomb_levels,
                       rotating_coulomb_spectrum, splitting_expansion_parameter,
                       Transition, TruncatedBasis, drfs_exact, driven_shift_report)

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
    s = SpectrumResult([(1, 1), (1, 0), (0, 2), (2, 0)], [2.0, 2.0, 2.0, 1.0])
    assert s.labels.tolist() == [[2, 0], [0, 2], [1, 0], [1, 1]]
    assert s.energies.tolist() == [1.0, 2.0, 2.0, 2.0]
    assert s.labels.dtype == np.int64
    with pytest.raises(ValueError):
        s.energies[0] = 0.0


def test_spectrum_result_validation():
    with pytest.raises(ValidationError):
        SpectrumResult([(0, 0)], [float("nan")])
    with pytest.raises(ValidationError):
        SpectrumResult([(0, 0)], [float("inf")])
    # one integer (q, m_z) row per quasi-energy
    for labels in ([(0, 0)], [(0, 0, 0), (1, 0, 0)], [0, 1], [(2.5, 1), (1, 0)]):
        with pytest.raises(ValidationError):
            SpectrumResult(labels, [1.0, 2.0])


def test_quasi_energy_lookup():
    s = SpectrumResult([(2, 1), (2, 1), (1, 0)], [5.0, 7.0, 1.0])
    assert s.quasi_energy((1, 0)) == 1.0
    # duplicate labels resolve to the lowest level
    assert s.quasi_energy((2, 1)) == 5.0
    assert s.quasi_energy([2, 1]) == 5.0
    for label in ((9, 9), (2,), (2, 1, 0)):
        with pytest.raises(StateNotFoundError):
            s.quasi_energy(label)


def line_basis(dim):
    """A basis of dim states, labeled (i, 0, 0)."""
    return TruncatedBasis(kind="HO3D", labels=tuple((i, 0, 0) for i in range(dim)))


def one_block(matrix):
    """The matrix as a one-block operator over line_basis."""
    matrix = np.asarray(matrix)
    return HermitianOperator.from_blocks(line_basis(len(matrix)),
                                         [(np.arange(len(matrix)), matrix)])


def test_eigen_spectrum_simple_matrices():
    s = eigen_spectrum(one_block(np.diag([3.0, -1.0, 2.0])))
    assert isinstance(s, np.ndarray)
    assert np.allclose(s, [-1.0, 2.0, 3.0])
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(eigen_spectrum(one_block(flip)), [-1.0, 1.0])


def test_eigen_spectrum_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="Hermitian"):
        eigen_spectrum(one_block(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_eigen_spectrum_refuses_anything_but_an_operator():
    for bad in (np.eye(2), [[1.0]], None):
        with pytest.raises(ValidationError, match="HermitianOperator"):
            eigen_spectrum(bad)
        with pytest.raises(ValidationError, match="HermitianOperator"):
            first_order_degenerate_levels(0.0, bad)


def interleaved_blocks():
    # real symmetric 3x3 and 4x4 blocks, their rows and columns shuffled
    # into each other; returns the operator over the shuffled indices and
    # its dense matrix
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(4, 4))
    H = np.zeros((7, 7))
    H[:3, :3] = A + A.T
    H[3:, 3:] = B + B.T
    order = rng.permutation(7)
    H = H[np.ix_(order, order)]
    blocks = [(i, H[np.ix_(i, i)]) for i in (np.flatnonzero(order < 3),
                                             np.flatnonzero(order >= 3))]
    return HermitianOperator.from_blocks(line_basis(7), blocks), H


def test_eigen_spectrum_splits_interleaved_blocks():
    op, H = interleaved_blocks()
    assert np.array_equal(op.matrix, H)
    got = eigen_spectrum(op)
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


def flip_block(rng, pairs, fixed):
    """A random symmetric block with b[flip][:, flip] == -b, and its flip: an
    involution with the given numbers of swapped pairs and fixed positions,
    shuffled over the positions."""
    dim = 2 * pairs + fixed
    order = rng.permutation(dim)
    flip = np.arange(dim)
    flip[order[:pairs]], flip[order[pairs:2 * pairs]] = order[pairs:2 * pairs], order[:pairs]
    A = rng.normal(size=(dim, dim))
    A = A + A.T
    return 0.5 * (A - A[np.ix_(flip, flip)]), flip


@pytest.mark.parametrize("pairs, fixed", [(0, 1), (0, 3), (1, 0), (1, 1), (4, 0), (4, 3),
                                          (3, 7), (25, 5)])
def test_flip_route_matches_eigh_for_random_sign_flipping_blocks(pairs, fixed):
    rng = np.random.default_rng(100 * pairs + fixed)
    b, flip = flip_block(rng, pairs, fixed)
    op = HermitianOperator.from_blocks(line_basis(len(b)), [(np.arange(len(b)), b, flip)])
    got = eigen_spectrum(op)
    want = np.linalg.eigvalsh(b)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300)
    # the symmetry's zero modes come out exactly zero: one per fixed position
    # beyond the pairs, and these blocks have no others
    assert np.count_nonzero(got == 0.0) == fixed
    vals, vecs = quasienergy._flip_eigh(op.blocks[0][1], op.flips[0])
    assert np.max(np.abs(vecs.T @ vecs - np.eye(len(b)))) <= 1e-14
    assert np.max(np.abs(b @ vecs - vecs * vals)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300)


def test_flip_route_residual_check_fires(monkeypatch):
    svd = np.linalg.svd

    def perturbed(matrix):
        U, s, Vt = svd(matrix)
        return U + 1e-6, s, Vt
    monkeypatch.setattr(quasienergy.np.linalg, "svd", perturbed)
    b, flip = flip_block(np.random.default_rng(3), 3, 2)
    op = HermitianOperator.from_blocks(line_basis(len(b)), [(np.arange(len(b)), b, flip)])
    with pytest.raises(RotoshiftError, match="residual"):
        eigen_spectrum(op)


def test_first_order_levels_offset():
    W = one_block(np.array([[0.0, 0.5], [0.5, 0.0]]))
    s = first_order_degenerate_levels(-2.0, W)
    assert np.allclose(s, [-2.5, -1.5])
    zero = first_order_degenerate_levels(1.25, one_block(np.zeros((3, 3))))
    assert np.all(zero == 1.25)
    # the level offset passes the same finiteness check as the eigenvalues
    with pytest.raises(ValidationError, match="finite"):
        first_order_degenerate_levels(float("inf"), W)


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


def assert_levels_in_label_order(s, level):
    # each entry is the scalar level function's value for its label, bit for
    # bit, and the rows run in (energy, q, m_z) order
    assert s.energies.tolist() == [level(q, m_z) for q, m_z in s.labels.tolist()]
    rows = list(zip(s.energies.tolist(), *s.labels.T.tolist()))
    assert rows == sorted(rows)


def test_ho_spectrum_size_and_order():
    # at rest, R = 0, either sense of rotation, and close to the trap frequency
    for Omega, R in ((1e12, 1e-10), (0.0, 0.0), (3e12, 0.0), (-2e12, 1e-10), (9.9e12, 1e-12)):
        rotor = RotorConfig(Omega=Omega, R=R, model=Harmonic(omega0=1e13))
        s = ho_rotating_spectrum(10, rotor)
        assert s.labels.shape == (286, 2)
        assert np.all(np.diff(s.energies) >= 0)
        assert_levels_in_label_order(s, lambda N, m_z: ho_rotating_levels(N, m_z, rotor))
        labels = s.labels.tolist()
        for N in range(11):
            for m_z in range(-N, N + 1):
                assert labels.count([N, m_z]) == ho_shell_multiplicity(N, m_z)


def test_ho_closed_form_tracks_diagonalization():
    # two-route agreement on the lowest half at a benign operating point
    rotor = RotorConfig(Omega=1e12, R=2e-12, model=Harmonic(omega0=1e13))
    basis = build_ho_basis(12)
    numeric = eigen_spectrum(ho_rotating_hamiltonian(basis, rotor))
    closed = ho_rotating_spectrum(12, rotor).energies
    keep = basis.dimension // 2
    rel = np.abs(numeric[:keep] - closed[:keep]) / np.abs(closed[:keep])
    assert np.max(rel) <= 1e-8


def trap(w, v, omega0=1e13):
    """A trap rotating at w omega0 with orbital speed v in trap units sqrt(hbar omega0/m)."""
    speed = v * sqrt(C.hbar * omega0 / C.electron_mass)
    return RotorConfig(Omega=w * omega0, R=speed / abs(w * omega0), model=Harmonic(omega0=omega0))


def by_label(labels, energies):
    # (N, m_z) -> that label's energies, ascending
    table = {}
    for (N, m_z), e in zip(labels.tolist(), energies.tolist()):
        table.setdefault((N, m_z), []).append(e)
    return {label: sorted(values) for label, values in table.items()}


def truncation(slope, drive, count, states):
    # (levels, leaks) of the ladder states a mode reports, from its states-state
    # tridiagonal built and solved on its own
    picked = slice(count) if slope > 0 else slice(-1, -count - 1, -1)
    vals, vecs = np.linalg.eigh(quasienergy._circular_mode(slope, drive, states))
    return vals[picked], abs(drive) * sqrt(states) * np.abs(vecs[-1, picked])


def forward_scan(slope, drive, count):
    # the reference search: each size count + 1, + 4, + 7, ... through 96 states, then up
    # by a quarter to 400, solved in turn until every leak is below 3e-13/sqrt(2);
    # (size, levels, leaks, solves), with size None when no size certifies
    states, solves = count + 1, 0
    while True:
        levels, leaks = truncation(slope, drive, count, states)
        solves += 1
        if leaks.max() <= 3e-13 / sqrt(2):
            return states, levels, leaks, solves
        if states == 400:
            return None, None, None, solves
        states = min(states + (3 if states < 96 else states // 4), 400)


def mode_drive(rotor):
    # the drive (v/2) of each circular mode, in trap units
    return 0.5 * rotor.v_c * sqrt(C.electron_mass / (C.hbar * rotor.model.omega0))


@pytest.mark.parametrize("n_max", [14, 20])
def test_circular_oracle_levels_lie_within_their_bounds(n_max, monkeypatch):
    # the ROADMAP grid, with both senses of rotation and a rotation past the trap frequency;
    # levels near zero at 1.5 omega0 are compared on the scale of the whole spectrum
    blocks = []

    def eigh(a, _f=np.linalg.eigh):
        blocks.append(np.array(a))
        return _f(a)
    monkeypatch.setattr(quasienergy.np.linalg, "eigh", eigh)
    for w in (-0.6, 0.05, 0.3, 0.6, 0.9, 1.5):
        for v in (0.02, 0.1, 0.5):
            rotor = trap(w, v)
            blocks.clear()
            energies, bounds = quasienergy._ho_circular_levels(n_max, rotor)
            labels = quasienergy._ho_labels(n_max)
            closed = by_label(*[getattr(ho_rotating_spectrum(n_max, rotor), a)
                                for a in ("labels", "energies")])
            assert by_label(labels, energies).keys() == closed.keys()
            want = np.array([closed[label].pop(0) for label in map(tuple, labels.tolist())])
            scale = np.max(np.abs(want))
            assert np.all(np.abs(energies - want) <= bounds + 1e-12 * scale), (w, v)
            assert np.all(bounds <= 3e-13 * C.hbar * 1e13)
            if (w, v) == (0.9, 0.5):
                # the slow mode, slope 0.1, certifies a basis well past the first try:
                # its levels and leaks are those of that basis solved on its own, and
                # the schedule size below it leaves a leak above the bound
                slope, drive = 1.0 - w, mode_drive(rotor)
                ours = [a for a in blocks if a[1, 1] == slope]
                states, levels, leaks, _ = forward_scan(slope, drive, n_max + 1)
                assert 62 <= states - n_max <= 69, states
                assert [a.tobytes() for a in ours if len(a) == states] == [
                    quasienergy._circular_mode(slope, drive, states).tobytes()]
                got = quasienergy._mode_levels(slope, drive, n_max + 1)
                assert [a.tobytes() for a in got] == [levels.tobytes(), leaks.tobytes()]
                below = truncation(slope, drive, n_max + 1, states - 3)[1]
                assert below.max() > 3e-13 / sqrt(2)


def test_circular_oracle_reads_no_closed_form(monkeypatch):
    rotor = trap(0.3, 0.1)
    want = quasienergy._ho_circular_levels(10, rotor)

    def closed_form(*args):
        raise AssertionError("the oracle read a closed form")
    for name in ("_ho_levels", "ho_rotating_levels", "ho_rotating_spectrum"):
        monkeypatch.setattr(quasienergy, name, closed_form)
    got = quasienergy._ho_circular_levels(10, rotor)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_each_mode_solves_its_own_tridiagonal_on_the_same_schedule(monkeypatch):
    # basis_n_max 14, Omega = 0.1 omega0, v = 0.1: each mode certifies at 25 states, and
    # not at 22, the schedule size below; each solve gets that many states' tridiagonal,
    # bit for bit, and each mode's levels and leaks are those of its 25-state solve, in two
    # solves per mode: 25 states, which certify, and 22, which fail
    seen = []

    def eigh(a, _f=np.linalg.eigh):
        seen.append(np.array(a))
        return _f(a)
    monkeypatch.setattr(quasienergy.np.linalg, "eigh", eigh)
    rotor = trap(0.1, 0.1)
    quasienergy._ho_circular_levels(14, rotor)
    seen = seen.copy()
    assert len(seen) == 4
    drive, wrel = mode_drive(rotor), rotor.Omega / 1e13
    for slope in (1.0 - wrel, 1.0 + wrel):
        blocks = [a for a in seen if a[1, 1] == slope]
        assert sorted(len(a) for a in blocks) == [22, 25]
        for a in blocks:
            assert a.tobytes() == quasienergy._circular_mode(slope, drive, len(a)).tobytes()
        levels, leaks = truncation(slope, drive, 15, 25)
        got = quasienergy._mode_levels(slope, drive, 15)
        assert [a.tobytes() for a in got] == [levels.tobytes(), leaks.tobytes()]
        assert leaks.max() <= 3e-13 / sqrt(2) < truncation(slope, drive, 15, 22)[1].max()


GRID = [(slope, drive, count) for slope in (1.9, 1.0, 0.3, 0.05, -0.05, -0.4, -1.5)
        for drive in (1e-3, 0.05, 0.3, 0.6, 2.0) for count in (1, 2, 11, 21)]


@pytest.mark.parametrize("slope, drive, count", GRID)
def test_mode_search_ends_where_the_forward_scan_does(slope, drive, count, monkeypatch):
    # the predicted start and the walk end on the first certifying size of the
    # schedule, with the same level and leak bytes, or exit 3 past 400 states, in no more
    # solves than a scan of every size from the smallest
    sizes = []

    def eigh(a, _f=np.linalg.eigh):
        sizes.append(len(a))
        return _f(a)
    states, levels, leaks, solves = forward_scan(slope, drive, count)
    monkeypatch.setattr(quasienergy.np.linalg, "eigh", eigh)
    if states is None:
        with pytest.raises(OutOfRegimeError, match="no circular-mode basis of up to 400 states"):
            quasienergy._mode_levels(slope, drive, count)
        assert 400 in sizes
    else:
        got = quasienergy._mode_levels(slope, drive, count)
        assert [a.tobytes() for a in got] == [levels.tobytes(), leaks.tobytes()]
        assert states in sizes
    assert len(sizes) <= solves
    # the walk solves each size from the predicted one to the first certifying one once,
    # and the failing size just below that one unless it is the smallest; past the top of
    # the schedule it has solved every size from the predicted one up to 400 states
    schedule = quasienergy._mode_sizes(count)
    start = quasienergy._predicted_size(schedule, slope, drive, count)
    first = len(schedule) - 1 if states is None else schedule.index(states)
    low = start if states is None else min(start, max(first - 1, 0))
    assert sorted(sizes) == list(schedule[low:max(start, first) + 1])


def test_basis_size_tables_are_built_once_and_read_only():
    for table in (quasienergy._ho_labels, quasienergy._circular_states):
        table.cache_clear()
    for rotor in (trap(0.1, 0.1), trap(-0.3, 0.02)):
        ho_rotating_spectrum(12, rotor)
        quasienergy._ho_circular_levels(12, rotor)
    # the state table reads the label table once, when it checks its own labels
    assert [(table.cache_info().misses, table.cache_info().hits)
            for table in (quasienergy._ho_labels, quasienergy._circular_states)] == [(1, 2), (1, 1)]
    for a in (quasienergy._ho_labels(12), *quasienergy._circular_states(12)):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 7


def test_state_table_runs_in_label_order(monkeypatch):
    # (N, m_z) = (i + j + n_z, i - j) row for row with _ho_labels, i ascending within a label
    for n_max in range(21):
        i, j, n_z = quasienergy._circular_states(n_max)
        labels = quasienergy._ho_labels(n_max)
        assert np.array_equal(np.stack([i + j + n_z, i - j], axis=1), labels)
        same = (labels[1:] == labels[:-1]).all(axis=1)
        assert np.all(i[1:][same] > i[:-1][same]), n_max
    # an enumeration that misses a state is refused when the table is built
    monkeypatch.setattr(quasienergy, "_ho_labels", lambda N_max: labels[1:])
    quasienergy._circular_states.cache_clear()
    try:
        with pytest.raises(RotoshiftError, match="carry different labels"):
            quasienergy._circular_states(20)
    finally:
        quasienergy._circular_states.cache_clear()


def test_a_caller_changing_a_spectrum_leaves_the_next_one_alone():
    rotor = trap(0.1, 0.1)
    numeric = [a.copy() for a in quasienergy._ho_circular_levels(12, rotor)]
    closed = ho_rotating_spectrum(12, rotor)
    labels, energies = closed.labels.copy(), closed.energies.copy()
    for a in quasienergy._ho_circular_levels(12, rotor):
        a[...] = 7
    for a in (closed.labels, closed.energies):
        # a SpectrumResult's arrays own their bytes, so a caller can lift the flag
        a.flags.writeable = True
        a[...] = 7
    assert all(np.array_equal(a, b)
               for a, b in zip(quasienergy._ho_circular_levels(12, rotor), numeric))
    again = ho_rotating_spectrum(12, rotor)
    assert np.array_equal(again.labels, labels) and np.array_equal(again.energies, energies)


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


def test_crossed_field_fan_refuses_E_along_B():
    # E along B: the numeric m = 0 pair splits to +-7.63e-26 J at n = 2,
    # where an equidistant fan would put both at the Bohr level
    along = CrossedFields(pseudo_E=np.array([0.0, 0.0, 3e3]), pseudo_B=np.array([0.0, 0.0, 0.5]))
    middle = eigen_spectrum(manifold_perturbation(2, along))[1:3]
    assert np.allclose(middle, [-7.63e-26, 7.63e-26], rtol=1e-3)
    tilted = CrossedFields(pseudo_E=np.array([3e3, 0.0, 1e3]), pseudo_B=np.array([0.0, 0.0, 0.5]))
    for fields in (along, tilted):
        with pytest.raises(ValidationError, match="perpendicular"):
            crossed_field_levels(2, 0, fields)
    # with no B, or E_z at rounding level, the fan holds and matches the shell
    for E, B in (([0.0, 0.0, 3e3], 0.0), ([3e3, 0.0, 3e-10], 0.5)):
        fields = CrossedFields(pseudo_E=np.array(E), pseudo_B=np.array([0.0, 0.0, B]))
        closed = np.sort([crossed_field_levels(2, m, fields) - lib_bohr(2)
                          for m in (-1, 0, 0, 1)])
        pt = eigen_spectrum(manifold_perturbation(2, fields))
        assert np.max(np.abs(pt - closed)) <= 1e-8 * (closed[-1] - closed[0])


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
                lib_bohr(n), manifold_perturbation(n, fields))
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
            assert got == pytest.approx(W.matrix[i, i], rel=1e-9,
                                        abs=1e-15 * abs(E_n))


@pytest.mark.filterwarnings("ignore::rotoshift.PerturbativeRegimeWarning")
def test_spectrum_counts_states():
    # either sense of rotation, R = 0, and a fan past the 1% window
    for Omega, R in ((1e11, 1e-10), (1e11, 0.0), (-1e11, 1e-10), (-3e12, 0.0), (5e13, 1e-9)):
        rotor = coulomb_rotor(Omega, R)
        s = rotating_coulomb_spectrum(3, rotor)
        assert s.labels.shape == (1 + 4 + 9, 2)
        labels = [tuple(lab) for lab in s.labels.tolist()]
        assert labels.count((3, 0)) == 3 and labels.count((3, 2)) == 1
        full = rotating_coulomb_spectrum(10, rotor)
        assert full.labels.shape == (385, 2)
        assert_levels_in_label_order(full, lambda n, m_z: rotating_coulomb_levels(n, m_z, rotor))


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
    # file names, not paths: a copied tree may reuse bytecode that keeps the
    # path it was compiled at
    here = os.path.basename(__file__)
    for record in (undriven, driven, exact, report):
        assert [os.path.basename(r.filename) for r in record] == [here]
    # a spectrum warns once per shell whose fan is too wide, here shells 2-5
    with pytest.warns(PerturbativeRegimeWarning) as spectrum:
        rotating_coulomb_spectrum(5, rotor)
    assert [os.path.basename(r.filename) for r in spectrum] == [here] * 4


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
    # a drive along the rotation axis breaks the equidistant fan: at n = 2 the
    # shell's W gives +-7.63e-26 and +-1.05e-25 J, the fan would give +-1.30e-25 J
    along_z = np.array([0.0, 0.0, 3e3])
    for tilted in (along_z, along_z + [1e3, 0.0, 0.0]):
        with pytest.raises(ValidationError, match="orbit plane"):
            driven_rotating_levels(2, 1, coulomb_rotor(1e9, 1e-9), tilted)
        with pytest.raises(ValidationError, match="orbit plane"):
            driven_splitting_parameter(2, r, tilted)
    # a z component within rounding of the in-plane drive passes
    assert driven_splitting_parameter(2, r, np.array([3e3, 0.0, 3e-10])) == \
        driven_splitting_parameter(2, r, np.array([3e3, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        driven_splitting_parameter(2, r, np.array([np.inf, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        driven_rotating_levels(2, 1, RotorConfig(Omega=1e9, R=0.0,
                                                 model=Harmonic(omega0=1e13)),
                               None)
