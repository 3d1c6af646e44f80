"""Frequency-shift bookkeeping: Doppler guards, DRFS decomposition, scaling."""

from math import hypot, pi, sqrt

import numpy as np
import pytest

from rotoshift import (ALT_SERIES_COEFFICIENT, CODATA2018, Coulomb, Harmonic,
                       OutOfRegimeError, RotorConfig, SERIES_COEFFICIENT,
                       StateNotFoundError,
                       Transition, UnphysicalTransitionError, ValidationError,
                       atomic_velocity, doppler_frequency, drfs_exact,
                       drfs_series, drive_field_vector, driven_rotating_levels,
                       driven_shift_report, driven_splitting_parameter,
                       emitted_frequency, force_ratio,
                       force_ratio_engineering, harmonic_shift_report,
                       ho_rotating_levels, ho_rotating_spectrum,
                       rotating_coulomb_levels, rotating_coulomb_spectrum,
                       self_consistent_doppler,
                       splitting_expansion_parameter,
                       transverse_doppler_ratio, velocity_ratio_squared)

C = CODATA2018


def coulomb_rotor(Omega, R):
    return RotorConfig(Omega=Omega, R=R, model=Coulomb())


# ---------------------------------------------------------------------------
# transitions
# ---------------------------------------------------------------------------


def test_transition_effective_projection():
    t = Transition(upper=(3, 2), lower=(2, 1))
    assert t.effective_M() == 1
    assert Transition(upper=(3, 2), lower=(2, 1), M=5).effective_M() == 5
    with pytest.raises(ValidationError):
        Transition(upper=(3,), lower=(2, 1))
    with pytest.raises(ValidationError):
        Transition(upper=(3, 2), lower=(2, 1), M=1.5)


# ---------------------------------------------------------------------------
# Doppler formulas
# ---------------------------------------------------------------------------


def test_doppler_at_rest_and_perpendicular():
    deltaE = 1e-19
    k = np.array([0.0, 0.0, 2e6])
    assert doppler_frequency(deltaE, np.zeros(3), k) == deltaE / C.hbar
    sideways = np.array([500.0, 0.0, 0.0])
    k_x_free = np.array([0.0, 3e6, 0.0])
    assert doppler_frequency(deltaE, sideways, k_x_free) == deltaE / C.hbar


def test_doppler_longitudinal_shift():
    deltaE = 1e-19
    v = np.array([0.0, 0.0, 300.0])
    k = np.array([0.0, 0.0, 2e6])
    got = doppler_frequency(deltaE, v, k)
    assert got == deltaE / C.hbar + 300.0 * 2e6


def test_doppler_guards():
    with pytest.raises(ValidationError):
        doppler_frequency(-1e-19, np.zeros(3), np.zeros(3))
    with pytest.raises(OutOfRegimeError):
        doppler_frequency(1e-19, np.array([4e6, 0.0, 0.0]), np.zeros(3))
    with pytest.raises(ValidationError):
        doppler_frequency(1e-19, np.zeros(2), np.zeros(3))


def test_self_consistent_doppler_fixed_point():
    # closed form of the fixed point: omega = (deltaE/hbar) / (1 - v.k/c)
    deltaE = 1.05e-19
    v = np.array([0.0, 0.0, 300.0])
    got = self_consistent_doppler(deltaE, v, np.array([0.0, 0.0, 1.0]))
    want = (deltaE / C.hbar) / (1.0 - 300.0 / C.light_speed)
    assert got == pytest.approx(want, rel=1e-12)
    # first-order magnitude is omega * v/c
    assert got - deltaE / C.hbar == pytest.approx(
        (deltaE / C.hbar) * 300.0 / C.light_speed, rel=1e-5)
    with pytest.raises(ValidationError):
        self_consistent_doppler(deltaE, v, np.zeros(3))


def test_self_consistent_doppler_direction_scale_free():
    # only the direction of k counts: lengths whose square leaves double
    # precision must neither zero the shift nor be taken for a zero vector
    v = np.array([3e5, 0.0, 0.0])
    unit = self_consistent_doppler(1e-19, v, [1.0, 0.0, 0.0])
    assert unit > 1e-19 / C.hbar
    for length in (1e300, 1e-200):
        got = self_consistent_doppler(1e-19, v, [length, 0.0, 0.0])
        assert got == pytest.approx(unit, rel=1e-15)


# ---------------------------------------------------------------------------
# emitted frequency from quasi-energy bookkeeping
# ---------------------------------------------------------------------------


def test_emitted_frequency_hydrogen():
    rotor = coulomb_rotor(1e12, 1e-10)
    levels = rotating_coulomb_spectrum(3, rotor)
    t = Transition(upper=(2, 1), lower=(1, 0))
    got = emitted_frequency(levels, t, rotor.Omega)
    want = ((levels.quasi_energy((2, 1)) - levels.quasi_energy((1, 0))) / C.hbar
            + rotor.Omega)
    assert got == want
    with pytest.raises(StateNotFoundError):
        emitted_frequency(levels, Transition(upper=(9, 0), lower=(1, 0)), rotor.Omega)
    with pytest.raises(UnphysicalTransitionError):
        emitted_frequency(levels, Transition(upper=(1, 0), lower=(2, 1)), rotor.Omega)


def test_cylindrical_cancellation_for_harmonic_trap():
    # conserving emission from a cylindrically symmetric binding: the line
    # stays at the rest frequency for every rotation rate
    omega0 = 1e13
    t = Transition(upper=(2, 1), lower=(1, 0))
    for Omega in (0.0, 1e10, 1e12, 3e12):
        rotor = RotorConfig(Omega=Omega, R=1e-10, model=Harmonic(omega0=omega0))
        levels = ho_rotating_spectrum(3, rotor)
        got = emitted_frequency(levels, t, Omega)
        assert got == pytest.approx(omega0, rel=1e-12)


def test_nonconserving_emission_shifts_by_kinematic_term():
    omega0 = 1e13
    Omega = 5e11
    rotor = RotorConfig(Omega=Omega, R=1e-10, model=Harmonic(omega0=omega0))
    levels = ho_rotating_spectrum(3, rotor)
    t = Transition(upper=(2, 1), lower=(1, 0), M=3)
    got = emitted_frequency(levels, t, Omega)
    assert got == pytest.approx(omega0 + 2 * Omega, rel=1e-12)


# ---------------------------------------------------------------------------
# exact DRFS of the turntable hydrogen atom
# ---------------------------------------------------------------------------


def test_drfs_vanishes_at_rest():
    t = Transition(upper=(3, 2), lower=(2, 1))
    rep = drfs_exact(t, coulomb_rotor(0.0, 1e-10))
    assert rep.drfs == 0.0
    assert rep.omega_rotating == rep.omega_rest


@pytest.mark.filterwarnings("ignore::rotoshift.PerturbativeRegimeWarning")
def test_drfs_vanishes_for_axial_states():
    t = Transition(upper=(3, 0), lower=(2, 0))
    rep = drfs_exact(t, coulomb_rotor(1e13, 1e-9))
    assert rep.drfs == 0.0
    assert rep.kinematic_part == 0.0 and rep.dynamic_part == 0.0


@pytest.mark.filterwarnings("ignore::rotoshift.PerturbativeRegimeWarning")
def test_drfs_decomposition_is_exact():
    t = Transition(upper=(4, 3), lower=(2, -1), M=2)
    rep = drfs_exact(t, coulomb_rotor(3e12, 2e-10))
    assert rep.drfs == rep.kinematic_part + rep.dynamic_part
    assert rep.omega_rotating == rep.omega_rest + rep.drfs
    # M != delta m_z means a nonzero kinematic part
    assert rep.kinematic_part == 3e12 * (2 - 4)


def test_drfs_antisymmetries():
    rotor = coulomb_rotor(2e12, 3e-10)
    t = Transition(upper=(3, 2), lower=(2, 1))
    mirror = Transition(upper=(3, -2), lower=(2, -1))
    plus = drfs_exact(t, rotor).drfs
    assert drfs_exact(mirror, rotor).drfs == -plus
    assert drfs_exact(t, coulomb_rotor(-2e12, 3e-10)).drfs == -plus
    # time reversal: flipping rotation and all projections changes nothing
    assert drfs_exact(mirror, coulomb_rotor(-2e12, 3e-10)).drfs == plus


@pytest.mark.filterwarnings("ignore::rotoshift.PerturbativeRegimeWarning")
def test_drfs_magnitude_anchor():
    # n=3, m=2 -> n'=2, m'=1 at Omega=1e13/s, R=1e-10 m: the quadratic-order
    # estimate (9/8)(n'^2 m' - n^2 m) Omega (v_c/v_a)^2 lands within 0.1%
    t = Transition(upper=(3, 2), lower=(2, 1))
    rotor = coulomb_rotor(1e13, 1e-10)
    rep = drfs_exact(t, rotor)
    v_a = atomic_velocity(1)
    estimate = (9.0 / 8.0) * (4 - 18) * 1e13 * (1e3 / v_a) ** 2
    assert rep.drfs == pytest.approx(estimate, rel=1e-3)
    assert rep.drfs < 0
    assert rep.kinematic_part == 0.0


def test_drfs_ratio_only_for_conserving_emission():
    rotor = coulomb_rotor(1e12, 1e-10)
    conserving = drfs_exact(Transition(upper=(3, 2), lower=(2, 1)), rotor)
    assert "transverse_doppler" in conserving.ratios
    off = drfs_exact(Transition(upper=(3, 2), lower=(2, 1), M=0), rotor)
    assert off.ratios == {}


def test_drfs_validation():
    with pytest.raises(ValidationError):
        drfs_exact(Transition(upper=(3, 3), lower=(2, 1)), coulomb_rotor(1e12, 1e-10))
    with pytest.raises(ValidationError):
        drfs_exact(Transition(upper=(3, 2), lower=(2, 1)),
                   RotorConfig(Omega=1e12, R=1e-10, model=Harmonic(omega0=1e13)))


# ---------------------------------------------------------------------------
# series expansion and its validity window
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::rotoshift.PerturbativeRegimeWarning")
def test_series_matches_exact_in_window():
    t = Transition(upper=(3, 2), lower=(2, 1))
    for Omega in (1e11, 1e12, 1e13):
        rotor = coulomb_rotor(Omega, 1e-10)
        exact = drfs_exact(t, rotor).drfs
        series = drfs_series(t, rotor)
        x = splitting_expansion_parameter(3, rotor)
        assert series == pytest.approx(exact, rel=10 * x * x + 1e-12)


@pytest.mark.filterwarnings("ignore::rotoshift.PerturbativeRegimeWarning")
def test_series_residual_fourth_order_bound():
    # |series - exact| <= Omega (|m| x_n^4 + |m'| x_n'^4) / 8, from the
    # alternating Taylor remainder of sqrt(1+x^2)
    t = Transition(upper=(4, 3), lower=(3, -2))
    for Omega in np.geomspace(1e11, 2e13, 7):
        for R in np.geomspace(1e-11, 4e-10, 7):
            rotor = coulomb_rotor(float(Omega), float(R))
            resid = abs(drfs_series(t, rotor) - drfs_exact(t, rotor).drfs)
            x_u = splitting_expansion_parameter(4, rotor)
            x_l = splitting_expansion_parameter(3, rotor)
            bound = Omega * (3 * x_u ** 4 + 2 * x_l ** 4) / 8.0
            assert resid <= bound * (1 + 1e-9) + 1e-12 * abs(Omega)


def test_series_scales_quadratically_with_radius():
    t = Transition(upper=(3, 2), lower=(2, 1))
    s1 = drfs_series(t, coulomb_rotor(1e12, 1e-10))
    s2 = drfs_series(t, coulomb_rotor(1e12, 2e-10))
    assert s2 == 4.0 * s1


def test_series_zero_for_balanced_projections():
    # n'^2 m' = n^2 m wipes out the quadratic term; with conserving M the
    # kinematic part is zero too
    t = Transition(upper=(2, 1), lower=(2, 1))
    assert drfs_series(t, coulomb_rotor(1e12, 1e-10)) == 0.0


def test_series_out_of_regime():
    t = Transition(upper=(5, 4), lower=(2, 1))
    with pytest.raises(OutOfRegimeError):
        drfs_series(t, coulomb_rotor(1e14, 1e-9))


def test_alternative_coefficient_is_4pi2_larger():
    t = Transition(upper=(3, 2), lower=(2, 1))
    rotor = coulomb_rotor(1e12, 1e-10)
    base = drfs_series(t, rotor)
    alt = drfs_series(t, rotor, coefficient=ALT_SERIES_COEFFICIENT)
    assert ALT_SERIES_COEFFICIENT == pytest.approx(4 * pi ** 2 * SERIES_COEFFICIENT,
                                                   rel=1e-15)
    assert alt == pytest.approx(4 * pi ** 2 * base, rel=1e-12)


# ---------------------------------------------------------------------------
# transverse Doppler comparison ratio
# ---------------------------------------------------------------------------


def test_ratio_definitional_identity():
    t = Transition(upper=(3, 2), lower=(2, 1))
    for R in (1e-10, 2e-10):
        rotor = coulomb_rotor(1e12, R)
        rep = drfs_exact(t, rotor)
        scale = rep.omega_rest * rotor.v_c ** 2 / (2.0 * C.light_speed ** 2)
        ratio = transverse_doppler_ratio(t, rotor.Omega, rep.omega_rest)
        assert ratio * scale == pytest.approx(drfs_series(t, rotor), rel=1e-12)
        assert rep.ratios["transverse_doppler"] == ratio


def test_ratio_independent_of_radius():
    t = Transition(upper=(3, 2), lower=(2, 1))
    num = []
    for R in (1e-10, 2e-10):
        rotor = coulomb_rotor(1e12, R)
        rep = drfs_exact(t, rotor)
        scale = rep.omega_rest * rotor.v_c ** 2 / (2.0 * C.light_speed ** 2)
        num.append(drfs_series(t, rotor) / scale)
    assert num[0] == pytest.approx(num[1], rel=1e-12)


@pytest.mark.filterwarnings("ignore::rotoshift.PerturbativeRegimeWarning")
def test_ratio_anchor_magnitude():
    # ratio ~ -2e3 for the n=3 -> n=2 line at Omega = 1e13/s: the dynamic
    # shift beats the transverse Doppler scale by three orders
    t = Transition(upper=(3, 2), lower=(2, 1))
    rep = drfs_exact(t, coulomb_rotor(1e13, 1e-10))
    ratio = rep.ratios["transverse_doppler"]
    assert ratio == pytest.approx(-2.06e3, rel=1e-2)


def test_ratio_validation():
    t = Transition(upper=(3, 2), lower=(2, 1))
    with pytest.raises(ValidationError):
        transverse_doppler_ratio(t, 1e12, 0.0)
    with pytest.raises(ValidationError):
        transverse_doppler_ratio(Transition(upper=(3, 2), lower=(2, 1), M=0),
                                 1e12, 1e15)


# ---------------------------------------------------------------------------
# force ratio and order-of-magnitude anchors
# ---------------------------------------------------------------------------


def test_force_ratio_anchor():
    rotor = coulomb_rotor(2 * pi * 8e7, 5e-11)
    direct = force_ratio(rotor, 3e4)
    rough = force_ratio_engineering(rotor, 3e4)
    assert direct == pytest.approx(2.4e-9, rel=0.05)
    assert rough == pytest.approx(2.4e-9, rel=0.05)
    assert rough == pytest.approx(direct, rel=5e-3)


def test_force_ratio_edge_cases():
    assert force_ratio(coulomb_rotor(0.0, 5e-11), 3e4) == 0.0
    with pytest.raises(ValidationError):
        force_ratio(coulomb_rotor(1e9, 5e-11), 0.0)
    with pytest.raises(ValidationError):
        force_ratio_engineering(coulomb_rotor(1e9, 5e-11), -1.0)
    # e E underflows to zero: out of double precision, not a raw ZeroDivisionError
    with pytest.raises(OutOfRegimeError, match=r"^force ratio .*\(float division by zero\)"):
        force_ratio(coulomb_rotor(1e9, 5e-11), 1e-320)


def test_velocity_ratio_anchors():
    # both scenarios move at about 1 km/s, (v_c/v_a)^2 within a factor of
    # ten of 1e-6
    macroscopic = coulomb_rotor(1e7, 1e-4)     # v_c = 1e3 m/s
    molecular = coulomb_rotor(1e13, 1e-10)     # v_c = 1e3 m/s
    for rotor in (macroscopic, molecular):
        ratio = velocity_ratio_squared(rotor)
        assert 1e-7 <= ratio <= 1e-5
        assert ratio == pytest.approx((1e3 / atomic_velocity(1)) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# harmonic and driven reports
# ---------------------------------------------------------------------------


def test_harmonic_report_null_shift():
    rotor = RotorConfig(Omega=3e12, R=1e-10, model=Harmonic(omega0=1e13))
    t = Transition(upper=(2, 1), lower=(1, 0))
    rep = harmonic_shift_report(t, rotor)
    assert rep.drfs == 0.0
    assert rep.dynamic_part == 0.0
    assert rep.omega_rotating == rep.omega_rest == 1e13
    assert rep.ratios["transverse_doppler"] == 0.0
    # the report carries the closed-form levels, and each factor is one
    assert rep.quasi_energies == (ho_rotating_levels(2, 1, rotor),
                                  ho_rotating_levels(1, 0, rotor))
    assert rep.splitting_factors == (1.0, 1.0)
    upper, lower = rep.quasi_energies
    line = (upper - lower) / C.hbar + rotor.Omega * t.effective_M()
    assert line == pytest.approx(rep.omega_rotating, rel=1e-12)


def test_harmonic_report_underflowing_speed_leaves_ratio_out():
    # v_c = 3e-188 m/s is nonzero but its square underflows to zero, so the
    # transverse Doppler scale is zero and the ratio is undefined, as at v_c = 0
    rotor = RotorConfig(Omega=3e12, R=1e-200, model=Harmonic(omega0=1e13))
    assert rotor.v_c != 0 and rotor.v_c ** 2 == 0
    rep = harmonic_shift_report(Transition(upper=(2, 1), lower=(1, 0)), rotor)
    assert rep.drfs == 0.0
    assert "transverse_doppler" not in rep.ratios


def test_harmonic_speed_squared_past_the_float_range():
    # v_c = 1e202 m/s: its square leaves double precision, and the library
    # says which quantity did, keeping the float error's own text
    rotor = RotorConfig(Omega=1e12, R=1e190, model=Harmonic(omega0=1e13))
    t = Transition(upper=(2, 1), lower=(1, 0))
    for call in (lambda: ho_rotating_levels(2, 1, rotor),
                 lambda: harmonic_shift_report(t, rotor)):
        with pytest.raises(OutOfRegimeError, match=r"^trap depression .*out of range"):
            call()
    # rates whose square, a speed ratio whose square, and a Stark rate whose
    # in-plane acceleration F/m leave double precision
    huge = RotorConfig(Omega=1e150, R=1e10, model=Coulomb())
    coulomb_t = Transition(upper=(3, 2), lower=(2, 1))
    for call, quantity in (
            (lambda: drfs_exact(coulomb_t, huge), "Stark rate"),
            (lambda: rotating_coulomb_levels(3, 2, huge), "Stark rate"),
            (lambda: driven_rotating_levels(3, 2, huge, np.zeros(3)), "Stark rate"),
            (lambda: RotorConfig(Omega=1e200, R=0.0, model=Harmonic(omega0=1e13)),
             "rotation rate"),
            (lambda: RotorConfig(Omega=1e12, R=1e-10, model=Harmonic(omega0=1e200)),
             "trap frequency"),
            (lambda: drfs_exact(t, RotorConfig(Omega=1e200, R=1e-10, model=Coulomb())),
             "rotation rate"),
            (lambda: velocity_ratio_squared(RotorConfig(Omega=1e100, R=1e100, model=Coulomb())),
             "velocity ratio")):
        with pytest.raises(OutOfRegimeError, match=f"^{quantity} leaves the double-precision"):
            call()


def test_harmonic_report_kinematic_override():
    rotor = RotorConfig(Omega=3e12, R=1e-10, model=Harmonic(omega0=1e13))
    t = Transition(upper=(2, 1), lower=(1, 0), M=2)
    rep = harmonic_shift_report(t, rotor)
    assert rep.drfs == rotor.Omega * 1
    assert rep.dynamic_part == 0.0
    with pytest.raises(ValidationError):
        harmonic_shift_report(Transition(upper=(1, 2), lower=(0, 0)), rotor)
    with pytest.raises(ValidationError):
        harmonic_shift_report(t, coulomb_rotor(1e12, 1e-10))


def test_driven_report_reduces_and_cancels():
    rotor = coulomb_rotor(2 * pi * 8e7, 5e-11)
    t = Transition(upper=(3, 2), lower=(2, 1))
    undriven = driven_shift_report(t, rotor, None)
    assert undriven.drfs == drfs_exact(t, rotor).drfs
    assert undriven.ratios == {}
    # cancel the centrifugal term: the dynamic part collapses to zero
    star = C.electron_mass * rotor.Omega ** 2 * rotor.R / C.elementary_charge
    cancel = driven_shift_report(t, rotor,
                                 drive_field_vector(rotor, star, antiparallel=True))
    assert cancel.dynamic_part == 0.0
    assert cancel.drfs == 0.0
    # a strong parallel drive makes the dynamic part much larger
    boosted = driven_shift_report(t, rotor, drive_field_vector(rotor, 3e4))
    assert abs(boosted.dynamic_part) > 1e5 * abs(undriven.dynamic_part)


@pytest.mark.filterwarnings("ignore::rotoshift.PerturbativeRegimeWarning")
@pytest.mark.parametrize("Omega", [3e12, -3e12])
def test_report_carries_its_levels_and_splitting_factors(Omega):
    # bit for bit the level functions and hypot(1, x), and the emitted line
    # is their difference over hbar plus Omega M
    rotor = coulomb_rotor(Omega, 2e-10)
    t = Transition(upper=(4, 3), lower=(2, -1), M=2)
    shells = (t.upper, t.lower)
    undriven = drfs_exact(t, rotor)
    assert undriven.quasi_energies == tuple(rotating_coulomb_levels(q, m, rotor)
                                            for q, m in shells)
    for drive in (None, drive_field_vector(rotor, 3e4),
                  drive_field_vector(rotor, 50.0, antiparallel=True)):
        rep = undriven if drive is None else driven_shift_report(t, rotor, drive)
        assert rep.quasi_energies == tuple(driven_rotating_levels(q, m, rotor, drive)
                                           for q, m in shells)
        assert rep.splitting_factors == tuple(
            hypot(1.0, driven_splitting_parameter(q, rotor, drive)) for q, _ in shells)
        upper, lower = rep.quasi_energies
        line = (upper - lower) / C.hbar + Omega * t.effective_M()
        assert line == pytest.approx(rep.omega_rotating, rel=1e-12)
