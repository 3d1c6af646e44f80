"""
Crossed fields, the level fan, and the substitution identity
============================================================

The rotating Coulomb problem maps onto a static one: an effective
electric field e*E = m Omega^2 R in the orbital plane crossed with an
effective magnetic field e*B = 2 m Omega along the axis.  Within one
n-manifold the combined perturbation diagonalizes into an equidistant
fan -hbar m_z sqrt(omega_L^2 + omega_S^2).  Here we verify the fan
against a brute-force matrix diagonalization and then check that
substituting the fictitious fields reproduces the turntable closed form
to machine precision.
"""

import numpy as np

from rotoshift import (CODATA2018, Coulomb, CrossedFields, RotorConfig,
                       crossed_field_levels, eigen_spectrum,
                       fictitious_fields, first_order_degenerate_levels,
                       manifold_perturbation, rotating_coulomb_levels)

EV = CODATA2018.elementary_charge  # J per eV


def no_fields():
    return CrossedFields(pseudo_E=np.zeros(3), pseudo_B=np.zeros(3))


# --- 1. fan vs brute force for n = 3 ----------------------------------

n = 3
fields = CrossedFields(pseudo_E=np.array([2e4, 0.0, 0.0]),
                       pseudo_B=np.array([0.0, 0.0, 0.8]))
E0 = crossed_field_levels(n, 0, no_fields())

numeric = first_order_degenerate_levels(
    E0, manifold_perturbation(n, fields))
closed = np.sort(np.concatenate(
    [[crossed_field_levels(n, m, fields)] * (n - abs(m))
     for m in range(-(n - 1), n)]))

print(f"n = {n} manifold, E = 2e4 V/m in-plane, B = 0.8 T axial")
print("  brute force (eV)        closed fan (eV)")
for a, b in zip(numeric, closed):
    print(f"  {a / EV:+.12f}   {b / EV:+.12f}")
spread = closed[-1] - closed[0]
print(f"worst deviation: {np.max(np.abs(numeric - closed)) / spread:.1e} "
      f"of the fan spread")
print()

# --- 2. the interesting part: why a fan and not a Stark ladder --------

# a pure in-plane field would split n = 2 into +-3 e a0 E with two
# untouched states; the axial Coriolis field rotates that pattern into
# the uniform m_z fan, which is what feeds the square-root shift
stark_only = CrossedFields(pseudo_E=np.array([2e4, 0.0, 0.0]),
                           pseudo_B=np.zeros(3))
w = eigen_spectrum(manifold_perturbation(2, stark_only))
print("n = 2, in-plane field alone, perturbation eigenvalues (eV):")
print("  " + "  ".join(f"{v / EV:+.6e}" for v in w))
print()

# --- 3. substitution identity -----------------------------------------

print("turntable closed form vs crossed-field closed form with the")
print("fictitious fields substituted:")
print("  n  Omega (rad/s)  R (m)     worst rel gap over m_z")
for n in (2, 4):
    for Omega, R in ((1e11, 1e-10), (5e11, 1e-10), (5e11, 1e-9)):
        rotor = RotorConfig(Omega=Omega, R=R, model=Coulomb())
        sub = fictitious_fields(rotor)
        gap = max(abs(rotating_coulomb_levels(n, m, rotor)
                      - crossed_field_levels(n, m, sub))
                  / abs(rotating_coulomb_levels(n, m, rotor))
                  for m in range(-(n - 1), n))
        print(f"  {n}  {Omega:11.0e}  {R:8.0e}  {gap:.1e}")
