"""
A rotating harmonic trap does not shift its own emission line
=============================================================

An isotropic 3D harmonic trap is carried around a circle of radius R at
angular rate Omega.  In the co-rotating frame the spectrum rearranges:
every level picks up -hbar*Omega*m_z and a common depression that grows
with the orbital speed.  But the depression cancels between any two
levels and the -Omega*m_z term is exactly repaid by the Omega*M the
photon carries, so the emitted line sits at omega0 no matter how fast
the trap is spun.  This script shows both halves of that statement.
"""

import numpy as np

from rotoshift import (Harmonic, RotorConfig, Transition, build_ho_basis,
                       eigen_spectrum, emitted_frequency,
                       harmonic_shift_report, ho_rotating_hamiltonian,
                       ho_rotating_spectrum)

omega0 = 1e13          # trap frequency, rad/s
R = 5e-11              # orbit radius, m

# --- 1. closed form vs brute-force diagonalization --------------------

# assemble the rotating-frame Hamiltonian in a truncated ladder basis and
# compare every low-lying level against the closed form
basis = build_ho_basis(10)
print(f"basis: N <= 10, dimension {basis.dimension}")
print()
print("  Omega/omega0   max rel err (lowest half)")
for frac in (0.02, 0.05, 0.1):
    rotor = RotorConfig(Omega=frac * omega0, R=R, model=Harmonic(omega0=omega0))
    numeric = eigen_spectrum(ho_rotating_hamiltonian(basis, rotor))
    closed = ho_rotating_spectrum(10, rotor).energies
    keep = basis.dimension // 2
    err = np.max(np.abs(numeric[:keep] - closed[:keep]) / np.abs(closed[:keep]))
    print(f"  {frac:10.2f}   {err:.2e}")

# --- 2. the emitted line is rotation independent ----------------------

# photon frequency = quasi-energy difference / hbar + Omega * M; for the
# natural M = Delta m_z everything Omega-dependent cancels
t = Transition(upper=(2, 1), lower=(1, 0))
print()
print("  Omega/omega0   emitted omega / omega0      drfs")
for frac in (0.0, 0.02, 0.1, 0.3):
    rotor = RotorConfig(Omega=frac * omega0, R=R, model=Harmonic(omega0=omega0))
    line = emitted_frequency(ho_rotating_spectrum(3, rotor), t, rotor.Omega)
    rep = harmonic_shift_report(t, rotor)
    print(f"  {frac:10.2f}   {line / omega0:.15f}   {rep.drfs:.1e}")

print()
print("the drfs column is identically zero: a null result, not a small one")
