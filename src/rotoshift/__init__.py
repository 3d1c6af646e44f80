"""Quasi-energy spectra and photon frequency shifts of rotating quantum emitters.

The library models a bound quantum system carried on a turntable: a
three-dimensional harmonic trap whose center moves on a circle, and a
hydrogen-like atom held at fixed distance from the rotation axis.  It
provides exact rotating-frame level formulas, brute-force matrix
diagonalization to validate them, and the resulting shift of the emitted
photon frequency relative to the emitter at rest.
"""

from .constants import CODATA2018, PhysicalConstants, atomic_velocity
from .errors import (OutOfRegimeError, PerturbativeRegimeWarning,
                     ResonanceError, RotoshiftError, SelectionRuleError,
                     StateNotFoundError, UnphysicalTransitionError,
                     ValidationError)
from .operators import (HermitianOperator, TruncatedBasis, build_ho_basis,
                        ho_lz_matrix,
                        ho_rotating_hamiltonian, hydrogen_manifold_basis,
                        manifold_perturbation, manifold_position_matrices,
                        radial_dipole_integral)
from .quasienergy import (SpectrumResult, crossed_field_levels,
                          driven_rotating_levels, driven_splitting_parameter,
                          eigen_spectrum, first_order_degenerate_levels,
                          ho_rotating_levels, ho_rotating_spectrum,
                          ho_shell_multiplicity, rotating_coulomb_levels,
                          rotating_coulomb_spectrum,
                          splitting_expansion_parameter)
from .rotor import (RESONANCE_TOLERANCE, Coulomb, CrossedFields, Harmonic,
                    RotorConfig, drive_field_vector, fictitious_fields)
from .shifts import (ALT_SERIES_COEFFICIENT, SERIES_COEFFICIENT, ShiftReport,
                     Transition, doppler_frequency, drfs_exact, drfs_series,
                     driven_shift_report, emitted_frequency, force_ratio,
                     force_ratio_engineering, harmonic_shift_report,
                     self_consistent_doppler,
                     transverse_doppler_ratio, velocity_ratio_squared)

__version__ = "0.1.0"

__all__ = [
    "ALT_SERIES_COEFFICIENT", "CODATA2018", "Coulomb", "CrossedFields",
    "Harmonic", "HermitianOperator", "OutOfRegimeError",
    "PerturbativeRegimeWarning", "PhysicalConstants", "RESONANCE_TOLERANCE",
    "ResonanceError", "RotorConfig", "RotoshiftError", "SERIES_COEFFICIENT",
    "SelectionRuleError", "ShiftReport", "SpectrumResult",
    "StateNotFoundError", "Transition", "TruncatedBasis",
    "UnphysicalTransitionError", "ValidationError", "atomic_velocity",
    "build_ho_basis", "crossed_field_levels", "doppler_frequency",
    "drfs_exact", "drfs_series", "drive_field_vector",
    "driven_rotating_levels", "driven_shift_report",
    "driven_splitting_parameter", "eigen_spectrum", "emitted_frequency",
    "fictitious_fields", "first_order_degenerate_levels", "force_ratio",
    "force_ratio_engineering", "harmonic_shift_report", "ho_lz_matrix",
    "ho_rotating_hamiltonian", "ho_rotating_levels", "ho_rotating_spectrum",
    "ho_shell_multiplicity", "hydrogen_manifold_basis",
    "manifold_perturbation", "manifold_position_matrices",
    "radial_dipole_integral", "rotating_coulomb_levels",
    "rotating_coulomb_spectrum",
    "self_consistent_doppler", "splitting_expansion_parameter",
    "transverse_doppler_ratio", "velocity_ratio_squared",
]
