"""Command-line front end.

Usage: rotoshift <command> --config <path> [--out <path>]

Commands map one-to-one onto library operations: `spectrum` tabulates
closed-form against numerically diagonalized quasi-energies, `drfs` reports
the rotational shift of one transition, `doppler` evaluates the moving-source
frequency, `compare-stark` contrasts the centrifugal and drive Stark terms,
and `sweep` scans one axis and writes a row per grid point.

The command line names files only; the config says the rest.  Configs
are strict JSON; unknown fields are rejected so unit mistakes surface
early (every numeric field name carries its unit).  Output is CSV (comma
separated, LF endings, 12 significant digits) or JSON, per output.format,
written atomically via a temp file and rename.  Exit codes: 0 success, 2
invalid config or arguments, an unreadable config or an unwritable output,
3 computation outside its validity regime.  Each command computes with
numpy's bundled OpenBLAS on one thread and gives the caller's thread count
back when it returns.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import stat
import sys
import threading
from functools import lru_cache
from itertools import islice

import numpy as np

from .constants import CODATA2018
from .errors import (OutOfRegimeError, ResonanceError, RotoshiftError,
                     ValidationError, double_precision)
# build_ho_basis, ho_rotating_hamiltonian, eigen_spectrum, ho_rotating_levels,
# ho_rotating_spectrum, rotating_coulomb_levels, driven_splitting_parameter and
# splitting_expansion_parameter are no longer called here; they stay
# importable for perfbench/spans.py, which wraps them by this module's name
from .operators import (build_ho_basis, ho_rotating_hamiltonian,
                        manifold_perturbation)
from .quasienergy import (_bohr_level, _finite, _ho_circular_levels, _ho_labels, _ho_levels,
                          driven_rotating_levels, driven_splitting_parameter,
                          eigen_spectrum, first_order_degenerate_levels,
                          ho_rotating_levels, ho_rotating_spectrum, rotating_coulomb_levels,
                          rotating_coulomb_spectrum, splitting_expansion_parameter)
from .rotor import (_MAX_Z, Coulomb, Harmonic, RotorConfig, drive_field_vector,
                    fictitious_fields)
from .shifts import (ALT_SERIES_COEFFICIENT, Transition, doppler_frequency,
                     drfs_exact, drfs_series, driven_shift_report,
                     force_ratio, force_ratio_engineering,
                     harmonic_shift_report, self_consistent_doppler)

REPORT_COLUMNS = [
    "swept_value", "M", "quasi_energy_upper_J", "quasi_energy_lower_J",
    "omega_rest_rad_s", "drfs_exact_rad_s", "drfs_series_rad_s",
    "drfs_series_alt_rad_s", "kinematic_rad_s", "dynamic_rad_s",
    "splitting_factor_upper", "splitting_factor_lower",
    "transverse_doppler_ratio", "force_ratio",
]

_TOP_KEYS = {"model", "rotor", "transition", "drive", "sweep", "output",
             "doppler", "basis_n_max"}
_ROTOR_KEYS = {"omega_rad_s", "radius_m", "omega0_rad_s", "Z", "omega_over_2pi_hz"}
_TRANSITION_KEYS = {"upper", "lower", "M"}
_DRIVE_KEYS = {"E_V_per_m", "orientation"}
_SWEEP_KEYS = {"axis", "from", "to", "points", "scale"}
_OUTPUT_KEYS = {"format", "path"}
_DOPPLER_KEYS = {"delta_E_J", "v_m_per_s", "k_per_m", "k_direction"}

# Largest accepted rotation or trap rate, rad/s: the electron's Compton
# frequency m c^2 / hbar.  A quantum hbar Omega above the electron rest
# energy is outside every nonrelativistic formula here, and below it the
# squares of rates stay finite.
_MAX_RATE_RAD_S = CODATA2018.electron_mass * CODATA2018.light_speed ** 2 / CODATA2018.hbar
# Largest table a sweep (points) or compare-stark (2n - 1 rows per shell) writes
_MAX_ROWS = 100000
_MAX_INT = 2 ** 53
# Lowest shell and the label rule of each model's [q, m_z] levels
_LEVEL_RULES = {"coulomb": (1, "n >= 1 and |m_z| <= n - 1"),
                "harmonic": (0, "N >= 0 and |m_z| <= N")}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return f"{float(value):.11e}"


def _is_number(v) -> bool:
    # NaN, +-Infinity and integers beyond the float range would otherwise
    # fail later with a message that names no field
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_int(v) -> bool:
    # the float rule of _is_number, tightened to the float-exact integers so
    # that products such as n^2 m_z stay finite
    return isinstance(v, int) and not isinstance(v, bool) and abs(v) <= _MAX_INT


class ConfigError(ValidationError):
    """Raised with a list of field-level diagnostics."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _check_keys(block: dict, allowed: set, where: str, problems: list):
    for key in block:
        if key not in allowed:
            problems.append(f"{where}.{key}: unknown field")


def _block(raw: dict, name: str, allowed: set, problems: list, required: str = None):
    """The named config block after its key check, or None when it is not an
    object; `required` is the diagnostic for a missing block that the command
    needs, and a present non-object is rejected whatever the command."""
    block = raw.get(name)
    if isinstance(block, dict):
        _check_keys(block, allowed, name, problems)
        return block
    if block is not None:
        problems.append(f"{name}: must be an object")
    elif required:
        problems.append(f"{name}: {required}")
    return None


def _vector3(value, where: str, problems: list):
    if (not isinstance(value, list) or len(value) != 3
            or not all(_is_number(v) for v in value)):
        problems.append(f"{where}: must be a list of three numbers")
        return None
    return [float(v) for v in value]


def _check_rate(rad_s: float, where: str, problems: list):
    if rad_s > _MAX_RATE_RAD_S:
        problems.append(f"{where}: rate beyond the electron Compton frequency "
                        f"m c^2/hbar = {_MAX_RATE_RAD_S:.3g} rad/s")


def validate_config(raw: dict, command: str) -> dict:
    """Strict structural validation; returns the config or raises ConfigError."""
    problems: list = []
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be a JSON object"])
    _check_keys(raw, _TOP_KEYS, "config", problems)

    model = raw.get("model")
    needs_model = command in ("spectrum", "drfs", "compare-stark", "sweep")
    if (needs_model or model is not None) and model not in ("harmonic", "coulomb"):
        problems.append("model: must be 'harmonic' or 'coulomb'")

    rotor = _block(raw, "rotor", _ROTOR_KEYS, problems,
                   "block is required" if needs_model else None)
    if rotor is not None:
        has_omega = "omega_rad_s" in rotor
        has_cycles = "omega_over_2pi_hz" in rotor
        if has_cycles and command != "compare-stark":
            problems.append("rotor.omega_over_2pi_hz: only accepted by compare-stark")
        if has_omega == has_cycles:
            problems.append("rotor: exactly one of omega_rad_s / "
                            "omega_over_2pi_hz is required")
        for key, rad_per_unit in (("omega_rad_s", 1.0), ("omega_over_2pi_hz", 2.0 * math.pi)):
            if key not in rotor:
                continue
            if not _is_number(rotor[key]):
                problems.append(f"rotor.{key}: must be a number")
            else:
                _check_rate(abs(rotor[key]) * rad_per_unit, f"rotor.{key}", problems)
        if not _is_number(rotor.get("radius_m")) or rotor.get("radius_m", -1) < 0:
            problems.append("rotor.radius_m: must be a nonnegative number")
        if model == "harmonic":
            if not _is_number(rotor.get("omega0_rad_s")) or rotor.get("omega0_rad_s", 0) <= 0:
                problems.append("rotor.omega0_rad_s: required positive number "
                                "for the harmonic model")
            elif rotor["omega0_rad_s"] * CODATA2018.hbar < sys.float_info.min:
                problems.append("rotor.omega0_rad_s: the trap quantum hbar omega0 "
                                "underflows double precision")
            else:
                _check_rate(rotor["omega0_rad_s"], "rotor.omega0_rad_s", problems)
            if "Z" in rotor:
                problems.append("rotor.Z: not a harmonic-model parameter")
        if model == "coulomb":
            if "omega0_rad_s" in rotor:
                problems.append("rotor.omega0_rad_s: not a coulomb-model parameter")
            if "Z" in rotor and (not _is_int(rotor["Z"]) or not 1 <= rotor["Z"] <= _MAX_Z):
                problems.append(f"rotor.Z: must be an integer from 1 to {_MAX_Z}")

    needs_transition = command in ("drfs", "compare-stark", "sweep") or (
        command == "spectrum" and model == "coulomb")
    transition = _block(raw, "transition", _TRANSITION_KEYS, problems,
                        "block is required" if needs_transition else None)
    if transition is not None:
        pairs_ok = True
        for name in ("upper", "lower"):
            pair = transition.get(name)
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(_is_int(v) for v in pair)):
                problems.append(f"transition.{name}: must be [q, m_z] integers")
                pairs_ok = False
        if pairs_ok and command in ("drfs", "sweep", "compare-stark") and model in _LEVEL_RULES:
            low, rule = _LEVEL_RULES[model]
            for name in ("upper", "lower"):
                q, m_z = transition[name]
                if q < low or abs(m_z) > q - low:
                    problems.append(f"transition.{name}: a {model} level needs {rule}")
        if (pairs_ok and command == "compare-stark"
                and sum(2 * q - 1 for q in {transition["upper"][0], transition["lower"][0]})
                > _MAX_ROWS):
            problems.append(f"transition.upper/lower: compare-stark writes 2n - 1 rows per "
                            f"shell, at most {_MAX_ROWS} in all")
        if (pairs_ok and command in ("drfs", "sweep")
                and transition["upper"][0] <= transition["lower"][0]):
            problems.append("transition: upper shell must lie above the lower "
                            "shell (emission)")
        if (pairs_ok and command == "spectrum" and model == "coulomb"
                and not 1 <= transition["upper"][0] <= 10):
            # the closed-form table grows as n^3, so check before building it
            problems.append("transition.upper: the spectrum's top shell must lie in [1, 10]")
        if "M" in transition and not _is_int(transition["M"]):
            problems.append("transition.M: must be an integer")

    drive = _block(raw, "drive", _DRIVE_KEYS, problems,
                   "block is required for compare-stark" if command == "compare-stark" else None)
    if drive is not None:
        magnitude = drive.get("E_V_per_m")
        if not _is_number(magnitude) or magnitude < 0:
            problems.append("drive.E_V_per_m: must be a nonnegative number")
        orientation = drive.get("orientation", "parallel")
        if orientation not in ("parallel", "antiparallel"):
            problems.append("drive.orientation: must be 'parallel' or 'antiparallel'")
        if model == "harmonic":
            problems.append("drive: only meaningful for the coulomb model")
        if command == "spectrum" and _is_number(magnitude) and magnitude > 0:
            # the spectrum table is the undriven one; a zero drive is that table
            problems.append("drive.E_V_per_m: spectrum tabulates the undriven levels "
                            "and takes no nonzero drive")
        if command == "compare-stark" and _is_number(magnitude) and magnitude == 0:
            problems.append("drive.E_V_per_m: compare-stark needs a positive drive")

    sweep = _block(raw, "sweep", _SWEEP_KEYS, problems,
                   "block is required" if command == "sweep" else None)
    if sweep is not None:
        axis = sweep.get("axis")
        if axis not in ("omega", "radius", "drive"):
            problems.append("sweep.axis: must be 'omega', 'radius' or 'drive'")
        scale = sweep.get("scale", "linear")
        if scale not in ("linear", "log"):
            problems.append("sweep.scale: must be 'linear' or 'log'")
        lo, hi = sweep.get("from"), sweep.get("to")
        if not (_is_number(lo) and _is_number(hi)):
            problems.append("sweep.from/to: must be numbers")
        elif lo == hi:
            problems.append("sweep.from/to: degenerate range (from = to)")
        elif scale == "log" and (lo <= 0 or hi <= 0):
            problems.append("sweep.from/to: log scale needs positive endpoints")
        elif axis in ("radius", "drive") and min(lo, hi) < 0:
            problems.append(f"sweep.from/to: a {axis} sweep needs nonnegative endpoints")
        elif axis == "omega":
            _check_rate(max(abs(lo), abs(hi)), "sweep.from/to", problems)
        points = sweep.get("points")
        if not _is_int(points) or not 2 <= points <= _MAX_ROWS:
            problems.append(f"sweep.points: must be an integer in [2, {_MAX_ROWS}]")
        if axis == "drive":
            if model != "coulomb":
                problems.append("sweep.axis=drive: requires the coulomb model")
            if drive is None:
                problems.append("drive: block is required for a drive sweep")

    output = _block(raw, "output", _OUTPUT_KEYS, problems)
    if output is not None:
        if "format" in output and output["format"] not in ("csv", "json"):
            problems.append("output.format: must be 'csv' or 'json'")
        if "path" in output and not isinstance(output["path"], str):
            problems.append("output.path: must be a string")

    doppler = _block(raw, "doppler", _DOPPLER_KEYS, problems,
                     "block is required" if command == "doppler" else None)
    if doppler is not None:
        if not _is_number(doppler.get("delta_E_J")) or doppler.get("delta_E_J", 0) <= 0:
            problems.append("doppler.delta_E_J: must be a positive number")
        _vector3(doppler.get("v_m_per_s"), "doppler.v_m_per_s", problems)
        has_k = "k_per_m" in doppler
        has_dir = "k_direction" in doppler
        if has_k == has_dir:
            problems.append("doppler: exactly one of k_per_m / k_direction is required")
        if has_k:
            _vector3(doppler["k_per_m"], "doppler.k_per_m", problems)
        if has_dir:
            k_hat = _vector3(doppler["k_direction"], "doppler.k_direction", problems)
            # the direction is divided by its length, so the squared
            # length must neither underflow to zero nor overflow
            if k_hat is not None and not 0 < sum(c * c for c in k_hat) < math.inf:
                problems.append("doppler.k_direction: must be a nonzero vector "
                                "whose length double precision holds")

    if "basis_n_max" in raw:
        n_max = raw["basis_n_max"]
        if not _is_int(n_max) or not 0 <= n_max <= 20:
            problems.append("basis_n_max: must be an integer in [0, 20]")

    if not problems and drive is not None and command in ("drfs", "sweep", "compare-stark"):
        # a drive points along the orbit vector and is taken in the rotating
        # frame, so wherever it is nonzero it needs R > 0 and Omega != 0
        rates = [rotor.get("omega_rad_s", rotor.get("omega_over_2pi_hz"))] * 2
        radius = rotor["radius_m"]
        driven = drive["E_V_per_m"] > 0
        if command == "sweep":
            ends = sorted((sweep["from"], sweep["to"]))
            if sweep["axis"] == "omega":
                rates = ends
            elif sweep["axis"] == "radius":
                radius = ends[0]
            else:
                driven = True
        if driven and (radius <= 0 or rates[0] <= 0 <= rates[1]):
            problems.append("drive.E_V_per_m: a nonzero drive needs a positive orbit "
                            "radius and a nonzero rotation rate")

    if problems:
        raise ConfigError(problems)
    return raw


def _build_rotor(config: dict) -> RotorConfig:
    rotor = config["rotor"]
    if "omega_rad_s" in rotor:
        omega = float(rotor["omega_rad_s"])
    else:
        omega = 2.0 * math.pi * float(rotor["omega_over_2pi_hz"])
    if config["model"] == "harmonic":
        model = Harmonic(omega0=float(rotor["omega0_rad_s"]))
    else:
        model = Coulomb(Z=int(rotor.get("Z", 1)))
    try:
        return RotorConfig(Omega=omega, R=float(rotor["radius_m"]), model=model)
    except ResonanceError as exc:
        # only a harmonic rotor has a resonance, and it takes omega_rad_s
        raise ResonanceError(f"rotor.omega_rad_s: {exc}") from exc


def _build_transition(config: dict) -> Transition:
    block = config["transition"]
    return Transition(upper=tuple(block["upper"]), lower=tuple(block["lower"]),
                      M=block.get("M"))


def _drive_vector(rotor: RotorConfig, drive):
    """(vector, magnitude) of a config's drive block, or (None, None)."""
    if not drive:
        return None, None
    magnitude = float(drive["E_V_per_m"])
    if magnitude == 0.0:
        return None, None
    anti = drive.get("orientation", "parallel") == "antiparallel"
    return drive_field_vector(rotor, magnitude, antiparallel=anti), magnitude


def _sweep_values(sweep: dict) -> np.ndarray:
    lo, hi, points = float(sweep["from"]), float(sweep["to"]), int(sweep["points"])
    if sweep.get("scale", "linear") == "log":
        values = np.geomspace(lo, hi, points)
    else:
        values = np.linspace(lo, hi, points)
    return values if lo < hi else values[::-1]


# ---------------------------------------------------------------------------
# row builders
# ---------------------------------------------------------------------------


def _transition_row(swept_value: float, rotor: RotorConfig, t: Transition,
                    drive_vec, drive_mag) -> list:
    # the report carries the levels and splitting factors; the model and the
    # drive pick only the report and the series and force-ratio cells
    harmonic = isinstance(rotor.model, Harmonic)
    try:
        report = (harmonic_shift_report(t, rotor) if harmonic
                  else drfs_exact(t, rotor) if drive_vec is None
                  else driven_shift_report(t, rotor, drive_vec))
    except OutOfRegimeError as exc:
        # a level past double precision; the upper one is formed first
        raise _not_finite("quasi_energy_upper_J", "swept_value", swept_value, exc) from exc
    series = series_alt = fratio = None
    if harmonic:
        # Omega couples only through -Omega m_z here, so no dynamic term
        series = series_alt = report.kinematic_part
    elif drive_vec is not None:
        fratio = force_ratio(rotor, drive_mag)
    else:
        try:
            series = drfs_series(t, rotor)
            series_alt = drfs_series(t, rotor, coefficient=ALT_SERIES_COEFFICIENT)
        except OutOfRegimeError:
            pass
    return [swept_value, t.effective_M(), *report.quasi_energies, report.omega_rest,
            report.drfs, series, series_alt, report.kinematic_part,
            report.dynamic_part, *report.splitting_factors,
            report.ratios.get("transverse_doppler"), fratio]


def _run_sweep(config: dict, axis: str, values) -> tuple:
    # one report row per value of the swept axis; drfs is the one-point
    # omega sweep at the configured rate, which keeps the configured rotor
    rotor0 = _build_rotor(config)
    t = _build_transition(config)

    def build(value: float) -> list:
        rotor, drive = rotor0, config.get("drive")
        if axis == "omega" and value != rotor0.Omega:
            try:
                rotor = RotorConfig(Omega=value, R=rotor0.R, model=rotor0.model)
            except ResonanceError as exc:
                raise ResonanceError(
                    f"sweep.from/to: {exc} at swept_value = {_fmt(value)}") from exc
        elif axis == "radius":
            rotor = RotorConfig(Omega=rotor0.Omega, R=value, model=rotor0.model)
        elif axis == "drive":
            drive = dict(drive, E_V_per_m=value)
        return _transition_row(value, rotor, t, *_drive_vector(rotor, drive))

    return REPORT_COLUMNS, list(zip(*[build(float(v)) for v in values]))


def _run_spectrum(config: dict):
    rotor = _build_rotor(config)
    harmonic = config["model"] == "harmonic"
    top = int(config.get("basis_n_max", 10) if harmonic else config["transition"]["upper"][0])
    # the config is valid here, so the closed form's one remaining objection
    # is a level or rate that leaves double precision: out of regime (exit 3)
    try:
        if harmonic:
            N, m_z = _ho_labels(top).T
            closed = _finite(_ho_levels(N, m_z, rotor))
        else:
            analytic = rotating_coulomb_spectrum(top, rotor)
    except (ValidationError, OutOfRegimeError) as exc:
        raise OutOfRegimeError(f"quasi_energy_closed_form_J: {exc}") from exc
    if harmonic:
        try:
            numeric, bound = _ho_circular_levels(top, rotor)
        except OutOfRegimeError as exc:
            # a slower orbit, at the same rotation, needs fewer circular quanta
            raise OutOfRegimeError(f"rotor.radius_m: {exc}") from exc
        # both routes run in _ho_labels' row order, so each row already holds one
        # state's two levels; one sort orders the rows by closed form, then label,
        # and within a label by numeric level
        order = np.lexsort((numeric, m_z, N, closed))
        columns = ["quasi_energy_diagonalized_J", "truncation_bound_J"]
        return (["index", "shell", "m_z", "quasi_energy_closed_form_J", *columns],
                [np.arange(len(order)), *(a[order] for a in (N, m_z, closed, numeric, bound))])
    fields = fictitious_fields(rotor)
    pieces = []
    for n in range(1, top + 1):
        # the Bohr level: the oracle borrows no fan (nor its warning) from the closed form
        E0 = _bohr_level(n, rotor.model.Z)
        W = manifold_perturbation(n, fields, Z=rotor.model.Z)
        pieces.append(first_order_degenerate_levels(E0, W))
    numeric = np.sort(np.concatenate(pieces))
    columns = ["index", "shell", "m_z", "quasi_energy_closed_form_J", "quasi_energy_first_order_J"]
    return columns, [np.arange(len(numeric)), *analytic.labels.T, analytic.energies, numeric]


def _run_doppler(config: dict):
    block = config["doppler"]
    deltaE = float(block["delta_E_J"])
    v = np.array(block["v_m_per_s"], dtype=float)
    if "k_per_m" in block:
        omega = doppler_frequency(deltaE, v, np.array(block["k_per_m"], dtype=float))
    else:
        omega = self_consistent_doppler(deltaE, v, np.array(block["k_direction"], dtype=float))
    rest = deltaE / CODATA2018.hbar
    columns = ["delta_E_J", "omega_rad_s", "doppler_shift_rad_s"]
    return columns, [(deltaE,), (omega,), (omega - rest,)]


def _run_compare_stark(config: dict):
    rotor = _build_rotor(config)
    magnitude = float(config["drive"]["E_V_per_m"])
    enhanced = drive_field_vector(rotor, magnitude, antiparallel=False)
    reduced = drive_field_vector(rotor, magnitude, antiparallel=True)
    fr = force_ratio(rotor, magnitude)
    fr_eng = force_ratio_engineering(rotor, magnitude)
    t = config["transition"]
    shells = sorted({int(t["upper"][0]), int(t["lower"][0])})
    rows = []
    try:
        for n in shells:
            for m_z in range(-(n - 1), n):
                rows.append([n, m_z,
                             driven_rotating_levels(n, m_z, rotor, enhanced),
                             driven_rotating_levels(n, m_z, rotor, reduced),
                             fr, fr_eng])
    except OutOfRegimeError as exc:
        # a level past double precision; the enhanced drive's force is the larger
        raise _not_finite("level_enhanced_J", "shell", n, exc) from exc
    columns = ["shell", "m_z", "level_enhanced_J", "level_reduced_J",
               "force_ratio", "force_ratio_engineering"]
    return columns, list(zip(*rows))


# ---------------------------------------------------------------------------
# output and entry point
# ---------------------------------------------------------------------------


def _not_finite(column: str, key: str, value, reason) -> OutOfRegimeError:
    return OutOfRegimeError(f"{column} is not finite at {key} = {_fmt(value)}: {reason}")


def _check_finite(columns, table):
    # one check per column (None passes); names the first bad cell in row-major order
    bad = []
    for j, column in enumerate(table):
        if isinstance(column, np.ndarray):
            bad += [(i, j) for i in np.flatnonzero(~np.isfinite(column))[:1]]
            continue
        for i, v in enumerate(column):
            if isinstance(v, float) and not math.isfinite(v):
                bad.append((i, j))
                break
    if bad:
        i, j = min(bad)
        raise _not_finite(columns[j], columns[0], table[0][i],
                          "the computation leaves the double-precision range")


def _distinct_text(column: np.ndarray, text) -> list:
    # text(x) of each cell of a float column, called once per distinct value; values are
    # grouped by their bits, so 0.0 and -0.0 stay apart, through a sort (np.unique would
    # import numpy.ma)
    values = np.asarray(column, dtype=float)
    bits = values.view(np.int64)
    order = np.argsort(bits)
    first = np.empty(len(bits), dtype=bool)
    first[:1] = True
    np.not_equal(bits[order[1:]], bits[order[:-1]], out=first[1:])
    rank = np.empty_like(order)
    rank[order] = np.cumsum(first) - 1
    distinct = np.array(list(map(text, values[order[first]].tolist())), dtype=object)
    return distinct[rank].tolist()


def _int_text(column: np.ndarray) -> list:
    # str of each cell of an int column, looked up in a text table of the column's range
    # when that range is under half the column's length (a label column); the table is
    # then shorter than the column, and a wider range takes str per cell
    low, high = (int(column.min()), int(column.max())) if len(column) else (0, 0)
    if 2 * (high - low) >= len(column):
        return list(map(str, column.tolist()))
    texts = np.array(list(map(str, range(low, high + 1))), dtype=object)
    return texts[column - low].tolist()


def _array_text(table, text) -> list:
    # the cells of a table of int and float arrays as text, one list per column: str of
    # each int, and text(x) of each float, called once per distinct value over every float
    # column together
    floats = [c for c in table if c.dtype.kind != "i"]
    cells = iter(_distinct_text(np.concatenate(floats), text) if floats else ())
    return [_int_text(c) if c.dtype.kind == "i" else list(islice(cells, len(c))) for c in table]


def _render_csv(columns, table) -> str:
    # "%.11e" % x == _fmt(x) for a float; the short row-built tables keep _fmt per cell,
    # which costs them less than forming arrays
    cells = (_array_text(table, "%.11e".__mod__) if all(isinstance(c, np.ndarray) for c in table)
             else [map(_fmt, c) for c in table])
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


def _render_json(command, columns, table) -> str:
    # the indent=2 bytes of {"command", "columns", "rows"}: one cell per line, then the
    # row brackets
    head = json.dumps({"command": command, "columns": columns}, indent=2)
    if table and all(isinstance(c, np.ndarray) for c in table):
        # float.__repr__ is what json.dumps writes for a finite float, and _check_finite
        # lets no other through
        rows = list(map(",\n      ".join, zip(*_array_text(table, float.__repr__))))
        body = ("[\n    [\n      " + "\n    ],\n    [\n      ".join(rows) + "\n    ]\n  ]"
                if rows else "[]")
    else:
        rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in table)))
        # the C encoder's cells; every cell is a number or null, so "],<sep>[" only
        # joins two rows
        body = json.dumps(rows, separators=(",\n      ", ": "))
        if rows:
            body = ("[\n    [\n      " + body[2:-2].replace("],\n      [", "\n    ],\n    [\n      ")
                    + "\n    ]\n  ]")
    return head[:-2] + ',\n  "rows": ' + body + "\n}\n"


@lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy runs on, or None.
    Looked up on the first command, not at import, on the handle of numpy's loaded
    extension module, which resolves a symbol among the libraries it links."""
    noload = getattr(os, "RTLD_NOLOAD", None)  # not on Windows
    module = (sys.modules.get("numpy._core._multiarray_umath")
              or sys.modules.get("numpy.core._multiarray_umath"))  # numpy 1.x
    if noload is None or module is None:
        return None
    try:
        lib = ctypes.CDLL(module.__file__, mode=noload)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


class _OneBlasThread:
    """Runs its block with numpy's bundled OpenBLAS on one thread and gives the
    caller's count back on the way out.  From 26 states up an eigh's vector
    stage can wake a second BLAS thread, at up to about 300 times its wall time
    (16-17 ms against 0.05-0.12 ms on one thread, OpenBLAS 0.3.31 on 2 CPUs).
    The count is process-wide, so blocks entered from several threads share
    one pin: the first in sets it, the last out restores."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._caller = None

    def __enter__(self):
        threads = _openblas_threads()
        with self._lock:
            if threads is not None and self._depth == 0:
                self._caller = threads[0]()
                threads[1](1)
            self._depth += 1

    def __exit__(self, *exc_info):
        threads = _openblas_threads()
        with self._lock:
            self._depth -= 1
            if threads is not None and self._depth == 0:
                threads[1](self._caller)


_one_blas_thread = _OneBlasThread()


def _write_atomic(text: str, path: str):
    # written where and as open(path, "w") would: into the file a symlink names, with the
    # mode of the file it replaces or else 0o666 less the umask, from a temp file created
    # exclusively beside it, whose 96 random bits make a clash as unlikely as a guess
    path = os.path.realpath(path) if os.path.islink(path) else path
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".rotoshift-{os.urandom(12).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        if os.path.exists(path):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_scenario(config: dict, command: str, out: str = None) -> int:
    """Validate, compute, and write one command's report; returns exit code 0.

    Raises ValidationError (including ConfigError) for bad inputs and an
    output path that cannot be written, and OutOfRegimeError or
    ResonanceError when the computation leaves its validity window; main()
    maps those onto exit codes 2 and 3.
    """
    config = validate_config(config, command)
    # a division by a product that underflowed to zero, or a square past the
    # float range, that no library function names: like a non-finite cell,
    # out of double precision
    with _one_blas_thread, double_precision("the computation"):
        if command == "spectrum":
            columns, table = _run_spectrum(config)
        elif command == "drfs":
            columns, table = _run_sweep(config, "omega", [config["rotor"]["omega_rad_s"]])
        elif command == "doppler":
            columns, table = _run_doppler(config)
        elif command == "compare-stark":
            columns, table = _run_compare_stark(config)
        elif command == "sweep":
            sweep = config["sweep"]
            columns, table = _run_sweep(config, sweep["axis"], _sweep_values(sweep))
        else:
            raise ValidationError(f"unknown command {command!r}")
    _check_finite(columns, table)

    output = config.get("output") or {}
    path = out if out is not None else output.get("path")
    text = (_render_csv(columns, table) if output.get("format", "csv") == "csv"
            else _render_json(command, columns, table))
    if path:
        try:
            _write_atomic(text, path)
        except OSError as exc:
            raise ValidationError(f"cannot write output {path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built on first use and kept: parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="rotoshift",
        description="Quasi-energy spectra and photon frequency shifts of "
                    "rotating quantum emitters.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("spectrum", "closed-form vs numerical quasi-energy levels"),
            ("drfs", "rotational frequency shift of one transition"),
            ("doppler", "moving-source frequency from the linear Doppler formula"),
            ("compare-stark", "centrifugal vs drive-field Stark comparison"),
            ("sweep", "scan omega, radius or drive and tabulate shift rows")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to a JSON scenario file")
        p.add_argument("--out", help="output file (default: output.path from "
                                     "the config, else stdout)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        # JSON's encoding, whatever the locale's
        with open(args.config, encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        print(f"error: config parse failure at line {exc.lineno}, "
              f"column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, an integer past Python's digit limit, too deep a nesting
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        return run_scenario(raw, args.command, out=args.out)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except (OutOfRegimeError, ResonanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RotoshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
