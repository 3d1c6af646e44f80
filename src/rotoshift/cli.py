"""Command-line front end.

Usage: rotoshift <command> --config <path> [--out <path>] [--format csv|json]

Commands map one-to-one onto library operations: `spectrum` tabulates
closed-form against numerically diagonalized quasi-energies, `drfs` reports
the rotational shift of one transition, `doppler` evaluates the moving-source
frequency, `compare-stark` contrasts the centrifugal and drive Stark terms,
and `sweep` scans one axis and writes a row per grid point.

Configs are strict JSON; unknown fields are rejected so unit mistakes
surface early (every numeric field name carries its unit).  Output is CSV
(comma separated, LF endings, 12 significant digits) or JSON, written
atomically via a temp file and rename.  Exit codes: 0 success, 2 invalid
config or arguments, 3 computation outside its validity regime.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from .constants import CODATA2018
from .errors import (OutOfRegimeError, ResonanceError, RotoshiftError,
                     ValidationError)
from .operators import (build_ho_basis, ho_rotating_hamiltonian,
                        manifold_perturbation)
from .quasienergy import (driven_splitting_parameter, eigen_spectrum,
                          first_order_degenerate_levels,
                          driven_rotating_levels, ho_rotating_levels,
                          ho_rotating_spectrum, rotating_coulomb_levels,
                          rotating_coulomb_spectrum,
                          splitting_expansion_parameter)
from .rotor import (Coulomb, CrossedFields, Harmonic, RotorConfig,
                    drive_field_vector, fictitious_fields)
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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return f"{float(value):.11e}"


def _is_number(v) -> bool:
    # NaN, +-Infinity and integers beyond the float range would otherwise
    # fail later with a message that names no field
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


class ConfigError(ValidationError):
    """Raised with a list of field-level diagnostics."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _check_keys(block: dict, allowed: set, where: str, problems: list):
    for key in block:
        if key not in allowed:
            problems.append(f"{where}.{key}: unknown field")


def _vector3(value, where: str, problems: list):
    if (not isinstance(value, list) or len(value) != 3
            or not all(_is_number(v) for v in value)):
        problems.append(f"{where}: must be a list of three numbers")
        return None
    return [float(v) for v in value]


def validate_config(raw: dict, command: str) -> dict:
    """Strict structural validation; returns the config or raises ConfigError."""
    problems: list = []
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be a JSON object"])
    _check_keys(raw, _TOP_KEYS, "config", problems)

    model = raw.get("model")
    needs_model = command in ("spectrum", "drfs", "compare-stark", "sweep")
    if needs_model:
        if model not in ("harmonic", "coulomb"):
            problems.append("model: must be 'harmonic' or 'coulomb'")
    elif model is not None and model not in ("harmonic", "coulomb"):
        problems.append("model: must be 'harmonic' or 'coulomb'")

    rotor = raw.get("rotor")
    if needs_model:
        if not isinstance(rotor, dict):
            problems.append("rotor: block is required")
        else:
            _check_keys(rotor, _ROTOR_KEYS, "rotor", problems)
            has_omega = "omega_rad_s" in rotor
            has_cycles = "omega_over_2pi_hz" in rotor
            if has_cycles and command != "compare-stark":
                problems.append("rotor.omega_over_2pi_hz: only accepted by compare-stark")
            if has_omega == has_cycles:
                problems.append("rotor: exactly one of omega_rad_s / "
                                "omega_over_2pi_hz is required")
            for key in ("omega_rad_s", "omega_over_2pi_hz"):
                if key in rotor and not _is_number(rotor[key]):
                    problems.append(f"rotor.{key}: must be a number")
            if not _is_number(rotor.get("radius_m")) or rotor.get("radius_m", -1) < 0:
                problems.append("rotor.radius_m: must be a nonnegative number")
            if model == "harmonic":
                if not _is_number(rotor.get("omega0_rad_s")) or rotor.get("omega0_rad_s", 0) <= 0:
                    problems.append("rotor.omega0_rad_s: required positive number "
                                    "for the harmonic model")
                if "Z" in rotor:
                    problems.append("rotor.Z: not a harmonic-model parameter")
            if model == "coulomb":
                if "omega0_rad_s" in rotor:
                    problems.append("rotor.omega0_rad_s: not a coulomb-model parameter")
                if "Z" in rotor and (not _is_int(rotor["Z"]) or rotor["Z"] < 1):
                    problems.append("rotor.Z: must be an integer >= 1")

    transition = raw.get("transition")
    needs_transition = command in ("drfs", "compare-stark", "sweep") or (
        command == "spectrum" and model == "coulomb")
    if needs_transition and not isinstance(transition, dict):
        problems.append("transition: block is required")
    if isinstance(transition, dict):
        _check_keys(transition, _TRANSITION_KEYS, "transition", problems)
        pairs_ok = True
        for name in ("upper", "lower"):
            pair = transition.get(name)
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(_is_int(v) for v in pair)):
                problems.append(f"transition.{name}: must be [q, m_z] integers")
                pairs_ok = False
        if (pairs_ok and command in ("drfs", "sweep")
                and transition["upper"][0] <= transition["lower"][0]):
            problems.append("transition: upper shell must lie above the lower "
                            "shell (emission)")
        if "M" in transition and not _is_int(transition["M"]):
            problems.append("transition.M: must be an integer")

    drive = raw.get("drive")
    if command == "compare-stark" and not isinstance(drive, dict):
        problems.append("drive: block is required for compare-stark")
    if isinstance(drive, dict):
        _check_keys(drive, _DRIVE_KEYS, "drive", problems)
        if not _is_number(drive.get("E_V_per_m")) or drive.get("E_V_per_m", -1) < 0:
            problems.append("drive.E_V_per_m: must be a nonnegative number")
        orientation = drive.get("orientation", "parallel")
        if orientation not in ("parallel", "antiparallel"):
            problems.append("drive.orientation: must be 'parallel' or 'antiparallel'")
        if model == "harmonic":
            problems.append("drive: only meaningful for the coulomb model")
    elif drive is not None:
        problems.append("drive: must be an object")

    sweep = raw.get("sweep")
    if command == "sweep":
        if not isinstance(sweep, dict):
            problems.append("sweep: block is required")
        else:
            _check_keys(sweep, _SWEEP_KEYS, "sweep", problems)
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
            points = sweep.get("points")
            if not _is_int(points) or points < 2:
                problems.append("sweep.points: must be an integer >= 2")
            if axis == "drive":
                if model != "coulomb":
                    problems.append("sweep.axis=drive: requires the coulomb model")
                if not isinstance(drive, dict):
                    problems.append("drive: block is required for a drive sweep")

    output = raw.get("output")
    if isinstance(output, dict):
        _check_keys(output, _OUTPUT_KEYS, "output", problems)
        if "format" in output and output["format"] not in ("csv", "json"):
            problems.append("output.format: must be 'csv' or 'json'")
        if "path" in output and not isinstance(output["path"], str):
            problems.append("output.path: must be a string")
    elif output is not None:
        problems.append("output: must be an object")

    doppler = raw.get("doppler")
    if command == "doppler":
        if not isinstance(doppler, dict):
            problems.append("doppler: block is required")
        else:
            _check_keys(doppler, _DOPPLER_KEYS, "doppler", problems)
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
                _vector3(doppler["k_direction"], "doppler.k_direction", problems)

    if "basis_n_max" in raw:
        n_max = raw["basis_n_max"]
        if not _is_int(n_max) or not 0 <= n_max <= 20:
            problems.append("basis_n_max: must be an integer in [0, 20]")

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
    return RotorConfig(Omega=omega, R=float(rotor["radius_m"]), model=model)


def _build_transition(config: dict, M_override=None) -> Transition:
    block = config["transition"]
    M = block.get("M")
    if M_override is not None:
        M = None if M_override == "auto" else int(M_override)
    return Transition(upper=tuple(block["upper"]), lower=tuple(block["lower"]), M=M)


def _drive_vector(rotor: RotorConfig, config: dict):
    """(vector, magnitude) of the configured drive field, or (None, None)."""
    drive = config.get("drive")
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


def _transition_row(swept_value: float, config: dict, rotor: RotorConfig,
                    t: Transition, drive_vec, drive_mag) -> list:
    constants = CODATA2018
    if config["model"] == "harmonic":
        report = harmonic_shift_report(t, rotor, constants)
        upper = ho_rotating_levels(t.upper[0], t.upper[1], rotor, constants)
        lower = ho_rotating_levels(t.lower[0], t.lower[1], rotor, constants)
        # Omega couples only through -Omega m_z here, factor exactly one
        series = report.kinematic_part
        series_alt = report.kinematic_part
        factor_u = factor_l = 1.0
        fratio = None
    elif drive_vec is None:
        report = drfs_exact(t, rotor, constants)
        upper = rotating_coulomb_levels(t.upper[0], t.upper[1], rotor, constants)
        lower = rotating_coulomb_levels(t.lower[0], t.lower[1], rotor, constants)
        series = series_alt = None
        try:
            series = drfs_series(t, rotor, constants)
            series_alt = drfs_series(t, rotor, constants,
                                     coefficient=ALT_SERIES_COEFFICIENT)
        except OutOfRegimeError:
            pass
        x_u = splitting_expansion_parameter(t.upper[0], rotor, constants)
        x_l = splitting_expansion_parameter(t.lower[0], rotor, constants)
        factor_u = math.sqrt(1.0 + x_u * x_u)
        factor_l = math.sqrt(1.0 + x_l * x_l)
        fratio = None
    else:
        report = driven_shift_report(t, rotor, drive_vec, constants)
        upper = driven_rotating_levels(t.upper[0], t.upper[1], rotor, drive_vec, constants)
        lower = driven_rotating_levels(t.lower[0], t.lower[1], rotor, drive_vec, constants)
        series = series_alt = None
        x_u = driven_splitting_parameter(t.upper[0], rotor, drive_vec, constants)
        x_l = driven_splitting_parameter(t.lower[0], rotor, drive_vec, constants)
        factor_u = math.sqrt(1.0 + x_u * x_u)
        factor_l = math.sqrt(1.0 + x_l * x_l)
        fratio = force_ratio(rotor, drive_mag, constants)
    return [swept_value, t.effective_M(), upper, lower, report.omega_rest,
            report.drfs, series, series_alt, report.kinematic_part,
            report.dynamic_part, factor_u, factor_l,
            report.ratios.get("transverse_doppler"), fratio]


def _run_drfs(config: dict, M_override):
    rotor = _build_rotor(config)
    t = _build_transition(config, M_override)
    drive_vec, drive_mag = _drive_vector(rotor, config)
    row = _transition_row(rotor.Omega, config, rotor, t, drive_vec, drive_mag)
    return REPORT_COLUMNS, [row]


def _run_sweep(config: dict, M_override):
    rotor0 = _build_rotor(config)
    t = _build_transition(config, M_override)
    sweep = config["sweep"]
    axis = sweep["axis"]
    values = _sweep_values(sweep)

    def build(value: float) -> list:
        if axis == "omega":
            rotor = RotorConfig(Omega=float(value), R=rotor0.R, model=rotor0.model)
            drive_vec, drive_mag = _drive_vector(rotor, config)
        elif axis == "radius":
            rotor = RotorConfig(Omega=rotor0.Omega, R=float(value), model=rotor0.model)
            drive_vec, drive_mag = _drive_vector(rotor, config)
        else:
            rotor = rotor0
            drive = dict(config["drive"], E_V_per_m=float(value))
            drive_vec, drive_mag = _drive_vector(rotor, dict(config, drive=drive))
        return _transition_row(float(value), config, rotor, t, drive_vec, drive_mag)

    return REPORT_COLUMNS, [build(v) for v in values]


def _run_spectrum(config: dict):
    constants = CODATA2018
    rotor = _build_rotor(config)
    if config["model"] == "harmonic":
        n_max = int(config.get("basis_n_max", 10))
        analytic = ho_rotating_spectrum(n_max, rotor, constants)
        H = ho_rotating_hamiltonian(build_ho_basis(n_max), rotor, constants)
        numeric = eigen_spectrum(H).energies()
        columns = ["index", "shell", "m_z", "quasi_energy_closed_form_J",
                   "quasi_energy_diagonalized_J"]
    else:
        n_top = int(config["transition"]["upper"][0])
        analytic = rotating_coulomb_spectrum(n_top, rotor, constants)
        fields = fictitious_fields(rotor, constants)
        pieces = []
        for n in range(1, n_top + 1):
            E0 = rotating_coulomb_levels(n, 0, rotor, constants)
            W = manifold_perturbation(n, fields, constants, Z=rotor.model.Z)
            pieces.append(first_order_degenerate_levels(E0, W).energies())
        numeric = np.sort(np.concatenate(pieces))
        columns = ["index", "shell", "m_z", "quasi_energy_closed_form_J",
                   "quasi_energy_first_order_J"]
    rows = [[i, label[0], label[1], value, float(numeric[i])]
            for i, (label, value) in enumerate(analytic.levels)]
    return columns, rows


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
    return columns, [[deltaE, omega, omega - rest]]


def _run_compare_stark(config: dict):
    constants = CODATA2018
    rotor = _build_rotor(config)
    magnitude = float(config["drive"]["E_V_per_m"])
    if magnitude <= 0:
        raise ValidationError("drive.E_V_per_m: compare-stark needs a positive drive")
    enhanced = drive_field_vector(rotor, magnitude, antiparallel=False)
    reduced = drive_field_vector(rotor, magnitude, antiparallel=True)
    fr = force_ratio(rotor, magnitude, constants)
    fr_eng = force_ratio_engineering(rotor, magnitude, constants)
    t = config["transition"]
    shells = sorted({int(t["upper"][0]), int(t["lower"][0])})
    rows = []
    for n in shells:
        for m_z in range(-(n - 1), n):
            rows.append([n, m_z,
                         driven_rotating_levels(n, m_z, rotor, enhanced, constants),
                         driven_rotating_levels(n, m_z, rotor, reduced, constants),
                         fr, fr_eng])
    columns = ["shell", "m_z", "level_enhanced_J", "level_reduced_J",
               "force_ratio", "force_ratio_engineering"]
    return columns, rows


# ---------------------------------------------------------------------------
# output and entry point
# ---------------------------------------------------------------------------


def _render_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _render_json(command, columns, rows) -> str:
    payload = {"command": command, "columns": columns,
               "rows": [[None if v is None else v for v in row] for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


def _write_atomic(text: str, path: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".rotoshift-", dir=directory)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_scenario(config: dict, command: str, out: str = None,
                 fmt: str = None, M_override=None) -> int:
    """Validate, compute, and write one command's report; returns exit code 0.

    Raises ValidationError (including ConfigError) for bad inputs and
    OutOfRegimeError or ResonanceError when the computation leaves its
    validity window; main() maps those onto exit codes 2 and 3.
    """
    config = validate_config(config, command)
    if command == "spectrum":
        columns, rows = _run_spectrum(config)
    elif command == "drfs":
        columns, rows = _run_drfs(config, M_override)
    elif command == "doppler":
        columns, rows = _run_doppler(config)
    elif command == "compare-stark":
        columns, rows = _run_compare_stark(config)
    elif command == "sweep":
        columns, rows = _run_sweep(config, M_override)
    else:
        raise ValidationError(f"unknown command {command!r}")

    output = config.get("output") or {}
    path = out if out is not None else output.get("path")
    chosen = fmt if fmt is not None else output.get("format", "csv")
    text = (_render_csv(columns, rows) if chosen == "csv"
            else _render_json(command, columns, rows))
    if path:
        _write_atomic(text, path)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
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
        p.add_argument("--format", choices=("csv", "json"),
                       help="override the configured output format")
        if name in ("drfs", "sweep"):
            p.add_argument("--M", help="photon angular-momentum projection: an "
                                       "integer, or 'auto' for m_z - m_z'")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as handle:
            raw = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config parse failure at line {exc.lineno}, "
              f"column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2

    M_override = getattr(args, "M", None)
    if M_override not in (None, "auto"):
        try:
            int(M_override)
        except ValueError:
            print("error: --M takes an integer or 'auto'", file=sys.stderr)
            return 2

    try:
        return run_scenario(raw, args.command, out=args.out, fmt=args.format,
                            M_override=M_override)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OutOfRegimeError, ResonanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RotoshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
