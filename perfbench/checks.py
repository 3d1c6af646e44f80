"""Output checks for benchmark ops.

Each check restates an invariant that the test suite already holds
independently of the code path being timed:

- harmonic spectrum: the lowest half of the closed-form column meets the
  diagonalized column to 1e-6 relative (criterion 1, slow grid);
- Coulomb spectrum: closed form and first-order column agree to 1e-8 of
  each shell's splitting (criterion 2).  These spectra are written as JSON,
  at full precision, so the only allowance on top is two units in the last
  place of the level, which the single-level n = 1 shell needs; the
  generated spectra (seeds 1 to 5 checked) split shells by at least 4e-5
  of the level, so that adds at most 1.1e-11 of a splitting;
- report rows: dynamic_rad_s is zero for the harmonic model, and
  drfs_series_alt_rad_s is 4 pi^2 times drfs_series_rad_s (test_cli);
- sweeps: one row per point, swept values ascending from the lower to the
  upper end of the range;
- doppler and compare-stark: the formulas test_cli checks;
- invalid configs: the exit code and the field named on stderr, and no
  output file.

CSV cells carry 12 significant digits, so comparisons of two rendered
values allow CSV_RESOLUTION relative on top of the tolerance proper.
"""

from __future__ import annotations

import json
import math

CSV_RESOLUTION = 1e-11
HARMONIC_TOLERANCE = 1e-6
COULOMB_TOLERANCE = 1e-8
SERIES_RATIO_TOLERANCE = 1e-10
ENGINEERING_TOLERANCE = 5e-3


class CheckFailure(Exception):
    pass


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailure(message)


def parse_output(data: bytes, fmt: str):
    """(columns, rows) with every cell a float, or None for an empty cell."""
    if fmt == "json":
        payload = json.loads(data)
        columns = payload["columns"]
        rows = [[None if v is None else float(v) for v in row] for row in payload["rows"]]
    else:
        text = data.decode("ascii")
        _require(text.endswith("\n") and "\r" not in text, "CSV line endings")
        lines = text[:-1].split("\n")
        columns = lines[0].split(",")
        rows = [[float(v) if v else None for v in line.split(",")] for line in lines[1:]]
    for row in rows:
        _require(len(row) == len(columns), "ragged row")
        _require(all(v is None or math.isfinite(v) for v in row), "non-finite cell")
    return columns, rows


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= (rel + CSV_RESOLUTION) * max(abs(a), abs(b))


def _check_report_rows(columns, rows, config):
    col = {name: i for i, name in enumerate(columns)}
    for row in rows:
        if config["model"] == "harmonic":
            _require(row[col["dynamic_rad_s"]] == 0.0, "harmonic dynamic shift not zero")
        series = row[col["drfs_series_rad_s"]]
        alt = row[col["drfs_series_alt_rad_s"]]
        _require((series is None) == (alt is None), "series cells half empty")
        if series is not None:
            _require(_close(alt, 4.0 * math.pi ** 2 * series, SERIES_RATIO_TOLERANCE),
                     "alt series is not 4 pi^2 times the series")


def _check_sweep(columns, rows, config):
    sweep = config["sweep"]
    _require(len(rows) == sweep["points"], "sweep row count")
    swept = [row[0] for row in rows]
    _require(swept == sorted(swept), "swept values not ascending")
    lo, hi = sorted((sweep["from"], sweep["to"]))
    _require(_close(swept[0], lo, 0.0) and _close(swept[-1], hi, 0.0),
             "sweep endpoints")
    _check_report_rows(columns, rows, config)


def _check_harmonic_spectrum(rows, config):
    n_max = config["basis_n_max"]
    _require(len(rows) == (n_max + 1) * (n_max + 2) * (n_max + 3) // 6,
             "harmonic spectrum row count")
    keep = len(rows) // 2
    worst = max(abs(r[3] - r[4]) / abs(r[3]) for r in rows[:keep])
    _require(worst <= HARMONIC_TOLERANCE + CSV_RESOLUTION,
             f"lowest-half closed form vs diagonalized: {worst:.2e}")


def _check_coulomb_spectrum(rows, config):
    n_top = config["transition"]["upper"][0]
    _require(len(rows) == sum(n * n for n in range(1, n_top + 1)),
             "coulomb spectrum row count")
    spread = {}
    for row in rows:
        lo, hi = spread.get(row[1], (row[3], row[3]))
        spread[row[1]] = (min(lo, row[3]), max(hi, row[3]))
    for row in rows:
        lo, hi = spread[row[1]]
        allowed = (COULOMB_TOLERANCE * (hi - lo)
                   + 2.0 * math.ulp(max(abs(row[3]), abs(row[4]))))
        _require(abs(row[3] - row[4]) <= allowed,
                 "closed form vs first order beyond 1e-8 of the splitting")


def _check_doppler(columns, rows, config, hbar, light_speed):
    block = config["doppler"]
    col = {name: i for i, name in enumerate(columns)}
    (row,) = rows
    omega = row[col["omega_rad_s"]]
    rest = block["delta_E_J"] / hbar
    v = block["v_m_per_s"]
    if "k_per_m" in block:
        vk = sum(a * b for a, b in zip(v, block["k_per_m"]))
        # the shift is omega - rest, so it carries the rounding of omega
        _require(abs(row[col["doppler_shift_rad_s"]] - vk)
                 <= 1e-15 * abs(omega) + CSV_RESOLUTION * abs(vk),
                 "doppler shift is not v . k")
    else:
        k = block["k_direction"]
        norm = math.sqrt(sum(c * c for c in k))
        vk_hat = sum(a * b for a, b in zip(v, k)) / norm
        _require(_close(omega, rest / (1.0 - vk_hat / light_speed), 0.0),
                 "self-consistent doppler frequency")


def _check_compare_stark(columns, rows, config):
    col = {name: i for i, name in enumerate(columns)}
    shells = {config["transition"]["upper"][0], config["transition"]["lower"][0]}
    _require(len(rows) == sum(2 * n - 1 for n in shells), "compare-stark row count")
    for row in rows:
        _require(_close(row[col["force_ratio_engineering"]], row[col["force_ratio"]],
                        ENGINEERING_TOLERANCE), "engineering force ratio")
        if row[col["m_z"]] == 0:
            _require(row[col["level_enhanced_J"]] == row[col["level_reduced_J"]],
                     "m_z = 0 level depends on drive orientation")


def check_op(op: dict, code: int, stderr: str, output, constants) -> int:
    """Raise CheckFailure unless the op behaved; return the rows written.

    output is the bytes of the output file, or None if there is none.
    constants supplies hbar and light_speed for the Doppler formulas.
    """
    if op["expect"] is not None:
        want_code, want_text = op["expect"]
        _require(code == want_code, f"exit {code}, want {want_code}")
        _require(want_text in stderr.lower(), f"stderr does not name {want_text}")
        _require(output is None, "rejected config left an output file")
        return 0
    _require(code == 0, f"exit {code}: {stderr.strip()[-200:]}")
    _require(output is not None, "no output file")
    config = op["config"]
    fmt = (config.get("output") or {}).get("format", "csv")
    columns, rows = parse_output(output, fmt)
    command = op["command"]
    if command == "sweep":
        _check_sweep(columns, rows, config)
    elif command == "drfs":
        _require(len(rows) == 1, "drfs row count")
        _check_report_rows(columns, rows, config)
    elif command == "spectrum" and config["model"] == "harmonic":
        _check_harmonic_spectrum(rows, config)
    elif command == "spectrum":
        _check_coulomb_spectrum(rows, config)
    elif command == "doppler":
        _check_doppler(columns, rows, config, constants.hbar, constants.light_speed)
    else:
        _check_compare_stark(columns, rows, config)
    return len(rows)
