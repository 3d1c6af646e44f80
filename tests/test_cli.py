"""End-to-end command-line checks: schemas, exit codes, file handling."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from itertools import chain
from math import pi
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rotoshift
from rotoshift import CODATA2018, Coulomb, RotorConfig, Transition, drfs_exact
from rotoshift import cli, operators, quasienergy
from rotoshift.cli import REPORT_COLUMNS, main

C = CODATA2018


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def cell(header, row, column):
    return row[header.index(column)]


def harmonic_drfs_config(**overrides):
    config = {
        "model": "harmonic",
        "rotor": {"omega_rad_s": 3e12, "radius_m": 1e-10, "omega0_rad_s": 1e13},
        "transition": {"upper": [2, 1], "lower": [1, 0]},
    }
    config.update(overrides)
    return config


def coulomb_drfs_config(**overrides):
    config = {
        "model": "coulomb",
        "rotor": {"omega_rad_s": 1e12, "radius_m": 1e-10},
        "transition": {"upper": [3, 2], "lower": [2, 1]},
    }
    config.update(overrides)
    return config


# ---------------------------------------------------------------------------
# drfs command
# ---------------------------------------------------------------------------


def test_drfs_coulomb_stdout(tmp_path, capsys):
    code = main(["drfs", "--config", write_config(tmp_path, coulomb_drfs_config())])
    assert code == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header == REPORT_COLUMNS
    assert len(rows) == 1
    assert cell(header, rows[0], "M") == "1"
    want = drfs_exact(Transition(upper=(3, 2), lower=(2, 1)),
                      RotorConfig(Omega=1e12, R=1e-10, model=Coulomb()))
    got = float(cell(header, rows[0], "drfs_exact_rad_s"))
    assert got == pytest.approx(want.drfs, rel=1e-11)
    # alternative-prefactor column sits 4 pi^2 above the series column
    series = float(cell(header, rows[0], "drfs_series_rad_s"))
    alt = float(cell(header, rows[0], "drfs_series_alt_rad_s"))
    assert alt == pytest.approx(4 * pi ** 2 * series, rel=1e-10)
    # no drive configured, so the force-ratio cell is empty
    assert cell(header, rows[0], "force_ratio") == ""


@pytest.mark.parametrize("drive,most", [(None, 6), ({"E_V_per_m": 1e3}, 2)],
                         ids=["undriven", "driven"])
def test_shift_row_takes_each_fan_rate_from_the_report(tmp_path, monkeypatch,
                                                       drive, most):
    # one fan rate per shell in the report; the undriven row adds the two
    # drfs_series window checks, two shells each, and nothing else
    calls = []
    fan_rate = quasienergy._fan_rate

    def counted(*args):
        calls.append(args[0])
        return fan_rate(*args)
    monkeypatch.setattr(quasienergy, "_fan_rate", counted)
    config = coulomb_drfs_config(**({} if drive is None else {"drive": drive}))
    out = tmp_path / "out.csv"
    assert main(["drfs", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
    header, rows = parse_csv(out.read_text())
    assert (cell(header, rows[0], "drfs_series_rad_s") != "") == (drive is None)
    assert len(calls) <= most


def test_drfs_harmonic_all_shift_cells_zero(tmp_path, capsys):
    config = {
        "model": "harmonic",
        "rotor": {"omega_rad_s": 3e12, "radius_m": 1e-10, "omega0_rad_s": 1e13},
        "transition": {"upper": [2, 1], "lower": [1, 0]},
    }
    assert main(["drfs", "--config", write_config(tmp_path, config)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    zero = "0.00000000000e+00"
    one = "1.00000000000e+00"
    for column in ("drfs_exact_rad_s", "drfs_series_rad_s", "drfs_series_alt_rad_s",
                   "kinematic_rad_s", "dynamic_rad_s", "transverse_doppler_ratio"):
        assert cell(header, rows[0], column) == zero
    assert cell(header, rows[0], "splitting_factor_upper") == one
    assert cell(header, rows[0], "splitting_factor_lower") == one


def test_drfs_projection_override(tmp_path, capsys):
    def drfs(**transition):
        config = coulomb_drfs_config()
        config["transition"].update(transition)
        return main(["drfs", "--config", write_config(tmp_path, config)])

    assert drfs(M=3) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert cell(header, rows[0], "M") == "3"
    kin = float(cell(header, rows[0], "kinematic_rad_s"))
    assert kin == pytest.approx(1e12 * (3 - 1), rel=1e-12)
    # M left out is the angular-momentum-conserving m_z - m_z'
    assert drfs() == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert cell(header, rows[0], "M") == "1"
    assert drfs(M="half") == 2
    assert "error: transition.M:" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::rotoshift.PerturbativeRegimeWarning")
def test_drfs_series_cells_empty_out_of_window(tmp_path, capsys):
    config = coulomb_drfs_config(
        rotor={"omega_rad_s": 1e14, "radius_m": 1e-9},
        transition={"upper": [5, 4], "lower": [2, 1]})
    assert main(["drfs", "--config", write_config(tmp_path, config)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert cell(header, rows[0], "drfs_series_rad_s") == ""
    assert cell(header, rows[0], "drfs_series_alt_rad_s") == ""
    assert cell(header, rows[0], "drfs_exact_rad_s") != ""


# ---------------------------------------------------------------------------
# config validation and exit codes
# ---------------------------------------------------------------------------


def test_unknown_field_rejected(tmp_path, capsys):
    config = coulomb_drfs_config()
    config["rotor"]["radius_nm"] = 0.1
    assert main(["drfs", "--config", write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert "rotor.radius_nm" in err and "unknown field" in err


DOPPLER_BLOCK = {"delta_E_J": 1e-19, "v_m_per_s": [0.0, 0.0, 300.0], "k_per_m": [0.0, 0.0, 2e6]}


@pytest.mark.parametrize("command,config,lines", [
    ("doppler", {"doppler": DOPPLER_BLOCK, "rotor": {"bogus": 1}},
     ["rotor.bogus: unknown field"]),
    ("drfs", coulomb_drfs_config(sweep={"bogus": 1}), ["sweep.bogus: unknown field"]),
    ("drfs", coulomb_drfs_config(doppler={"bogus": 1}), ["doppler.bogus: unknown field"]),
    ("doppler", {"doppler": DOPPLER_BLOCK, "rotor": 5, "sweep": "x"},
     ["rotor: must be an object", "sweep: must be an object"]),
    # the positive-drive rule is one of validate_config's, so it is reported
    # with the block's other problems
    ("compare-stark", coulomb_drfs_config(drive={"E_V_per_m": 0.0, "bogus": 1}),
     ["drive.bogus: unknown field", "drive.E_V_per_m: compare-stark needs a positive drive"]),
], ids=["doppler-rotor-key", "drfs-sweep-key", "drfs-doppler-key", "doppler-non-objects",
        "compare-stark-zero-drive"])
def test_every_present_block_is_checked_whatever_the_command(tmp_path, capsys, command,
                                                              config, lines):
    assert main([command, "--config", write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert all(f"error: {line}" in err for line in lines), err


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"model": "coulomb",\n  "rotor": }')
    assert main(["drfs", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_config_file(tmp_path, capsys):
    assert main(["drfs", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"model": "harm\xffonic"}')
    assert main(["spectrum", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config: ")


@pytest.mark.parametrize("text", [
    '{"model": ' + "[" * 5000 + "]" * 5000 + "}",
    '{"model": "coulomb", "basis_n_max": ' + "1" * 5000 + "}",
], ids=["nested-past-the-decoder", "integer-past-the-digit-limit"])
def test_config_the_reader_cannot_decode_exits_2(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "report.csv"
    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing/report.csv", "directory", ""])
def test_unwritable_output_exits_2_naming_the_path(tmp_path, capsys, monkeypatch, target):
    (tmp_path / "directory").mkdir()
    # run from a directory under tmp_path, so that a temp file made beside the working
    # directory, as well as in it, lands where the search below finds it
    monkeypatch.chdir(tmp_path / "directory")
    out = str(tmp_path / target) if target else ""
    argv = ["drfs", "--config", write_config(tmp_path, coulomb_drfs_config()), "--out", out]
    opened = []
    os_open = os.open
    monkeypatch.setattr(os, "open", lambda path, *args: opened.append(path) or os_open(path, *args))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write output {out}: ")
    assert captured.out == ""
    assert not list(tmp_path.rglob(".rotoshift-*"))
    # an empty path fails before a temp file is made, not after one is made and removed
    assert opened == [] if not target else len(opened) == 1


def test_empty_output_path_exits_2_naming_the_field(tmp_path, capsys, monkeypatch):
    (tmp_path / "directory").mkdir()
    monkeypatch.chdir(tmp_path / "directory")
    config = coulomb_drfs_config(output={"path": ""})
    assert main(["drfs", "--config", write_config(tmp_path, config)]) == 2
    assert capsys.readouterr() == ("", "error: output.path: must be a nonempty string\n")
    assert not list(tmp_path.rglob(".rotoshift-*"))


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_output_file_mode_follows_the_umask(tmp_path, capsys):
    out = tmp_path / "report.csv"
    argv = ["drfs", "--config", write_config(tmp_path, coulomb_drfs_config()), "--out", str(out)]
    old = os.umask(0o022)
    try:
        assert main(argv) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o022


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_output_file_keeps_its_mode(tmp_path, capsys):
    out = tmp_path / "report.csv"
    out.write_text("old\n")
    out.chmod(0o600)
    argv = ["drfs", "--config", write_config(tmp_path, coulomb_drfs_config()), "--out", str(out)]
    assert main(argv) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    assert out.read_text() != "old\n"


@pytest.mark.skipif(os.name != "posix", reason="POSIX symlinks")
def test_symlinked_output_writes_through_the_link(tmp_path, capsys):
    target, link = tmp_path / "report.csv", tmp_path / "latest.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    config = write_config(tmp_path, coulomb_drfs_config())
    assert main(["drfs", "--config", config]) == 0
    table = capsys.readouterr().out
    assert main(["drfs", "--config", config, "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == table
    assert not list(tmp_path.glob(".rotoshift-*"))


def test_cycles_frequency_only_for_compare_stark(tmp_path, capsys):
    config = coulomb_drfs_config(
        rotor={"omega_over_2pi_hz": 8e7, "radius_m": 5e-11})
    assert main(["drfs", "--config", write_config(tmp_path, config)]) == 2
    assert "omega_over_2pi_hz" in capsys.readouterr().err


def test_harmonic_model_rejects_drive(tmp_path, capsys):
    config = {
        "model": "harmonic",
        "rotor": {"omega_rad_s": 3e12, "radius_m": 1e-10, "omega0_rad_s": 1e13},
        "transition": {"upper": [2, 1], "lower": [1, 0]},
        "drive": {"E_V_per_m": 100.0},
    }
    assert main(["drfs", "--config", write_config(tmp_path, config)]) == 2
    assert "coulomb" in capsys.readouterr().err


def test_resonant_harmonic_rotor_exits_3(tmp_path, capsys):
    config = {
        "model": "harmonic",
        "rotor": {"omega_rad_s": 1e13, "radius_m": 1e-10, "omega0_rad_s": 1e13},
        "transition": {"upper": [2, 1], "lower": [1, 0]},
    }
    path = write_config(tmp_path, config)
    for command in ("drfs", "spectrum"):
        assert main([command, "--config", path]) == 3
        err = capsys.readouterr().err
        assert "resonance" in err.lower()
        # the message names the config field that sets the rate
        assert err.startswith("error: rotor.omega_rad_s: ")


def test_resonant_omega_sweep_exits_3_naming_the_swept_value(tmp_path, capsys):
    # the middle of three points from 5e12 to 1.5e13 is omega0 itself
    config = {
        "model": "harmonic",
        "rotor": {"omega_rad_s": 3e12, "radius_m": 1e-10, "omega0_rad_s": 1e13},
        "transition": {"upper": [2, 1], "lower": [1, 0]},
        "sweep": {"axis": "omega", "from": 5e12, "to": 1.5e13, "points": 3},
    }
    assert main(["sweep", "--config", write_config(tmp_path, config)]) == 3
    err = capsys.readouterr().err
    assert "resonance" in err.lower()
    assert err.startswith("error: sweep.from/to: ")
    assert err.rstrip().endswith("at swept_value = 1.00000000000e+13")


def test_failed_run_leaves_no_output_file(tmp_path, capsys):
    out = tmp_path / "report.csv"
    config = coulomb_drfs_config(output={"path": str(out)})
    config["rotor"]["bogus"] = 1
    assert main(["drfs", "--config", write_config(tmp_path, config)]) == 2
    assert not out.exists()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# spectrum command
# ---------------------------------------------------------------------------


def test_spectrum_harmonic_two_routes_agree(tmp_path, capsys):
    config = {
        "model": "harmonic",
        "rotor": {"omega_rad_s": 5e11, "radius_m": 2e-12, "omega0_rad_s": 1e13},
        "basis_n_max": 6,
    }
    assert main(["spectrum", "--config", write_config(tmp_path, config)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header[3] == "quasi_energy_closed_form_J"
    assert len(rows) == 84  # (6+1)(6+2)(6+3)/6 states
    closed = np.array([float(r[3]) for r in rows])
    numeric = np.array([float(r[4]) for r in rows])
    keep = len(rows) // 2
    assert np.max(np.abs(closed[:keep] - numeric[:keep])
                  / np.abs(closed[:keep])) <= 1e-6


def trap_spectrum_config(n_max, w, v, omega0=1e13, **overrides):
    """A harmonic spectrum at rotation w omega0 and orbital speed v in trap units, as JSON."""
    speed = v * (C.hbar * omega0 / C.electron_mass) ** 0.5
    config = {"model": "harmonic", "basis_n_max": n_max, "output": {"format": "json"},
              "rotor": {"omega_rad_s": w * omega0, "radius_m": speed / abs(w * omega0),
                        "omega0_rad_s": omega0}}
    config.update(overrides)
    return config


def spectrum_rows(tmp_path, capsys, config):
    assert main(["spectrum", "--config", write_config(tmp_path, config)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"] == ["index", "shell", "m_z", "quasi_energy_closed_form_J",
                                  "quasi_energy_diagonalized_J", "truncation_bound_J"]
    return np.array(payload["rows"])


def test_harmonic_spectrum_pairs_each_row_with_its_own_label(tmp_path, capsys):
    # at 0.6 omega0 sorted row i and closed-form row i are unlike states, 1.2e-2 apart
    rows = spectrum_rows(tmp_path, capsys, trap_spectrum_config(14, 0.6, 0.1))
    assert len(rows) == 680
    closed, numeric, bound = rows[:, 3], rows[:, 4], rows[:, 5]
    assert np.max(np.abs(numeric - closed) / np.abs(closed)) <= 1e-12
    assert np.all((bound >= 0) & (bound <= 3e-13 * C.hbar * 1e13))


def test_harmonic_spectrum_sees_the_sense_of_rotation(tmp_path, capsys):
    # +-Omega have one sorted spectrum, so only a comparison by label tells them apart
    minus = spectrum_rows(tmp_path, capsys, trap_spectrum_config(10, -0.05, 0.02))
    plus = spectrum_rows(tmp_path, capsys, trap_spectrum_config(10, 0.05, 0.02))
    assert np.max(np.abs(np.sort(minus[:, 4]) - plus[:, 3]) / plus[:, 3]) <= 1e-12

    def table(rows, column):
        levels = {}
        for row in rows:
            levels.setdefault((row[1], row[2]), []).append(row[column])
        return {label: sorted(values) for label, values in levels.items()}
    numeric, closed = table(minus, 4), table(plus, 3)
    assert numeric.keys() == closed.keys()
    miss = max(abs(a - b) for label in closed for a, b in zip(numeric[label], closed[label]))
    assert miss >= 0.5 * C.hbar * 1e13


@pytest.mark.parametrize("w", [-0.6, 1.5])
def test_harmonic_spectrum_rows_run_by_closed_form_then_label(tmp_path, capsys, w):
    # one sort orders the rows by (closed form, N, m_z), and by numeric level within a label
    rows = spectrum_rows(tmp_path, capsys, trap_spectrum_config(10, w, 0.1))
    assert len(rows) == 286
    closed, numeric, bound = rows[:, 3], rows[:, 4], rows[:, 5]
    keys = [tuple(row) for row in rows[:, [3, 1, 2]].tolist()]
    assert keys == sorted(keys)
    same = (rows[1:, 1:3] == rows[:-1, 1:3]).all(axis=1)
    assert np.all(numeric[1:][same] >= numeric[:-1][same])
    scale = np.max(np.abs(closed))
    assert np.all(np.abs(numeric - closed) <= bound + 1e-12 * scale)


def test_harmonic_spectrum_checks_the_closed_form_before_the_oracle(tmp_path, capsys):
    # an orbit this wide overflows both routes; the closed form is the one named
    config = {"model": "harmonic", "basis_n_max": 4,
              "rotor": {"omega_rad_s": 3e12, "radius_m": 1e300, "omega0_rad_s": 1e13}}
    assert main(["spectrum", "--config", write_config(tmp_path, config)]) == 3
    assert capsys.readouterr().err == (
        "error: quasi_energy_closed_form_J: every quasi-energy must be finite\n")


@pytest.mark.parametrize("config", [
    {"model": "harmonic", "basis_n_max": 10,
     "rotor": {"omega_rad_s": 3e12, "radius_m": 1e-3, "omega0_rad_s": 1e13}},
    trap_spectrum_config(10, 0.999, 0.1),
], ids=["wide-orbit", "near-resonance"])
def test_uncertified_harmonic_spectrum_exits_3_naming_the_radius(tmp_path, capsys, config):
    # 0.999 omega0 lies outside the 1e-6 resonance band, but its slow circular mode
    # needs thousands of quanta: no basis up to the ceiling certifies the levels
    out = tmp_path / "out.csv"
    start = time.perf_counter()
    code = main(["spectrum", "--config", write_config(tmp_path, config), "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert capsys.readouterr().err.startswith("error: rotor.radius_m: ")
    assert not out.exists()


def test_spectrum_coulomb_first_order_route(tmp_path, capsys):
    config = {
        "model": "coulomb",
        "rotor": {"omega_rad_s": 1e11, "radius_m": 1e-10},
        "transition": {"upper": [3, 2], "lower": [2, 1]},
    }
    assert main(["spectrum", "--config", write_config(tmp_path, config)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header[4] == "quasi_energy_first_order_J"
    assert len(rows) == 14  # shells 1+4+9
    closed = np.array([float(r[3]) for r in rows])
    numeric = np.array([float(r[4]) for r in rows])
    assert np.max(np.abs(closed - numeric) / np.abs(closed)) <= 1e-9


def test_coulomb_spectrum_past_the_one_percent_rule_warns_once(tmp_path):
    # the closed form warns, naming the spectrum's line; the first-order
    # oracle takes its E0 from the Bohr level and adds no second warning
    config = coulomb_drfs_config(rotor={"omega_rad_s": 5e13, "radius_m": 1e-9},
                                 transition={"upper": [5, 0], "lower": [1, 0]})
    path = write_config(tmp_path, config)
    src = os.path.dirname(os.path.dirname(rotoshift.__file__))
    proc = subprocess.run([sys.executable, "-m", "rotoshift.cli", "spectrum",
                           "--config", path, "--out", str(tmp_path / "out.csv")],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS=""))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("PerturbativeRegimeWarning") == 1, proc.stderr


def test_spectrum_coulomb_needs_transition(tmp_path, capsys):
    config = {"model": "coulomb",
              "rotor": {"omega_rad_s": 1e11, "radius_m": 1e-10}}
    assert main(["spectrum", "--config", write_config(tmp_path, config)]) == 2
    capsys.readouterr()


def test_spectrum_refuses_a_nonzero_drive(tmp_path, capsys):
    # the table is the undriven one, so a drive would be dropped without a word
    config = coulomb_drfs_config(drive={"E_V_per_m": 1e7})
    assert main(["spectrum", "--config", write_config(tmp_path, config)]) == 2
    assert "drive.E_V_per_m" in capsys.readouterr().err
    assert main(["spectrum", "--config", write_config(tmp_path, coulomb_drfs_config())]) == 0
    undriven = capsys.readouterr().out
    config["drive"]["E_V_per_m"] = 0.0
    assert main(["spectrum", "--config", write_config(tmp_path, config)]) == 0
    assert capsys.readouterr().out == undriven


@pytest.mark.filterwarnings("ignore::rotoshift.PerturbativeRegimeWarning")
def test_spectrum_residual_check_scales_before_squaring(tmp_path, capsys):
    # the shell-2 perturbation reaches 1e184 J, whose square leaves double
    # precision; the residual check must still pass and the table stay finite
    config = coulomb_drfs_config(rotor={"omega_rad_s": 1e12, "radius_m": 1e200},
                                 transition={"upper": [2, 0], "lower": [1, 0]})
    assert main(["spectrum", "--config", write_config(tmp_path, config)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 5
    assert all(np.isfinite(float(value)) for row in rows for value in row)


def test_spectrum_basis_cap(tmp_path, capsys):
    config = {
        "model": "harmonic",
        "rotor": {"omega_rad_s": 5e11, "radius_m": 0.0, "omega0_rad_s": 1e13},
        "basis_n_max": 21,
    }
    assert main(["spectrum", "--config", write_config(tmp_path, config)]) == 2
    assert "basis_n_max" in capsys.readouterr().err


class _Recorded(np.ndarray):
    """An array that logs the multiply-adds of each matrix product it enters,
    and passes itself on to every array computed from it."""

    macs = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _Recorded) else x for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, _Recorded) else x
                                  for x in kwargs["out"])
        if ufunc is np.matmul:
            a, b = plain[:2]
            _Recorded.macs.append(np.size(a) * (np.shape(b)[-1] if np.ndim(b) > 1 else 1))
        result = getattr(ufunc, method)(*plain, **kwargs)
        return result.view(_Recorded) if type(result) is np.ndarray else result

    def __array_function__(self, func, types, args, kwargs):
        # np.concatenate and its kin return plain arrays; keep the log going through them
        result = super().__array_function__(func, types, args, kwargs)
        return result.view(_Recorded) if type(result) is np.ndarray else result


@pytest.mark.filterwarnings("ignore::rotoshift.PerturbativeRegimeWarning")
def test_coulomb_spectrum_stays_below_the_blas_threading_sizes(tmp_path, monkeypatch):
    # numpy's bundled OpenBLAS (0.3.31) runs a matrix product on one thread
    # below 64^3 multiply-adds, and its eigh wakes a second thread from 26
    # states; a top-10 Coulomb spectrum must stay below both, cold caches included
    config = coulomb_drfs_config(transition={"upper": [10, 0], "lower": [1, 0]})
    argv = ["spectrum", "--config", write_config(tmp_path, config),
            "--out", str(tmp_path / "out.csv")]
    operators._radial_table.cache_clear()
    operators._shell.cache_clear()
    rows = []
    for name in ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv",
                 "lstsq", "pinv", "qr", "slogdet", "solve", "svd", "svdvals"):
        def factorize(a, *args, _f=getattr(np.linalg, name), **kwargs):
            rows.append(np.shape(a)[-2])
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, factorize)
    # every array the shell cache hands out, and every operator block, logs its products
    shell = operators._shell
    monkeypatch.setattr(operators, "_shell", lambda n: tuple(
        a.view(_Recorded) if type(a) is np.ndarray and a.ndim == 2 else a for a in shell(n)))
    from_blocks = operators.HermitianOperator.from_blocks.__func__

    def logged(cls, basis, blocks):
        op = from_blocks(cls, basis, blocks)
        return dataclasses.replace(op, blocks=tuple((i, b.view(_Recorded)) for i, b in op.blocks))
    monkeypatch.setattr(operators.HermitianOperator, "from_blocks", classmethod(logged))
    _Recorded.macs.clear()
    assert main(argv) == 0
    # two parity blocks per shell above the first, each solved by one SVD
    assert len(rows) == 19 and max(rows) <= 30
    assert _Recorded.macs and max(_Recorded.macs) < 64 ** 3


@pytest.fixture
def blas_threads():
    """The getter of numpy's OpenBLAS thread count, set to 2 for the test."""
    threads = cli._openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS it ships")
    get, set_ = threads
    caller = get()
    set_(2)
    assert get() == 2
    yield get
    set_(caller)


def _trap_n12(omega):
    return {"model": "harmonic", "basis_n_max": 12,
            "rotor": {"omega_rad_s": omega, "radius_m": 2e-12, "omega0_rad_s": 1e13}}


@pytest.mark.parametrize("config, code, past_25", [
    (_trap_n12(5e11), 0, False),
    (_trap_n12(1e13), 3, False),
    # each circular mode grows to 34 states, past the 25 up to which eigh keeps one thread
    (trap_spectrum_config(20, 0.1, 0.1), 0, True),
], ids=["exit-0", "resonant", "past-25-states"])
def test_harmonic_spectrum_runs_blas_on_one_thread(tmp_path, capsys, monkeypatch,
                                                   blas_threads, config, code, past_25):
    counts, sizes = [], []
    for module, name in ((np.linalg, "eigh"), (cli, "_build_rotor")):
        def counted(*args, _f=getattr(module, name), _name=name, **kwargs):
            counts.append(blas_threads())
            if _name == "eigh":
                sizes.append(len(args[0]))
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert main(["spectrum", "--config", write_config(tmp_path, config)]) == code
    capsys.readouterr()
    # one count from building the rotor, then one per eigh of a circular mode,
    # at least one for each of the two modes
    assert counts == [1] * len(counts) and len(counts) >= (3 if code == 0 else 1)
    assert (max(sizes, default=0) > 25) == past_25
    assert blas_threads() == 2


def test_harmonic_spectrum_stays_below_the_blas_threading_sizes(tmp_path, monkeypatch):
    # the benchmark's corner, basis_n_max 14 at 0.1 omega0 and v = 0.1: each circular
    # mode's tridiagonal stays within the 25 states up to which eigh keeps one thread
    config = trap_spectrum_config(14, 0.1, 0.1)
    argv = ["spectrum", "--config", write_config(tmp_path, config),
            "--out", str(tmp_path / "out.json")]
    rows = []
    for name in ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv",
                 "lstsq", "pinv", "qr", "slogdet", "solve", "svd", "svdvals"):
        def factorize(a, *args, _f=getattr(np.linalg, name), **kwargs):
            rows.append(np.shape(a)[-2])
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, factorize)
    assert main(argv) == 0
    assert rows and max(rows) <= 25, rows


def test_blas_pin_shared_by_threads_gives_the_count_back(blas_threads):
    inside = []

    def work():
        for _ in range(300):
            with cli._one_blas_thread:
                time.sleep(0)  # hand the interpreter to another thread inside the pin
                inside.append(blas_threads())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert inside == [1] * 8 * 300
    assert blas_threads() == 2


def test_blas_lookup_finds_numpys_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:
        pytest.skip("numpy before 1.26 does not name its BLAS")
    if blas != "scipy-openblas":
        pytest.skip(f"numpy's BLAS is {blas}")
    get, set_ = cli._openblas_threads()
    assert (get.__name__, set_.__name__) == ("scipy_openblas_get_num_threads64_",
                                             "scipy_openblas_set_num_threads64_")
    # the lookup waits for the first command
    src = os.path.dirname(os.path.dirname(rotoshift.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import rotoshift.cli as c; print(c._openblas_threads.cache_info().misses)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_blas_lookup_lists_no_directory(monkeypatch):
    # the lookup opens numpy's loaded extension module and lists no directory
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:
        pytest.skip("numpy before 1.26 does not name its BLAS")
    if blas != "scipy-openblas":
        pytest.skip(f"numpy's BLAS is {blas}")

    def listdir(path):
        raise AssertionError(f"listed {path}")
    monkeypatch.setattr(os, "listdir", listdir)
    monkeypatch.setattr(os.path, "isdir", lambda path: False)
    get, set_ = cli._openblas_threads.__wrapped__()
    assert (get.__name__, set_.__name__) == ("scipy_openblas_get_num_threads64_",
                                             "scipy_openblas_set_num_threads64_")


# ---------------------------------------------------------------------------
# doppler command
# ---------------------------------------------------------------------------


def test_doppler_fixed_wavevector(tmp_path, capsys):
    config = {"doppler": {"delta_E_J": 1e-19,
                          "v_m_per_s": [0.0, 0.0, 300.0],
                          "k_per_m": [0.0, 0.0, 2e6]}}
    assert main(["doppler", "--config", write_config(tmp_path, config)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    shift = float(cell(header, rows[0], "doppler_shift_rad_s"))
    assert shift == pytest.approx(300.0 * 2e6, rel=1e-12)


def test_doppler_self_consistent_direction(tmp_path, capsys):
    config = {"doppler": {"delta_E_J": 1e-19,
                          "v_m_per_s": [0.0, 0.0, 300.0],
                          "k_direction": [0.0, 0.0, 1.0]}}
    assert main(["doppler", "--config", write_config(tmp_path, config)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    omega = float(cell(header, rows[0], "omega_rad_s"))
    want = (1e-19 / C.hbar) / (1.0 - 300.0 / C.light_speed)
    assert omega == pytest.approx(want, rel=1e-12)


def test_doppler_requires_exactly_one_wavevector_form(tmp_path, capsys):
    config = {"doppler": {"delta_E_J": 1e-19, "v_m_per_s": [0.0, 0.0, 300.0],
                          "k_per_m": [0.0, 0.0, 2e6],
                          "k_direction": [0.0, 0.0, 1.0]}}
    assert main(["doppler", "--config", write_config(tmp_path, config)]) == 2
    capsys.readouterr()


def test_doppler_relativistic_speed_exits_3(tmp_path, capsys):
    config = {"doppler": {"delta_E_J": 1e-19, "v_m_per_s": [4e6, 0.0, 0.0],
                          "k_per_m": [0.0, 0.0, 2e6]}}
    assert main(["doppler", "--config", write_config(tmp_path, config)]) == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# compare-stark command
# ---------------------------------------------------------------------------


def stark_config(tmp_path):
    return write_config(tmp_path, {
        "model": "coulomb",
        "rotor": {"omega_over_2pi_hz": 8e7, "radius_m": 5e-11},
        "transition": {"upper": [3, 2], "lower": [2, 1]},
        "drive": {"E_V_per_m": 3e4},
    })


def test_compare_stark_force_ratio(tmp_path, capsys):
    assert main(["compare-stark", "--config", stark_config(tmp_path)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 3 + 5  # shells 2 and 3
    fr = float(cell(header, rows[0], "force_ratio"))
    fr_eng = float(cell(header, rows[0], "force_ratio_engineering"))
    assert fr == pytest.approx(2.4e-9, rel=0.05)
    assert fr_eng == pytest.approx(fr, rel=5e-3)
    # at these parameters the drive dominates by ~4e8, so both orientations
    # give the same levels to machine resolution
    for row in rows:
        up = float(cell(header, row, "level_enhanced_J"))
        down = float(cell(header, row, "level_reduced_J"))
        assert up == pytest.approx(down, rel=1e-12)


def test_compare_stark_orientation_ordering(tmp_path, capsys):
    # drive sized to the centrifugal term so the orientations separate:
    # parallel deepens the splitting, antiparallel cancels it
    Omega, R = 1e12, 1e-10
    star = C.electron_mass * Omega ** 2 * R / C.elementary_charge
    config = {
        "model": "coulomb",
        "rotor": {"omega_rad_s": Omega, "radius_m": R},
        "transition": {"upper": [3, 2], "lower": [2, 1]},
        "drive": {"E_V_per_m": star},
    }
    assert main(["compare-stark", "--config", write_config(tmp_path, config)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    for row in rows:
        m_z = int(cell(header, row, "m_z"))
        up = float(cell(header, row, "level_enhanced_J"))
        down = float(cell(header, row, "level_reduced_J"))
        if m_z > 0:
            assert up < down
        elif m_z < 0:
            assert up > down
        else:
            assert up == down


# ---------------------------------------------------------------------------
# sweep command and determinism
# ---------------------------------------------------------------------------


def sweep_config(out_path, scale="log", lo=1e10, hi=1e12, points=5):
    return {
        "model": "coulomb",
        "rotor": {"omega_rad_s": 1e12, "radius_m": 1e-10},
        "transition": {"upper": [3, 2], "lower": [2, 1]},
        "sweep": {"axis": "omega", "from": lo, "to": hi,
                  "points": points, "scale": scale},
        "output": {"path": out_path},
    }


def test_sweep_writes_ascending_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    path = write_config(tmp_path, sweep_config(str(out)))
    assert main(["sweep", "--config", path]) == 0
    header, rows = parse_csv(out.read_text())
    swept = [float(r[0]) for r in rows]
    assert len(swept) == 5
    assert swept == sorted(swept)
    assert swept[0] == 1e10 and swept[-1] == 1e12


def test_sweep_descending_range_still_ascends(tmp_path):
    out = tmp_path / "sweep.csv"
    path = write_config(tmp_path, sweep_config(str(out), lo=1e12, hi=1e10))
    assert main(["sweep", "--config", path]) == 0
    _, rows = parse_csv(out.read_text())
    swept = [float(r[0]) for r in rows]
    assert swept == sorted(swept)


def test_sweep_rejects_degenerate_range(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    path = write_config(tmp_path, sweep_config(str(out), lo=1e11, hi=1e11))
    assert main(["sweep", "--config", path]) == 2
    assert "degenerate" in capsys.readouterr().err


def test_sweep_byte_identical_across_runs_and_threads(tmp_path):
    blobs = []
    for i in range(3):
        out = tmp_path / f"sweep_{i}.csv"
        path = write_config(tmp_path, sweep_config(str(out), points=9),
                            name=f"cfg_{i}.json")
        assert main(["sweep", "--config", path]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("model,command,block,key,value", [
    ("coulomb", "drfs", "rotor", "omega_rad_s", float("nan")),
    ("coulomb", "sweep", "sweep", "from", float("inf")),
    ("coulomb", "drfs", "rotor", "radius_m", 10 ** 400),
    ("coulomb", "drfs", "rotor", "Z", 10 ** 400),
    ("coulomb", "drfs", "transition", "upper", [10 ** 400, 0]),
    ("harmonic", "drfs", "transition", "upper", [10 ** 400, 0]),
    ("coulomb", "drfs", "transition", "M", 10 ** 400),
], ids=["nan", "infinity", "int-beyond-float", "int-Z", "int-upper-coulomb",
        "int-upper-harmonic", "int-M"])
def test_non_finite_number_rejected_naming_field(tmp_path, capsys, model, command,
                                                 block, key, value):
    config = sweep_config(str(tmp_path / "out.csv"))
    if model == "harmonic":
        config.update(harmonic_drfs_config())
    config[block][key] = value
    # json writes NaN and Infinity literals, which json.load accepts
    assert main([command, "--config", write_config(tmp_path, config)]) == 2
    assert f"{block}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_projection_override_beyond_float_exact_range(tmp_path, capsys):
    config = coulomb_drfs_config()
    config["transition"]["M"] = 2 ** 53 + 1
    assert main(["drfs", "--config", write_config(tmp_path, config)]) == 2
    assert "error: transition.M:" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["coulomb", "harmonic"])
@pytest.mark.parametrize("command", ["drfs", "sweep", "spectrum"])
@pytest.mark.parametrize("omega", [1e300, -1e300])
def test_rotation_rate_beyond_compton_frequency_rejected(tmp_path, capsys, model,
                                                         command, omega):
    config = sweep_config(str(tmp_path / "out.csv"), scale="linear")
    if model == "harmonic":
        config.update(harmonic_drfs_config())
    config["rotor"]["omega_rad_s"] = omega
    assert main([command, "--config", write_config(tmp_path, config)]) == 2
    assert "rotor.omega_rad_s" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("Z,code", [(137, 0), (138, 2), (500, 2)])
def test_nuclear_charge_keeps_the_atomic_speed_below_light(tmp_path, capsys, Z, code):
    # v_a = Z alpha c reaches c at Z alpha = 1: Z = 500 used to give a
    # 2.5 MeV photon, past the electron rest energy
    config = coulomb_drfs_config()
    config["rotor"]["Z"] = Z
    out = tmp_path / "out.csv"
    assert main(["drfs", "--config", write_config(tmp_path, config), "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    assert ("rotor.Z" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize("axis", ["radius", "drive"])
def test_negative_sweep_endpoint_names_the_range(tmp_path, capsys, axis):
    config = sweep_config(str(tmp_path / "out.csv"), scale="linear",
                          lo=-1e-10, hi=1e-10)
    config["sweep"]["axis"] = axis
    config["drive"] = {"E_V_per_m": 1.0}
    assert main(["sweep", "--config", write_config(tmp_path, config)]) == 2
    assert "sweep.from/to" in capsys.readouterr().err


def test_sweep_points_cap_checked_before_any_row(tmp_path, capsys, monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row was built")
    monkeypatch.setattr(cli, "_transition_row", no_rows)
    config = sweep_config(str(tmp_path / "out.csv"), points=100001)
    assert main(["sweep", "--config", write_config(tmp_path, config)]) == 2
    assert "sweep.points" in capsys.readouterr().err


def test_coulomb_spectrum_shell_bound_names_field(tmp_path, capsys):
    config = coulomb_drfs_config(transition={"upper": [11, 0], "lower": [1, 0]})
    assert main(["spectrum", "--config", write_config(tmp_path, config)]) == 2
    assert "transition.upper" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::rotoshift.PerturbativeRegimeWarning",
                            "ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("command,config,column,where", [
    ("drfs", coulomb_drfs_config(rotor={"omega_rad_s": 1e12, "radius_m": 1e300}),
     "quasi_energy_upper_J", "swept_value = 1.00000000000e+12"),
    ("drfs", harmonic_drfs_config(rotor={"omega_rad_s": 3e12, "radius_m": 1e300,
                                         "omega0_rad_s": 1e13}),
     "quasi_energy_upper_J", "swept_value = 3.00000000000e+12"),
    ("compare-stark", coulomb_drfs_config(drive={"E_V_per_m": 1e300}),
     "level_enhanced_J", "shell = 2"),
], ids=["coulomb-radius", "harmonic-radius", "stark-drive"])
def test_non_finite_result_exits_3(tmp_path, capsys, command, config, column, where):
    out = tmp_path / "out.csv"
    config = dict(config, output={"path": str(out)})
    assert main([command, "--config", write_config(tmp_path, config)]) == 3
    err = capsys.readouterr().err
    assert column in err and where in err and "not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("table,column,where", [
    # bad cells at (row 2, b) and (row 3, a): row-major order meets b first,
    # a scan column by column would meet a first
    ([np.arange(5), np.array([1.0, 2.0, 3.0, np.inf, 5.0]),
      (0.5, None, np.nan, None, 4.5)], "b", "index = 2"),
    # bad cells at (row 1, a), (row 1, b) and (row 0, b): row 0 comes first
    ([np.arange(3), np.array([1.0, -np.inf, 3.0]), (np.nan, np.nan, None)],
     "b", "index = 0"),
    # bad cells at (row 1, a) and (row 1, b): the leftmost one is named
    ([np.arange(3), (1.0, np.nan, None), np.array([0.0, np.inf, np.nan])],
     "a", "index = 1"),
], ids=["earlier-row", "first-row", "same-row"])
def test_columnar_finite_check_names_first_cell_in_row_major_order(table, column, where):
    with pytest.raises(rotoshift.OutOfRegimeError) as info:
        cli._check_finite(["index", "a", "b"], table)
    assert str(info.value).startswith(f"{column} is not finite at {where}:")


def test_columnar_finite_check_passes_finite_and_undefined_cells():
    cli._check_finite(["index", "a", "b"],
                      [np.arange(3), np.array([1.0, 2.0, 3.0]), (None, 1e300, None)])


# cells the renderers meet: signed zeros, subnormals and both ends of the range
EDGE_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                                         1e-300, -1e-300, 1e300, -1e300]))


@st.composite
def rendered_tables(draw):
    # int and float arrays (the spectrum tables) mixed with row-built tuples
    # of None, ints and floats; zero rows and one row included.  An array
    # column draws from a small pool of values, as a spectrum's degenerate
    # levels repeat, and each float pool holds both 0.0 and -0.0, which a
    # renderer must keep apart
    rows = draw(st.integers(0, 40))
    cells = {"int": st.integers(-2 ** 63, 2 ** 63 - 1), "float": EDGE_FLOATS,
             "tuple": st.one_of(st.none(), st.integers(-10 ** 20, 10 ** 20), EDGE_FLOATS)}
    table = []
    for kind in draw(st.lists(st.sampled_from(sorted(cells)), min_size=1, max_size=4)):
        if kind == "tuple":
            table.append(tuple(draw(st.lists(cells[kind], min_size=rows, max_size=rows))))
            continue
        pool = draw(st.lists(cells[kind], min_size=1, max_size=4))
        if kind == "float":
            pool += [0.0, -0.0]
        values = draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))
        table.append(np.array(values, dtype=np.int64 if kind == "int" else float))
    return [f"column_{j}" for j in range(len(table))], table


RENDER_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@RENDER_SETTINGS
@given(rendered_tables(), st.sampled_from(["spectrum", "sweep", "compare-stark"]))
def test_render_json_is_the_indent_2_encoding(data, command):
    columns, table = data
    rows = [[v.item() if isinstance(v, np.generic) else v for v in row] for row in zip(*table)]
    want = json.dumps({"command": command, "columns": columns, "rows": rows}, indent=2) + "\n"
    assert cli._render_json(command, columns, table) == want


@RENDER_SETTINGS
@given(rendered_tables())
def test_render_csv_is_fmt_per_cell(data):
    columns, table = data
    lines = [",".join(columns)] + [",".join(map(cli._fmt, row)) for row in zip(*table)]
    assert cli._render_csv(columns, table) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("table", [
    [np.array([-2 ** 53]), np.array([2 ** 53]), np.array([0.5])],
    [np.array([-2 ** 53, 2 ** 53]), np.array([-0.0, 1e300])],
    [np.array([-2 ** 63, 2 ** 63 - 1, 0])],
], ids=["one-row", "two-rows", "int64-extremes"])
def test_int_text_of_a_wide_range_takes_no_table(table):
    # an int column whose values lie far apart is written per cell, not from a text
    # table of its range, which would hold some 2**54 strings
    columns = [f"column_{j}" for j in range(len(table))]
    lines = [",".join(columns)] + [",".join(map(cli._fmt, row)) for row in zip(*table)]
    tracemalloc.start()
    try:
        got = cli._render_csv(columns, table), cli._render_json("spectrum", columns, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[0] == "\n".join(lines) + "\n"
    rows = [[v.item() for v in row] for row in zip(*table)]
    assert got[1] == json.dumps({"command": "spectrum", "columns": columns, "rows": rows},
                                indent=2) + "\n"
    assert peak < 2 ** 20


def test_underflowing_orbital_speed_leaves_doppler_ratio_empty(tmp_path, capsys):
    config = harmonic_drfs_config(rotor={"omega_rad_s": 3e12, "radius_m": 1e-200,
                                         "omega0_rad_s": 1e13})
    assert main(["drfs", "--config", write_config(tmp_path, config)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert cell(header, rows[0], "transverse_doppler_ratio") == ""
    assert cell(header, rows[0], "drfs_exact_rad_s") == "0.00000000000e+00"


@pytest.mark.parametrize("command", ["drfs", "sweep"])
@pytest.mark.parametrize("upper,lower", [([2, 1], [3, 2]), ([3, 1], [3, 2])])
def test_non_emitting_transition_rejected(tmp_path, capsys, command, upper, lower):
    config = sweep_config(str(tmp_path / "out.csv"))
    config["transition"] = {"upper": upper, "lower": lower}
    assert main([command, "--config", write_config(tmp_path, config)]) == 2
    assert "transition" in capsys.readouterr().err


@pytest.mark.parametrize("model,command,upper,lower,field", [
    ("coulomb", "drfs", [3, 5], [2, 1], "transition.upper"),
    ("coulomb", "sweep", [3, 2], [0, 0], "transition.lower"),
    ("harmonic", "drfs", [2, 5], [1, 0], "transition.upper"),
    ("harmonic", "sweep", [2, 1], [-1, 0], "transition.lower"),
    ("coulomb", "compare-stark", [0, 0], [2, 1], "transition.upper"),
    ("coulomb", "compare-stark", [-3, 0], [2, 1], "transition.upper"),
    ("coulomb", "compare-stark", [50001, 0], [2, 1], "transition.upper/lower"),
], ids=["coulomb-m", "coulomb-q", "harmonic-m", "harmonic-N", "stark-zero",
        "stark-negative", "stark-rows"])
def test_level_labels_checked_naming_field(tmp_path, capsys, monkeypatch, model,
                                           command, upper, lower, field):
    def no_rows(*args):
        raise AssertionError("a row was built")
    # shift rows (drfs, sweep) and compare-stark rows
    monkeypatch.setattr(cli, "_transition_row", no_rows)
    monkeypatch.setattr(cli, "driven_rotating_levels", no_rows)
    config = sweep_config(str(tmp_path / "out.csv"))
    if model == "harmonic":
        config.update(harmonic_drfs_config())
    config["transition"] = {"upper": upper, "lower": lower}
    if command == "compare-stark":
        config["drive"] = {"E_V_per_m": 3e4}
    assert main([command, "--config", write_config(tmp_path, config)]) == 2
    assert f"error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_trap_quantum_must_not_underflow(tmp_path, capsys):
    config = {"model": "harmonic",
              "rotor": {"omega_rad_s": 1e12, "radius_m": 1e-10, "omega0_rad_s": 1e-300},
              "basis_n_max": 2}
    assert main(["spectrum", "--config", write_config(tmp_path, config)]) == 2
    assert "error: rotor.omega0_rad_s:" in capsys.readouterr().err
    config["rotor"]["omega0_rad_s"] = 1e-200
    assert main(["spectrum", "--config", write_config(tmp_path, config)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 10
    assert all(np.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.filterwarnings("ignore::rotoshift.PerturbativeRegimeWarning")
@pytest.mark.parametrize("command,config,text", [
    ("spectrum", {"model": "harmonic", "basis_n_max": 2,
                  "rotor": {"omega_rad_s": 0.0, "radius_m": 1e-10, "omega0_rad_s": 1e-200}},
     "float division by zero"),
    ("drfs", harmonic_drfs_config(rotor={"omega_rad_s": 1e12, "radius_m": 1e190,
                                         "omega0_rad_s": 1e13}),
     "out of range"),
    ("compare-stark", coulomb_drfs_config(drive={"E_V_per_m": 5e-324}),
     "float division by zero"),
    ("spectrum", coulomb_drfs_config(rotor={"omega_rad_s": 1e12, "radius_m": 1e300}),
     "quasi_energy_closed_form_J"),
], ids=["trap-squares-underflow", "orbital-speed-squared",
        "drive-force-underflows", "closed-form-overflows"])
def test_double_precision_range_exits_3(tmp_path, capsys, command, config, text):
    out = tmp_path / "out.csv"
    config = dict(config, output={"path": str(out)})
    assert main([command, "--config", write_config(tmp_path, config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and text in err
    assert not out.exists()


@pytest.mark.parametrize("command,config,columns", [
    ("drfs", coulomb_drfs_config(rotor={"omega_rad_s": 1e-300, "radius_m": 1e-10},
                                 drive={"E_V_per_m": 1.0}),
     ["quasi_energy_upper_J"]),
    ("compare-stark", coulomb_drfs_config(rotor={"omega_over_2pi_hz": 5e-324,
                                                 "radius_m": 1e-10},
                                          drive={"E_V_per_m": 3e4}),
     ["level_enhanced_J", "level_reduced_J"]),
], ids=["driven-slow-rotation", "driven-rate-underflows"])
def test_slow_driven_rotation_gives_stark_fan(tmp_path, capsys, command, config, columns):
    # as the rotation slows under a drive, the fan rate hypot(Omega, omega_S)
    # tends to the Stark rate omega_S = 3 n e E / (2 m v_a), which is finite
    json_config = dict(config, output={"format": "json"})
    assert main([command, "--config", write_config(tmp_path, json_config)]) == 0
    payload = json.loads(capsys.readouterr().out)
    header = payload["columns"]
    row = payload["rows"][0]
    if command == "compare-stark":
        row = next(r for r in payload["rows"] if r[:2] == [3, 2])
    v_a = rotoshift.atomic_velocity(1)
    omega_S = (3 * 3 * C.elementary_charge * config["drive"]["E_V_per_m"]
               / (2 * C.electron_mass * v_a))
    want = -C.electron_mass * v_a ** 2 / (2 * 3 ** 2) - C.hbar * 2 * omega_S
    for column in columns:
        assert row[header.index(column)] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("command,rotor,sweep", [
    ("drfs", {"radius_m": 0.0}, None),
    ("drfs", {"omega_rad_s": 0.0}, None),
    ("compare-stark", {"radius_m": 0.0}, None),
    ("compare-stark", {"omega_rad_s": 0.0}, None),
    ("sweep", {"radius_m": 0.0}, {"axis": "omega", "from": 1e10, "to": 1e12}),
    ("sweep", {}, {"axis": "omega", "from": -1e12, "to": 1e12}),
    ("sweep", {}, {"axis": "radius", "from": 0.0, "to": 1e-10}),
    ("sweep", {"omega_rad_s": 0.0}, {"axis": "radius", "from": 1e-11, "to": 1e-10}),
    ("sweep", {"radius_m": 0.0}, {"axis": "drive", "from": 0.0, "to": 1e3}),
], ids=["drfs-radius", "drfs-rate", "stark-radius", "stark-rate", "omega-sweep-radius",
        "omega-sweep-through-zero", "radius-sweep-from-zero", "radius-sweep-rate",
        "drive-sweep-radius"])
def test_drive_needs_orbit_and_rotation(tmp_path, capsys, command, rotor, sweep):
    config = sweep_config(str(tmp_path / "out.csv"), scale="linear")
    config["rotor"].update(rotor)
    config["drive"] = {"E_V_per_m": 3e4}
    if sweep is not None:
        config["sweep"].update(sweep, points=4)
    assert main([command, "--config", write_config(tmp_path, config)]) == 2
    assert "error: drive.E_V_per_m:" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("direction", [[0.0, 0.0, 0.0], [1e300, 0.0, 0.0],
                                       [1e-300, 0.0, 0.0]],
                         ids=["zero", "length-overflows", "length-underflows"])
def test_doppler_direction_needs_a_length(tmp_path, capsys, direction):
    config = {"doppler": {"delta_E_J": 1e-19, "v_m_per_s": [300.0, 0.0, 0.0],
                          "k_direction": direction}}
    assert main(["doppler", "--config", write_config(tmp_path, config)]) == 2
    assert "error: doppler.k_direction:" in capsys.readouterr().err


def test_cli_import_leaves_out_scipy():
    src = os.path.dirname(os.path.dirname(rotoshift.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rotoshift.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_spectra_leave_out_numpy_ma(tmp_path):
    # numpy.ma costs a process about 25 ms and 0.4 MB when first imported,
    # as np.unique does, and numpy.polynomial about 0.7 MB; no spectrum needs
    # them, nor does either renderer's pass over distinct cells (the JSON one
    # through shell 10)
    harmonic = write_config(tmp_path, dict(harmonic_drfs_config(), basis_n_max=6), "ho.json")
    coulomb = write_config(tmp_path, coulomb_drfs_config(), "coulomb.json")
    shell_10 = write_config(tmp_path, coulomb_drfs_config(
        transition={"upper": [10, 2], "lower": [9, 1]}, output={"format": "json"}), "c10.json")
    src = os.path.dirname(os.path.dirname(rotoshift.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    script = ("import sys\n"
              "from rotoshift.cli import main\n"
              "for path in sys.argv[1:]:\n"
              "    assert main(['spectrum', '--config', path, '--out', path + '.csv']) == 0\n"
              "print('numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, harmonic, coulomb, shell_10],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"
    assert (tmp_path / "ho.json.csv").exists() and (tmp_path / "coulomb.json.csv").exists()
    rows = json.loads((tmp_path / "c10.json.csv").read_text())["rows"]
    assert len(rows) == sum(n * n for n in range(1, 11))


def test_drive_sweep_hits_exact_cancellation(tmp_path):
    rotor = RotorConfig(Omega=2 * pi * 8e7, R=5e-11, model=Coulomb())
    star = C.electron_mass * rotor.Omega ** 2 * rotor.R / C.elementary_charge
    out = tmp_path / "drive.csv"
    config = {
        "model": "coulomb",
        "rotor": {"omega_rad_s": rotor.Omega, "radius_m": 5e-11},
        "transition": {"upper": [3, 2], "lower": [2, 1]},
        "drive": {"E_V_per_m": 1.0, "orientation": "antiparallel"},
        "sweep": {"axis": "drive", "from": 0.0, "to": 2.0 * star, "points": 3},
        "output": {"path": str(out)},
    }
    assert main(["sweep", "--config", write_config(tmp_path, config)]) == 0
    header, rows = parse_csv(out.read_text())
    dynamics = [cell(header, r, "dynamic_rad_s") for r in rows]
    # the middle grid point lands exactly on e E = m Omega^2 R
    assert dynamics[1] == "0.00000000000e+00"
    assert dynamics[0] != dynamics[1]
    assert float(dynamics[2]) != 0.0


def test_json_output_format(tmp_path, capsys):
    path = write_config(tmp_path, coulomb_drfs_config(output={"format": "json"}))
    assert main(["drfs", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "drfs"
    assert payload["columns"] == REPORT_COLUMNS
    assert len(payload["rows"]) == 1
    assert payload["rows"][0][REPORT_COLUMNS.index("force_ratio")] is None


# ---------------------------------------------------------------------------
# the plain command line is read without argparse; the parser is built once
# ---------------------------------------------------------------------------


def test_only_an_irregular_command_line_builds_the_parser(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = write_config(tmp_path, coulomb_drfs_config())
    out = str(tmp_path / "out.csv")
    monkeypatch.setattr(sys, "argv", ["rotoshift", "drfs", "--config", path])
    # three plain forms (--out first, and from sys.argv), two irregular ones, plain again
    calls = [["drfs", "--config", path], ["drfs", "--out", out, "--config", path], None,
             ["drfs", f"--config={path}"], ["drfs", "--conf", path],
             ["drfs", "--config", path, "--out", out]]
    per_call = []
    for argv in calls:
        before = len(built)
        assert main(argv) == 0
        per_call.append(len(built) - before)
    capsys.readouterr()
    assert per_call[3] > 0 and per_call[:3] + per_call[4:] == [0, 0, 0, 0, 0]


def test_reused_parser_is_stateless(tmp_path, capsys):
    drfs = write_config(tmp_path, coulomb_drfs_config(), name="drfs.json")
    stdout_sweep = sweep_config(None, points=4)
    del stdout_sweep["output"]
    sweep = write_config(tmp_path, stdout_sweep, name="sweep.json")
    spectrum = write_config(tmp_path, {
        "model": "harmonic",
        "rotor": {"omega_rad_s": 5e11, "radius_m": 2e-12, "omega0_rad_s": 1e13},
        "basis_n_max": 3}, name="spectrum.json")
    out = tmp_path / "drfs.csv"
    calls = [["drfs", "--config", drfs, "--out", str(out)], ["drfs", "--config", drfs],
             ["drfs"], ["sweep", "--config", sweep], ["spectrum", "--config", spectrum]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code,) + tuple(capsys.readouterr())

    reused = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 2, 0, 0]
    assert "--config" in reused[2][2]
    # the first call's --out does not carry over: the second writes to stdout
    assert reused[0][1] == "" and ",1," in reused[1][1]
    assert out.read_text() == reused[1][1]


# a config every command but compare-stark accepts, under a plain name and a name with a
# space; the other tokens are values argparse reads in its own ways ("-" and "-1" as
# values, "--" as the end of options) and option spellings only argparse knows
_PLAIN_CONFIGS = ("drfs.json", "my config.json")
_PLAIN_VALUES = ["", "-", "--", "-1", "a=b", "out put.csv", *_PLAIN_CONFIGS, "missing.json"]
_PLAIN_TOKENS = ["--config", "--out", "--conf", "--ou", "-h", "--help", "--config=drfs.json",
                 "--out=o.csv", "extra", "spectrum", "drfs", "doppler", "compare-stark", "sweep",
                 *_PLAIN_VALUES, Path("drfs.json")]
_plain_shaped_argv = st.builds(
    lambda command, pairs, extra: [command, *chain.from_iterable(pairs), *extra],
    st.sampled_from(["spectrum", "drfs", "doppler", "compare-stark", "sweep", "drfs2"]),
    st.lists(st.tuples(st.sampled_from(["--config", "--out", "--conf"]),
                       st.sampled_from([*_PLAIN_VALUES, Path("drfs.json")])), max_size=3),
    st.lists(st.sampled_from(_PLAIN_TOKENS), max_size=1))


@pytest.fixture(scope="module")
def plain_workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("plain") / "cwd"


def _main_outcome(workdir, argv, from_sys_argv):
    # exit code or exception, stdout, stderr and the files written, of one main call run
    # in a fresh working directory that holds only the configs
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    payload = coulomb_drfs_config(
        sweep={"axis": "omega", "from": 1e10, "to": 1e12, "points": 3},
        doppler={"delta_E_J": 1e-19, "v_m_per_s": [100.0, 0.0, 0.0], "k_direction": [1, 0, 0]})
    for name in _PLAIN_CONFIGS:
        (workdir / name).write_text(json.dumps(payload))
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
              mock.patch.object(sys, "argv", ["rotoshift", *argv])):
            try:
                code = main(None if from_sys_argv else argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            except Exception as exc:  # a non-str token: argparse's own TypeError
                code = (type(exc).__name__, str(exc))
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_bytes() for p in workdir.iterdir() if p.name not in _PLAIN_CONFIGS}
    return code, stdout.getvalue(), stderr.getvalue(), files


@settings(max_examples=150, deadline=None)
@given(argv=st.one_of(_plain_shaped_argv, st.lists(st.sampled_from(_PLAIN_TOKENS), max_size=6)),
       from_sys_argv=st.booleans())
@example(argv=["drfs", "--config", "drfs.json"], from_sys_argv=True)
@example(argv=["sweep", "--out", "out put.csv", "--config", "my config.json"], from_sys_argv=False)
@example(argv=["doppler", "--config", "drfs.json", "--out", ""], from_sys_argv=False)
@example(argv=["drfs", "--config", "drfs.json", "--out", "-1"], from_sys_argv=False)
@example(argv=["spectrum", "--out", "--", "--config", "drfs.json"], from_sys_argv=False)
@example(argv=["drfs", "--config", "drfs.json", "--config", "drfs.json"], from_sys_argv=False)
@example(argv=["drfs", "--config=drfs.json"], from_sys_argv=True)
@example(argv=["drfs", "--conf", "drfs.json"], from_sys_argv=False)
@example(argv=["drfs", "-h"], from_sys_argv=False)
@example(argv=["drfs", "--config", Path("drfs.json")], from_sys_argv=False)
def test_plain_command_line_reads_as_argparse_does(plain_workdir, argv, from_sys_argv):
    plain = cli._plain_args(argv)
    if plain is not None:
        assert plain == cli._parser().parse_args(argv)
    direct = _main_outcome(plain_workdir, argv, from_sys_argv)
    with mock.patch.object(cli, "_plain_args", return_value=None):
        assert _main_outcome(plain_workdir, argv, from_sys_argv) == direct


@pytest.mark.parametrize("command,flag", [("drfs", ["--M", "3"]),
                                          ("sweep", ["--M", "auto"]),
                                          ("spectrum", ["--format", "json"])])
def test_command_line_takes_no_scenario_fields(tmp_path, capsys, command, flag):
    # M and the output format are the config's transition.M and output.format
    out = tmp_path / "out.csv"
    config = sweep_config(str(out), points=4)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", write_config(tmp_path, config), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "drfs", "doppler", "compare-stark",
                                     "sweep"])
def test_help_lists_only_the_file_options(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    options = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", capsys.readouterr().out))
    assert options == {"-h", "--help", "--config", "--out"}


def test_installed_entry_point_runs(tmp_path):
    exe = shutil.which("rotoshift")
    if exe is None:
        pytest.skip("console script not on PATH")
    path = write_config(tmp_path, coulomb_drfs_config())
    proc = subprocess.run([exe, "drfs", "--config", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith(",".join(REPORT_COLUMNS[:2]))
