"""End-to-end command-line checks: schemas, exit codes, file handling."""

import json
import os
import shutil
import subprocess
import sys
from math import pi

import numpy as np
import pytest

import rotoshift
from rotoshift import CODATA2018, Coulomb, RotorConfig, Transition, drfs_exact
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
    path = write_config(tmp_path, coulomb_drfs_config())
    assert main(["drfs", "--config", path, "--M", "3"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert cell(header, rows[0], "M") == "3"
    kin = float(cell(header, rows[0], "kinematic_rad_s"))
    assert kin == pytest.approx(1e12 * (3 - 1), rel=1e-12)
    assert main(["drfs", "--config", path, "--M", "auto"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert cell(header, rows[0], "M") == "1"
    assert main(["drfs", "--config", path, "--M", "half"]) == 2


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


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"model": "coulomb",\n  "rotor": }')
    assert main(["drfs", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_config_file(tmp_path, capsys):
    assert main(["drfs", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


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
    assert main(["drfs", "--config", write_config(tmp_path, config)]) == 3
    assert "resonance" in capsys.readouterr().err.lower()


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


def test_spectrum_coulomb_needs_transition(tmp_path, capsys):
    config = {"model": "coulomb",
              "rotor": {"omega_rad_s": 1e11, "radius_m": 1e-10}}
    assert main(["spectrum", "--config", write_config(tmp_path, config)]) == 2
    capsys.readouterr()


def test_spectrum_basis_cap(tmp_path, capsys):
    config = {
        "model": "harmonic",
        "rotor": {"omega_rad_s": 5e11, "radius_m": 0.0, "omega0_rad_s": 1e13},
        "basis_n_max": 21,
    }
    assert main(["spectrum", "--config", write_config(tmp_path, config)]) == 2
    assert "basis_n_max" in capsys.readouterr().err


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


def test_sweep_byte_identical_across_runs_and_threads(tmp_path, monkeypatch):
    blobs = []
    for i, threads in enumerate(("1", "1", "4")):
        out = tmp_path / f"sweep_{i}.csv"
        path = write_config(tmp_path, sweep_config(str(out), points=9),
                            name=f"cfg_{i}.json")
        monkeypatch.setenv("ROTOSHIFT_THREADS", threads)
        assert main(["sweep", "--config", path]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("command,block,key,value", [
    ("drfs", "rotor", "omega_rad_s", float("nan")),
    ("sweep", "sweep", "from", float("inf")),
    ("drfs", "rotor", "radius_m", 10 ** 400),
], ids=["nan", "infinity", "int-beyond-float"])
def test_non_finite_number_rejected_naming_field(tmp_path, capsys, command,
                                                 block, key, value):
    config = sweep_config(str(tmp_path / "out.csv"))
    config[block][key] = value
    # json writes NaN and Infinity literals, which json.load accepts
    assert main([command, "--config", write_config(tmp_path, config)]) == 2
    assert f"{block}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["drfs", "sweep"])
@pytest.mark.parametrize("upper,lower", [([2, 1], [3, 2]), ([3, 1], [3, 2])])
def test_non_emitting_transition_rejected(tmp_path, capsys, command, upper, lower):
    config = sweep_config(str(tmp_path / "out.csv"))
    config["transition"] = {"upper": upper, "lower": lower}
    assert main([command, "--config", write_config(tmp_path, config)]) == 2
    assert "transition" in capsys.readouterr().err


def test_cli_import_leaves_out_scipy():
    src = os.path.dirname(os.path.dirname(rotoshift.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rotoshift.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
    path = write_config(tmp_path, coulomb_drfs_config())
    assert main(["drfs", "--config", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "drfs"
    assert payload["columns"] == REPORT_COLUMNS
    assert len(payload["rows"]) == 1
    assert payload["rows"][0][REPORT_COLUMNS.index("force_ratio")] is None


def test_installed_entry_point_runs(tmp_path):
    exe = shutil.which("rotoshift")
    if exe is None:
        pytest.skip("console script not on PATH")
    path = write_config(tmp_path, coulomb_drfs_config())
    proc = subprocess.run([exe, "drfs", "--config", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith(",".join(REPORT_COLUMNS[:2]))
