"""Each fixed CLI scenario writes exactly its recorded output file.

The goldens in tests/cli_output/ are the files `rotoshift <command>
--config <scenario> --out <file>` writes, byte for byte.  The Coulomb
spectra and one harmonic spectrum are JSON, whose floats carry every bit,
so a last-bit eigenvalue move shows.  A change that moves any byte must
update the goldens on purpose: `PYTHONPATH=src python
tests/test_cli_golden.py` rewrites them.
"""

import json
import tempfile
from pathlib import Path

import pytest

from rotoshift.cli import main

GOLDEN = Path(__file__).resolve().parent / "cli_output"

_COULOMB_SWEEP = {
    "model": "coulomb",
    "rotor": {"omega_rad_s": 1e12, "radius_m": 1e-10},
    "transition": {"upper": [3, 2], "lower": [2, 1]},
    "sweep": {"axis": "omega", "from": 1e9, "to": 1e13, "points": 200, "scale": "log"},
}


def _coulomb_spectrum(radius_m):
    return {"model": "coulomb",
            "rotor": {"omega_rad_s": 1e12, "radius_m": radius_m},
            "transition": {"upper": [10, 0], "lower": [1, 0]},
            "output": {"format": "json"}}


# file name -> (command, config)
SCENARIOS = {
    "spectrum_harmonic_n14.csv": ("spectrum", {
        "model": "harmonic",
        "rotor": {"omega_rad_s": 3e12, "radius_m": 1e-10, "omega0_rad_s": 1e13},
        "basis_n_max": 14}),
    # Omega = 0.3 omega0 and v = 0.05 trap units, in JSON so every digit shows
    "spectrum_harmonic_n12.json": ("spectrum", {
        "model": "harmonic",
        "rotor": {"omega_rad_s": 3e12, "radius_m": 5.67e-10, "omega0_rad_s": 1e13},
        "basis_n_max": 12, "output": {"format": "json"}}),
    "spectrum_coulomb_n10.json": ("spectrum", _coulomb_spectrum(1e-10)),
    "spectrum_coulomb_n10_r0.json": ("spectrum", _coulomb_spectrum(0.0)),
    "sweep_omega_log.csv": ("sweep", _COULOMB_SWEEP),
    "sweep_omega_log_driven.csv": ("sweep", {**_COULOMB_SWEEP,
                                             "drive": {"E_V_per_m": 1000.0}}),
    "compare_stark.csv": ("compare-stark", {
        "model": "coulomb",
        "rotor": {"omega_over_2pi_hz": 8e7, "radius_m": 5e-11},
        "transition": {"upper": [3, 2], "lower": [2, 1]},
        "drive": {"E_V_per_m": 3e4}}),
    "doppler.csv": ("doppler", {
        "doppler": {"delta_E_J": 1e-19, "v_m_per_s": [120.0, -40.0, 300.0],
                    "k_direction": [0.0, 0.6, 0.8]}}),
}


def run(name, directory):
    """Write scenario `name`'s output under `directory`; return its bytes."""
    command, config = SCENARIOS[name]
    path = Path(directory) / "config.json"
    path.write_text(json.dumps(config))
    out = Path(directory) / name
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_cli_writes_its_golden_output(name, tmp_path):
    assert run(name, tmp_path) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in SCENARIOS:
            (GOLDEN / name).write_bytes(run(name, tmp))
