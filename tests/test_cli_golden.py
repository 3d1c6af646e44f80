"""Each fixed CLI scenario writes exactly its recorded output file.

The goldens in tests/cli_output/ are the files `rotoshift <command>
--config <scenario> --out <file>` writes, byte for byte.  The Coulomb
spectra and one harmonic spectrum are JSON, whose floats carry every bit,
so a last-bit eigenvalue move shows.  A change that moves any byte must
update the goldens on purpose: `PYTHONPATH=src python
tests/test_cli_golden.py` rewrites them, and first prints for each file how
many table cells moved and the largest move in units in the last place.
"""

import json
import struct
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


def _cells(name, data):
    # the table cells in row order: JSON rows as parsed, CSV rows as text
    if name.endswith(".json"):
        return [cell for row in json.loads(data)["rows"] for cell in row]
    return [cell for line in data.decode().splitlines()[1:] for cell in line.split(",")]


def _ulps(a, b):
    # distance between two cells in units in the last place, counted across
    # zero; 0 unless both are numbers
    def ordered(x):
        bits = struct.unpack("<q", struct.pack("<d", float(x)))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)
    try:
        return abs(ordered(a) - ordered(b))
    except (TypeError, ValueError):
        return 0


def moves(name, old, new):
    """(cells moved, largest move in ulp) from one output of a scenario to
    another, or None when the tables differ in size."""
    old, new = _cells(name, old), _cells(name, new)
    if len(old) != len(new):
        return None
    moved = [_ulps(a, b) for a, b in zip(old, new) if a != b]
    return len(moved), max(moved, default=0)


def test_moves_counts_cells_and_ulps():
    one = json.dumps({"rows": [[0, 1.0, -2.5]]}).encode()
    up = json.dumps({"rows": [[0, 1.0, -2.5000000000000004]]}).encode()
    assert moves("a.json", one, one) == (0, 0)
    assert moves("a.json", one, up) == (1, 1)
    assert moves("a.json", one, json.dumps({"rows": []}).encode()) is None
    # across zero: -0.0 and 0.0 are one value, the smallest subnormals two apart
    assert moves("b.csv", b"x,y\n-0.0,5e-324\n", b"x,y\n0.0,-5e-324\n") == (2, 2)
    assert moves("b.csv", b"x\n\n", b"x\n1.0\n") == (1, 0)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in SCENARIOS:
            path, data = GOLDEN / name, run(name, tmp)
            if path.exists():
                old = path.read_bytes()
                moved = moves(name, old, data)
                print(f"{name}: " + ("identical" if old == data else
                                     "table size changed" if moved is None else
                                     f"{moved[0]} of {len(_cells(name, data))} cells moved, "
                                     f"largest move {moved[1]} ulp"))
            else:
                print(f"{name}: new")
            path.write_bytes(data)
