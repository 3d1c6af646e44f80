"""Each fixed CLI scenario writes exactly its recorded output file.

The goldens in tests/cli_output/ are the files `rotoshift <command>
--config <scenario> --out <file>` writes, byte for byte.  The Coulomb
spectra and one harmonic spectrum are JSON, whose floats carry every bit,
so a last-bit eigenvalue move shows.  A change that moves any byte must
update the goldens on purpose: `PYTHONPATH=src python
tests/test_cli_golden.py` rewrites them, and first prints for each file the
columns added or removed and, per column, how many cells moved and the
largest move, in units in the last place and relative.
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


def _table(name, data):
    # (columns, rows) of an output: JSON cells as parsed, CSV cells as text
    if name.endswith(".json"):
        payload = json.loads(data)
        return payload["columns"], payload["rows"]
    lines = data.decode().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _numbers(a, b):
    try:
        return float(a), float(b)
    except (TypeError, ValueError):
        return None


def _ulps(a, b):
    # distance between two cells in units in the last place, counted across
    # zero; 0 unless both are numbers
    def ordered(x):
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)
    pair = _numbers(a, b)
    return abs(ordered(pair[0]) - ordered(pair[1])) if pair else 0


def _relative(a, b):
    # |a - b| over the larger magnitude; 0 unless both are numbers, or both are zero
    pair = _numbers(a, b)
    scale = max(map(abs, pair)) if pair else 0.0
    return abs(pair[0] - pair[1]) / scale if scale else 0.0


def moves(name, old, new):
    """Per column of the new output that the old one also has and in which a
    cell moved, (cells moved, largest move in ulp, largest relative move), in
    the new output's column order; None when the tables differ in row count."""
    (old_columns, old_rows), (new_columns, new_rows) = _table(name, old), _table(name, new)
    if len(old_rows) != len(new_rows):
        return None
    report = {}
    for j, column in enumerate(new_columns):
        if column in old_columns:
            i = old_columns.index(column)
            moved = [(a[i], b[j]) for a, b in zip(old_rows, new_rows) if a[i] != b[j]]
            if moved:
                report[column] = (len(moved), max(_ulps(a, b) for a, b in moved),
                                  max(_relative(a, b) for a, b in moved))
    return report


def test_moves_counts_cells_and_ulps():
    def table(*row, columns=("i", "x", "y")):
        return json.dumps({"columns": list(columns), "rows": [list(row)]}).encode()
    one = table(0, 1.0, -2.5)
    assert moves("a.json", one, one) == {}
    up = -2.5000000000000004
    assert moves("a.json", one, table(0, 1.0, up)) == {"y": (1, 1, (up + 2.5) / up)}
    assert moves("a.json", one, json.dumps({"columns": ["i"], "rows": []}).encode()) is None
    # a mispaired level: about 1e-3 relative, which is about 1e13 ulp
    (count, ulps, relative), = moves("a.json", one, table(0, 1.001, -2.5)).values()
    assert count == 1 and 4e12 < ulps < 5e12 and relative == pytest.approx(1e-3 / 1.001)
    # a column only one side has moves nothing; the others are matched by name
    assert moves("a.json", one, table(-2.5, 0, 7.0, columns=("y", "i", "z"))) == {}
    # across zero: -0.0 and 0.0 are one value, the smallest subnormals two apart
    assert moves("b.csv", b"x,y\n-0.0,5e-324\n", b"x,y\n0.0,-5e-324\n") == {
        "x": (1, 0, 0.0), "y": (1, 2, 2.0)}
    assert moves("b.csv", b"x\n\n", b"x\n1.0\n") == {"x": (1, 0, 0.0)}


def report(name, old, new):
    """One line on what moved from the old output of a scenario to the new one."""
    if old == new:
        return f"{name}: identical"
    moved = moves(name, old, new)
    if moved is None:
        return f"{name}: row count changed"
    (old_columns, _), (new_columns, rows) = _table(name, old), _table(name, new)
    parts = [f"column {c} added" for c in new_columns if c not in old_columns]
    parts += [f"column {c} removed" for c in old_columns if c not in new_columns]
    parts += [f"{c}: {count} of {len(rows)} cells moved, largest move {ulps} ulp, "
              f"{relative:.3g} relative" for c, (count, ulps, relative) in moved.items()]
    return f"{name}: " + "; ".join(parts)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in SCENARIOS:
            path, data = GOLDEN / name, run(name, tmp)
            print(report(name, path.read_bytes(), data) if path.exists() else f"{name}: new")
            path.write_bytes(data)
