"""Property test of the command-line contract over generated configs.

For any config the CLI either exits 0 and writes only finite or empty
cells, or exits 2 with every diagnostic naming a config field, or
exits 3; it never ends in a traceback and never leaves an output file
behind a failure.  Sizes stay small (at most 20 sweep points, basis_n_max
at most 6, shells at most 6); numbers are drawn from zero, tiny, typical
and huge values of either sign.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from rotoshift.cli import main

BLOCKS = ("model", "rotor", "transition", "drive", "sweep", "output", "doppler",
          "basis_n_max")
FIELD_LINE = re.compile(r"error: (%s)([./=][\w./=]*)?: " % "|".join(BLOCKS))


def number(typical):
    # the typical value half the time, so that most draws reach the numerics
    return st.one_of(st.just(typical),
                     st.sampled_from([0.0, 5e-324, 1e-300, -1e-300, 1e-200, -typical,
                                      1e200, 1e300, -1e300]))


def level():
    return st.lists(st.integers(-1, 6), min_size=2, max_size=2)


def vector(typical):
    return st.lists(number(typical), min_size=3, max_size=3)


@st.composite
def configs(draw, command):
    model = draw(st.sampled_from(["coulomb", "harmonic"]))
    rotor = {"radius_m": draw(number(1e-10))}
    rate = "omega_over_2pi_hz" if draw(st.integers(0, 5)) == 0 else "omega_rad_s"
    rotor[rate] = draw(number(1e12))
    if model == "harmonic":
        rotor["omega0_rad_s"] = draw(number(1e13))
    elif draw(st.booleans()):
        rotor["Z"] = draw(st.integers(1, 3))
    config = {"model": model, "rotor": rotor,
              "transition": {"upper": draw(level()), "lower": draw(level())},
              "output": {"format": draw(st.sampled_from(["csv", "json"]))}}
    if draw(st.booleans()):
        # the non-integers and the integer past 2**53 must exit 2 naming transition.M
        config["transition"]["M"] = draw(st.one_of(
            st.integers(-3, 3), st.sampled_from(["x", 2.0, 2 ** 53 + 1])))
    if command == "compare-stark" or draw(st.booleans()):
        config["drive"] = {"E_V_per_m": draw(number(3e4)),
                           "orientation": draw(st.sampled_from(["parallel",
                                                                "antiparallel"]))}
    if command == "sweep":
        config["sweep"] = {"axis": draw(st.sampled_from(["omega", "radius", "drive"])),
                           "from": draw(number(1e11)), "to": draw(number(1e12)),
                           "points": draw(st.integers(2, 20)),
                           "scale": draw(st.sampled_from(["linear", "log"]))}
    if command == "spectrum":
        config["basis_n_max"] = draw(st.integers(0, 6))
    if command == "doppler":
        config = {"doppler": {"delta_E_J": draw(number(1e-19)),
                              "v_m_per_s": draw(vector(300.0))}}
        key = draw(st.sampled_from(["k_per_m", "k_direction"]))
        config["doppler"][key] = draw(vector(2e6))
    return config


def run(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        argv = [command, "--config", str(path), "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
        return code, err.getvalue(), out.read_text() if out.exists() else None


def cells(text, fmt):
    if fmt == "json":
        return [v for row in json.loads(text)["rows"] for v in row]
    return [v for line in text.strip().split("\n")[1:] for v in line.split(",")]


@pytest.mark.parametrize("command", ["spectrum", "drfs", "doppler", "compare-stark",
                                     "sweep"])
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_cli_contract_holds_for_generated_configs(command, data):
    config = data.draw(configs(command))
    code, err, written = run(command, config)
    assert code in (0, 2, 3), err
    if code != 0:
        assert written is None
        lines = err.splitlines()
        assert lines and all(line.startswith("error: ") for line in lines), err
        if code == 2:
            assert all(FIELD_LINE.match(line) for line in lines), err
        return
    fmt = (config.get("output") or {}).get("format", "csv")
    for value in cells(written, fmt):
        assert value in ("", None) or math.isfinite(float(value)), (value, config)
