"""README's examples run: the library quick start prints what its comments
say, and the command-line example writes the table it describes."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from rotoshift import PerturbativeRegimeWarning
from rotoshift.cli import REPORT_COLUMNS, main

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def first_block(heading: str, language: str) -> str:
    text = README.read_text()
    section = text[text.index(heading):]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_its_commented_values():
    # each print line's comment states its value to three significant
    # figures; the README also says this rotor warns
    block = first_block("## Library quick start", "python")
    out = io.StringIO()
    with pytest.warns(PerturbativeRegimeWarning), contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    claims = [line.split("#", 1)[1] for line in block.splitlines()
              if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(claims)
    checked = 0
    for claim, line in zip(claims, printed):
        want = [f"{float(v):.2e}" for v in NUMBER.findall(claim)]
        assert [f"{float(v):.2e}" for v in NUMBER.findall(line)] == want
        checked += len(want)
    assert checked >= 2


def test_command_line_example_writes_its_table(tmp_path, monkeypatch):
    # the example's commands, in the README's order, on its scenario; the
    # scenario's output.path is relative, so the run stays in tmp_path
    scenario = json.loads(first_block("## Command line", "json"))
    commands = [shlex.split(line) for line in first_block("## Command line", "sh").splitlines()]
    assert {argv[1] for argv in commands} == {"drfs", "sweep"}
    monkeypatch.chdir(tmp_path)
    Path("scenario.json").write_text(json.dumps(scenario))
    # the sweep's top rate, 1e13 rad/s, is past the 1% rule as in the quick start
    with pytest.warns(PerturbativeRegimeWarning):
        for argv in commands:
            assert argv[0] == "rotoshift"
            assert main(argv[1:]) == 0
    lines = Path("table.csv").read_text().splitlines()
    assert lines[0].split(",") == REPORT_COLUMNS
    assert len(lines) == 1 + 25
    assert all(len(line.split(",")) == len(REPORT_COLUMNS) for line in lines[1:])
