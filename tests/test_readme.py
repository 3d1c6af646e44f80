"""README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from rotoshift import PerturbativeRegimeWarning

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def quick_start_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_its_commented_values():
    # each print line's comment states its value to three significant
    # figures; the README also says this rotor warns
    block = quick_start_block()
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
