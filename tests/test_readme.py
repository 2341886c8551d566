"""The Python examples of README.md run as written, each in a fresh namespace."""

import re
from pathlib import Path

import pytest

_README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCKS = [(_README.read_text()[:m.start()].count("\n") + 1, m.group(1))
           for m in re.finditer(r"^```python\n(.*?)^```$", _README.read_text(), re.M | re.S)]


def test_readme_has_python_examples():
    assert len(_BLOCKS) >= 2


@pytest.mark.parametrize("line, code", _BLOCKS, ids=[f"block{i}" for i in range(len(_BLOCKS))])
def test_readme_example_runs(line, code):
    exec(compile(code, f"README.md:{line}", "exec"), {"__name__": f"readme_line{line}"})
