"""The README's Python example runs and gives the values its comments state."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block() -> str:
    [block] = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    return block


def test_library_example():
    names = {}
    exec(compile(_python_block(), str(README), "exec"), names)
    assert abs(names["bound"].pg_bound - 0.559808) <= 1e-6
    assert abs(names["result"].value - names["bound"].pg_bound) <= 1e-9
    assert names["report"].satisfied
    assert math.isclose(names["peak"], 0.3, abs_tol=1e-6)
    assert math.isclose(names["average"], 11 / 30, abs_tol=1e-6)
