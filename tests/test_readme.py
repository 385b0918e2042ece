"""The README's library example runs as written and prints what it claims."""

import math
import pathlib

import numpy as np

from interferlab import phase_unitary

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    source = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(source, "README.md", "exec"), namespace)
    two_path, system = namespace["two_path"], namespace["system"]
    assert abs(two_path(phase_unitary(system, [0.0, math.pi / 2])) - 0.5) < 1e-12
    assert float(np.max(np.abs(namespace["result"].angles - [0.0, math.pi]))) < 1e-12
