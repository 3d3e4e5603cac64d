"""The README's library quickstart runs as written."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library quickstart\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    code = re.search(r"^```python\n(.*?)^```", section, re.S | re.M).group(1)
    namespace = {}
    exec(compile(code, f"{README.name} (Library quickstart)", "exec"), namespace)
    report, eff = namespace["report"], namespace["eff"]
    assert report.converged and report.iterations > 1
    assert eff.shape == (3, 3) and np.allclose(eff, eff.T, rtol=1e-8, atol=0)
    assert capsys.readouterr().out.split()[0] == str(report.iterations)
