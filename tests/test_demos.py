"""Every script in demos/ runs to completion, and so do the README's Python blocks."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p)}
# a print whose comment states its output: "# 5", "# 3/4, exact", "# ~1.8; ..."
STATED = re.compile(r"print\(.*\)\s+#\s*(~?)(-?[\d./]+)")


def test_all_four_demos_are_found():
    assert [d.name for d in DEMOS] == ["analyze_fixtures.py", "ball_geometry.py",
                                       "growth_counterexample.py", "sobolev_minimization.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    # run from an empty directory, so a demo cannot lean on the working directory
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()


def test_readme_python_blocks_print_what_they_state():
    # the blocks build on each other, so they run in order as one script
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) == 3
    script = "".join(blocks)
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    prints = [line for line in script.splitlines() if line.startswith("print(")]
    printed = done.stdout.splitlines()
    assert len(printed) == len(prints)
    for line, out in zip(prints, printed):
        stated = STATED.match(line)
        if stated is None:
            continue
        approx, value = stated.groups()
        if approx:
            # "~1.8" holds for outputs that round to 1.8
            assert round(float(out), len(value.partition(".")[2])) == float(value), (line, out)
        else:
            assert out == value, (line, out)
