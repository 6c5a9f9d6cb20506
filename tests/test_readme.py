"""The README's Python quickstart runs and prints what its comments say."""

import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_quickstart_prints_its_comments():
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
    # each print line ends in a comment that opens with the leading digits
    # of the printed value, e.g. "# 0.564180..."
    expected = re.findall(r"^print\(.*#\s*(-?\d+\.\d+)\.\.\.", block, re.M)
    assert len(expected) == block.count("print(") == 2
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.split()
    assert len(printed) == len(expected)
    for value, digits in zip(printed, expected):
        assert value.startswith(digits), (value, digits)
    # the lattice gradient integral of the heat kernel p_1 is 1/sqrt(pi),
    # to the tolerance of acceptance criterion 1
    assert abs(float(printed[0]) - 1.0 / math.sqrt(math.pi)) < 1e-4
