"""The README's Python quickstart and CLI block run and do what their
comments say."""

import math
import os
import re
import shlex
import subprocess
import sys

from lplab.cli import main

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


def test_readme_cli_block_writes_what_it_names(tmp_path, monkeypatch):
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = re.search(r"## CLI\n\n```sh\n(.*?)```", fh.read(), re.S).group(1)
    commands = []  # (argv, artifact names from the comments below the line)
    for line in block.splitlines():
        config = re.fullmatch(r"# (\S+\.json): (.*)", line)
        if line.startswith("lplab "):
            commands.append((shlex.split(line, comments=True)[1:], []))
        elif config:
            (tmp_path / config[1]).write_text(config[2])
        elif line.startswith("#"):
            commands[-1][1].extend(re.findall(r"\w+(?:\.\w+)+", line))
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    for argv, artifacts in commands:
        assert main(argv) == 0, argv
        out = argv[argv.index("--out") + 1]
        assert artifacts, argv
        for name in artifacts + [out + ".manifest.json"]:
            assert (tmp_path / name).is_file(), (argv, name)
    # every artifact is written through a temporary file that is renamed over it
    assert not list(tmp_path.glob("*.tmp"))
