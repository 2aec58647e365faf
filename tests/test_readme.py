"""README's python examples, shell walkthrough and option names run as written."""

import re
import shlex
from pathlib import Path

from ccdr.cli import _SCHEMAS, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == "0.0\n"


def _ccdr_commands():
    """Every `ccdr ...` line of README's shell blocks, continuations joined."""
    for block in re.findall(r"```\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("ccdr "):
                yield shlex.split(line)[1:]


def test_readme_shell_walkthrough_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CCDR_DATA_DIR", raising=False)
    ran = 0
    for argv in _ccdr_commands():
        if "sat.trn" in argv:
            continue  # the Landsat files are not in the repository
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        ran += 1
    assert ran == 7


def test_readme_names_only_real_options():
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    flags = {f for span in re.findall(r"`([^`]+)`", prose) for f in re.findall(r"--[a-z-]+", span)}
    known = {"--config"} | {
        "--" + name.replace("_", "-") for schema in _SCHEMAS.values() for name in schema
    }
    assert flags and flags <= known, sorted(flags - known)
