"""Golden outputs: every README command in every format, byte for byte.

The expected stdout and exit code of each command on the bundled
fixtures live in ``tests/golden/readme_cli.json``.  A change that means
to alter an output regenerates the file and says so:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import boomsuite
from boomsuite.cli import main

GOLDEN = Path(__file__).parent / "golden" / "readme_cli.json"
README = Path(__file__).resolve().parent.parent / "README.md"
FORMATS = ("table", "csv", "md")


def _readme_blocks(language: str) -> list[str]:
    """The bodies of README's fenced code blocks in ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


# Each ``boomsuite`` line of README's sh blocks, without that word and
# without its ``#`` comment.
README_COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in _readme_blocks("sh")
    for line in block.splitlines()
    if line.startswith("boomsuite ")
]
COMMANDS = [argv + ["--format", fmt] for argv in README_COMMANDS for fmt in FORMATS]


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


def _expected() -> dict[str, dict]:
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {" ".join(e["argv"]): e for e in entries}


def test_golden_file_covers_every_command():
    assert sorted(_expected()) == sorted(" ".join(argv) for argv in COMMANDS)


def test_readme_quick_start_prints_what_it_says():
    (block,) = _readme_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    ranking, tip_budget, fov, suite = out.getvalue().splitlines()
    # vlp16 and os1_32 tie at 26, rsbpearl and iphone12 at 23: each tie keeps catalog order
    assert ranking == (
        "('vlp16', 'os1_32', 'rsbpearl', 'iphone12', 'cygbot_mini') "
        "{'rsbpearl': 23, 'vlp16': 26, 'cygbot_mini': 20, 'iphone12': 23, 'os1_32': 26}"
    )
    assert round(float(tip_budget), 4) == 0.7295
    assert float(fov) == 120.0
    assert suite == "('vlp16',) ('d435i',)"


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_output_is_unchanged(argv):
    expected = _expected()[" ".join(argv)]
    got = run(argv)
    assert got["code"] == expected["code"]
    assert got["stdout"] == expected["stdout"]


@pytest.mark.parametrize(
    "argv", [argv + ["--format", FORMATS[i % 3]] for i, argv in enumerate(README_COMMANDS)], ids=" ".join
)
def test_readme_command_prints_the_same_as_the_program(argv):
    """The program, which runs with the collector off, prints what ``main(argv)`` prints."""
    src = Path(boomsuite.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "boomsuite.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    expected = _expected()[" ".join(argv)]
    assert (result.returncode, result.stdout) == (expected["code"], expected["stdout"])


def test_readme_outputs_are_unchanged_without_libyaml(monkeypatch):
    """PyYAML built without libyaml has no CSafeLoader; the reader falls
    back to the pure-Python SafeLoader and every output stays the same."""
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    loaders = set()
    load = yaml.load

    def spy(stream, Loader):
        loaders.add(Loader)
        return load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    expected = _expected()
    for argv in COMMANDS:
        got = run(argv)
        want = expected[" ".join(argv)]
        assert (got["code"], got["stdout"]) == (want["code"], want["stdout"]), argv
    # one strict loader class, built once for the whole run on the pure-Python loader
    assert len(loaders) == 1 and issubclass(loaders.pop(), yaml.SafeLoader)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps([run(argv) for argv in COMMANDS], indent=1) + "\n", encoding="utf-8"
    )
    sys.stdout.write(f"wrote {len(COMMANDS)} outputs to {GOLDEN}\n")
