"""Golden outputs: every README command in every format, byte for byte.

The expected stdout and exit code of each command on the bundled
fixtures live in ``tests/golden/readme_cli.json``.  A change that means
to alter an output regenerates the file and says so:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
import yaml

from boomsuite.cli import main

GOLDEN = Path(__file__).parent / "golden" / "readme_cli.json"
FORMATS = ("table", "csv", "md")
README_COMMANDS = [
    ["evaluate", "--preset", "paper", "--profile", "far_field"],
    ["evaluate", "--preset", "paper", "--profile", "modality"],
    ["budget", "--preset", "paper"],
    ["coverage", "--preset", "paper"],
    ["coverage", "--preset", "paper", "--tube-width", "300"],
    ["select", "--preset", "paper"],
    ["select", "--preset", "paper", "--redundancy"],
    ["select", "--preset", "paper", "--sweep", "affordability", "0", "4"],
    ["report", "--preset", "paper"],
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


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_output_is_unchanged(argv):
    expected = _expected()[" ".join(argv)]
    got = run(argv)
    assert got["code"] == expected["code"]
    assert got["stdout"] == expected["stdout"]


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
    assert loaders == {yaml.SafeLoader}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps([run(argv) for argv in COMMANDS], indent=1) + "\n", encoding="utf-8"
    )
    sys.stdout.write(f"wrote {len(COMMANDS)} outputs to {GOLDEN}\n")
