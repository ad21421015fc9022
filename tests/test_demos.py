"""Every walkthrough in demos/ runs to completion against the library and
prints what it printed before, byte for byte.

The expected stdout of each demo lives in ``tests/golden/demos.json``.  A
change that means to alter a demo's output regenerates the file and says
so:

    PYTHONPATH=src python tests/test_demos.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boomsuite

SRC = Path(boomsuite.__file__).resolve().parent.parent
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos.json"


def run(demo: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demos_are_found():
    assert len(DEMOS) >= 4
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    result = run(demo)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == json.loads(GOLDEN.read_text(encoding="utf-8"))[demo.name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    outputs = {demo.name: run(demo).stdout for demo in DEMOS}
    GOLDEN.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(DEMOS)} outputs to {GOLDEN}\n")
