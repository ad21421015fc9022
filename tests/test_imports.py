"""Import footprint: a process loads only the modules its work runs.

Each case runs in a fresh interpreter, since ``sys.modules`` in the test
process already holds every module some other test imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boomsuite

SRC = Path(boomsuite.__file__).resolve().parent.parent


def loaded_after(code: str) -> set[str]:
    """The ``boomsuite.*`` submodules a fresh interpreter holds after ``code``."""
    report = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('boomsuite.'))))"
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def cli_run(*argv: str) -> str:
    """Code that runs one command to exit 0, its output discarded."""
    return (
        "import contextlib, io\n"
        "from boomsuite.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n"
    )


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import boomsuite") == set()


def test_importing_the_cli_loads_no_analysis_module():
    loaded = loaded_after("import boomsuite.cli")
    assert "boomsuite.cli" in loaded
    assert not loaded & {f"boomsuite.{m}" for m in ("budget", "geometry", "mounts", "scoring", "selector")}


@pytest.mark.parametrize(
    "argv, unused",
    [
        pytest.param(
            ("evaluate", "--preset", "paper"), ("selector", "geometry", "budget", "mounts"), id="evaluate"
        ),
        pytest.param(("coverage", "--preset", "paper"), ("scoring", "selector"), id="coverage"),
    ],
)
def test_a_command_loads_only_what_it_runs(argv, unused):
    loaded = loaded_after(cli_run(*argv))
    assert not loaded & {f"boomsuite.{m}" for m in unused}


def test_every_public_name_resolves_to_its_submodule_attribute():
    code = (
        "import importlib, boomsuite\n"
        "listed = set(dir(boomsuite))\n"
        "for name, module in boomsuite._EXPORTS.items():\n"
        "    value = getattr(boomsuite, name)\n"
        "    submodule = importlib.import_module('boomsuite.' + module)\n"
        "    assert value is getattr(submodule, name), name\n"
        "    assert name in getattr(submodule, '__all__', (name,)), (name, module)\n"
        "    assert name in listed, name\n"
        "assert sorted(boomsuite.__all__) == sorted(boomsuite._EXPORTS)\n"
        "from boomsuite import load_catalog, select_best\n"
        "assert load_catalog is boomsuite.catalog.load_catalog\n"
        "assert select_best is boomsuite.selector.select_best\n"
    )
    loaded_after(code)


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        boomsuite.no_such_name


def test_report_labels_every_criterion_in_declaration_order():
    """The renderer keys its column labels by criterion value, so that it
    need not import scoring; the keys must track CriterionName."""
    from boomsuite.reporting import _CRITERION_LABELS
    from boomsuite.scoring import CriterionName

    assert list(_CRITERION_LABELS) == [c.value for c in CriterionName]
