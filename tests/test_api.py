"""The public API, pinned: the parameters of each public function and of
each public class's constructor, by name, kind and default, so that a
setting added or removed shows in a diff of ``tests/golden/api.json``.
Enums and constants take no settings and are left out.  A change that
means to alter the API regenerates the file and says so:

    PYTHONPATH=src python tests/test_api.py
"""

import enum
import inspect
import json
import sys
from pathlib import Path

import boomsuite
from boomsuite import reporting

GOLDEN = Path(__file__).parent / "golden" / "api.json"


def api() -> dict[str, list[str]]:
    """Each public callable of ``boomsuite`` and ``boomsuite.reporting`` by
    dotted name, with its parameters as ``name KIND`` or ``name KIND = default``."""
    public = [(f"boomsuite.{name}", getattr(boomsuite, name)) for name in boomsuite.__all__]
    public += [(f"boomsuite.reporting.{name}", getattr(reporting, name)) for name in reporting.__all__]
    pinned = {}
    for name, value in public:
        if isinstance(value, type):
            if issubclass(value, enum.Enum):
                continue
            # a class's settings are its constructor's, after ``self``
            parameters = list(inspect.signature(value.__init__).parameters.values())[1:]
        elif callable(value):
            parameters = inspect.signature(value).parameters.values()
        else:
            continue
        pinned[name] = [
            f"{p.name} {p.kind.name}" + ("" if p.default is p.empty else f" = {p.default!r}")
            for p in parameters
        ]
    return pinned


def test_public_api_matches_the_golden_file():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = api()
    assert sorted(actual) == sorted(expected), "public names changed"
    for name, parameters in actual.items():
        assert parameters == expected[name], name


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(api(), indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(api())} signatures to {GOLDEN}\n")
