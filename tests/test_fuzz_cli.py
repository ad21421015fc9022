"""Exit-code contract under fuzzed input.

Every command, run on mutated copies of the bundled fixtures (keys
dropped, values swapped for other types, NaN, infinities, negatives) and
with mutated flags, returns 0, 1 or 2, and lets no exception other than
argparse's ``SystemExit`` escape.  A return of 2 comes with an ``error:``
line.  The examples are derandomized, so a run is repeatable.
"""

import contextlib
import copy
import io
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boomsuite.catalog import bundled_path
from boomsuite.cli import main

# The flag that points a command at each fixture, per command.
FILE_FLAGS = {
    "evaluate": {"paper_catalog.yaml": "--catalog", "far_field.profile": "--profile",
                 "near_field.profile": "--profile", "modality.profile": "--profile"},
    "budget": {"paper_catalog.yaml": "--catalog", "paper_mission.yaml": "--mission",
               "paper_mounts.yaml": "--mounts"},
    "coverage": {"paper_catalog.yaml": "--catalog", "paper_mission.yaml": "--mission",
                 "paper_mounts.yaml": "--mounts"},
    "select": {"paper_catalog.yaml": "--catalog", "paper_mission.yaml": "--mission",
               "far_field.profile": "--far-profile", "near_field.profile": "--near-profile"},
    "report": {"paper_catalog.yaml": "--catalog", "paper_mission.yaml": "--mission",
               "paper_mounts.yaml": "--mounts", "far_field.profile": "--far-profile",
               "near_field.profile": "--near-profile"},
}

_NUMBERS = ["0", "1e-9", "0.05", "0.5", "1", "3", "10", "300", "1e308", "nan", "-inf", "-1", "abc"]
_COUNTS = ["1", "2", "3", "12", "0", "-1", "x"]
# Value flags each command takes, with the texts to try.
VALUE_FLAGS = {
    "evaluate": {},
    "budget": {"--body-mass": _NUMBERS, "--distal-mass": _NUMBERS},
    "coverage": {"--tube-depth": _NUMBERS, "--tube-width": _NUMBERS},
    "select": {"--body-budget": _NUMBERS, "--distal-budget": _NUMBERS,
               "--body-max": _COUNTS, "--distal-max": _COUNTS},
}
VALUE_FLAGS["report"] = VALUE_FLAGS["select"]

# What a mutated field may become: other types, non-finite and negative
# numbers, and well-typed values out of place (another sensor id, grade or
# modality).  Containers are copied, since a later mutation may edit them.
SAMPLES = [None, "text", "", True, [], {}, [1, "a"], {"a": 1}, "vlp16", "zed2", "high", "low", "lidar",
           "camera2d", "requirement", 1e-300, 1e308]
VALUES = st.one_of(
    st.sampled_from(SAMPLES).map(copy.deepcopy),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-100, 100),
    st.integers(-3, 100),
)


def _mutate(data, doc) -> None:
    """Drop one field of ``doc``, or give it another value, at a depth
    chosen as the draw walks down."""
    node = doc
    while True:
        keys = sorted(node, key=str) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.integers(0, 3)):
            node = child
            continue
        if data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(VALUES)
        return


def _argv(data, workdir: Path) -> list[str]:
    command = data.draw(st.sampled_from(sorted(FILE_FLAGS)))
    argv = [command, "--preset", "paper"]
    files = FILE_FLAGS[command]
    fixture = data.draw(st.sampled_from(sorted(files)))
    doc = yaml.safe_load(bundled_path(fixture).read_text(encoding="utf-8"))
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(data, doc)
    path = workdir / fixture
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    argv += [files[fixture], str(path)]
    for flag, texts in VALUE_FLAGS[command].items():
        if data.draw(st.booleans()):
            argv.append(f"{flag}={data.draw(st.sampled_from(texts))}")
    if command in ("select", "report") and data.draw(st.booleans()):
        argv.append("--redundancy")
    if command == "select" and data.draw(st.booleans()):
        criterion = data.draw(st.sampled_from(["affordability", "dust", "range", "beauty"]))
        lo, hi = (data.draw(st.sampled_from(["-2", "0", "3", "x", "5000"])) for _ in range(2))
        argv += ["--sweep", criterion, lo, hi]
    argv += ["--format", data.draw(st.sampled_from(["table", "csv", "md"]))]
    return argv


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_every_command_honours_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = _argv(data, Path(tmp))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        assert "error:" in err.getvalue(), argv
