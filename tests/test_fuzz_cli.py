"""Exit-code contract under fuzzed input.

Every command, run on mutated copies of the bundled fixtures (keys
dropped, misspelled or repeated, values swapped for other types, NaN,
infinities, negatives, integers too large for a float) and with mutated
flags, returns 0, 1 or 2, and lets no exception other than argparse's
``SystemExit`` escape.  Other draws
perturb only within bounds (numbers nudged, flags inside their bounds),
so that most of them reach the tables; every draw writes its file's keys
in a shuffled order.  A return of 2 comes with an ``error:`` line, and
the code is the same in every ``--format``.  A command that prints its
tables (0 or 1) prints the same cells, table by table, and the same
other lines in ``csv`` and ``md``.  The examples are derandomized, so a
run is repeatable.
"""

import contextlib
import copy
import csv
import io
import itertools
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boomsuite.catalog import bundled_path
from boomsuite.cli import build_parser, main
from boomsuite.reporting import FORMATS

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


def _accepted(parser, command: str, flag: str, texts: list[str]) -> list[str]:
    """The ``texts`` that ``command``'s parser takes as ``flag``'s value."""
    taken = []
    for text in texts:
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                parser.parse_args([command, f"{flag}={text}"])
        except SystemExit:
            continue
        taken.append(text)
    return taken


# The texts each flag's own bounds admit (masses >= 0, lengths > 0,
# counts >= 1), read off the parser, so that a bound and this set cannot drift.
_PARSER = build_parser()
IN_BOUNDS = {
    (command, flag): _accepted(_PARSER, command, flag, texts)
    for command, flags in VALUE_FLAGS.items()
    for flag, texts in flags.items()
}

# What a mutated field may become: other types, non-finite and negative
# numbers, and well-typed values out of place (another sensor id, grade or
# modality).  Containers are copied, since a later mutation may edit them.
SAMPLES = [None, "text", "", True, [], {}, [1, "a"], {"a": 1}, "vlp16", "zed2", "high", "low", "lidar",
           "camera2d", "requirement", 1e-300, 1e308]
# Integers too large for a float, but within Python's 4300-digit limit.
HUGE = st.integers(10**399, 10**400 - 1)
VALUES = st.one_of(
    st.sampled_from(SAMPLES).map(copy.deepcopy),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-100, 100),
    st.integers(-3, 100),
    HUGE,
)
# The suffix that marks a key's repeat until the file text is written:
# ``yaml.safe_dump`` writes a mapping, which cannot hold a key twice.
REPEAT = "__repeat"


def _field(data, doc):
    """A field of ``doc``, as its container and key, at a depth chosen as
    the draw walks down; None for an empty ``doc``."""
    node = doc
    while True:
        keys = sorted(node, key=str) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return None
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.integers(0, 3)):
            node = child
            continue
        return node, key


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(node):
    """Every number in ``node``, as its container and key."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        if _is_number(child):
            yield node, key
        elif isinstance(child, (dict, list)):
            yield from _numbers(child)


def _mutate(data, doc) -> bool:
    """Drop one field of ``doc``, misspell its key, repeat it with another
    value (marked, for ``_argv`` to write), give it another value, or put
    an integer too large for a float in place of one of its numbers.  That
    number is picked among the numbers alone, so how often a huge integer
    reaches one does not depend on how many of the file's fields are
    numbers.  True when it did."""
    change = data.draw(st.sampled_from(["drop", "rename", "repeat", "set", "huge"]))
    if change == "huge":
        numbers = list(_numbers(doc))
        if not numbers:
            return False
        node, key = data.draw(st.sampled_from(numbers))
        node[key] = data.draw(HUGE)
        return True
    field = _field(data, doc)
    if field is None:
        return False
    node, key = field
    if change == "drop":
        del node[key]
    elif change == "rename" and isinstance(node, dict):
        node[f"{key}x"] = node.pop(key)
    elif change == "repeat":
        if not isinstance(node, dict):  # a list entry has no key: repeat a top-level one
            node, key = doc, data.draw(st.sampled_from(sorted(doc, key=str)))
        node[f"{key}{REPEAT}"] = data.draw(VALUES)
    else:
        node[key] = data.draw(VALUES)
    return False


def _nudge(data, doc) -> None:
    """Move one number of ``doc`` by up to 10%, keeping its type; an
    integer below 5 stays as it is, since most are scores, weights or grades."""
    field = _field(data, doc)
    if field is None:
        return
    node, key = field
    value = node[key]
    if isinstance(value, float) or (type(value) is int and value >= 5):
        moved = value * data.draw(st.sampled_from([0.9, 0.95, 1.05, 1.1]))
        node[key] = round(moved) if isinstance(value, int) else moved


def _shuffled(node, rnd):
    """``node`` with the keys of every mapping in it in a random order."""
    if isinstance(node, dict):
        keys = list(node)
        rnd.shuffle(keys)
        return {key: _shuffled(node[key], rnd) for key in keys}
    if isinstance(node, list):
        return [_shuffled(item, rnd) for item in node]
    return node


def _argv(data, workdir: Path) -> tuple[list[str], bool]:
    """A command line, and whether a mutation put an integer too large for
    a float in place of a number of the file it names."""
    command = data.draw(st.sampled_from(sorted(FILE_FLAGS)))
    argv = [command, "--preset", "paper"]
    files = FILE_FLAGS[command]
    fixture = data.draw(st.sampled_from(sorted(files)))
    doc = yaml.safe_load(bundled_path(fixture).read_text(encoding="utf-8"))
    in_bounds = data.draw(st.booleans())
    huge = False
    for _ in range(data.draw(st.integers(1, 3))):
        if in_bounds:
            _nudge(data, doc)
        else:
            huge = _mutate(data, doc) or huge
    path = workdir / fixture
    rnd = data.draw(st.randoms(use_true_random=False))
    text = yaml.safe_dump(_shuffled(doc, rnd), sort_keys=False)
    path.write_text(text.replace(f"{REPEAT}:", ":"), encoding="utf-8")
    argv += [files[fixture], str(path)]
    for flag, texts in VALUE_FLAGS[command].items():
        if data.draw(st.booleans()):
            texts = IN_BOUNDS[command, flag] if in_bounds else texts
            argv.append(f"{flag}={data.draw(st.sampled_from(texts))}")
    if command in ("select", "report") and data.draw(st.booleans()):
        argv.append("--redundancy")
    if command == "select" and data.draw(st.booleans()):
        if in_bounds:
            criterion = data.draw(st.sampled_from(["affordability", "dust", "range"]))
            lo, hi = map(str, sorted(data.draw(st.integers(0, 4)) for _ in range(2)))
        else:
            criterion = data.draw(st.sampled_from(["affordability", "dust", "range", "beauty"]))
            lo, hi = (data.draw(st.sampled_from(["-2", "0", "3", "x", "5000"])) for _ in range(2))
        argv += ["--sweep", criterion, lo, hi]
    return argv, huge


def _run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stderr and stdout of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue(), out.getvalue()


def _md_tables(text: str) -> tuple[list, list[str]]:
    """Each table of a Markdown rendering as (title, rows of cells), and
    the other non-blank lines."""
    tables, other, title, rows = [], [], None, None
    for line in text.splitlines():
        if line.startswith("|"):
            if rows is None:
                rows = []
                tables.append((title, rows))
            cells = [cell.strip() for cell in line[1:-1].split("|")]
            if set(cells) != {"---"}:
                rows.append(cells)
            continue
        rows = None
        if line.startswith("## "):
            title = line[3:]
        elif line:
            other.append(line)
    return tables, other


def _csv_tables(text: str, sizes: list[int]) -> tuple[list, list[str]]:
    """The tables of a CSV rendering, the n-th read as ``sizes[n]`` rows
    after its title, and the other non-blank lines."""
    lines = iter(text.splitlines())
    tables, other = [], []
    for line in lines:
        if line.startswith("# ") and len(tables) < len(sizes):
            rows = csv.reader(itertools.islice(lines, sizes[len(tables)]))
            tables.append((line[2:], [[cell.strip() for cell in row] for row in rows]))
        elif line:
            other.append(line)
    return tables, other


def test_every_command_honours_the_exit_code_contract():
    """Each command also runs in every format: only the layout may
    change with the format, never the exit code.  At least one draw puts
    a huge integer in place of a number and is told it is not finite."""
    huge_errors = []

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def check(data):
        with tempfile.TemporaryDirectory() as tmp:
            argv, huge = _argv(data, Path(tmp))
            results = {fmt: _run([*argv, "--format", fmt]) for fmt in FORMATS}
        codes = {code for code, _, _ in results.values()}
        assert len(codes) == 1, (argv, results)
        code = codes.pop()
        assert code in (0, 1, 2), argv
        if code == 2:
            assert all("error:" in err for _, err, _ in results.values()), argv
            if huge:
                huge_errors.append(results["table"][1])
        else:
            md_tables, md_other = _md_tables(results["md"][2])
            sizes = [len(rows) for _, rows in md_tables]
            assert _csv_tables(results["csv"][2], sizes) == (md_tables, md_other), argv

    check()
    assert any("must be finite" in err for err in huge_errors), huge_errors
