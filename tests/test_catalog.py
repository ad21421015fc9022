"""Catalog/mission loading and validation."""

import copy
import math
import os
import re
import subprocess
import sys
from collections.abc import Hashable
from dataclasses import fields, replace
from pathlib import Path

import pytest
import yaml

import boomsuite
from boomsuite import cli
from boomsuite.catalog import (
    Accuracy,
    Catalog,
    FieldOfView,
    MissionConfig,
    Modality,
    Ordinal,
    PixelGrid,
    ScanPattern,
    SensorRecord,
    _ACCURACY,
    _FOV,
    _PIXELS,
    _SCAN,
    _SENSOR,
    bundled_path,
    load_catalog,
    load_mission,
)
from boomsuite.errors import ConfigError, ValidationError
from boomsuite.mounts import load_mounts
from boomsuite.scoring import load_profile
from test_fuzz_cli import SAMPLES

EXPECTED_IDS = (
    "rsbpearl",
    "vlp16",
    "cygbot_mini",
    "iphone12",
    "os1_32",
    "firefly_s",
    "d435i",
    "d455i",
    "zed2",
    "oak_d",
    "xm132",
    "awr1843",
)


def test_bundled_catalog_has_twelve_sensors(catalog):
    assert catalog.ids() == EXPECTED_IDS


def test_bundled_catalog_spot_values(catalog):
    vlp = catalog.get("vlp16")
    assert vlp.modality is Modality.LIDAR
    assert vlp.mass == 830
    assert vlp.price == 4000
    assert vlp.range_max == 100
    assert isinstance(vlp.resolution, ScanPattern)
    assert vlp.resolution.horizontal_res_deg == 0.1
    assert vlp.fov.vertical_deg == 30
    assert vlp.darkness_robust is Ordinal.HIGH
    assert vlp.dust_robust is Ordinal.LOW

    d435 = catalog.get("d435i")
    assert d435.modality is Modality.CAMERA3D
    assert isinstance(d435.resolution, PixelGrid)
    assert d435.resolution.megapixels == pytest.approx(2.0736)
    assert (d435.range_min, d435.range_max) == (0.3, 3)
    assert d435.mass == 260

    # vendor gaps load as absent, never zero
    iphone = catalog.get("iphone12")
    assert iphone.resolution is None
    assert iphone.power is None
    firefly = catalog.get("firefly_s")
    assert firefly.range_max is None and firefly.accuracy is None


def test_notes_keep_the_other_designation_of_a_sensor(catalog):
    assert "Intel D605i" in catalog.get("d455i").notes


def test_mission_values(mission):
    assert mission.boom_length == 10
    assert mission.boom_count == 8
    assert mission.boom_linear_density == 62
    assert mission.gravity == 3.71
    assert mission.gripper_mass == 0.25
    assert mission.gripper_pulloff == 22.5
    assert mission.critical_buckling_moment == 59.8
    assert mission.buckling_margin == 0.25
    assert mission.overall_mass_budget == 30
    assert mission.instrument_mass == 15.1
    assert mission.body_sensor_fraction == 0.20
    assert (mission.tube_depth, mission.tube_width) == (30, 300)


def _write(tmp_path, doc):
    path = tmp_path / "catalog.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def _minimal_sensor(**kwargs):
    base = {"id": "x", "modality": "lidar", "mass": 100, "price": 10}
    base.update(kwargs)
    return base


def test_empty_sensor_list_rejected(tmp_path):
    with pytest.raises(ValidationError) as exc:
        load_catalog(_write(tmp_path, {"sensors": []}))
    assert str(exc.value) == "catalog.sensors: must be non-empty"


def test_an_integer_field_keeps_its_exact_value(tmp_path):
    wide = 2**53 + 1  # the least integer a float cannot hold: through float() it reads as 2**53
    doc = {"sensors": [_minimal_sensor(resolution={"pixels": {"width": wide, "height": 1}})]}
    assert load_catalog(_write(tmp_path, doc)).get("x").resolution.width_px == wide


def test_range_ordering_rejected(tmp_path):
    doc = {"sensors": [_minimal_sensor(range_min=5, range_max=2)]}
    with pytest.raises(ValidationError) as exc:
        load_catalog(_write(tmp_path, doc))
    assert exc.value.subject == "x"
    assert exc.value.field == "range_min"


@pytest.mark.parametrize(
    "mutation, field",
    [
        ({"mass": 0}, "mass"),
        ({"mass": -3}, "mass"),
        ({"price": -1}, "price"),
        ({"fov": {"horizontal_deg": 0}}, "fov.horizontal_deg"),
        ({"fov": {"horizontal_deg": 400}}, "fov.horizontal_deg"),
        ({"modality": "laser"}, "modality"),
        ({"mass": None}, "mass"),
        ({"range_min": -1, "range_max": 5}, "range_min"),
        ({"dust_robust": "sometimes"}, "dust_robust"),
        ({"resolution": {}}, "resolution"),
        (
            {"resolution": {
                "pixels": {"width": 10, "height": 10},
                "scan": {"horizontal_res_deg": 1, "vertical_res_deg": 1},
            }},
            "resolution",
        ),
        ({"accuracy": {}}, "accuracy"),
        ({"accuracy": {"percent": 1, "absolute_mm": 5}}, "accuracy"),
        ({"resolution": {"pixels": 5}}, "resolution.pixels"),
        ({"resolution": {"pixels": {"width": 10.5, "height": 10}}}, "resolution.pixels.width"),
        ({"resolution": {"pixels": {"height": 10}}}, "resolution.pixels.width"),
        (
            {"resolution": {"scan": {"horizontal_res_deg": 0.2}}},
            "resolution.scan.vertical_res_deg",
        ),
        ({"fov": {"vertical_deg": 30}}, "fov.horizontal_deg"),
        ({"fov": {"horizontal_deg": 90, "vertical": 30}}, "fov.vertical"),
        ({"power": None}, "power"),
        ({"dust_robst": "high"}, "dust_robst"),
    ],
)
def test_malformed_sensor_names_field(tmp_path, mutation, field):
    doc = {"sensors": [_minimal_sensor(**mutation)]}
    with pytest.raises(ValidationError) as exc:
        load_catalog(_write(tmp_path, doc))
    assert (exc.value.subject, exc.value.field) == ("x", field)


def _documented_section(heading):
    """The text under ``## heading`` in docs/file_formats.md."""
    text = (Path(__file__).resolve().parent.parent / "docs" / "file_formats.md").read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _documented_fields(heading):
    """The first column of the table under ``## heading`` in docs/file_formats.md."""
    return re.findall(r"^\| `([^`]+)` \|", _documented_section(heading), re.M)


def test_file_formats_doc_lists_every_catalog_and_mission_key():
    sensor_keys = dict.fromkeys(name.split(".")[0] for name in _documented_fields("Sensor catalog"))
    assert list(sensor_keys) == list(_SENSOR.readers)
    assert _documented_fields("Mission configuration") == [f.name for f in fields(MissionConfig)]
    # each ``{...}`` lists its record's keys in reader order, ``?`` marking an optional one
    nested = re.findall(r"^\| `([^`]+)` \|[^|]*\| `\{([^}]*)\}`", _documented_section("Sensor catalog"), re.M)
    tables = {"resolution.pixels": _PIXELS, "resolution.scan": _SCAN, "accuracy": _ACCURACY, "fov": _FOV}
    assert [name for name, _ in nested] == list(tables)
    for name, keys in nested:
        table = tables[name]
        documented = [key if key in table.required else f"{key}?" for key in table.readers]
        assert keys.split(", ") == documented, name


def test_file_formats_doc_lists_every_flag_with_its_commands():
    rows = re.findall(r"^\| (`--.+?) \| (.+?) \|", _documented_section("Command-line flags"), re.M)
    documented = []
    for flags, commands in rows:
        takers = cli._EVERY if commands == "all" else tuple(re.findall(r"`([a-z]+)`", commands))
        documented += [(flag, takers) for flag in re.findall(r"`(--[a-z-]+)", flags)]
    assert documented == [(flag, commands) for flag, commands, _ in cli._FLAGS]


def test_duplicate_ids_rejected(tmp_path):
    doc = {"sensors": [_minimal_sensor(), _minimal_sensor()]}
    with pytest.raises(ValidationError) as exc:
        load_catalog(_write(tmp_path, doc))
    assert "duplicate" in str(exc.value)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_catalog(tmp_path / "nope.yaml")


def test_unparseable_file_is_config_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("sensors: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_catalog(path)


@pytest.mark.parametrize(
    "loader",
    [
        load_catalog,
        load_mission,
        load_profile,
        lambda path: load_mounts(path, load_catalog(bundled_path("paper_catalog.yaml"))),
    ],
    ids=["catalog", "mission", "profile", "mounts"],
)
def test_every_loader_words_file_errors_alike(tmp_path, monkeypatch, loader):
    missing = tmp_path / "nope.yaml"
    bad = tmp_path / "bad.yaml"
    bad.write_text("sensors: [unclosed", encoding="utf-8")
    latin = tmp_path / "latin.yaml"
    latin.write_bytes("sensors: [caf\u00e9]".encode("latin-1"))
    repeated = tmp_path / "repeated.yaml"
    repeated.write_text("sensors: []\nsensors: []\n", encoding="utf-8")
    huge = tmp_path / "huge.yaml"
    huge.write_text("sensors: " + "9" * 5000 + "\n", encoding="utf-8")
    # with libyaml's CSafeLoader (when PyYAML has it), then without it
    for _ in range(2):
        with pytest.raises(ConfigError) as exc:
            loader(missing)
        assert str(exc.value) == f"file not found: {missing}"
        for path, start in (
            (bad, f"cannot parse {bad}: "),
            (latin, f"cannot parse {latin}: "),
            (repeated, f"cannot parse {repeated}: duplicate key 'sensors' (first at line 1)\n"),
            (huge, f"cannot parse {huge}: "),
            (tmp_path, f"cannot read {tmp_path}: "),
        ):
            with pytest.raises(ConfigError) as exc:
                loader(path)
            assert str(exc.value).startswith(start)
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml")
@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in bundled_path("paper_catalog.yaml").parent.iterdir()),
)
def test_bundled_fixtures_parse_alike_under_both_loaders(name):
    text = bundled_path(name).read_text(encoding="utf-8")
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml")
def test_reader_parses_with_libyaml_when_present(monkeypatch):
    loaders = []
    load = yaml.load

    def spy(stream, Loader):
        loaders.append(Loader)
        return load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    load_mission(bundled_path("paper_mission.yaml"))
    assert len(loaders) == 1 and issubclass(loaders[0], yaml.CSafeLoader)


def test_importing_the_package_does_not_load_pyyaml():
    src = Path(boomsuite.__file__).resolve().parent.parent
    code = "import sys, boomsuite, boomsuite.cli; sys.exit('yaml' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize(
    "mutation, field",
    [
        ({"boom_length": -10}, "boom_length"),
        ({"boom_length": 0}, "boom_length"),
        ({"buckling_margin": 1.5}, "buckling_margin"),
        ({"buckling_margin": 0}, "buckling_margin"),
        ({"body_sensor_fraction": 1.0}, "body_sensor_fraction"),
        ({"gravity": None}, "gravity"),
        ({"tube_width": "wide"}, "tube_width"),
        ({"boom_count": 2.7}, "boom_count"),
    ],
)
def test_malformed_mission_names_field(tmp_path, mutation, field):
    doc = yaml.safe_load(bundled_path("paper_mission.yaml").read_text())
    doc.update(mutation)
    path = tmp_path / "mission.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_mission(path)
    assert exc.value.field == field


def test_subset_by_modality(catalog):
    lidars = catalog.subset(modalities=[Modality.LIDAR])
    assert lidars.ids() == ("rsbpearl", "vlp16", "cygbot_mini", "iphone12", "os1_32")
    # None admits every sensor; a list that matches none gives an empty pool, not an error
    assert catalog.subset(modalities=None).ids() == catalog.ids()
    assert catalog.subset(modalities=[Modality.SONAR]).ids() == ()
    assert catalog.subset(modalities=[]).ids() == ()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Accuracy(), "<sensor>.accuracy: exactly one of 'percent' or 'absolute_mm' must be present"),
        (
            lambda: Accuracy(percent=1.0, absolute_mm=5.0),
            "<sensor>.accuracy: exactly one of 'percent' or 'absolute_mm' must be present",
        ),
        (lambda: FieldOfView(horizontal_deg=-5), "<sensor>.fov.horizontal_deg: must be in (0, 360]"),
        (
            lambda: FieldOfView(horizontal_deg=90, vertical_deg=400),
            "<sensor>.fov.vertical_deg: must be in (0, 360]",
        ),
    ],
)
def test_spec_records_built_in_code_check_their_own_rules(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("field", ["darkness_robust", "dust_robust", "implementation_ease"])
@pytest.mark.parametrize("value", [5, 2, "high", True, 2.0], ids=["5", "2", "high", "True", "2.0"])
def test_a_grade_built_in_code_must_be_an_ordinal(catalog, field, value):
    """Checked where the record is built, not when a profile first reads
    it: an int, a bool or a float is not coerced to a grade."""
    vlp16 = catalog.get("vlp16")
    with pytest.raises(ValidationError) as exc:
        replace(vlp16, **{field: value})
    assert str(exc.value) == f"vlp16.{field}: must be an Ordinal or None"
    assert getattr(replace(vlp16, **{field: Ordinal.HIGH}), field) is Ordinal.HIGH
    assert getattr(replace(vlp16, **{field: None}), field) is None


def test_infinite_range_allowed_in_code():
    s = SensorRecord(
        id="omni", name="omni", modality=Modality.LIDAR, mass=1, price=0,
        range_min=0.0, range_max=math.inf,
    )
    assert Catalog((s,)).get("omni").range_max == math.inf


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(*path):
    """Put a value at ``path`` in a parsed fixture."""
    return lambda doc, value: _at(doc, path[:-1]).__setitem__(path[-1], value)


def _rename(*path):
    """Put a value in place of the mapping key at ``path``."""
    def rename(doc, value):
        node = _at(doc, path[:-1])
        node[value] = node.pop(path[-1])
    return rename


def _load_mounts(path):
    return load_mounts(path, load_catalog(bundled_path("paper_catalog.yaml")))


# A misspelled key in each kind of record, and a key like no known one: the
# fixture, its loader, how to put the key there, the key and the error.
UNKNOWN_KEYS = {
    "sensor": ("paper_catalog.yaml", load_catalog, _rename("sensors", 0, "dust_robust"), "dust_robst",
               "rsbpearl.dust_robst: unknown field; did you mean 'dust_robust'?"),
    "mission": ("paper_mission.yaml", load_mission, _rename("gravity"), "gravty",
                "mission.gravty: unknown field; did you mean 'gravity'?"),
    "mission.unlike": ("paper_mission.yaml", load_mission, _set("zzz"), 1, "mission.zzz: unknown field"),
    "profile": ("far_field.profile", load_profile, _rename("criteria"), "critera",
                "far_field.critera: unknown field; did you mean 'criteria'?"),
    "criterion": ("far_field.profile", load_profile, _rename("criteria", 0, "weight"), "wieght",
                  "resolution.wieght: unknown field; did you mean 'weight'?"),
    "bin": ("far_field.profile", load_profile, _rename("criteria", 3, "bin", "low_inclusive"), "low_inclusve",
            "range.bin.low_inclusve: unknown field; did you mean 'low_inclusive'?"),
    "mounts": ("paper_mounts.yaml", _load_mounts, _rename("distal_sensors"), "distal",
               "mounts.distal: unknown field; did you mean 'distal_sensors'?"),
    "body_mount": ("paper_mounts.yaml", _load_mounts, _rename("body_mounts", 0, "tilt_deg"), "tilt",
                   "mounts.body_mounts.tilt: unknown field; did you mean 'tilt_deg'?"),
    "tube": ("paper_mounts.yaml", _load_mounts, _rename("analysis_tube", "width"), "widht",
             "mounts.analysis_tube.widht: unknown field; did you mean 'width'?"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_KEYS))
def test_an_unknown_key_is_named_with_the_known_key_it_resembles(tmp_path, case):
    fixture, loader, put, key, message = UNKNOWN_KEYS[case]
    doc = yaml.safe_load(bundled_path(fixture).read_text(encoding="utf-8"))
    put(doc, key)
    path = tmp_path / fixture
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        loader(path)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "put, sensor_id, message",
    [
        (_set("distal_sensors", 0), "d435ix",
         "mounts.distal_sensors: unknown sensor id 'd435ix'; did you mean 'd435i'?"),
        (_set("body_mounts", 0, "sensor"), "vlp61",
         "mounts.body_mounts.sensor: unknown sensor id 'vlp61'; did you mean 'vlp16'?"),
        (_set("body_axial_sensors", 1), "awr1834",
         "mounts.body_axial_sensors: unknown sensor id 'awr1834'; did you mean 'awr1843'?"),
        (_set("distal_sensors", 0), "zzz", "mounts.distal_sensors: unknown sensor id 'zzz'"),
    ],
    ids=["distal", "body_mount", "body_axial", "unlike"],
)
def test_an_unknown_mount_id_is_named_by_its_key(tmp_path, put, sensor_id, message):
    doc = yaml.safe_load(bundled_path("paper_mounts.yaml").read_text(encoding="utf-8"))
    put(doc, sensor_id)
    path = tmp_path / "mounts.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        _load_mounts(path)
    assert str(exc.value) == message


# Every field read with the typed enum or text reader: the fixture, how to
# put a value there, the ``subject.field:`` its errors start with, the one
# an unknown string's error starts with (None: any string is valid), a
# valid string and where the loaded result holds what was read.
TYPED_FIELDS = {
    "sensor.modality": ("paper_catalog.yaml", load_catalog, _set("sensors", 0, "modality"),
                        "rsbpearl.modality:", "rsbpearl.modality:", "radar",
                        lambda c: [c.get("rsbpearl").modality.value]),
    "profile.stage": ("far_field.profile", load_profile, _set("stage"), "profile.stage:", "profile.stage:",
                      "near_field", lambda p: [p.stage.value]),
    "criterion.name": ("far_field.profile", load_profile, _set("criteria", 0, "name"),
                       "far_field.criteria.name:", "far_field.criteria.name:", "resolution",
                       lambda p: [p.criteria[0].name.value]),
    "criterion.kind": ("far_field.profile", load_profile, _set("criteria", 0, "kind"), "resolution.kind:",
                       "resolution.kind:", "objective", lambda p: [p.criteria[0].kind.value]),
    "bin.quantity": ("far_field.profile", load_profile, _set("criteria", 0, "bin", "quantity"),
                     "resolution.bin.quantity:", "resolution.bin.quantity:", "mass_g",
                     lambda p: [p.criteria[0].bins.quantity]),
    "bin.ordinal_field": ("far_field.profile", load_profile,
                          _set("criteria", 4, "bin", "ordinal_field"),
                          "darkness.bin.ordinal_field:", "darkness.bin.ordinal_field:", "dust_robust",
                          lambda p: [p.criteria[4].bins.ordinal_field]),
    "overrides.sensor": ("far_field.profile", load_profile, _rename("overrides", "rsbpearl"),
                         "far_field.overrides:", None, "sonar_x", lambda p: list(p.overrides)),
    "overrides.criterion": ("far_field.profile", load_profile, _rename("overrides", "rsbpearl", "resolution"),
                            "rsbpearl.overrides:", "rsbpearl.overrides:", "fov",
                            lambda p: [c.value for c in p.overrides["rsbpearl"]]),
    "modalities": ("far_field.profile", load_profile, _set("modalities", 0), "far_field.modalities:",
                   "far_field.modalities:", "radar", lambda p: [m.value for m in p.modalities]),
    "exemplars.modality": ("modality.profile", load_profile, _rename("exemplars", "lidar"),
                           "modality_overview.exemplars:", "modality_overview.exemplars:", "sonar",
                           lambda p: [m.value for m in p.exemplars]),
    "exemplars.sensor": ("modality.profile", load_profile, _set("exemplars", "lidar"),
                         "modality_overview.exemplars:", None, "os1_32",
                         lambda p: list(p.exemplars.values())),
    "body_mounts.sensor": ("paper_mounts.yaml", _load_mounts, _set("body_mounts", 0, "sensor"),
                           "mounts.body_mounts.sensor:", "mounts.body_mounts.sensor:", "os1_32",
                           lambda s: [m.sensor.id for m in s.body_mounts]),
    "body_axial_sensors": ("paper_mounts.yaml", _load_mounts, _set("body_axial_sensors", 0),
                           "mounts.body_axial_sensors:", "mounts.body_axial_sensors:", "xm132",
                           lambda s: [u.id for u in s.body_axial]),
    "distal_sensors": ("paper_mounts.yaml", _load_mounts, _set("distal_sensors", 0), "mounts.distal_sensors:",
                       "mounts.distal_sensors:", "zed2", lambda s: [u.id for u in s.distal]),
}
# Fields that are mapping keys; a list or mapping cannot be a YAML key.
KEY_FIELDS = {"overrides.sensor", "overrides.criterion", "exemplars.modality"}


def _grade(ordinal):
    return None if ordinal is None else ordinal.name.lower()


# One field for each of the number, integer, boolean and grade readers,
# laid out as above.  A draw may be a valid value here, so each one must
# be rejected or read back unchanged.
VALUE_FIELDS = {
    "sensor.mass": ("paper_catalog.yaml", load_catalog, _set("sensors", 0, "mass"), "rsbpearl.mass:",
                    "rsbpearl.mass:", 250, lambda c: [c.get("rsbpearl").mass]),
    "mission.boom_count": ("paper_mission.yaml", load_mission, _set("boom_count"), "mission.boom_count:",
                           "mission.boom_count:", 6, lambda m: [m.boom_count]),
    "body_mounts.spinning": ("paper_mounts.yaml", _load_mounts, _set("body_mounts", 0, "spinning"),
                             "mounts.body_mounts.spinning:", "mounts.body_mounts.spinning:", False,
                             lambda s: [s.body_mounts[0].spinning]),
    "sensor.dust_robust": ("paper_catalog.yaml", load_catalog, _set("sensors", 0, "dust_robust"),
                           "rsbpearl.dust_robust:", "rsbpearl.dust_robust:", "high",
                           lambda c: [_grade(c.get("rsbpearl").dust_robust)]),
}

# The values the CLI fuzz test draws, with one of each kind of its numeric
# draws: a NaN, an infinity, a negative and a positive fraction, a grade's
# integer, a larger integer and one too large for a float.
DRAWS = SAMPLES + [math.nan, -math.inf, -2.5, 2.5, 1, 16, 10**399]
NON_STRINGS = [v for v in DRAWS if not isinstance(v, str)]


def _unchanged(value, read_back):
    """``value`` is among the values read back.  True == 1.0 in Python, so
    a boolean matches only a boolean."""
    return any(v == value and isinstance(v, bool) == isinstance(value, bool) for v in read_back)


@pytest.mark.parametrize("case", sorted(TYPED_FIELDS) + sorted(VALUE_FIELDS))
def test_typed_field_rejects_non_strings_and_reads_strings_back(tmp_path, case):
    fixture, loader, put, prefix, unknown_prefix, valid, read = {**TYPED_FIELDS, **VALUE_FIELDS}[case]
    path = tmp_path / fixture

    def load_with(value):
        doc = yaml.safe_load(bundled_path(fixture).read_text(encoding="utf-8"))
        put(doc, value)
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        return loader(path)

    # a string field reads back no non-string; a value field may read back any draw
    for value in NON_STRINGS if case in TYPED_FIELDS else DRAWS:
        if case in KEY_FIELDS and not isinstance(value, Hashable):
            continue
        try:
            got = read(load_with(copy.deepcopy(value)))
        except ValidationError as exc:
            assert str(exc).startswith(prefix + " "), (value, str(exc))
        else:
            assert case in VALUE_FIELDS and _unchanged(value, got), (value, got)
    assert valid in read(load_with(valid))
    if unknown_prefix is None:
        assert "bogus" in read(load_with("bogus"))
    else:
        with pytest.raises(ValidationError) as exc:
            load_with("bogus")
        assert str(exc.value).startswith(unknown_prefix + " "), str(exc.value)
