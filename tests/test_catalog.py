"""Catalog/mission loading and validation."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import boomsuite
from boomsuite.catalog import (
    Catalog,
    Modality,
    Ordinal,
    PixelGrid,
    ScanPattern,
    SensorRecord,
    bundled_path,
    load_catalog,
    load_mission,
)
from boomsuite.errors import ConfigError, ValidationError
from boomsuite.mounts import load_mounts
from boomsuite.scoring import load_profile

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
    assert vlp.resolution.channels == 16
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


def test_aliased_record_carries_both_names(catalog):
    d455 = catalog.get("d455i")
    assert "Intel D605i" in d455.aliases


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
    assert exc.value.field == "sensors"


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
        ({"dimensions": [1]}, "dimensions"),
        ({"resolution": {}}, "resolution"),
        (
            {"resolution": {"pixels": {"width": 10, "height": 10}, "scan": {"channels": 1, "horizontal_res_deg": 1, "vertical_res_deg": 1}}},
            "resolution",
        ),
        ({"accuracy": {}}, "accuracy"),
        ({"resolution": {"pixels": 5}}, "resolution.pixels"),
        ({"resolution": {"pixels": {"width": 10.5, "height": 10}}}, "resolution.pixels.width"),
        ({"aliases": "abc"}, "aliases"),
    ],
)
def test_malformed_sensor_names_field(tmp_path, mutation, field):
    doc = {"sensors": [_minimal_sensor(**mutation)]}
    with pytest.raises(ValidationError) as exc:
        load_catalog(_write(tmp_path, doc))
    assert exc.value.field == field


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
    # with libyaml's CSafeLoader (when PyYAML has it), then without it
    for _ in range(2):
        with pytest.raises(ConfigError) as exc:
            loader(missing)
        assert str(exc.value) == f"file not found: {missing}"
        for path, problem in ((bad, "cannot parse"), (latin, "cannot parse"), (tmp_path, "cannot read")):
            with pytest.raises(ConfigError) as exc:
                loader(path)
            assert str(exc.value).startswith(f"{problem} {path}: ")
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
    assert loaders == [yaml.CSafeLoader]


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
    with pytest.raises(ValidationError):
        catalog.subset(modalities=[Modality.SONAR])


def test_infinite_range_allowed_in_code():
    s = SensorRecord(
        id="omni", name="omni", modality=Modality.LIDAR, mass=1, price=0,
        range_min=0.0, range_max=math.inf,
    )
    assert Catalog((s,)).get("omni").range_max == math.inf
