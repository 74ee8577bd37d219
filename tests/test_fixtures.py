"""Fixture data model: parsing, validation paths, and serialization round-trips."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit.errors import SchemaError
from gaugekit.fixtures import (
    GaugeFixture,
    GaugeReadingReport,
    GroundTruth,
    Keypoint,
    KeypointClass,
    MarkerUse,
    OcrItem,
    Point2,
    Reading,
    Rect,
    ScaleSide,
    Stage,
    StageStatus,
    parse_fixture,
    serialize_fixture,
    serialize_report,
)

MINIMAL = {
    "schema": 1,
    "keypoints": [
        {"x": 100, "y": 100, "class": "start"},
        {"x": 150, "y": 80, "class": "intermediate"},
        {"x": 200, "y": 70, "class": "intermediate"},
        {"x": 250, "y": 80, "class": "intermediate"},
        {"x": 300, "y": 100, "class": "end"},
    ],
    "needle_points": [[200, 200], [210, 190]],
}


def test_parse_minimal_document():
    f = parse_fixture(json.dumps(MINIMAL).encode())
    assert f.crop_size == (448, 448)
    assert len(f.keypoints) == 5
    assert f.ocr_items == ()
    assert f.ground_truth is None
    assert f.keypoints[0] == Keypoint(Point2(100, 100), KeypointClass.START)


def test_parse_defaults_confidence_and_ignores_unknown_fields():
    doc = dict(MINIMAL)
    doc["ocr"] = [{"box": [10, 10, 20, 10], "text": "5"}]
    doc["some_future_field"] = {"a": 1}
    f = parse_fixture(json.dumps(doc))
    assert f.ocr_items[0].confidence == 1.0


def test_parse_rejects_duplicate_start():
    doc = dict(MINIMAL)
    doc["keypoints"] = MINIMAL["keypoints"] + [{"x": 1, "y": 1, "class": "start"}]
    with pytest.raises(SchemaError) as err:
        parse_fixture(json.dumps(doc))
    assert "keypoints" in str(err.value)


def test_parse_rejects_out_of_range_coordinate():
    doc = dict(MINIMAL)
    doc["needle_points"] = [[448, 10], [10, 10]]
    with pytest.raises(SchemaError) as err:
        parse_fixture(json.dumps(doc))
    assert "needle_points[0]" in err.value.path


# One needle fault each, with the error that names it: parse_fixture and
# direct GaugeFixture construction report it alike.
NEEDLE_FAULTS = [
    ("true", [[1, 1], [True, 1]], "needle_points[1]: x and y must be finite"),
    ("string", [["2", 1]], "needle_points[0]: x and y must be finite"),
    ("null", [[1, 1], [1, None]], "needle_points[1]: x and y must be finite"),
    ("nan", [[1, 1], [1, 1], [math.nan, 1]], "needle_points[2]: x and y must be finite"),
    ("infinity", [[1, math.inf]], "needle_points[0]: x and y must be finite"),
    ("beyond-floats", [[1, 1], [10**400, 1]], "needle_points[1]: x and y must be finite"),
    ("three-values", [[1, 1], [1, 2, 3]], "needle_points[1]: expected [x, y]"),
    ("not-a-row", [[1, 1], 5], "needle_points[1]: expected an array, got int"),
    ("not-an-array", {"x": 1}, "needle_points: expected an array, got dict"),
    (
        "outside-crop",
        [[1, 1], [448, 10]],
        "needle_points[1]: coordinate (448.0, 10.0) outside [0, 448) x [0, 448)",
    ),
    (
        "negative",
        [[-0.5, 10]],
        "needle_points[0]: coordinate (-0.5, 10.0) outside [0, 448) x [0, 448)",
    ),
]


@pytest.mark.parametrize(
    "mutate, path_part",
    [
        (lambda d: d.pop("schema"), "schema"),
        (lambda d: d.update(schema=2), "schema"),
        (lambda d: d.update(crop_size=[448]), "crop_size"),
        (lambda d: d.update(crop_size=[448, -1]), "crop_size"),
        (lambda d: d["keypoints"].append({"x": 1, "y": 1, "class": "middle"}), "class"),
        (lambda d: d["keypoints"].append({"y": 1, "class": "intermediate"}), "keypoints[5]"),
        (lambda d: d.update(ocr=[{"box": [1, 1, 0, 5], "text": "x"}]), "box"),
        (lambda d: d.update(ocr=[{"box": [1, 1, 5, 5], "text": "x", "confidence": 1.5}]), "confidence"),
        (lambda d: d.update(ground_truth={"reading": 1, "range_min": 5, "range_max": 5}), "ground_truth"),
        (lambda d: d.update(ground_truth={"reading": 1, "range_min": 0}), "range_max"),
        (lambda d: d.update(needle_points=[[1, float("nan")]]), "needle_points"),
        (lambda d: d["keypoints"][0].update(x=10**400), "keypoints[0]: x"),
        (lambda d: d.update(needle_points=[[1, 10**400]]), "needle_points[0]: x"),
        (lambda d: d.update(crop_size=[10**400, 448]), "crop_size"),
        (lambda d: d.update(ground_truth={"reading": 10**400, "range_min": 0, "range_max": 5}), "ground_truth: reading"),
        (lambda d: d.update(ground_truth={"reading": 1, "range_min": 0, "range_max": float("inf")}), "ground_truth: range_max"),
        (lambda d: d.update(ground_truth={"reading": 1, "range_min": 0, "range_max": 5, "unit": 3}), "ground_truth: unit"),
        (lambda d: d.update(ocr=[{"box": [1, 1, 5, 5], "text": 5}]), "ocr[0]: text"),
        (lambda d: d.update(ocr=[{"box": [1, 1, 5, 5], "text": "x", "confidence": -0.5}]), "ocr[0]: confidence"),
        # The types reject booleans and non-numbers; each error names its item.
        (lambda d: d["keypoints"][0].update(x=True), "keypoints[0]: x and y must be finite"),
        (lambda d: d["keypoints"][1].update(y="3"), "keypoints[1]: x and y must be finite"),
        (lambda d: d.update(needle_points=[[True, 1]]), "needle_points[0]: x and y must be finite"),
        (lambda d: d.update(needle_points=[[1, 1], [1, "2"]]), "needle_points[1]: x and y must be finite"),
        (lambda d: d.update(ocr=[{"box": [1, 1, True, 5], "text": "x"}]), "ocr[0]: box values must be finite"),
        (lambda d: d.update(ocr=[{"box": [1, 1, 5, 5]}, {"box": [1, "1", 5, 5]}]), "ocr[1]: box values must be finite"),
        (lambda d: d.update(ocr=[{"box": [1, 1, 5, 5], "confidence": True}]), "ocr[0]: confidence must lie in [0, 1]"),
        (lambda d: d.update(ocr=[{"box": [1, 1, 5, 5]}, {"box": [1, 1, 5, 5], "confidence": "1"}]), "ocr[1]: confidence must lie in [0, 1]"),
        (lambda d: d.update(ground_truth={"reading": True, "range_min": 0, "range_max": 5}), "ground_truth: reading must be finite"),
        (lambda d: d.update(ground_truth={"reading": 1, "range_min": "0", "range_max": 5}), "ground_truth: range_min must be finite"),
        (lambda d: d.update(crop_size=[True, 448]), "crop_size: width and height must be positive integers"),
        (lambda d: d.update(crop_size=[448, "448"]), "crop_size: width and height"),
        # The version is the JSON integer 1, not a value that equals it.
        (lambda d: d.update(schema=True), "schema: expected schema version 1"),
        (lambda d: d.update(schema=1.0), "schema: expected schema version"),
        (lambda d: d.update(schema="1"), "schema: expected schema"),
        *(
            pytest.param(
                lambda d, rows=rows: d.update(needle_points=rows), message, id=f"needle-{name}"
            )
            for name, rows, message in NEEDLE_FAULTS
        ),
    ],
)
def test_parse_schema_errors_name_the_offending_path(mutate, path_part):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        parse_fixture(json.dumps(doc))
    assert path_part in str(err.value)


def test_parse_malformed_inputs_raise_typed_errors():
    with pytest.raises(SchemaError, match=r"^\$: not valid JSON: "):
        parse_fixture(b"{not json")
    with pytest.raises(SchemaError, match=r"^\$: not valid UTF-8: "):
        parse_fixture(b"\xff\xfe\x00bad")
    with pytest.raises(SchemaError, match=r"^\$: expected an object"):
        parse_fixture(b"[1, 2, 3]")


# ---------------------------------------------------------------------------
# Round-trip property
# ---------------------------------------------------------------------------

_coords = st.floats(min_value=0.0, max_value=447.99, allow_nan=False, width=64)


@st.composite
def fixtures(draw) -> GaugeFixture:
    keypoints = []
    if draw(st.booleans()):
        keypoints.append(Keypoint(Point2(draw(_coords), draw(_coords)), KeypointClass.START))
    if draw(st.booleans()):
        keypoints.append(Keypoint(Point2(draw(_coords), draw(_coords)), KeypointClass.END))
    for _ in range(draw(st.integers(0, 6))):
        keypoints.append(
            Keypoint(Point2(draw(_coords), draw(_coords)), KeypointClass.INTERMEDIATE)
        )
    needle = np.array(
        [[draw(_coords), draw(_coords)] for _ in range(draw(st.integers(0, 5)))]
    ).reshape(-1, 2)
    items = []
    for _ in range(draw(st.integers(0, 3))):
        items.append(
            OcrItem(
                Rect(
                    draw(_coords),
                    draw(_coords),
                    draw(st.floats(0.5, 60.0, allow_nan=False)),
                    draw(st.floats(0.5, 30.0, allow_nan=False)),
                ),
                draw(st.sampled_from(["5", "-0.4", "bar", "°C", "garbage", ""])),
                draw(st.floats(0.0, 1.0, allow_nan=False)),
            )
        )
    truth = None
    if draw(st.booleans()):
        lo = draw(st.floats(-1000, 1000, allow_nan=False))
        span = draw(st.floats(0.001, 500, allow_nan=False))
        truth = GroundTruth(lo, lo, lo + span, draw(st.sampled_from(["bar", "psi", ""])))
    return GaugeFixture(
        crop_size=(448, 448),
        keypoints=tuple(keypoints),
        needle_points=needle,
        ocr_items=tuple(items),
        ground_truth=truth,
    )


@settings(max_examples=150, deadline=None)
@given(fixtures())
def test_serialize_parse_round_trip(fixture):
    assert parse_fixture(serialize_fixture(fixture)) == fixture


@settings(max_examples=50, deadline=None)
@given(fixtures())
def test_serialize_is_deterministic(fixture):
    assert serialize_fixture(fixture) == serialize_fixture(fixture)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _ok_report() -> GaugeReadingReport:
    markers = tuple(
        MarkerUse(ScaleSide.OUTER, 0.5 * k, float(k), True, str(k)) for k in range(3)
    )
    return GaugeReadingReport(
        stage_statuses={
            Stage.NOTCHES: StageStatus(),
            Stage.ELLIPSE: StageStatus(),
            Stage.NEEDLE: StageStatus(),
            Stage.OCR: StageStatus(),
        },
        wrap_angle=1.25,
        markers_used=markers,
        readings=(Reading(ScaleSide.OUTER, 1.23456789123),),
        unit="bar",
    )


def test_report_all_ok_serializes_four_ok_entries():
    doc = json.loads(serialize_report(_ok_report()))
    statuses = doc["stage_statuses"]
    assert len(statuses) == 4
    assert all(entry["status"] == "ok" for entry in statuses.values())
    # reals carry 9 significant digits
    assert doc["readings"][0]["value"] == 1.23456789


def test_report_failed_ellipse_has_empty_readings():
    report = GaugeReadingReport(
        stage_statuses={Stage.ELLIPSE: StageStatus("insufficient_notches")}
    )
    doc = json.loads(serialize_report(report))
    assert doc["readings"] == []
    assert doc["stage_statuses"]["ellipse"] == {
        "status": "failed",
        "reason": "insufficient_notches",
    }
    assert report.failure_reason == "insufficient_notches"


def test_report_serialization_is_byte_identical():
    assert serialize_report(_ok_report()) == serialize_report(_ok_report())


def test_report_rejects_reading_after_fatal_failure():
    with pytest.raises(ValueError):
        GaugeReadingReport(
            stage_statuses={Stage.OCR: StageStatus("insufficient_markers")},
            markers_used=(
                MarkerUse(ScaleSide.OUTER, 0.1, 0.0, True),
                MarkerUse(ScaleSide.OUTER, 0.2, 1.0, True),
            ),
            readings=(Reading(ScaleSide.OUTER, 5.0),),
        )


def test_report_rejects_reading_without_two_inlier_markers():
    with pytest.raises(ValueError):
        GaugeReadingReport(
            stage_statuses={Stage.OCR: StageStatus()},
            markers_used=(MarkerUse(ScaleSide.OUTER, 0.1, 0.0, True),),
            readings=(Reading(ScaleSide.OUTER, 5.0),),
        )


def test_stage_status_rejects_unknown_reason():
    # Unhashable reasons included: they fail the type test, not the lookup.
    for reason in ("cosmic_rays", [], {}):
        with pytest.raises(ValueError, match="unknown failure reason"):
            StageStatus(reason)


def test_stage_status_is_its_reason():
    assert StageStatus().ok
    assert not StageStatus("no_consensus").ok
    # The two-field spellings of older releases raise instead of building.
    with pytest.raises(ValueError):
        StageStatus(True)
    with pytest.raises(TypeError):
        StageStatus(False, "no_consensus")


def test_stage_declaration_is_the_report_order():
    assert [s.value for s in Stage] == ["notches", "ellipse", "needle", "ocr"]
    doc = json.loads(serialize_report(_ok_report()))
    assert list(doc["stage_statuses"]) == ["notches", "ellipse", "needle", "ocr"]
    # A report keeps its statuses in Stage order, whatever order they came in.
    recorded = {stage: StageStatus() for stage in reversed(Stage)}
    assert list(GaugeReadingReport(stage_statuses=recorded).stage_statuses) == list(Stage)


def test_fixture_invariants_reject_bad_direct_construction():
    with pytest.raises(SchemaError):
        GaugeFixture(
            keypoints=(
                Keypoint(Point2(1, 1), KeypointClass.START),
                Keypoint(Point2(2, 2), KeypointClass.START),
            )
        )
    with pytest.raises(SchemaError):
        GaugeFixture(needle_points=[[448.0, 1.0]])
    with pytest.raises(ValueError):
        Point2(math.inf, 0.0)
    with pytest.raises(ValueError):
        Rect(0, 0, -1, 5)
    with pytest.raises(ValueError):
        OcrItem(Rect(0, 0, 1, 1), "x", 1.2)
    with pytest.raises(ValueError):
        GroundTruth(1.0, 5.0, 5.0)
    # Direct construction enforces every rule parse_fixture enforces.
    with pytest.raises(ValueError):
        GroundTruth(math.nan, 0.0, 5.0)
    with pytest.raises(ValueError):
        GroundTruth(1.0, 0.0, math.inf)
    with pytest.raises(ValueError):
        GroundTruth(1.0, 0.0, 5.0, unit=3)
    with pytest.raises(ValueError):
        OcrItem(Rect(0, 0, 1, 1), 5)
    with pytest.raises(ValueError):
        Point2(10**400, 0.0)
    with pytest.raises(ValueError):
        Rect(0, 0, 10**400, 5)
    with pytest.raises(SchemaError):
        GaugeFixture(crop_size=(447.5, 448))
    with pytest.raises(SchemaError):
        GaugeFixture(crop_size=(math.inf, 448))
    with pytest.raises(SchemaError):
        GaugeFixture(crop_size=(10**400, 448))
    # Numbers are ints and floats, Python or numpy; never bools or strings.
    with pytest.raises(ValueError):
        Point2(True, 0)
    with pytest.raises(ValueError):
        Rect(0, 0, "5", 5)
    with pytest.raises(ValueError):
        OcrItem(Rect(0, 0, 1, 1), "x", True)
    with pytest.raises(ValueError):
        GroundTruth("1", 0, 5)
    with pytest.raises(SchemaError):
        GaugeFixture(crop_size=(True, 448))
    # Fields that hold objects take only their own type.
    with pytest.raises(ValueError, match="position"):
        Keypoint((1, 2), KeypointClass.START)
    with pytest.raises(ValueError, match="kind"):
        Keypoint(Point2(1, 2), "start")
    with pytest.raises(ValueError, match="box"):
        OcrItem((0, 0, 1, 1), "5")
    for kwargs, path in [
        (dict(keypoints=(Keypoint(Point2(1, 1), KeypointClass.START), "x")), "keypoints[1]"),
        (dict(needle_points=(Point2(1.0, 2.0),)), "needle_points[0]: expected an array"),
        (dict(ocr_items=({"box": [0, 0, 1, 1], "text": "5"},)), "ocr[0]"),
        (dict(ground_truth="x"), "ground_truth"),
    ]:
        with pytest.raises(SchemaError, match=re.escape(path)):
            GaugeFixture(**kwargs)
    assert Point2(np.int64(3), np.float32(2.5)) == Point2(3.0, 2.5)
    for _, rows, message in NEEDLE_FAULTS:
        with pytest.raises(SchemaError) as err:
            GaugeFixture(needle_points=rows)
        assert str(err.value) == message


def test_fixture_needle_points_are_a_read_only_copy():
    source = np.array([[200.0, 200.0], [210.0, 190.0]])
    fixture = GaugeFixture(needle_points=source)
    assert fixture.needle_points.dtype == np.float64
    assert fixture.needle_points.shape == (2, 2)
    with pytest.raises(ValueError):
        fixture.needle_points[0, 0] = 1.0
    # The caller's array is copied, not frozen or shared.
    assert source.flags.writeable
    source[0, 0] = 5.0
    assert fixture.needle_points[0, 0] == 200.0
    assert GaugeFixture().needle_points.shape == (0, 2)
    assert GaugeFixture(needle_points=[]).needle_points.shape == (0, 2)


def test_fixture_equality_and_hash_compare_needle_values():
    from_list = GaugeFixture(needle_points=[[200, 200], [210.5, 190]])
    as_ints = GaugeFixture(needle_points=np.array([[200, 200], [210, 190]]))
    as_floats = GaugeFixture(needle_points=np.array([[200.0, 200.0], [210.5, 190.0]]))
    assert from_list == as_floats and hash(from_list) == hash(as_floats)
    assert as_ints != as_floats
    assert as_ints.needle_points.dtype == np.float64
    assert GaugeFixture(needle_points=[[0.0, 1]]) == GaugeFixture(needle_points=[[-0.0, 1]])
    assert hash(GaugeFixture(needle_points=[[0.0, 1]])) == hash(
        GaugeFixture(needle_points=[[-0.0, 1]])
    )
    assert GaugeFixture(needle_points=np.float32([[1.5, 2]])) == GaugeFixture(
        needle_points=[(np.float32(1.5), np.int64(2))]
    )
    for rows in (
        np.array([[True, False]]),
        np.array([["1", "2"]]),
        np.array([[1.0, 2.0]], dtype=object),
        np.array([[1 + 0j, 2]]),
    ):
        with pytest.raises(SchemaError, match=r"^needle_points: expected an int or float array"):
            GaugeFixture(needle_points=rows)
    with pytest.raises(SchemaError, match=re.escape("needle_points: expected shape (M, 2)")):
        GaugeFixture(needle_points=np.array([1.0, 2.0]))
