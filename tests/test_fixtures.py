"""Fixture data model: parsing, validation paths, and serialization round-trips."""

import json
import math
import pickle
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit.errors import SchemaError
from gaugekit.fixtures import (
    GaugeFixture,
    GaugeReadingReport,
    GroundTruth,
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
    assert f.keypoints.shape == (5, 2)
    assert f.ocr_boxes.shape == (0, 4) and f.ocr_texts == ()
    assert f.ground_truth is None
    assert f.keypoints[0].tolist() == [100.0, 100.0]
    assert f.keypoint_classes[0] is KeypointClass.START


def test_parse_defaults_confidence_and_ignores_unknown_fields():
    doc = dict(MINIMAL)
    doc["ocr"] = [{"box": [10, 10, 20, 10], "text": "5"}]
    doc["some_future_field"] = {"a": 1}
    f = parse_fixture(json.dumps(doc))
    assert f.ocr_confidences.tolist() == [1.0]


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


@pytest.mark.parametrize(
    "later, message",
    [
        ({"ocr": [{"box": [10, 10, 20, 10], "text": "5"}, None]}, "ocr[1]: expected an object, got NoneType"),
        ({"ground_truth": {"range_min": 0, "range_max": 1}}, "ground_truth.reading: missing required field"),
    ],
)
def test_parse_names_shape_and_ground_truth_faults_before_value_faults(later, message):
    # The document's shape and its ground truth are read before any value:
    # their faults come ahead of the bool y of an earlier keypoint.
    doc = {**json.loads(json.dumps(MINIMAL)), **later}
    doc["keypoints"][1]["y"] = True
    with pytest.raises(SchemaError) as err:
        parse_fixture(json.dumps(doc))
    assert str(err.value) == message


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
        # A crop size beyond int64 bounds the boxes as floats: a NaN box value
        # is the value fault it is, with no RuntimeWarning on the way.
        pytest.param(
            lambda d: d.update(crop_size=[448, 1e308], ocr=[{"box": [1, 2, 3, float("nan")], "text": "5"}]),
            "ocr[0]: box values must be finite",
            id="nan-box-beside-a-crop-size-beyond-int64",
        ),
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
    classes = []
    if draw(st.booleans()):
        classes.append(KeypointClass.START)
    if draw(st.booleans()):
        classes.append(KeypointClass.END)
    classes += [KeypointClass.INTERMEDIATE] * draw(st.integers(0, 6))
    keypoints = [[draw(_coords), draw(_coords)] for _ in classes]
    needle = np.array(
        [[draw(_coords), draw(_coords)] for _ in range(draw(st.integers(0, 5)))]
    ).reshape(-1, 2)
    boxes, texts, confidences = [], [], []
    for _ in range(draw(st.integers(0, 3))):
        boxes.append(
            [
                draw(_coords),
                draw(_coords),
                draw(st.floats(0.5, 60.0, allow_nan=False)),
                draw(st.floats(0.5, 30.0, allow_nan=False)),
            ]
        )
        texts.append(draw(st.sampled_from(["5", "-0.4", "bar", "°C", "garbage", ""])))
        confidences.append(draw(st.floats(0.0, 1.0, allow_nan=False)))
    truth = None
    if draw(st.booleans()):
        lo = draw(st.floats(-1000, 1000, allow_nan=False))
        span = draw(st.floats(0.001, 500, allow_nan=False))
        truth = GroundTruth(lo, lo, lo + span, draw(st.sampled_from(["bar", "psi", ""])))
    return GaugeFixture(
        crop_size=(448, 448),
        keypoints=keypoints,
        keypoint_classes=tuple(classes),
        needle_points=needle,
        ocr_boxes=boxes,
        ocr_texts=texts,
        ocr_confidences=confidences,
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


def test_report_values_are_slotted_and_still_copy_hash_and_pickle():
    values = (
        StageStatus(),
        StageStatus("no_consensus"),
        Reading(ScaleSide.OUTER, 1.5),
        MarkerUse(ScaleSide.INNER, 0.5, 2.0, True),
    )
    for value in values:
        assert not hasattr(value, "__dict__")
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value) and replace(value) == value
    with pytest.raises(FrozenInstanceError):
        values[0].reason = "no_consensus"
    # replace builds through __post_init__, so it checks the reason too.
    with pytest.raises(ValueError, match="unknown failure reason"):
        replace(values[0], reason="cosmic_rays")


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
            keypoints=[[1, 1], [2, 2]],
            keypoint_classes=(KeypointClass.START, KeypointClass.START),
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
    with pytest.raises(ValueError, match="box"):
        OcrItem((0, 0, 1, 1), "5")
    for kwargs, message in [
        (
            dict(keypoints=[[1, 1], [2, 2]], keypoint_classes=(KeypointClass.START, "end")),
            "keypoint_classes[1]: expected KeypointClass, got str",
        ),
        (
            dict(keypoints=[[1, 1]], keypoint_classes=()),
            "keypoint_classes: expected one per keypoint, 1, got 0",
        ),
        (dict(keypoints=[Point2(1.0, 2.0)], keypoint_classes=(KeypointClass.START,)),
         "keypoints[0]: expected an array, got Point2"),
        (dict(needle_points=(Point2(1.0, 2.0),)), "needle_points[0]: expected an array, got Point2"),
        (dict(ocr_boxes=[[0, 0, 1, 1]], ocr_texts=[5]), "ocr[0]: text must be a string"),
        (dict(ocr_boxes=[[0, 0, 1, 1]]), "ocr_texts: expected one per box, 1, got 0"),
        (dict(ocr_boxes=[[0, 0, 1]], ocr_texts=["5"]), "ocr[0].box: expected [x, y, width, height]"),
        (dict(ocr_boxes=[[0, 0, 1, 0]], ocr_texts=["5"]), "ocr[0]: box width and height must be positive"),
        (
            dict(ocr_boxes=[[0, 0, 1, 1]], ocr_texts=["5"], ocr_confidences=[1.5]),
            "ocr[0]: confidence must lie in [0, 1]",
        ),
        (dict(ocr_boxes=[[448, 0, 1, 1]], ocr_texts=["5"]), "ocr[0].box: coordinate (448.0, 0.0)"),
        (dict(ocr_boxes=np.ones((1, 3)), ocr_texts=["5"]), "ocr_boxes: expected shape (K, 4), got (1, 3)"),
        (dict(ocr_texts="5"), "ocr_texts: expected an array, got str"),
        (dict(ground_truth="x"), "ground_truth: expected GroundTruth, got str"),
        # An empty array is checked for its shape too.
        (dict(needle_points=np.empty((5, 0))), "needle_points: expected shape (M, 2), got (5, 0)"),
        (dict(needle_points=np.empty((0, 3))), "needle_points: expected shape (M, 2), got (0, 3)"),
        (dict(needle_points=np.empty((0,))), "needle_points: expected shape (M, 2), got (0,)"),
        (
            dict(keypoints=np.empty((3, 0)), keypoint_classes=(KeypointClass.INTERMEDIATE,) * 3),
            "keypoints: expected shape (N, 2), got (3, 0)",
        ),
        # numpy scalars inside lists are judged by the same rules.
        (dict(needle_points=[(np.float64("nan"), 1)]), "needle_points[0]: x and y must be finite"),
        (dict(needle_points=[(np.bool_(True), 1)]), "needle_points[0]: x and y must be finite"),
        (
            dict(needle_points=[(1, 1), (np.float32(500), 1)]),
            "needle_points[1]: coordinate (500.0, 1.0) outside [0, 448) x [0, 448)",
        ),
        (
            dict(ocr_boxes=[[0, 0, 1, 1]], ocr_texts=["5"], ocr_confidences=[np.float64(1.5)]),
            "ocr[0]: confidence must lie in [0, 1]",
        ),
        (
            dict(ocr_boxes=[[0, 0, np.float32(0), 1]], ocr_texts=["5"]),
            "ocr[0]: box width and height must be positive",
        ),
    ]:
        with pytest.raises(SchemaError, match=re.escape(message)):
            GaugeFixture(**kwargs)
    assert Point2(np.int64(3), np.float32(2.5)) == Point2(3.0, 2.5)
    for _, rows, message in NEEDLE_FAULTS:
        with pytest.raises(SchemaError) as err:
            GaugeFixture(needle_points=rows)
        assert str(err.value) == message


def test_fixture_needle_points_are_a_read_only_copy():
    # Every array field is a read-only float64 copy: keypoints, needle
    # pixels, OCR boxes and OCR confidences alike.
    sources = dict(
        keypoints=np.array([[100.0, 100.0], [150.0, 80.0]]),
        needle_points=np.array([[200.0, 200.0], [210.0, 190.0]]),
        ocr_boxes=np.array([[10.0, 10.0, 20.0, 10.0], [40.0, 10.0, 20.0, 10.0]]),
        ocr_confidences=np.array([0.5, 1.0]),
    )
    fixture = GaugeFixture(
        keypoint_classes=(KeypointClass.START, KeypointClass.END), ocr_texts=("1", "2"), **sources
    )
    for name, source in sources.items():
        stored = getattr(fixture, name)
        assert stored.dtype == np.float64 and stored.shape == source.shape, name
        with pytest.raises(ValueError):
            stored[0] = 1.0
        # The caller's array is copied, not frozen or shared.
        assert source.flags.writeable
        source[0] = 0.25
        assert stored[0].tolist() != source[0].tolist(), name
    assert GaugeFixture().keypoints.shape == (0, 2)
    assert GaugeFixture().needle_points.shape == (0, 2)
    assert GaugeFixture(needle_points=[]).needle_points.shape == (0, 2)
    assert GaugeFixture().ocr_boxes.shape == (0, 4)
    assert GaugeFixture().ocr_confidences.shape == (0,)
    assert GaugeFixture(ocr_boxes=[[0, 0, 1, 1]], ocr_texts=["5"]).ocr_confidences.tolist() == [1.0]
    # Equal values compare and hash equal, whatever form they came in.
    from_lists = GaugeFixture(
        keypoints=[[100, 100], [150, 80]],
        keypoint_classes=[KeypointClass.START, KeypointClass.END],
        ocr_boxes=[(10, 10, 20, 10)],
        ocr_texts=["1"],
        ocr_confidences=[1],
    )
    from_arrays = GaugeFixture(
        keypoints=np.array([[100.0, 100.0], [150.0, 80.0]]),
        keypoint_classes=(KeypointClass.START, KeypointClass.END),
        ocr_boxes=np.float32([[10, 10, 20, 10]]),
        ocr_texts=("1",),
    )
    assert from_lists == from_arrays and hash(from_lists) == hash(from_arrays)
    assert from_lists != GaugeFixture(
        keypoints=[[100, 100], [150, 80]],
        keypoint_classes=[KeypointClass.START, KeypointClass.INTERMEDIATE],
        ocr_boxes=[(10, 10, 20, 10)],
        ocr_texts=["1"],
    )


@pytest.mark.parametrize(
    "column, rows",
    [
        pytest.param(
            "ocr_boxes", [[0, 1, 2**53 + 1, 2**64 + 3], [2, 3, 2**63 + 1, 4]], id="ints-above-2**53"
        ),
        pytest.param("ocr_boxes", [[-0.0, 0.0, 1, 1], [0, -0.0, 2.5, 3]], id="negative-zero"),
        pytest.param("ocr_boxes", [[0, 0, 5e-324, 1.7976931348623157e308]], id="float-extremes"),
        pytest.param("needle_points", [[1, 2.5], [3.25, 4], [5, 6]], id="mixed-int-float"),
        pytest.param("keypoints", [(1, 2), [3.5, 4.0], (5, 6.25)], id="tuple-rows"),
    ],
)
def test_list_columns_are_bit_equal_to_numpy_arrays_of_their_rows(column, rows):
    # A column of Python numbers converts as np.array would convert it, bit for bit.
    extra = {
        "ocr_boxes": {"ocr_texts": ["5"] * len(rows)},
        "keypoints": {"keypoint_classes": (KeypointClass.INTERMEDIATE,) * len(rows)},
    }.get(column, {})
    stored = getattr(GaugeFixture(**{column: rows}, **extra), column)
    expected = np.array(rows, dtype=np.float64)
    assert stored.shape == expected.shape and stored.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        pytest.param(
            dict(ocr_boxes=[[0, 0, 1, 1], [0, 0, 2, 10**400]], ocr_texts=["5", "6"]),
            "ocr[1]: box values must be finite",
            id="box",
        ),
        pytest.param(
            dict(keypoints=[[1, 1], [-(10**400), 2]], keypoint_classes=(KeypointClass.INTERMEDIATE,) * 2),
            "keypoints[1]: x and y must be finite",
            id="keypoint",
        ),
        pytest.param(
            dict(needle_points=[(1, 1), (2, 2), (3, 10**400)]),
            "needle_points[2]: x and y must be finite",
            id="needle-tuple",
        ),
    ],
)
def test_list_column_int_beyond_the_floats_names_its_row(kwargs, message):
    with pytest.raises(SchemaError) as err:
        GaugeFixture(**kwargs)
    assert str(err.value) == message


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


# ---------------------------------------------------------------------------
# Differential test: the bulk parse against a row-by-row walk
# ---------------------------------------------------------------------------


def _finite_number(v) -> bool:
    if type(v) not in (int, float):
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


def _walk_first_fault(doc) -> str:
    """The first fault of a fixture document, checked entry by entry in the
    order README documents, without numpy: the document's shape first (each
    keypoint entry, then each OCR entry being an object), then each keypoint
    value and each OCR item, keypoint bounds, the needle rows, OCR box bounds
    and duplicate start or end keypoints. The corpus keeps the schema
    version, crop_size and ground truth valid."""
    w, h = 448, 448

    def outside(path, x, y):
        if not (0.0 <= x < w and 0.0 <= y < h):
            return f"{path}: coordinate ({float(x)}, {float(y)}) outside [0, {w}) x [0, {h})"

    for i, e in enumerate(doc["keypoints"]):
        path = f"keypoints[{i}]"
        if not isinstance(e, dict):
            return f"{path}: expected an object, got {type(e).__name__}"
        if "x" not in e or "y" not in e:
            return f"{path}: missing x or y"
        if e.get("class") not in ("start", "intermediate", "end"):
            return f"{path}.class: expected one of start/intermediate/end, got {e.get('class')!r}"
    for i, e in enumerate(doc["ocr"]):
        if not isinstance(e, dict):
            return f"ocr[{i}]: expected an object, got {type(e).__name__}"
    for i, e in enumerate(doc["keypoints"]):
        if not (_finite_number(e["x"]) and _finite_number(e["y"])):
            return f"keypoints[{i}]: x and y must be finite"
    for i, e in enumerate(doc["ocr"]):
        path = f"ocr[{i}]"
        box = e.get("box")
        if not isinstance(box, list):
            return f"{path}.box: expected an array, got {type(box).__name__}"
        if len(box) != 4:
            return f"{path}.box: expected [x, y, width, height]"
        if not all(map(_finite_number, box)):
            return f"{path}: box values must be finite"
        if not (box[2] > 0 and box[3] > 0):
            return f"{path}: box width and height must be positive"
        if not isinstance(e.get("text", ""), str):
            return f"{path}: text must be a string"
        conf = e.get("confidence", 1.0)
        if not (_finite_number(conf) and 0 <= conf <= 1):
            return f"{path}: confidence must lie in [0, 1]"
    for i, e in enumerate(doc["keypoints"]):
        if fault := outside(f"keypoints[{i}]", e["x"], e["y"]):
            return fault
    for i, row in enumerate(doc["needle_points"]):
        if not (len(row) == 2 and all(map(_finite_number, row))):
            return f"needle_points[{i}]: x and y must be finite"
    for i, (x, y) in enumerate(doc["needle_points"]):
        if fault := outside(f"needle_points[{i}]", x, y):
            return fault
    for i, e in enumerate(doc["ocr"]):
        if fault := outside(f"ocr[{i}].box", e["box"][0], e["box"][1]):
            return fault
    for kind in ("start", "end"):
        if sum(e["class"] == kind for e in doc["keypoints"]) > 1:
            return f"keypoints: more than one {kind} keypoint"
    return ""


_BAD_NUMBERS = (math.nan, math.inf, -math.inf, 10**400, True, False, "3", None)


def _inject_fault(doc, rng) -> None:
    """One fault of a random kind at a random position of `doc`."""
    kps, ocr, needle = doc["keypoints"], doc["ocr"], doc["needle_points"]
    pick = lambda seq: int(rng.integers(len(seq)))  # noqa: E731
    bad_number = lambda: _BAD_NUMBERS[int(rng.integers(len(_BAD_NUMBERS)))]  # noqa: E731
    kind = int(rng.integers(11))
    if kind == 0:  # a non-object entry
        seq = kps if rng.random() < 0.5 or not ocr else ocr
        seq[pick(seq)] = [5, "x", [1, 2], None][int(rng.integers(4))]
    elif kind == 1:  # a missing coordinate
        e = kps[pick(kps)]
        if isinstance(e, dict):
            e.pop("x" if rng.random() < 0.5 else "y", None)
    elif kind == 2:  # a bad class
        e = kps[pick(kps)]
        if isinstance(e, dict):
            e["class"] = ["middle", None, 3, "START"][int(rng.integers(4))]
    elif kind in (3, 4):  # a non-finite, bool or string number
        target = int(rng.integers(4))
        if target == 0 and isinstance(e := kps[pick(kps)], dict):
            e["x" if rng.random() < 0.5 else "y"] = bad_number()
        elif target == 1:
            needle[pick(needle)][int(rng.integers(2))] = bad_number()
        elif target == 2 and ocr and isinstance(e := ocr[pick(ocr)], dict):
            if isinstance(e.get("box"), list) and e["box"]:
                e["box"][int(rng.integers(len(e["box"])))] = bad_number()
        elif target == 3 and ocr and isinstance(e := ocr[pick(ocr)], dict):
            e["confidence"] = bad_number()
    elif kind == 5:  # a point outside the frame
        value = [448, -0.5, 1e9][int(rng.integers(3))]
        target = int(rng.integers(3))
        if target == 0 and isinstance(e := kps[pick(kps)], dict):
            e["x" if rng.random() < 0.5 else "y"] = value
        elif target == 1:
            needle[pick(needle)][int(rng.integers(2))] = value
        elif ocr and isinstance(e := ocr[pick(ocr)], dict) and isinstance(e.get("box"), list):
            e["box"][int(rng.integers(2))] = value
    elif kind == 6 and ocr and isinstance(e := ocr[pick(ocr)], dict):  # a short or missing box
        if rng.random() < 0.7 and isinstance(e.get("box"), list):
            e["box"] = e["box"][:3]
        else:
            e.pop("box", None)
    elif kind == 7 and ocr and isinstance(e := ocr[pick(ocr)], dict):  # a box without area
        if isinstance(e.get("box"), list) and len(e["box"]) == 4:
            e["box"][2 + int(rng.integers(2))] = [0, -2.5][int(rng.integers(2))]
    elif kind == 8 and ocr and isinstance(e := ocr[pick(ocr)], dict):  # a bad confidence
        e["confidence"] = [1.5, -0.1, "1", None, True][int(rng.integers(5))]
    elif kind == 9 and ocr and isinstance(e := ocr[pick(ocr)], dict):  # a non-string text
        e["text"] = [5, None, ["a"], 1.5][int(rng.integers(4))]
    elif kind == 10 and isinstance(e := kps[pick(kps)], dict):  # a second start or end
        e["class"] = "start" if rng.random() < 0.5 else "end"


def _random_document(rng):
    n = int(rng.integers(5, 10))
    classes = ["start", "end"] + ["intermediate"] * (n - 2)
    return {
        "schema": 1,
        "keypoints": [
            {"x": float(rng.uniform(0, 447)), "y": int(rng.integers(0, 448)), "class": c}
            for c in classes
        ],
        "needle_points": [
            [float(rng.uniform(0, 447)), float(rng.uniform(0, 447))]
            for _ in range(int(rng.integers(2, 7)))
        ],
        "ocr": [
            {
                "box": [float(rng.uniform(0, 400)), float(rng.uniform(0, 400)), 20, 10.5],
                "text": str(int(rng.integers(100))),
                **({"confidence": float(rng.uniform())} if rng.random() < 0.5 else {}),
            }
            for _ in range(int(rng.integers(0, 6)))
        ],
        "ground_truth": {"reading": 1.0, "range_min": 0, "range_max": 10},
    }


def _direct_columns(doc):
    """GaugeFixture's arguments built in code from a corpus document whose
    keypoint entries are objects with x, y and a known class and whose OCR
    entries are objects; None for any other document."""
    kps, ocr = doc["keypoints"], doc["ocr"]
    if not all(
        isinstance(e, dict) and "x" in e and "y" in e and e.get("class") in ("start", "intermediate", "end")
        for e in kps
    ) or not all(isinstance(e, dict) for e in ocr):
        return None
    return dict(
        keypoints=[[e["x"], e["y"]] for e in kps],
        keypoint_classes=[KeypointClass(e["class"]) for e in kps],
        needle_points=doc["needle_points"],
        ocr_boxes=[e.get("box") for e in ocr],
        ocr_texts=[e.get("text", "") for e in ocr],
        ocr_confidences=[e.get("confidence", 1.0) for e in ocr],
        ground_truth=GroundTruth(**doc["ground_truth"]),
    )


def test_bulk_parse_names_the_same_first_fault_as_a_walk():
    rng = np.random.default_rng(20240611)
    seen, multiple, direct = set(), 0, 0
    for _ in range(3000):
        doc = _random_document(rng)
        faults = 1 + int(rng.random() < 0.5)
        for _ in range(faults):
            _inject_fault(doc, rng)
        expected = _walk_first_fault(doc)
        data = json.dumps(doc)
        columns = _direct_columns(doc)
        if not expected:
            parse_fixture(data)  # the fault kind found no place to go
            if columns is not None:
                GaugeFixture(**columns)
            continue
        with pytest.raises(SchemaError) as err:
            parse_fixture(data)
        assert str(err.value) == expected, data
        # Built in code from the same columns, the fixture names the same fault.
        if columns is not None:
            with pytest.raises(SchemaError) as err:
                GaugeFixture(**columns)
            assert str(err.value) == expected, data
            direct += 1
        seen.add(expected.split(": ", 1)[1].split(" (")[0].split(",")[0])
        multiple += faults > 1
    # The corpus reaches every kind of fault, often two in one document.
    assert len(seen) >= 12, sorted(seen)
    assert multiple > 1000
    assert direct > 1500, direct
