"""Scene generation and perturbation: determinism, ground-truth fidelity,
wrap placement, and error growth under increasing corruption."""

import json
import math

import numpy as np
import pytest

from conftest import make_scene_spec
from gaugekit.errors import SchemaError
from gaugekit.fixtures import KeypointClass, ScaleSide, Stage, serialize_fixture
from gaugekit.geometry import TAU, AffineTransform, Ellipse
from gaugekit.pipeline import evaluate_batch, matched_reading, read_gauge
from gaugekit.scale_model import parse_numeric_token
from gaugekit.synthgauge import (
    PerturbationSpec,
    SecondScale,
    generate_scene,
    parse_perturbation_spec,
    parse_scene_spec,
    perturb_scene,
    perturbation_to_jsonable,
    sample_affine,
    sample_scene_spec,
    scene_spec_to_jsonable,
)


def test_mid_scale_needle_reads_mid_value():
    spec = make_scene_spec(needle_value=5.0)  # midpoint of 0..10 over 270 degrees
    fixture, truth = generate_scene(spec)
    report = read_gauge(fixture)
    assert abs(matched_reading(report, truth) - 5.0) / 10.0 < 1e-6
    assert report.unit == truth.unit


def test_five_notches_one_start_one_end():
    fixture, _ = generate_scene(make_scene_spec(n_major_notches=5))
    assert fixture.keypoints.shape == (5, 2)
    kinds = list(fixture.keypoint_classes)
    assert kinds.count(KeypointClass.START) == 1
    assert kinds.count(KeypointClass.END) == 1
    assert kinds.count(KeypointClass.INTERMEDIATE) == 3


def test_second_scale_markers_classified_outer():
    spec = make_scene_spec(second_scale=SecondScale(0.0, 60.0, 1.2))
    fixture, _ = generate_scene(spec)
    report = read_gauge(fixture)
    outer_values = {m.value for m in report.markers_used if m.scale is ScaleSide.OUTER}
    inner_values = {m.value for m in report.markers_used if m.scale is ScaleSide.INNER}
    assert outer_values == {0.0, 7.5, 15.0, 22.5, 30.0, 37.5, 45.0, 52.5, 60.0}
    assert inner_values == {0.0, 1.25, 2.5, 3.75, 5.0, 6.25, 7.5, 8.75, 10.0}


def test_generated_needle_points_count():
    fixture, _ = generate_scene(make_scene_spec(n_needle_points=75))
    assert len(fixture.needle_points) == 75


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_major_notches=4),
        dict(needle_value=11.0),
        dict(direction=0),
        dict(arc_end=make_scene_spec().arc_start + 0.1, direction=1),  # tiny span
        dict(range_min=10.0, range_max=10.0),
        dict(marker_radius_factor=-1.0),
    ],
)
def test_spec_validation(overrides):
    with pytest.raises(ValueError):
        make_scene_spec(**overrides)


def test_scene_outside_crop_raises_spec_error():
    with pytest.raises(SchemaError, match="^spec: scene content leaves the crop frame"):
        generate_scene(make_scene_spec(ellipse=Ellipse(224.0, 224.0, 260.0, 200.0, 0.0)))


def test_non_finite_spec_values_raise_spec_error():
    for name in ("arc_start", "arc_end", "range_min", "range_max", "needle_value",
                 "marker_radius_factor"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                make_scene_spec(**{name: bad})
    for values in ((0.0, math.inf, 1.1), (math.nan, 1.0, 1.1), (0.0, 1.0, math.nan)):
        with pytest.raises(ValueError, match="second_scale"):
            SecondScale(*values)
    # The transform rejects its own non-finite translation before any spec sees it.
    with pytest.raises(ValueError, match="translation"):
        AffineTransform(np.eye(2), [math.inf, 0.0])
    # A finite factor whose markers overflow to inf is a content error too,
    # named by the spec field that placed them.
    frame = "^spec: scene content leaves the crop frame: "
    with pytest.raises(SchemaError, match=frame + "marker_radius_factor places a marker"):
        generate_scene(make_scene_spec(marker_radius_factor=1e308))
    with pytest.raises(SchemaError, match=frame + "second_scale.radius_factor places a marker"):
        generate_scene(make_scene_spec(second_scale=SecondScale(0.0, 1.0, 1e308)))


def test_zero_perturbation_is_byte_identity():
    fixture, truth = generate_scene(make_scene_spec())
    unchanged = perturb_scene(fixture, truth, PerturbationSpec())
    assert serialize_fixture(unchanged) == serialize_fixture(fixture)


def test_perturbation_deterministic_given_seed():
    fixture, truth = generate_scene(make_scene_spec())
    rng = np.random.default_rng(3)
    spec = PerturbationSpec(
        keypoint_noise_sigma=1.5,
        ocr_dropout_rate=0.3,
        n_outlier_ocr=3,
        digit_corruption_rate=0.4,
        affine=sample_affine(rng),
        rotation=1.1,
        seed=99,
    )
    a = perturb_scene(fixture, truth, spec)
    b = perturb_scene(fixture, truth, spec)
    assert serialize_fixture(a) == serialize_fixture(b)
    c = perturb_scene(fixture, truth, PerturbationSpec(keypoint_noise_sigma=1.5, seed=98))
    assert serialize_fixture(c) != serialize_fixture(a)


def test_full_dropout_forces_marker_failure():
    fixture, truth = generate_scene(make_scene_spec())
    dropped = perturb_scene(fixture, truth, PerturbationSpec(ocr_dropout_rate=1.0))
    assert dropped.ocr_texts == () and dropped.ocr_boxes.shape == (0, 4)
    report = read_gauge(dropped)
    assert report.stage_statuses[Stage.OCR].reason == "insufficient_markers"


def test_outlier_injection_adds_numeric_items():
    fixture, truth = generate_scene(make_scene_spec())
    noisy = perturb_scene(fixture, truth, PerturbationSpec(n_outlier_ocr=4, seed=1))
    assert len(noisy.ocr_texts) == len(fixture.ocr_texts) + 4
    for text in noisy.ocr_texts[-4:]:
        value = parse_numeric_token(text)
        assert value is not None and 100 <= value <= 999999


def test_digit_corruption_changes_one_digit():
    fixture, truth = generate_scene(make_scene_spec())
    corrupted = perturb_scene(
        fixture, truth, PerturbationSpec(digit_corruption_rate=1.0, seed=5)
    )
    changed = 0
    for before, after in zip(fixture.ocr_texts, corrupted.ocr_texts):
        if before == after:
            continue
        changed += 1
        assert len(before) == len(after)
        diffs = [k for k, (x, y) in enumerate(zip(before, after)) if x != y]
        assert len(diffs) == 1
        assert before[diffs[0]].isdigit() and after[diffs[0]].isdigit()
    assert changed > 0


def test_viewpoint_change_keeps_content_in_frame():
    fixture, truth = generate_scene(make_scene_spec())
    rng = np.random.default_rng(12)
    for k in range(10):
        spec = PerturbationSpec(
            affine=sample_affine(rng, max_condition=3.0), rotation=rng.uniform(0, TAU), seed=k
        )
        moved = perturb_scene(fixture, truth, spec)  # would raise if out of frame
        assert read_gauge(moved).failure_reason is None


def test_wrap_point_stays_outside_scale_arc():
    rng = np.random.default_rng(31)
    for _ in range(40):
        spec = sample_scene_spec(rng)
        fixture, _ = generate_scene(spec)
        report = read_gauge(fixture)
        assert report.failure_reason is None
        # Relative marker angles must be monotone in scale order: no 2*pi
        # jump crosses the data, so the wrap sits outside the scale.
        for side in (ScaleSide.OUTER, ScaleSide.INNER):
            markers = [m for m in report.markers_used if m.scale is side and m.inlier]
            if len(markers) < 2:
                continue
            rel = [m.angle for m in sorted(markers, key=lambda m: m.value)]
            steps = np.diff(rel)
            assert np.all(steps > 0) or np.all(steps < 0)
        assert 0.0 < report.needle_relative_angle < TAU


def test_relative_marker_angles_monotone_along_arc():
    fixture, _ = generate_scene(make_scene_spec())
    report = read_gauge(fixture)
    inliers = [m for m in report.markers_used if m.inlier]
    ordered = sorted(inliers, key=lambda m: m.value)
    rel = [m.angle for m in ordered]
    assert all(b > a for a, b in zip(rel, rel[1:]))


def test_error_grows_with_keypoint_noise():
    rng = np.random.default_rng(2024)
    specs = [sample_scene_spec(rng, dual_scale_probability=0.0) for _ in range(100)]
    scenes = [generate_scene(s) for s in specs]
    means = []
    for sigma in (0.0, 0.5, 1.0, 2.0):
        fixtures = [
            perturb_scene(fx, gt, PerturbationSpec(keypoint_noise_sigma=sigma, seed=k))
            for k, (fx, gt) in enumerate(scenes)
        ]
        summary = evaluate_batch(fixtures)
        assert summary.full_re_mean is not None
        means.append(summary.full_re_mean)
    assert all(b >= a for a, b in zip(means, means[1:])), means


def test_scene_spec_json_round_trip():
    spec = make_scene_spec(second_scale=SecondScale(-1.0, 5.0, 1.15))
    assert parse_scene_spec(scene_spec_to_jsonable(spec)) == spec


def test_perturbation_spec_json_round_trip():
    rng = np.random.default_rng(9)
    spec = PerturbationSpec(
        keypoint_noise_sigma=1.0,
        ocr_dropout_rate=0.2,
        n_outlier_ocr=2,
        affine=sample_affine(rng),
        rotation=0.7,
        seed=13,
    )
    assert parse_perturbation_spec(perturbation_to_jsonable(spec)) == spec


def test_spec_parsing_errors():
    with pytest.raises(SchemaError, match="^ellipse: missing required field$"):
        parse_scene_spec({"n_major_notches": 9})
    with pytest.raises(SchemaError, match=r"^perturbation: ocr_dropout_rate must lie in \[0, 1\]$"):
        parse_perturbation_spec({"ocr_dropout_rate": 2.0})
    # The readers take decoded JSON objects only, never JSON text.
    good = scene_spec_to_jsonable(make_scene_spec())
    for text in (b"{bad json", b"\xff\xfe{", json.dumps(good), json.dumps(good).encode()):
        with pytest.raises(SchemaError, match="^spec: expected an object, got"):
            parse_scene_spec(text)
    with pytest.raises(SchemaError, match="^perturbation: expected an object, got str$"):
        parse_perturbation_spec('{"seed": 3}')
    # A value the spec type rejects is reported under the document's name.
    with pytest.raises(SchemaError, match="^spec: a scale needs at least 5 major notches$"):
        parse_scene_spec({**good, "n_major_notches": 3})
    # Integer fields take only JSON integers, number fields only JSON numbers.
    for doc, name in [
        ({"seed": 2.7}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": -1}, "seed"),
        ({"n_outlier_ocr": 1.9}, "n_outlier_ocr"),
        ({"keypoint_noise_sigma": "1.5"}, "keypoint_noise_sigma"),
        ({"keypoint_noise_sigma": float("nan")}, "keypoint_noise_sigma"),
        ({"rotation": False}, "rotation"),
    ]:
        with pytest.raises(SchemaError, match=name):
            parse_perturbation_spec(doc)
    with pytest.raises(ValueError, match="seed"):
        PerturbationSpec(seed=-1)
    for count in (1.5, True, -1):
        with pytest.raises(ValueError, match="n_outlier_ocr"):
            PerturbationSpec(n_outlier_ocr=count)
    for change, name in [
        ({"n_major_notches": 7.9}, "n_major_notches"),
        ({"n_major_notches": True}, "n_major_notches"),
        ({"n_needle_points": 60.0}, "n_needle_points"),
        ({"scale_arc": {**good["scale_arc"], "direction": 1.0}}, "scale_arc.direction"),
        ({"needle_value": "5"}, "needle_value"),
        ({"ellipse": {**good["ellipse"], "a": "150"}}, "ellipse.a"),
        ({"crop_size": [447.5, 448]}, "crop_size"),
        ({"crop_size": [448, "448"]}, "crop_size"),
    ]:
        with pytest.raises(SchemaError, match=name):
            parse_scene_spec({**good, **change})
    with pytest.raises(ValueError, match="crop_size"):
        make_scene_spec(crop_size=(0, 448))
    assert parse_scene_spec({**good, "crop_size": [448.0, 448]}).crop_size == (448, 448)
    # A bad nested field is named by its JSON path; the unit must be a string.
    ellipse_without_a = {k: v for k, v in good["ellipse"].items() if k != "a"}
    for change, name in [
        ({"ellipse": ellipse_without_a}, "ellipse.a"),
        ({"ellipse": {**good["ellipse"], "center": [1]}}, "ellipse.center"),
        ({"crop_size": 5}, "crop_size"),
        ({"range": {**good["range"], "unit": None}}, "unit"),
        ({"range": {**good["range"], "unit": 5}}, "unit"),
        ({"range": {**good["range"], "min": 10**400}}, "range_min"),
    ]:
        with pytest.raises(SchemaError, match=name):
            parse_scene_spec({**good, **change})
    with pytest.raises(SchemaError, match="^affine.linear: missing required field$"):
        parse_perturbation_spec({"affine": {}})
    # A number the value types reject is reported under its JSON object,
    # never as an exception repr.
    identity = [[1, 0], [0, 1]]
    for affine in [
        {"linear": [[True, False], [False, True]]},
        {"linear": [["1", "0"], ["0", "1"]]},
        {"linear": [[10**400, 0], [0, 1]]},
        {"linear": [[1, 0], [0]]},
        {"linear": identity, "translation": None},
        {"linear": identity, "translation": ["5", "5"]},
    ]:
        with pytest.raises(SchemaError, match="^affine: ") as err:
            parse_perturbation_spec({"affine": affine})
        assert "Error(" not in str(err.value)
    with pytest.raises(SchemaError, match="^ellipse: ") as err:
        parse_scene_spec({**good, "ellipse": {**good["ellipse"], "a": 10**400}})
    assert "Error(" not in str(err.value)
    range_without_unit = {k: v for k, v in good["range"].items() if k != "unit"}
    assert parse_scene_spec({**good, "range": range_without_unit}).unit == ""
    # The spec types check their own fields, whoever builds them.
    for overrides, name in [
        (dict(n_major_notches=7.9), "n_major_notches"),
        (dict(direction=1.0), "direction"),
        (dict(n_needle_points=2.5), "n_needle_points"),
        (dict(ellipse="x"), "ellipse"),
        (dict(ellipse=(224.0, 224.0, 150.0, 120.0)), "ellipse"),
        (dict(second_scale="x"), "second_scale"),
        (dict(second_scale={"range_min": 0, "range_max": 1, "radius_factor": 1.1}), "second_scale"),
    ]:
        with pytest.raises(ValueError, match=name):
            make_scene_spec(**overrides)
    for kwargs, name in [
        (dict(keypoint_noise_sigma=True), "keypoint_noise_sigma"),
        (dict(rotation="x"), "rotation"),
        (dict(ocr_dropout_rate="0.1"), "ocr_dropout_rate"),
        (dict(affine="x"), "affine"),
        (dict(affine=np.eye(2)), "affine"),
    ]:
        with pytest.raises(ValueError, match=name):
            PerturbationSpec(**kwargs)
    # Numpy ints pass as integers and are stored as Python ints, so the
    # specs still serialize; whole floats and bools of either kind do not.
    spec = make_scene_spec(
        n_major_notches=np.int64(9), direction=np.int64(1), n_needle_points=np.int64(60)
    )
    assert parse_scene_spec(json.loads(json.dumps(scene_spec_to_jsonable(spec)))) == spec
    pert = PerturbationSpec(seed=np.int64(3), n_outlier_ocr=np.int64(1))
    assert json.loads(json.dumps(perturbation_to_jsonable(pert)))["seed"] == 3
    for bad in (9.0, np.float64(9.0), True, np.bool_(True)):
        with pytest.raises(ValueError, match="n_major_notches"):
            make_scene_spec(n_major_notches=bad)
        with pytest.raises(ValueError, match="seed"):
            PerturbationSpec(seed=bad)


def test_sampled_scenes_are_diverse_and_valid():
    rng = np.random.default_rng(555)
    spans, duals, negatives = [], 0, 0
    for _ in range(60):
        spec = sample_scene_spec(rng)
        spans.append(math.degrees(spec.arc_span))
        duals += spec.second_scale is not None
        negatives += spec.range_min < 0
        fixture, truth = generate_scene(spec)
        assert fixture.ground_truth == truth
    assert min(spans) >= 120.0 and max(spans) <= 340.0
    assert duals > 0 and negatives > 0
