"""End-to-end pipeline behaviour: closed-loop accuracy against generated
ground truth, the failure taxonomy, and frame-change invariance."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_scene_spec, random_fixture
from gaugekit import scale_model
from gaugekit.errors import SchemaError
from gaugekit.fixtures import (
    FAILURE_REASONS,
    GaugeFixture,
    KeypointClass,
    ScaleSide,
    Stage,
)
from gaugekit.geometry import Ellipse
from gaugekit.pipeline import (
    PipelineConfig,
    RansacSettings,
    compute_relative_error,
    evaluate_batch,
    matched_reading,
    read_gauge,
)
from gaugekit.scale_model import parse_numeric_token
from gaugekit.synthgauge import (
    PerturbationSpec,
    generate_scene,
    perturb_scene,
    sample_affine,
    sample_scene_spec,
)


def test_closed_loop_reads_ground_truth():
    fixture, truth = generate_scene(make_scene_spec(needle_value=5.0))
    report = read_gauge(fixture)
    assert report.failure_reason is None
    assert report.unit == "bar"
    value = matched_reading(report, truth)
    assert abs(value - 5.0) / 10.0 < 1e-6
    assert all(st.ok for st in report.stage_statuses.values())
    assert len(report.stage_statuses) == 4


def test_too_few_notches_fails_ellipse_stage():
    fixture = GaugeFixture(
        keypoints=[[100, 100], [150, 80], [200, 75], [250, 80]],
        keypoint_classes=(
            KeypointClass.START,
            KeypointClass.INTERMEDIATE,
            KeypointClass.INTERMEDIATE,
            KeypointClass.END,
        ),
        needle_points=np.array([[200.0, 200.0], [210.0, 190.0]]),
    )
    report = read_gauge(fixture)
    assert report.stage_statuses[Stage.ELLIPSE].reason == "insufficient_notches"
    assert report.readings == ()
    assert report.failure_reason == "insufficient_notches"


def test_collinear_notches_fail_as_degenerate_ellipse():
    fixture = GaugeFixture(
        keypoints=[[50 + 30 * i, 100 + 20 * i] for i in range(6)],
        keypoint_classes=(KeypointClass.INTERMEDIATE,) * 6,
        needle_points=np.array([[200.0, 200.0], [210.0, 190.0]]),
    )
    report = read_gauge(fixture)
    assert report.stage_statuses[Stage.ELLIPSE].reason == "degenerate_ellipse"


def test_single_numeric_marker_fails_ocr_stage():
    fixture, _ = generate_scene(make_scene_spec())
    values = [parse_numeric_token(text) for text in fixture.ocr_texts]
    numeric = [i for i, value in enumerate(values) if value is not None]
    kept = [numeric[0], *(i for i, value in enumerate(values) if value is None)]
    stripped = replace(
        fixture,
        ocr_boxes=fixture.ocr_boxes[kept],
        ocr_texts=[fixture.ocr_texts[i] for i in kept],
        ocr_confidences=fixture.ocr_confidences[kept],
    )
    report = read_gauge(stripped)
    assert report.stage_statuses[Stage.OCR].reason == "insufficient_markers"
    assert report.readings == ()
    assert report.unit == "bar"  # unit extraction does not need markers


def test_too_few_needle_points():
    fixture, _ = generate_scene(make_scene_spec())
    one_point = replace(fixture, needle_points=fixture.needle_points[:1])
    report = read_gauge(one_point)
    assert report.stage_statuses[Stage.NEEDLE].reason == "insufficient_needle_points"
    assert Stage.OCR not in report.stage_statuses  # pipeline stopped


def test_coincident_needle_points_map_to_insufficient():
    fixture, _ = generate_scene(make_scene_spec())
    stacked = replace(fixture, needle_points=np.full((8, 2), 200.0))
    report = read_gauge(stacked)
    assert report.stage_statuses[Stage.NEEDLE].reason == "insufficient_needle_points"


def test_isotropic_needle_blob():
    # Circular gauge so the circularization cannot stretch the blob.
    spec = make_scene_spec(ellipse=Ellipse(224.0, 224.0, 120.0, 120.0, 0.0))
    fixture, _ = generate_scene(spec)
    rng = np.random.default_rng(4)
    angles = rng.uniform(0, 2 * math.pi, 200)
    radii = 6.0 * np.sqrt(rng.uniform(0, 1, 200))
    blob = np.column_stack(
        [224 + radii * np.cos(angles), 224 + radii * np.sin(angles)]
    )
    fixture = replace(fixture, needle_points=blob)
    report = read_gauge(fixture)
    assert report.stage_statuses[Stage.NEEDLE].reason == "isotropic_needle"


def test_needle_line_missing_scale_circle():
    fixture, _ = generate_scene(make_scene_spec())
    # A needle segment far in the top-left corner misses the scale entirely.
    i = np.arange(20)
    off_scale = np.column_stack([10.0 + 2 * i, 12.0 + 0.1 * i])
    fixture = replace(fixture, needle_points=off_scale)
    report = read_gauge(fixture)
    assert report.stage_statuses[Stage.NEEDLE].reason == "no_intersection"


def test_markers_at_single_angle_give_no_consensus():
    scene, _ = generate_scene(make_scene_spec())
    center = np.array([224.0, 224.0])
    anchor = scene.keypoints[2]
    # A marker 1e-10 px off the ray is at one angle too: without the
    # SAME_ANGLE_EPS rule its rounding-sized angle step read about 1e12.
    for offset in (0.0, 1e-10):
        boxes = []
        for factor, text in ((0.7, "1"), (0.8, "2"), (0.9, "3")):
            pos = center + factor * (anchor - center)
            if text == "2":
                pos = pos + offset
            boxes.append([pos[0] - 10, pos[1] - 5, 20, 10])
        fixture = replace(scene, ocr_boxes=boxes, ocr_texts=["1", "2", "3"], ocr_confidences=None)
        for ransac in (True, False):
            config = PipelineConfig(ransac=RansacSettings(enabled=ransac))
            report = read_gauge(fixture, config)
            assert report.stage_statuses[Stage.OCR].reason == "no_consensus", (offset, ransac)
            assert report.readings == ()


def test_missing_start_notch_uses_gap_fallback():
    fixture, truth = generate_scene(make_scene_spec())
    demoted = tuple(
        KeypointClass.INTERMEDIATE if kind is KeypointClass.START else kind
        for kind in fixture.keypoint_classes
    )
    fixture = replace(fixture, keypoint_classes=demoted)
    report = read_gauge(fixture)
    assert report.stage_statuses[Stage.NOTCHES].reason == "ambiguous_orientation"
    # fallback still lands the wrap in the notch-free gap, reading intact
    assert report.failure_reason is None
    assert abs(matched_reading(report, truth) - truth.reading) / 10.0 < 1e-6


def test_relative_error_examples():
    assert compute_relative_error(5.1, 5.0, 0.0, 10.0) == pytest.approx(1.0)
    assert compute_relative_error(7.0, 7.0, 0.0, 10.0) == 0.0
    assert compute_relative_error(2.0, 1.0, 0.0, 1.6) == pytest.approx(62.5)
    with pytest.raises(ValueError, match="range_max"):
        compute_relative_error(1.0, 1.0, 5.0, 5.0)


def test_evaluate_batch_clean_scenes():
    rng = np.random.default_rng(0)
    fixtures = []
    for _ in range(10):
        spec = make_scene_spec(needle_value=float(rng.uniform(0.5, 9.5)))
        fixtures.append(generate_scene(spec)[0])
    summary = evaluate_batch(fixtures)
    assert summary.n_fixtures == 10
    assert summary.n_readings == 10
    assert summary.reading_failure_share == 0.0
    assert summary.full_re_mean < 0.1
    assert all(rate == 0.0 for rate in summary.stage_failure_rates.values())


def test_evaluate_batch_half_with_too_few_notches():
    good, _ = generate_scene(make_scene_spec())
    bad = replace(good, keypoints=good.keypoints[:4], keypoint_classes=good.keypoint_classes[:4])
    summary = evaluate_batch([good, bad, good, bad])
    assert summary.stage_failure_rates["ellipse"] == pytest.approx(0.5)
    assert summary.reading_failure_share == pytest.approx(0.5)


def test_evaluate_batch_empty_and_missing_ground_truth():
    summary = evaluate_batch([])
    assert summary.n_fixtures == 0
    assert summary.full_re_mean is None
    assert summary.reading_failure_share == 0.0
    assert list(summary.to_jsonable()) == [
        "n_fixtures",
        "n_readings",
        "reading_failure_share",
        "full_re_mean_percent",
        "stage_failure_rates",
    ]

    fixture, _ = generate_scene(make_scene_spec())
    no_gt = replace(fixture, ground_truth=None)
    with pytest.raises(SchemaError) as err:
        evaluate_batch([fixture, no_gt])
    assert str(err.value) == "fixtures[1].ground_truth: required for evaluation"


def test_reading_invariant_under_affine_and_rotation():
    rng = np.random.default_rng(77)
    fixture, truth = generate_scene(make_scene_spec(needle_value=3.7))
    base = matched_reading(read_gauge(fixture), truth)
    span = truth.range_max - truth.range_min
    for k in range(12):
        pert = PerturbationSpec(
            affine=sample_affine(rng, max_condition=10.0, allow_reflection=True),
            rotation=float(rng.uniform(0, 2 * math.pi)),
            seed=k,
        )
        moved = perturb_scene(fixture, truth, pert)
        value = matched_reading(read_gauge(moved), truth)
        assert value is not None
        assert abs(value - base) / span < 1e-6


def test_monotone_consistency_both_directions():
    for direction in (1, -1):
        overrides = dict(direction=direction)
        if direction == -1:
            overrides.update(arc_start=math.pi / 4, arc_end=3 * math.pi / 4)
        spec_lo = make_scene_spec(needle_value=3.0, **overrides)
        spec_hi = make_scene_spec(needle_value=6.0, **overrides)
        rep_lo = read_gauge(generate_scene(spec_lo)[0])
        rep_hi = read_gauge(generate_scene(spec_hi)[0])
        assert rep_lo.readings and rep_hi.readings
        d_angle = rep_hi.needle_relative_angle - rep_lo.needle_relative_angle
        d_value = rep_hi.readings[0].value - rep_lo.readings[0].value
        assert d_value > 0
        # value grows with relative angle exactly when the scale runs along
        # increasing parametric angle
        assert math.copysign(1.0, d_angle) == direction


def test_totality_on_random_valid_fixtures():
    rng = np.random.default_rng(123)
    cfg = PipelineConfig()
    for _ in range(2000):
        fixture = random_fixture(rng)
        report = read_gauge(fixture, cfg)
        if report.readings:
            assert report.failure_reason is None
        else:
            reason = report.failure_reason
            assert reason in FAILURE_REASONS
            fatal = [
                s
                for s in (Stage.ELLIPSE, Stage.NEEDLE, Stage.OCR)
                if s in report.stage_statuses and not report.stage_statuses[s].ok
            ]
            assert len(fatal) == 1


def test_reading_exactly_when_ocr_stage_ok():
    # The fact that lets the summary keep a single mean: every reading comes
    # with an ok OCR stage, and every ok OCR stage with a reading.
    rng = np.random.default_rng(321)
    fixtures = [random_fixture(rng) for _ in range(2000)]
    for k in range(200):
        fixture, truth = generate_scene(sample_scene_spec(rng))
        pert = PerturbationSpec(
            keypoint_noise_sigma=float(rng.choice([0.0, 2.0, 4.0])),
            ocr_dropout_rate=float(rng.choice([0.0, 0.3, 0.6])),
            n_outlier_ocr=int(rng.integers(0, 4)),
            digit_corruption_rate=float(rng.choice([0.0, 0.2])),
            seed=k,
        )
        fixtures.append(perturb_scene(fixture, truth, pert))
    for fixture in fixtures:
        report = read_gauge(fixture)
        ocr = report.stage_statuses.get(Stage.OCR)
        assert bool(report.readings) == (ocr is not None and ocr.ok)


def test_config_round_trip_and_defaults(tmp_path):
    # Old configs carry the since-removed ransac iterations/seed and meanshift
    # keys; they still load and the known values are read.
    cfg = PipelineConfig.from_json(
        {
            "ransac": {"iterations": 50, "threshold_fraction": 0.05, "seed": 9},
            "meanshift": {"bandwidth_fraction": 0.1},
            "failure_error_threshold_percent": 5.0,
        }
    )
    assert cfg.ransac.threshold_fraction == 0.05
    assert cfg.ransac.enabled is True
    assert cfg.failure_error_threshold_percent == 5.0

    path = tmp_path / "cfg.json"
    path.write_text('{"ransac": {"enabled": false}}', encoding="utf-8")
    assert PipelineConfig.from_file(path).ransac.enabled is False
    assert PipelineConfig().failure_error_threshold_percent == 10.0


@pytest.mark.parametrize(
    "doc, path_part",
    [
        ([1], "config"),
        ({"ransac": [1]}, "ransac"),
        ({"ransac": {"enabled": "false"}}, "ransac: enabled"),
        ({"ransac": {"threshold_fraction": 0}}, "ransac: threshold_fraction"),
        ({"ransac": {"threshold_fraction": "0.02"}}, "ransac: threshold_fraction"),
        ({"ransac": {"enabled": 1}}, "ransac: enabled"),
        ({"ransac": {"threshold_fraction": float("nan")}}, "ransac: threshold_fraction"),
        ({"failure_error_threshold_percent": "5"}, "config: failure_error_threshold_percent"),
        ({"unit_lexicon_path": 5}, "config: unit_lexicon_path"),
        ({"ransac": {"threshold_fraction": 10**400}}, "ransac: threshold_fraction"),
        ({"failure_error_threshold_percent": 10**400}, "config: failure_error_threshold_percent"),
    ],
)
def test_config_rejects_bad_values(doc, path_part):
    with pytest.raises(SchemaError) as err:
        PipelineConfig.from_json(doc)
    assert path_part in str(err.value)


def test_config_file_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        PipelineConfig.from_file(path)
    with pytest.raises(OSError):
        PipelineConfig.from_file(tmp_path / "missing.json")
    with pytest.raises(OSError):
        PipelineConfig(unit_lexicon_path=str(tmp_path / "missing.txt"))


def test_custom_unit_lexicon_file(tmp_path, monkeypatch):
    spec = make_scene_spec(unit="kn")  # knots: not in the built-in lexicon
    fixture, _ = generate_scene(spec)
    assert read_gauge(fixture).unit is None
    lexicon = tmp_path / "units.txt"
    lexicon.write_text("# marine units\nkn\n", encoding="utf-8")
    loads = []
    real_load = scale_model.load_unit_lexicon
    monkeypatch.setattr(
        scale_model, "load_unit_lexicon", lambda path: loads.append(path) or real_load(path)
    )
    cfg = PipelineConfig(unit_lexicon_path=str(lexicon))
    assert read_gauge(fixture, cfg).unit == "kn"
    assert evaluate_batch([fixture] * 3, cfg).n_readings == 3
    assert loads == [str(lexicon)]  # read once per config, not once per fixture


def test_least_squares_config_still_reads_clean_scene():
    fixture, truth = generate_scene(make_scene_spec())
    cfg = PipelineConfig(ransac=RansacSettings(enabled=False))
    report = read_gauge(fixture, cfg)
    assert abs(matched_reading(report, truth) - truth.reading) / 10.0 < 1e-6


def test_dual_scale_reports_both_readings():
    from gaugekit.synthgauge import SecondScale

    spec = make_scene_spec(
        needle_value=2.5, second_scale=SecondScale(0.0, 100.0, 1.12)
    )
    fixture, truth = generate_scene(spec)
    report = read_gauge(fixture)
    assert {r.scale for r in report.readings} == {ScaleSide.OUTER, ScaleSide.INNER}
    values = {r.scale: r.value for r in report.readings}
    assert values[ScaleSide.INNER] == pytest.approx(2.5, abs=1e-6)
    assert values[ScaleSide.OUTER] == pytest.approx(25.0, abs=1e-5)
    assert matched_reading(report, truth) == pytest.approx(2.5, abs=1e-6)


def test_marker_at_radius_exactly_one_is_on_the_outer_scale(monkeypatch):
    from gaugekit import geometry
    from gaugekit.fixtures import serialize_report
    from gaugekit.synthgauge import SecondScale

    fixture, _ = generate_scene(
        make_scene_spec(needle_value=2.5, second_scale=SecondScale(0.0, 100.0, 1.12))
    )
    plain = read_gauge(fixture)
    assert {r.scale for r in plain.readings} == {ScaleSide.OUTER, ScaleSide.INNER}
    project = geometry.radial_project_to_circle
    calls = []

    def outside_on_the_circle(points):
        # Every marker outside the circle is moved onto it, radius exactly 1.
        on, radius = project(points)
        calls.append(len(radius))
        return on, np.where(radius >= 1.0, 1.0, radius)

    monkeypatch.setattr(geometry, "radial_project_to_circle", outside_on_the_circle)
    report = read_gauge(fixture)
    assert calls == [len(fixture.ocr_texts) - 1]  # one projection; the unit is no marker
    assert serialize_report(report) == serialize_report(plain)


def _circle_notches(degrees_by_kind):
    keypoints = []
    for _, degrees in degrees_by_kind:
        t = math.radians(degrees)
        keypoints.append([224.0 + 100.0 * math.cos(t), 224.0 + 100.0 * math.sin(t)])
    return GaugeFixture(
        keypoints=keypoints, keypoint_classes=tuple(kind for kind, _ in degrees_by_kind)
    )


@pytest.mark.parametrize(
    "repeat, reason",
    [
        (60.0, None),
        (61.0, "ambiguous_orientation"),
        pytest.param(0.0, "ambiguous_orientation", id="start-position-other-class"),
    ],
)
def test_exactly_repeated_notch_votes_once(repeat, reason):
    # Start 0, end 180: the 0->180 arc holds 60 (and the repeat), the other
    # arc holds 240 and 300. Counted once, the exact repeat leaves 1 vs 2;
    # a distinct notch at 61 makes it 2 vs 2, which is ambiguous. So does an
    # intermediate notch on the start notch's position: the same (x, y) with
    # another class is another notch and votes.
    fixture = _circle_notches(
        [
            (KeypointClass.START, 0.0),
            (KeypointClass.END, 180.0),
            (KeypointClass.INTERMEDIATE, 60.0),
            (KeypointClass.INTERMEDIATE, repeat),
            (KeypointClass.INTERMEDIATE, 240.0),
            (KeypointClass.INTERMEDIATE, 300.0),
        ]
    )
    report = read_gauge(fixture)
    assert report.stage_statuses[Stage.ELLIPSE].ok
    assert report.stage_statuses[Stage.NOTCHES].reason == reason
