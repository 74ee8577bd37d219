"""End-to-end pipeline behaviour: closed-loop accuracy against generated
ground truth, the failure taxonomy, and frame-change invariance."""

import cProfile
import enum
import json
import math
import pstats
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_scene_spec, random_fixture
from gaugekit import scale_model
from gaugekit.errors import SchemaError
from gaugekit.fixtures import (
    FAILURE_REASONS,
    GaugeFixture,
    GroundTruth,
    KeypointClass,
    ScaleSide,
    Stage,
    parse_fixture,
    serialize_fixture,
    serialize_report,
)
from gaugekit.geometry import Ellipse
from gaugekit.pipeline import (
    EvalSummary,
    PipelineConfig,
    RansacSettings,
    compute_relative_error,
    evaluate_batch,
    matched_reading,
    read_gauge,
    serialize_summary,
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


def test_huge_marker_numbers_give_a_finite_report():
    # 308-digit markers are finite, but the refit's sums overflow: the side
    # gives no_consensus with no inliers, not an Infinity reading (nor, as
    # pyproject makes warnings errors, a RuntimeWarning).
    spec = sample_scene_spec(np.random.default_rng(5), dual_scale_probability=0.0)
    fixture, _ = generate_scene(spec)
    n = spec.n_major_notches
    texts = [str(2 * k) + "0" * 307 for k in range(n)] + list(fixture.ocr_texts[n:])
    huge = replace(fixture, ocr_texts=texts)

    def reject(constant):
        raise ValueError(f"not RFC 8259 JSON: {constant}")

    for ransac in (True, False):
        report = read_gauge(huge, PipelineConfig(ransac=RansacSettings(enabled=ransac)))
        json.loads(serialize_report(report), parse_constant=reject)
        assert report.failure_reason == "no_consensus"
        assert len(report.markers_used) == n
        assert not any(marker.inlier for marker in report.markers_used)


def _far_dial(cx, cy, a, b, needle, ocr=(), crop=(1e308, 1e308)) -> bytes:
    """A fixture document with a crop of 1e308 unless given: nine notches on
    the ellipse (cx, cy, a, b, theta 0) and the given needle pixels and OCR
    items."""
    kinds = ["start"] + ["intermediate"] * 7 + ["end"]
    ts = [0.75 * math.pi + k * 0.1875 * math.pi for k in range(9)]
    keypoints = [
        {"x": cx + a * math.cos(t), "y": cy + b * math.sin(t), "class": kind}
        for t, kind in zip(ts, kinds)
    ]
    doc = {"schema": 1, "crop_size": list(crop), "keypoints": keypoints, "needle_points": needle}
    return json.dumps({**doc, "ocr": list(ocr)}).encode()


def _ray(start, step, count=10):
    """`count` needle pixels from `start` in steps of `step`."""
    return [[start[0] + k * step[0], start[1] + k * step[1]] for k in range(count)]


_SMALL_DIAL_MARKERS = [
    {"box": [0.49 + 0.45 * math.cos(t), 0.49 + 0.34 * math.sin(t), 0.02, 0.02], "text": str(k)}
    for k, t in enumerate(0.75 * math.pi + j * 0.375 * math.pi for j in range(5))
]


@pytest.mark.parametrize(
    "data, reason",
    [
        # Needle pixels near 1e200: their scatter overflows, so no direction is known.
        (_far_dial(224, 224, 190, 140, _ray((1e200, 1e200), (1e199, 5e198))), "isotropic_needle"),
        # Notches near 1e150, needle near 1e300: the back-mapped direction
        # cancels against the point, and the line misses the dial.
        (_far_dial(2e150, 2e150, 1e150, 8e149, _ray((1e300, 1e300), (1e299, 5e298))), "no_intersection"),
        # Notches near 1e155: the squares of their spread overflow.
        (_far_dial(2e155, 2e155, 1e155, 8e154, _ray((2e155, 2e155), (5e153, -3e153))), "degenerate_ellipse"),
        # A needle at 1e20 on the line through the centre: its tip rounds to the centre.
        (_far_dial(224, 224, 190, 140, _ray((1e20, 224.0), (1e18, 0.0))), "no_intersection"),
        # A needle near 1e162 with a small spread: the line's point squared overflows.
        (_far_dial(224, 224, 190, 140, _ray((1e162, 1e162), (1e150, 2e150))), "no_intersection"),
        # A dial 1e-160 px wide in the default crop: its circle frame overflows.
        (_far_dial(2e-160, 2e-160, 1e-160, 8e-161, _ray((100, 100), (10, 5)), crop=(448, 448)),
         "degenerate_ellipse"),
        # A dial under a pixel wide and a needle pixel near 9e307: it
        # overflows in the circle frame, so no direction is known.
        (_far_dial(0.5, 0.5, 0.4, 0.3, [[0.5, 0.6], [0.6, 0.7], [9e307, 9e307]]), "isotropic_needle"),
        # A dial under a pixel wide and a marker near 9e307: its centre
        # overflows in the circle frame and is dropped; the rest read.
        (
            _far_dial(
                0.5, 0.5, 0.4, 0.3, _ray((0.5, 0.5), (0.02, -0.02)),
                _SMALL_DIAL_MARKERS + [{"box": [9e307, 9e307, 1.0, 1.0], "text": "7"}],
            ),
            None,
        ),
    ],
    ids=[
        "needle-far", "direction-cancels", "notches-1e155", "tip-at-centre", "point-squared",
        "tiny-dial", "needle-beyond-floats", "far-marker",
    ],
)
def test_far_coordinates_give_a_reading_or_a_reason(data, reason):
    # Under pyproject's error::RuntimeWarning filter: no exception and no warning.
    report = read_gauge(parse_fixture(data))
    assert report.failure_reason == reason
    assert bool(report.readings) == (reason is None)
    json.loads(serialize_report(report), parse_constant=lambda constant: pytest.fail(constant))
    if reason is None:
        assert len(report.markers_used) == 5


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


def test_eval_summary_is_strict_json_at_the_float_limits():
    # A finite reading over a range of width 1e-307 is off by more than the
    # largest float in percent: the error saturates there, and so does a
    # mean whose sum overflows, so the summary stays RFC 8259 JSON.
    fixture, _ = generate_scene(make_scene_spec())
    narrow = replace(fixture, ground_truth=GroundTruth(0.0, 0.0, 1e-307))

    def reject(constant):
        raise ValueError(f"not RFC 8259 JSON: {constant}")

    for batch in ([narrow], [narrow, narrow]):
        doc = json.loads(serialize_summary(evaluate_batch(batch)), parse_constant=reject)
        assert doc["full_re_mean_percent"] == float(format(sys.float_info.max, ".9g"))
    assert compute_relative_error(1e308, -1e308, 0.0, 1e-300) == sys.float_info.max
    # A range whose width range_max - range_min overflows is no ground truth.
    message = "range_max - range_min must be finite"
    with pytest.raises(ValueError, match=message):
        GroundTruth(-1.7e308, -1.7e308, 1.7e308)
    with pytest.raises(ValueError, match=message):
        compute_relative_error(0.0, 0.0, -1.7e308, 1.7e308)
    doc = json.loads(serialize_fixture(fixture))
    doc["ground_truth"] = {"reading": -1.7e308, "range_min": -1.7e308, "range_max": 1.7e308}
    with pytest.raises(SchemaError) as err:
        parse_fixture(json.dumps(doc))
    assert str(err.value) == f"ground_truth: {message}"


def test_eval_table_prints_a_saturated_mean_in_exponent_form():
    # The ground truth of the CI step's narrow manifest: the mean saturates
    # at the largest float, which the table prints in a dozen characters.
    fixture, _ = generate_scene(make_scene_spec())
    narrow = replace(fixture, ground_truth=GroundTruth(0.0, 0.0, 1e-307))
    summary = evaluate_batch([narrow])
    table = summary.to_table().splitlines()
    assert "full RE mean        1.7977e+308%" in table
    assert max(map(len, table)) < 40
    doc = json.loads(serialize_summary(summary))
    assert doc["full_re_mean_percent"] == float(format(sys.float_info.max, ".9g"))
    # Below a million percent the table keeps its fixed-point form.
    for mean, text in ((12.5, "12.5000%"), (999999.0, "999999.0000%"), (1e6, "1.0000e+06%")):
        summary = EvalSummary(1, 1, mean, {})
        assert f"full RE mean        {text}" in summary.to_table().splitlines()


def test_a_read_hashes_no_enum_member_in_python():
    # Enum's __hash__ is a Python function; the fixture enums hash by identity
    # in C, so a read of a dual-scale scene (stage-keyed statuses, notch keys
    # with their classes, both scale sides) makes no such call.
    spec = sample_scene_spec(np.random.default_rng(4), dual_scale_probability=1.0)
    fixture, truth = generate_scene(spec)
    data = serialize_fixture(perturb_scene(fixture, truth, PerturbationSpec(n_outlier_ocr=2)))
    profile = cProfile.Profile()
    report = profile.runcall(read_gauge, parse_fixture(data))
    profile.runcall(serialize_report, report)
    assert {r.scale for r in report.readings} == set(ScaleSide)
    calls = pstats.Stats(profile).stats
    enum_hashes = [
        key for key in calls if key[0] == enum.__file__ and key[2] == "__hash__"
    ]
    assert calls and not enum_hashes


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


def test_config_stores_its_reals_as_python_floats():
    # A numpy scalar is stored as the float a JSON config of its value
    # gives, so the inlier threshold does not come out as a float32.
    fraction = np.float32(0.02)
    ransac = RansacSettings(threshold_fraction=fraction)
    from_json = PipelineConfig.from_json({"ransac": {"threshold_fraction": float(fraction)}}).ransac
    assert type(ransac.threshold_fraction) is float
    values = [0, 5, 10, 15, 20]
    threshold = scale_model.default_inlier_threshold(values, ransac.threshold_fraction)
    assert type(threshold) is float
    assert threshold == scale_model.default_inlier_threshold(values, from_json.threshold_fraction)
    config = PipelineConfig(failure_error_threshold_percent=np.float16(5))
    assert type(config.failure_error_threshold_percent) is float
    assert config.failure_error_threshold_percent == 5.0


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
