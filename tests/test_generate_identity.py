"""Byte identity of the lean generate path against the code it replaced.

The references are kept inline: the scene builder with two `point_at` calls
and a needle column built per call, the perturbation that maps keypoints,
needle points and box centers one array at a time through
`dataclasses.replace`, one scalar draw per outlier digit, and the fixture
writer that builds a `json.dumps` encoder per call. Both sides run on the
same machine, so every comparison is exact: equal bytes, or the same
SchemaError with the same path and message.
"""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import make_scene_spec
from gaugekit.errors import SchemaError
from gaugekit.fixtures import (
    SCHEMA_VERSION,
    GaugeFixture,
    GroundTruth,
    KeypointClass,
    serialize_fixture,
)
from gaugekit.geometry import AffineTransform, Ellipse
from gaugekit.synthgauge import (
    FRAME_MARGIN,
    MARKER_BOX,
    PerturbationSpec,
    SecondScale,
    _corrupt_digit,
    _format_value,
    _placed_by,
    generate_scene,
    perturb_scene,
    sample_affine,
    sample_scene_spec,
)

# ---------------------------------------------------------------------------
# The replaced generate path
# ---------------------------------------------------------------------------


def _reference_marker_boxes(centers):
    boxes = np.empty((len(centers), 4))
    boxes[:, :2] = centers - np.array(MARKER_BOX) / 2
    boxes[:, 2:] = MARKER_BOX
    return boxes


def _reference_build_scene(spec):
    ell = spec.ellipse
    n = spec.n_major_notches
    fractions = np.arange(n) / (n - 1)
    angles = spec.arc_start + spec.direction * spec.arc_span * fractions
    notch_positions = ell.point_at(angles)
    classes = (KeypointClass.START, *[KeypointClass.INTERMEDIATE] * (n - 2), KeypointClass.END)

    tip = ell.point_at(spec.angle_of_value(spec.needle_value))
    center = ell.center
    lam = np.linspace(0.08, 1.0, spec.n_needle_points)[:, None]
    needle = center + lam * (tip - center)

    scales = [(spec.range_min, spec.range_max, spec.marker_radius_factor)]
    if spec.second_scale is not None:
        second = spec.second_scale
        scales.append((second.range_min, second.range_max, second.radius_factor))
    anchors = [center + factor * (notch_positions - center) for _, _, factor in scales]
    texts = [
        _format_value(value)
        for low, high, _ in scales
        for value in (low + (high - low) * fractions).tolist()
    ]
    if spec.unit:
        anchors.append((center + np.array([0.0, 0.45 * ell.b]))[None])
        texts.append(spec.unit)

    truth = GroundTruth(spec.needle_value, spec.range_min, spec.range_max, spec.unit)
    fixture = GaugeFixture(
        crop_size=spec.crop_size,
        keypoints=notch_positions,
        keypoint_classes=classes,
        needle_points=needle,
        ocr_boxes=_reference_marker_boxes(np.vstack(anchors)),
        ocr_texts=texts,
        ground_truth=truth,
    )
    return fixture, truth


def _reference_generate_scene(spec):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _reference_build_scene(spec)
    except SchemaError as exc:
        raise SchemaError(
            "spec", f"scene content leaves the crop frame: {_placed_by(spec, exc.path)}"
        ) from None


def _reference_fit_to_frame(pts, crop):
    if not pts.size:
        return None
    size = np.array(crop, dtype=float)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    if np.all(lo >= FRAME_MARGIN) and np.all(hi <= size - FRAME_MARGIN):
        return None
    extent = hi - lo
    avail = size - 2 * FRAME_MARGIN
    ratios = np.where(extent > 0, avail / np.maximum(extent, 1e-12), np.inf)
    scale = min(1.0, float(ratios.min()))
    mid = (lo + hi) / 2
    return AffineTransform(scale * np.eye(2), size / 2 - scale * mid)


def _reference_perturb_scene(fixture, truth, spec, fits):
    """The replaced perturb_scene; counts in `fits` how often the frame fit
    engaged and how often the mapped content was snug."""
    rng = np.random.default_rng(spec.seed)
    w, h = fixture.crop_size
    keypoints = fixture.keypoints
    needle = fixture.needle_points
    boxes = fixture.ocr_boxes
    halves = boxes[:, 2:] / 2.0
    centers = boxes[:, :2] + halves

    view = spec.affine
    if spec.rotation != 0.0:
        turn = AffineTransform.rotation(spec.rotation, about=(w / 2, h / 2))
        view = turn if view is None else turn.compose(view)
    if view is not None:
        keypoints, needle, centers = (view.apply(p) for p in (keypoints, needle, centers))
        fit = _reference_fit_to_frame(
            np.vstack([keypoints, needle, centers - halves, centers + halves]), fixture.crop_size
        )
        fits["engaged" if fit is not None else "snug"] += 1
        if fit is not None:
            keypoints, needle, centers = (fit.apply(p) for p in (keypoints, needle, centers))

    if spec.keypoint_noise_sigma > 0 and keypoints.size:
        keypoints = keypoints + rng.normal(0.0, spec.keypoint_noise_sigma, keypoints.shape)

    limit = np.array([w, h]) - 1e-6
    keypoints, needle, corners = (
        np.clip(p, 0.0, limit) for p in (keypoints, needle, centers - halves)
    )

    boxes = np.column_stack([corners, boxes[:, 2:]])
    texts, confidences = list(fixture.ocr_texts), fixture.ocr_confidences
    if spec.ocr_dropout_rate > 0:
        keep = rng.random(len(texts)) >= spec.ocr_dropout_rate
        boxes, confidences = boxes[keep], confidences[keep]
        texts = [text for text, kept in zip(texts, keep) if kept]
    if spec.digit_corruption_rate > 0:
        for k, text in enumerate(texts):
            if any(ch.isdigit() for ch in text) and rng.random() < spec.digit_corruption_rate:
                texts[k] = _corrupt_digit(text, rng)

    if spec.n_outlier_ocr:
        margin = FRAME_MARGIN + MARKER_BOX[0] / 2
        positions = []
        for _ in range(spec.n_outlier_ocr):
            positions.append((rng.uniform(margin, w - margin), rng.uniform(margin, h - margin)))
            length = int(rng.integers(3, 7))
            digits = [str(rng.integers(1, 10))]
            digits += [str(rng.integers(0, 10)) for _ in range(length - 1)]
            texts.append("".join(digits))
        boxes = np.vstack([boxes, _reference_marker_boxes(np.array(positions))])
        confidences = np.concatenate([confidences, np.ones(spec.n_outlier_ocr)])

    return replace(
        fixture,
        keypoints=keypoints,
        needle_points=needle,
        ocr_boxes=boxes,
        ocr_texts=texts,
        ocr_confidences=confidences,
        ground_truth=fixture.ground_truth if fixture.ground_truth is not None else truth,
    )


def _reference_serialize_fixture(f):
    doc = {
        "schema": SCHEMA_VERSION,
        "crop_size": [f.crop_size[0], f.crop_size[1]],
        "keypoints": [
            {"x": x, "y": y, "class": kind.value}
            for (x, y), kind in zip(f.keypoints.tolist(), f.keypoint_classes)
        ],
        "needle_points": f.needle_points.tolist(),
        "ocr": [
            {"box": box, "text": text, "confidence": conf}
            for box, text, conf in zip(
                f.ocr_boxes.tolist(), f.ocr_texts, f.ocr_confidences.tolist()
            )
        ],
    }
    if f.ground_truth is not None:
        gt = f.ground_truth
        doc["ground_truth"] = {key.name: getattr(gt, key.name) for key in fields(gt)}
    return json.dumps(doc, ensure_ascii=False).encode("utf-8")


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------


def _outcome(generate, perturb, write, spec, pert):
    """The generated fixture's bytes, or the SchemaError's path and message."""
    try:
        fixture, truth = generate(spec)
        return write(fixture if pert is None else perturb(fixture, truth, pert))
    except SchemaError as exc:
        return exc.path, str(exc)


def _sampled_pairs(count):
    """Scene and perturbation pairs across the knobs the lean path treats
    apart: one or two scales, with and without a unit, 2 to 1000 needle
    points, no view, a near-identity affine view (mostly snug) or a sampled
    one with a rotation (mostly re-fit), every OCR box dropped, and up to
    six outliers."""
    def near_identity(rng):
        return AffineTransform(np.eye(2) + rng.uniform(-0.05, 0.05, (2, 2)), rng.uniform(-9, 9, 2))

    views = (lambda rng: None, near_identity, lambda rng: sample_affine(rng, allow_reflection=True))
    rng = np.random.default_rng(2023)
    for k in range(count):
        spec = sample_scene_spec(rng, dual_scale_probability=0.4)
        spec = replace(
            spec,
            n_needle_points=int(rng.choice([2, 3, 60, 1000], p=[0.2, 0.2, 0.55, 0.05])),
            unit=spec.unit if k % 7 else "",
        )
        view = k % 3
        pert = PerturbationSpec(
            keypoint_noise_sigma=float(rng.choice([0.0, 0.5, 2.0, 4.0])),
            ocr_dropout_rate=float(rng.choice([0.0, 0.2, 0.5, 1.0])),
            n_outlier_ocr=int(rng.integers(0, 7)),
            digit_corruption_rate=float(rng.choice([0.0, 0.1, 0.5, 1.0])),
            affine=views[view](rng),
            rotation=float(rng.uniform(0.0, 2 * math.pi)) if view == 2 else 0.0,
            seed=int(rng.integers(0, 2**31)),
        )
        yield spec, pert


def test_generate_path_is_byte_identical_on_sampled_pairs():
    fits = {"engaged": 0, "snug": 0}
    compared = dual = no_boxes = 0
    needle_sizes = set()

    def reference_perturb(fixture, truth, pert):
        return _reference_perturb_scene(fixture, truth, pert, fits)

    for spec, pert in _sampled_pairs(2400):
        lean = _outcome(generate_scene, perturb_scene, serialize_fixture, spec, pert)
        reference = _outcome(
            _reference_generate_scene, reference_perturb, _reference_serialize_fixture, spec, pert
        )
        assert lean == reference, (spec, pert)
        assert isinstance(lean, bytes)
        doc = json.loads(lean)
        compared += 1
        dual += spec.second_scale is not None
        no_boxes += not doc["ocr"]
        needle_sizes.add(len(doc["needle_points"]))
    assert compared == 2400
    assert dual > 500 and no_boxes > 50
    assert needle_sizes == {2, 3, 60, 1000}
    assert fits["engaged"] > 500 and fits["snug"] > 500


def test_noise_free_scenes_and_untouched_fixtures_are_byte_identical():
    # No perturbation at all, or one that only adds zero to six outliers
    # (zero changes nothing, yet the fixture is built anew).
    rng = np.random.default_rng(7)
    for k in range(200):
        spec = sample_scene_spec(rng, dual_scale_probability=0.5)
        pert = None if k % 2 else PerturbationSpec(seed=k, n_outlier_ocr=k % 7)
        lean = _outcome(generate_scene, perturb_scene, serialize_fixture, spec, pert)
        reference = _outcome(
            _reference_generate_scene,
            lambda f, t, p: _reference_perturb_scene(f, t, p, {"engaged": 0, "snug": 0}),
            _reference_serialize_fixture,
            spec,
            pert,
        )
        assert lean == reference


def test_a_fixture_of_dropped_boxes_keeps_a_zero_by_four_box_array():
    fixture, truth = generate_scene(make_scene_spec())
    perturbed = perturb_scene(fixture, truth, PerturbationSpec(ocr_dropout_rate=1.0, seed=3))
    assert perturbed.ocr_boxes.shape == (0, 4)
    assert perturbed.ocr_texts == () and perturbed.ocr_confidences.shape == (0,)
    reference = _reference_perturb_scene(
        fixture, truth, PerturbationSpec(ocr_dropout_rate=1.0, seed=3), {"engaged": 0, "snug": 0}
    )
    assert serialize_fixture(perturbed) == _reference_serialize_fixture(reference)


# Specs whose content leaves the frame, one per spec field _placed_by names,
# and one that overflows to a non-finite coordinate.
_TOP_ARC = dict(arc_start=math.pi + 0.3, arc_end=2 * math.pi - 0.3)
_LEAVING = {
    "marker_radius_factor places a marker": make_scene_spec(marker_radius_factor=1.8),
    "second_scale.radius_factor places a marker": make_scene_spec(
        second_scale=SecondScale(0.0, 100.0, radius_factor=1.8)
    ),
    "ellipse places the unit label": make_scene_spec(
        ellipse=Ellipse(224.0, 430.0, 100.0, 100.0, 0.0), **_TOP_ARC
    ),
    "ellipse and needle_value place the needle": make_scene_spec(
        ellipse=Ellipse(224.0, 470.0, 100.0, 100.0, 0.0), **_TOP_ARC
    ),
    "ellipse and scale_arc place a notch": make_scene_spec(
        ellipse=Ellipse(224.0, 224.0, 300.0, 120.0, 0.0)
    ),
    "ellipse and scale_arc place a notch (overflow)": make_scene_spec(
        ellipse=Ellipse(1e308, 224.0, 1.5e308, 1e308, 0.7)
    ),
}


@pytest.mark.parametrize("placed", sorted(_LEAVING))
def test_content_leaving_the_frame_is_the_same_schema_error(placed):
    spec = _LEAVING[placed]
    lean = _outcome(generate_scene, None, serialize_fixture, spec, None)
    reference = _outcome(
        _reference_generate_scene, None, _reference_serialize_fixture, spec, None
    )
    assert lean == reference
    path, message = lean
    assert path == "spec"
    assert message.endswith(placed.partition(" (")[0] + " outside it")
