"""Parametric gauge scenes with exact ground truth, plus corruption operators.

A scene spec pins the scale arc on a known ellipse, the value range, the
needle position and the marker layout; generation is a pure function of the
spec, so the emitted fixture doubles as a quantitative oracle for the
reading pipeline. Perturbation reproduces the characteristic detection
defects (keypoint jitter, dropped or misread OCR boxes, unrelated numbers,
viewpoint changes) deterministically from a seed.

The spec types raise ValueError, as every value type does; the JSON readers
report a bad document as SchemaError naming its path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Any, Optional

import numpy as np

from .errors import SchemaError
from .fixtures import (
    CROP_SIZE,
    GaugeFixture,
    GroundTruth,
    KeypointClass,
    as_object,
    build_value,
    present_entries,
    present_fields,
    require,
)
from .geometry import (
    TAU, AffineTransform, Ellipse, finite_float, is_number, normalize_angle, positive_int_size
)
from .scale_model import DEFAULT_UNIT_LEXICON

MIN_ARC_SPAN = math.pi / 2
MAX_ARC_SPAN = 0.95 * TAU
MARKER_BOX = (20.0, 10.0)
_MARKER_HALF = np.array(MARKER_BOX) / 2
FRAME_MARGIN = 12.0
# Overall scale and per-axis translation bounds of sample_affine.
AFFINE_SCALE_RANGE = (0.85, 1.15)
AFFINE_MAX_TRANSLATION = 25.0


def _finite_field(spec, name: str, message: str) -> float:
    """Set field `name` of `spec` to its value as a float and return it;
    ValueError(message) unless geometry.finite_float accepts that value."""
    value = finite_float(getattr(spec, name), message)
    object.__setattr__(spec, name, value)
    return value


@dataclass(frozen=True)
class SecondScale:
    range_min: float
    range_max: float
    radius_factor: float

    def __post_init__(self):
        for name in ("range_min", "range_max", "radius_factor"):
            _finite_field(self, name, "second_scale: range and radius_factor must be finite")
        if not self.range_max > self.range_min:
            raise ValueError("second_scale: range_max must exceed range_min")
        if not math.isfinite(self.range_max - self.range_min):
            raise ValueError("second_scale: range_max - range_min must be finite")
        if self.radius_factor <= 0:
            raise ValueError("second_scale: radius_factor must be positive")


@dataclass(frozen=True)
class SceneSpec:
    ellipse: Ellipse
    arc_start: float
    arc_end: float
    direction: int  # +1: scale runs along increasing parametric angle
    range_min: float
    range_max: float
    unit: str
    n_major_notches: int
    needle_value: float
    crop_size: tuple[int, int] = CROP_SIZE
    marker_radius_factor: float = 0.85
    second_scale: Optional[SecondScale] = None
    n_needle_points: int = 60

    def __post_init__(self):
        if not isinstance(self.ellipse, Ellipse):
            raise ValueError(f"ellipse must be an Ellipse, got {self.ellipse!r}")
        if not isinstance(self.second_scale, (SecondScale, type(None))):
            raise ValueError(f"second_scale must be a SecondScale, got {self.second_scale!r}")
        for name in (
            "arc_start", "arc_end", "range_min", "range_max", "needle_value", "marker_radius_factor"
        ):
            _finite_field(self, name, f"{name} must be finite")
        if not (is_number(self.direction, integer=True) and self.direction in (1, -1)):
            raise ValueError(f"direction must be +1 or -1, got {self.direction!r}")
        if not is_number(self.n_major_notches, integer=True):
            raise ValueError(f"n_major_notches must be an integer, got {self.n_major_notches!r}")
        if self.n_major_notches < 5:
            raise ValueError("a scale needs at least 5 major notches")
        if not self.range_max > self.range_min:
            raise ValueError("range_max must exceed range_min")
        if not math.isfinite(self.range_max - self.range_min):
            raise ValueError("range_max - range_min must be finite")
        if not self.range_min <= self.needle_value <= self.range_max:
            raise ValueError("needle_value must lie within the range")
        if self.marker_radius_factor <= 0:
            raise ValueError("marker_radius_factor must be positive")
        if not (is_number(self.n_needle_points, integer=True) and self.n_needle_points >= 2):
            raise ValueError("n_needle_points must be an integer >= 2")
        for name in ("direction", "n_major_notches", "n_needle_points"):
            object.__setattr__(self, name, int(getattr(self, name)))  # json writes no numpy int
        if not isinstance(self.unit, str):
            raise ValueError(f"unit must be a string, got {self.unit!r}")
        try:
            object.__setattr__(self, "crop_size", positive_int_size(self.crop_size))
        except ValueError as exc:
            raise ValueError(f"crop_size: {exc}") from None
        span = self.arc_span
        if not (MIN_ARC_SPAN <= span <= MAX_ARC_SPAN):
            raise ValueError(
                f"arc span {span:.4f} rad outside [{MIN_ARC_SPAN:.4f}, {MAX_ARC_SPAN:.4f}]"
            )

    @property
    def arc_span(self) -> float:
        return (self.direction * (self.arc_end - self.arc_start)) % TAU

    def angle_of_value(self, value: float) -> float:
        frac = (value - self.range_min) / (self.range_max - self.range_min)
        return normalize_angle(self.arc_start + self.direction * self.arc_span * frac)


def _format_value(value: float) -> str:
    text = f"{value:.10f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


def _marker_boxes(centers: np.ndarray) -> np.ndarray:
    """MARKER_BOX-sized (K, 4) boxes around the rows of `centers` (K, 2)."""
    boxes = np.empty((len(centers), 4))
    boxes[:, :2] = centers - _MARKER_HALF
    boxes[:, 2:] = MARKER_BOX
    return boxes


@functools.lru_cache(maxsize=16)
def _needle_steps(n: int) -> np.ndarray:
    """The (n, 1) column of needle fractions from 0.08 to 1 of the way from
    the center to the tip, built once per n, read-only."""
    steps = np.linspace(0.08, 1.0, n)[:, None]
    steps.setflags(write=False)
    return steps


def generate_scene(spec: SceneSpec) -> tuple[GaugeFixture, GroundTruth]:
    """Build the fixture and ground truth for one noise-free scene.

    Notches sit at equally spaced parametric angles along the arc (start
    and end classed as such), the needle is a dense point run from the
    ellipse center to the rim at the value's angle, and each notch gets an
    OCR box with the exact printed value, pulled toward or away from the
    center by the radius factor. Deterministic: no randomness involved.
    Raises SchemaError under "spec" naming the spec field whose content
    leaves the crop frame, overflowing to a non-finite coordinate included.
    """
    try:
        # An overflow becomes an inf coordinate, which the data model rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            return _build_scene(spec)
    except SchemaError as exc:
        raise SchemaError(
            "spec", f"scene content leaves the crop frame: {_placed_by(spec, exc.path)}"
        ) from None


def _placed_by(spec: SceneSpec, path: str) -> str:
    """What puts the part of a generated fixture at `path` where it is."""
    if path.startswith("ocr["):
        i, n = int(path[4 : path.index("]")]), spec.n_major_notches
        if i < n:
            return "marker_radius_factor places a marker outside it"
        if i < 2 * n and spec.second_scale is not None:
            return "second_scale.radius_factor places a marker outside it"
        return "ellipse places the unit label outside it"
    if path.startswith("needle_points"):
        return "ellipse and needle_value place the needle outside it"
    return "ellipse and scale_arc place a notch outside it"


def _build_scene(spec: SceneSpec) -> tuple[GaugeFixture, GroundTruth]:
    ell = spec.ellipse
    n = spec.n_major_notches
    fractions = np.arange(n) / (n - 1)
    # The notch angles with the needle's appended: one point_at for all.
    angles = np.empty(n + 1)
    angles[:n] = spec.arc_start + spec.direction * spec.arc_span * fractions
    angles[n] = spec.angle_of_value(spec.needle_value)
    rim = ell.point_at(angles)
    notch_positions, tip = rim[:n], rim[n]
    classes = (KeypointClass.START, *[KeypointClass.INTERMEDIATE] * (n - 2), KeypointClass.END)

    center = ell.center
    needle = center + _needle_steps(spec.n_needle_points) * (tip - center)

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
        anchors.append([[ell.cx, ell.cy + 0.45 * ell.b]])
        texts.append(spec.unit)

    truth = GroundTruth(spec.needle_value, spec.range_min, spec.range_max, spec.unit)
    fixture = GaugeFixture(
        crop_size=spec.crop_size,
        keypoints=notch_positions,
        keypoint_classes=classes,
        needle_points=needle,
        ocr_boxes=_marker_boxes(np.concatenate(anchors)),
        ocr_texts=texts,
        ground_truth=truth,
    )
    return fixture, truth


# ---------------------------------------------------------------------------
# Perturbation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationSpec:
    keypoint_noise_sigma: float = 0.0
    ocr_dropout_rate: float = 0.0
    n_outlier_ocr: int = 0
    digit_corruption_rate: float = 0.0
    affine: Optional[AffineTransform] = None
    rotation: float = 0.0
    seed: int = 0

    def __post_init__(self):
        message = "keypoint_noise_sigma must be a finite number >= 0"
        if _finite_field(self, "keypoint_noise_sigma", message) < 0:
            raise ValueError(message)
        for name in ("ocr_dropout_rate", "digit_corruption_rate"):
            message = f"{name} must lie in [0, 1]"
            if not 0.0 <= _finite_field(self, name, message) <= 1.0:
                raise ValueError(message)
        if not (is_number(self.n_outlier_ocr, integer=True) and self.n_outlier_ocr >= 0):
            raise ValueError("n_outlier_ocr must be an integer >= 0")
        if not isinstance(self.affine, (AffineTransform, type(None))):
            raise ValueError(f"affine must be an AffineTransform or None, got {self.affine!r}")
        _finite_field(self, "rotation", "rotation must be finite")
        if not (is_number(self.seed, integer=True) and self.seed >= 0):
            raise ValueError("seed must be an integer >= 0")
        for name in ("n_outlier_ocr", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))  # json writes no numpy int


def _fit_to_frame(pts: np.ndarray, crop: tuple[int, int]) -> Optional[AffineTransform]:
    """Similarity pulling the out-of-frame points of `pts` (N, 2) back
    inside, or None if snug.

    A similarity keeps readings intact (the pipeline is affine-invariant),
    so viewpoint perturbations cannot silently violate the fixture's
    bounds invariant.
    """
    if not pts.size:
        return None
    # Per axis in Python floats: on two-element arrays numpy's call overhead
    # outweighs the arithmetic.
    axes = list(zip(pts.min(axis=0).tolist(), pts.max(axis=0).tolist(), map(float, crop)))
    if all(lo >= FRAME_MARGIN and hi <= size - FRAME_MARGIN for lo, hi, size in axes):
        return None
    ratios = [
        (size - 2 * FRAME_MARGIN) / max(hi - lo, 1e-12) if hi - lo > 0 else math.inf
        for lo, hi, size in axes
    ]
    scale = min(1.0, min(ratios))
    shift = [size / 2 - scale * ((lo + hi) / 2) for lo, hi, size in axes]
    return AffineTransform(scale * np.eye(2), shift)


def perturb_scene(
    fixture: GaugeFixture, truth: GroundTruth, spec: PerturbationSpec
) -> GaugeFixture:
    """Corrupt a fixture's detections; the ground truth is untouched.

    Operations run in a fixed order off one seeded generator: affine
    distortion, rotation about the crop center (content is re-fit into the
    frame by a similarity if a viewpoint change pushed it out), Gaussian
    keypoint jitter, OCR dropout, digit corruption of surviving numeric
    texts, and injection of unrelated multi-digit numbers. A spec with all
    perturbations at zero returns the fixture unchanged.
    """
    rng = np.random.default_rng(spec.seed)
    w, h = fixture.crop_size
    boxes = fixture.ocr_boxes
    halves = boxes[:, 2:] / 2.0
    # Keypoints, needle points and box centers as one (N + M + K, 2) array,
    # each map applied once and the parts sliced back out at the end.
    n_kp = len(fixture.keypoints)
    n_pts = n_kp + len(fixture.needle_points)
    points = np.concatenate([fixture.keypoints, fixture.needle_points, boxes[:, :2] + halves])

    view = spec.affine
    if spec.rotation != 0.0:
        turn = AffineTransform.rotation(spec.rotation, about=(w / 2, h / 2))
        view = turn if view is None else turn.compose(view)
    if view is not None:
        points = view.apply(points)
        centers = points[n_pts:]  # between their box corners, so no extreme of the fit
        fit = _fit_to_frame(
            np.concatenate([points, centers - halves, centers + halves]), fixture.crop_size
        )
        if fit is not None:
            points = fit.apply(points)

    if spec.keypoint_noise_sigma > 0 and n_kp:
        points[:n_kp] += rng.normal(0.0, spec.keypoint_noise_sigma, (n_kp, 2))

    points[n_pts:] -= halves  # box centers to corners
    points = np.minimum(np.maximum(points, 0.0), np.array([w, h]) - 1e-6)

    boxes = np.column_stack([points[n_pts:], boxes[:, 2:]])
    texts, confidences = list(fixture.ocr_texts), fixture.ocr_confidences
    if spec.ocr_dropout_rate > 0:  # random(0) draws nothing
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
            # One draw of the trailing digits takes the values one draw each would.
            digits = [int(rng.integers(1, 10)), *rng.integers(0, 10, size=length - 1).tolist()]
            texts.append("".join(map(str, digits)))
        boxes = np.vstack([boxes, _marker_boxes(np.array(positions))])
        confidences = np.concatenate([confidences, np.ones(spec.n_outlier_ocr)])

    return GaugeFixture(
        crop_size=fixture.crop_size,
        keypoints=points[:n_kp],
        keypoint_classes=fixture.keypoint_classes,
        needle_points=points[n_kp:n_pts],
        ocr_boxes=boxes,
        ocr_texts=texts,
        ocr_confidences=confidences,
        ground_truth=fixture.ground_truth if fixture.ground_truth is not None else truth,
    )


def _corrupt_digit(text: str, rng: np.random.Generator) -> str:
    positions = [k for k, ch in enumerate(text) if ch.isdigit()]
    pos = positions[int(rng.integers(0, len(positions)))]
    old = int(text[pos])
    new = (old + 1 + int(rng.integers(0, 9))) % 10
    return text[:pos] + str(new) + text[pos + 1 :]


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def _number(doc, path: str, integer: bool = False):
    """The value at `path` in `doc` (see require); SchemaError naming the path
    unless it is a JSON number (a JSON integer if `integer`), so bools and
    numeric strings fail. For spec fields that sit under another name in
    the JSON."""
    value = require(doc, path)
    if not is_number(value, integer):
        raise SchemaError(path, f"must be {'an integer' if integer else 'a number'}, got {value!r}")
    return value


def parse_scene_spec(doc) -> SceneSpec:
    """SceneSpec from a decoded JSON object; absent optional fields keep
    their defaults. SchemaError names the JSON path of a missing or mistyped
    field, or "spec" for a value SceneSpec or SecondScale rejects."""
    doc = as_object(doc, "spec")
    e = require(doc, "ellipse")
    center = require(e, "ellipse.center")
    if not (isinstance(center, list) and len(center) == 2 and all(map(is_number, center))):
        raise SchemaError("ellipse.center", f"must be two numbers [x, y], got {center!r}")
    ellipse = build_value(
        Ellipse,
        "ellipse",
        cx=center[0],
        cy=center[1],
        a=_number(e, "ellipse.a"),
        b=_number(e, "ellipse.b"),
        **({"theta": _number(e, "ellipse.theta")} if "theta" in e else {}),
    )
    arc = require(doc, "scale_arc")
    rng_doc = require(doc, "range")
    second = None
    if doc.get("second_scale") is not None:
        s = doc["second_scale"]
        s_range = require(s, "second_scale.range")
        second = build_value(
            SecondScale,
            "spec",
            range_min=_number(s_range, "second_scale.range.min"),
            range_max=_number(s_range, "second_scale.range.max"),
            radius_factor=_number(s, "second_scale.radius_factor"),
        )
    return build_value(
        SceneSpec,
        "spec",
        ellipse=ellipse,
        arc_start=_number(arc, "scale_arc.start_angle"),
        arc_end=_number(arc, "scale_arc.end_angle"),
        direction=_number(arc, "scale_arc.direction", integer=True),
        range_min=_number(rng_doc, "range.min"),
        range_max=_number(rng_doc, "range.max"),
        unit=rng_doc.get("unit", ""),
        n_major_notches=require(doc, "n_major_notches"),
        needle_value=require(doc, "needle_value"),
        second_scale=second,
        **present_entries(doc, "crop_size", "marker_radius_factor", "n_needle_points"),
    )


def scene_spec_to_jsonable(spec: SceneSpec) -> dict:
    doc: dict[str, Any] = {
        "crop_size": list(spec.crop_size),
        "ellipse": {
            "center": [spec.ellipse.cx, spec.ellipse.cy],
            "a": spec.ellipse.a,
            "b": spec.ellipse.b,
            "theta": spec.ellipse.theta,
        },
        "scale_arc": {
            "start_angle": spec.arc_start,
            "end_angle": spec.arc_end,
            "direction": spec.direction,
        },
        "range": {"min": spec.range_min, "max": spec.range_max, "unit": spec.unit},
        "n_major_notches": spec.n_major_notches,
        "needle_value": spec.needle_value,
        "marker_radius_factor": spec.marker_radius_factor,
        "n_needle_points": spec.n_needle_points,
    }
    if spec.second_scale is not None:
        doc["second_scale"] = {
            "range": {
                "min": spec.second_scale.range_min,
                "max": spec.second_scale.range_max,
            },
            "radius_factor": spec.second_scale.radius_factor,
        }
    return doc


def parse_perturbation_spec(doc) -> PerturbationSpec:
    """PerturbationSpec from a decoded JSON object; absent fields keep
    their defaults. PerturbationSpec checks the values, and a value it
    rejects is a SchemaError under "perturbation"."""
    kwargs = present_fields(PerturbationSpec, doc, "perturbation")
    if kwargs.get("affine") is not None:
        a = kwargs["affine"]
        linear = require(a, "affine.linear")
        translation = a.get("translation", [0.0, 0.0])
        kwargs["affine"] = build_value(
            AffineTransform, "affine", linear=linear, translation=translation
        )
    return build_value(PerturbationSpec, "perturbation", **kwargs)


def perturbation_to_jsonable(spec: PerturbationSpec) -> dict:
    """Every field of `spec` in declaration order, `affine` last and only
    when set."""
    doc: dict[str, Any] = {
        key.name: getattr(spec, key.name) for key in fields(spec) if key.name != "affine"
    }
    if spec.affine is not None:
        doc["affine"] = {
            "linear": spec.affine.linear.tolist(),
            "translation": spec.affine.translation.tolist(),
        }
    return doc


# ---------------------------------------------------------------------------
# Random spec sampling (for sweeps and acceptance batches)
# ---------------------------------------------------------------------------

def sample_scene_spec(
    rng: np.random.Generator,
    dual_scale_probability: float = 0.2,
) -> SceneSpec:
    """Draw a plausible scene in a CROP_SIZE frame: spans 120-340 degrees,
    value spans covering four decades, a mix of zero-based, negative and
    offset ranges, and the requested share of dual-scale faces."""
    w, h = CROP_SIZE
    short = min(w, h)
    a = rng.uniform(0.27, 0.36) * short
    ellipse = Ellipse(
        w / 2 + rng.uniform(-6, 6),
        h / 2 + rng.uniform(-6, 6),
        a,
        a * rng.uniform(0.6, 1.0),
        rng.uniform(0, math.pi),
    )
    direction = 1 if rng.random() < 0.5 else -1
    span = math.radians(rng.uniform(120.0, 340.0))
    arc_start = rng.uniform(0.0, TAU)

    value_span = 10.0 ** rng.uniform(-1.0, 3.0)
    style = rng.random()
    if style < 0.5:
        range_min = 0.0
    elif style < 0.75:
        range_min = -value_span * rng.uniform(0.2, 0.6)
    else:
        range_min = value_span * rng.uniform(0.1, 2.0)

    second = None
    if rng.random() < dual_scale_probability:
        span2 = 10.0 ** rng.uniform(-1.0, 3.0)
        min2 = 0.0 if rng.random() < 0.7 else -0.3 * span2
        second = SecondScale(min2, min2 + span2, radius_factor=rng.uniform(1.10, 1.16))

    return SceneSpec(
        ellipse=ellipse,
        arc_start=arc_start,
        arc_end=normalize_angle(arc_start + direction * span),
        direction=direction,
        range_min=range_min,
        range_max=range_min + value_span,
        unit=str(rng.choice(DEFAULT_UNIT_LEXICON)),
        n_major_notches=int(rng.integers(5, 14)),
        needle_value=range_min + value_span * rng.uniform(0.02, 0.98),
        marker_radius_factor=rng.uniform(0.82, 0.90),
        second_scale=second,
    )


def sample_affine(
    rng: np.random.Generator,
    max_condition: float = 3.0,
    allow_reflection: bool = False,
) -> AffineTransform:
    """Random invertible map with bounded condition number.

    Built as R(alpha) @ diag(s1, s2) @ R(beta) so the singular-value ratio
    (the condition number) is exactly the drawn value.
    """
    cond = rng.uniform(1.0, max_condition)
    overall = rng.uniform(*AFFINE_SCALE_RANGE)
    s = np.array([overall * math.sqrt(cond), overall / math.sqrt(cond)])
    alpha, beta = rng.uniform(0.0, TAU, size=2)
    rotate = AffineTransform.rotation
    linear = rotate(alpha).linear @ np.diag(s) @ rotate(beta).linear
    if allow_reflection and rng.random() < 0.5:
        linear = np.diag([1.0, -1.0]) @ linear
    translation = rng.uniform(-AFFINE_MAX_TRANSLATION, AFFINE_MAX_TRANSLATION, size=2)
    return AffineTransform(linear, translation)
