"""Detection data model and its JSON wire format.

A fixture bundles everything the reading pipeline needs for one cropped
gauge: notch keypoints, sampled needle-mask pixels, OCR text boxes, and
optional ground truth. All coordinates live in the crop frame (origin
top-left, y down) and must fall inside [0, crop_size) per axis. The
dataclasses enforce every value rule on construction, so a fixture built in
code obeys the same rules as a parsed one; parse_fixture checks only shape.

Documents carry a top-level "schema": 1 field. Unknown fields are ignored
so fixtures written by newer producers still parse.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from .errors import FixtureSyntaxError, SchemaError
from .geometry import AffineTransform, Ellipse, Line

SCHEMA_VERSION = 1


def is_number(value: Any, integer: bool = False) -> bool:
    """True for an int, or for a float unless `integer`; never for a bool."""
    return isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)


def _finite_float(value, message: str) -> float:
    """`value` as a float; ValueError(message) unless it is finite.

    An int beyond the float range counts as infinite.
    """
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(message) from None
    if not math.isfinite(value):
        raise ValueError(message)
    return value


def positive_int_size(size) -> tuple[int, int]:
    """(width, height) as ints; ValueError unless both are positive integers.

    Whole floats such as 448.0 pass; fractions, infinities and ints beyond
    the float range do not.
    """
    message = "width and height must be positive integers"
    w, h = [_finite_float(v, message) for v in size]
    if not (w > 0 and h > 0 and w.is_integer() and h.is_integer()):
        raise ValueError(message)
    return int(w), int(h)


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        message = "x and y must be finite"
        object.__setattr__(self, "x", _finite_float(self.x, message))
        object.__setattr__(self, "y", _finite_float(self.y, message))


class KeypointClass(enum.Enum):
    START = "start"
    INTERMEDIATE = "intermediate"
    END = "end"


@dataclass(frozen=True)
class Keypoint:
    position: Point2
    kind: KeypointClass


@dataclass(frozen=True)
class Rect:
    """Axis-aligned box given by its min corner and positive extents."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self):
        message = "box values must be finite"
        x, y, w, h = [_finite_float(v, message) for v in (self.x, self.y, self.width, self.height)]
        if w <= 0 or h <= 0:
            raise ValueError("box width and height must be positive")
        for name, v in zip(("x", "y", "width", "height"), (x, y, w, h)):
            object.__setattr__(self, name, v)

    @property
    def center(self) -> Point2:
        return Point2(self.x + self.width / 2.0, self.y + self.height / 2.0)


@dataclass(frozen=True)
class OcrItem:
    box: Rect
    text: str
    confidence: float = 1.0

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise ValueError("text must be a string")
        message = "confidence must lie in [0, 1]"
        conf = _finite_float(self.confidence, message)
        if not (0.0 <= conf <= 1.0):
            raise ValueError(message)
        object.__setattr__(self, "confidence", conf)


@dataclass(frozen=True)
class GroundTruth:
    reading: float
    range_min: float
    range_max: float
    unit: str = ""

    def __post_init__(self):
        for name in ("reading", "range_min", "range_max"):
            value = _finite_float(getattr(self, name), f"{name} must be finite")
            object.__setattr__(self, name, value)
        if not self.range_max > self.range_min:
            raise ValueError("range_max must exceed range_min")
        if not isinstance(self.unit, str):
            raise ValueError("unit must be a string")


@dataclass(frozen=True)
class GaugeFixture:
    crop_size: tuple[int, int] = (448, 448)
    keypoints: tuple[Keypoint, ...] = ()
    needle_points: tuple[Point2, ...] = ()
    ocr_items: tuple[OcrItem, ...] = ()
    ground_truth: Optional[GroundTruth] = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "crop_size", positive_int_size(self.crop_size))
        except ValueError as exc:
            raise SchemaError("crop_size", str(exc)) from None
        object.__setattr__(self, "keypoints", tuple(self.keypoints))
        object.__setattr__(self, "needle_points", tuple(self.needle_points))
        object.__setattr__(self, "ocr_items", tuple(self.ocr_items))
        for i, kp in enumerate(self.keypoints):
            self._check_bounds(kp.position.x, kp.position.y, f"keypoints[{i}]")
        for i, p in enumerate(self.needle_points):
            self._check_bounds(p.x, p.y, f"needle_points[{i}]")
        for i, item in enumerate(self.ocr_items):
            self._check_bounds(item.box.x, item.box.y, f"ocr[{i}].box")
        for kind in (KeypointClass.START, KeypointClass.END):
            if sum(1 for kp in self.keypoints if kp.kind is kind) > 1:
                raise SchemaError("keypoints", f"more than one {kind.value} keypoint")

    def _check_bounds(self, x: float, y: float, path: str):
        w, h = self.crop_size
        if not (0.0 <= x < w and 0.0 <= y < h):
            raise SchemaError(path, f"coordinate ({x}, {y}) outside [0, {w}) x [0, {h})")

    def keypoint_array(self) -> np.ndarray:
        """Keypoint positions as an (N, 2) array."""
        return np.array([[kp.position.x, kp.position.y] for kp in self.keypoints]).reshape(-1, 2)

    def needle_array(self) -> np.ndarray:
        return np.array([[p.x, p.y] for p in self.needle_points]).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Reading reports
# ---------------------------------------------------------------------------

class Stage(enum.Enum):
    NOTCHES = "notches"
    ELLIPSE = "ellipse"
    NEEDLE = "needle"
    OCR = "ocr"


# The only failure reasons a report may carry.
FAILURE_REASONS = frozenset(
    {
        "insufficient_notches",
        "degenerate_ellipse",
        "insufficient_needle_points",
        "isotropic_needle",
        "no_intersection",
        "insufficient_markers",
        "no_consensus",
        "ambiguous_orientation",
    }
)

# Stages whose failure stops the pipeline; notch-orientation trouble only
# degrades to a fallback wrap-around point.
FATAL_STAGES = (Stage.ELLIPSE, Stage.NEEDLE, Stage.OCR)

# Order of the stages in serialized reports and evaluation summaries.
REPORT_STAGES = (Stage.NOTCHES, Stage.ELLIPSE, Stage.NEEDLE, Stage.OCR)


@dataclass(frozen=True)
class StageStatus:
    ok: bool
    reason: Optional[str] = None

    def __post_init__(self):
        if self.ok and self.reason is not None:
            raise ValueError("ok status carries no reason")
        if not self.ok and self.reason not in FAILURE_REASONS:
            raise ValueError(f"unknown failure reason {self.reason!r}")

    @classmethod
    def passed(cls) -> "StageStatus":
        return cls(True)

    @classmethod
    def failed(cls, reason: str) -> "StageStatus":
        return cls(False, reason)


class ScaleSide(enum.Enum):
    OUTER = "outer"
    INNER = "inner"


@dataclass(frozen=True)
class Reading:
    scale: ScaleSide
    value: float


@dataclass(frozen=True)
class MarkerUse:
    """One numeric OCR detection as consumed by the scale model.

    `angle` is relative to the wrap-around point (the model's independent
    variable); `inlier` says whether the robust fit kept it.
    """

    scale: ScaleSide
    angle: float
    value: float
    inlier: bool
    text: str = ""


@dataclass(frozen=True)
class GaugeReadingReport:
    stage_statuses: Mapping[Stage, StageStatus] = field(default_factory=dict)
    fitted_ellipse: Optional[Ellipse] = None
    needle_line: Optional[Line] = None
    wrap_angle: Optional[float] = None
    needle_relative_angle: Optional[float] = None
    upright_rotation: Optional[AffineTransform] = None
    markers_used: tuple[MarkerUse, ...] = ()
    readings: tuple[Reading, ...] = ()
    unit: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "stage_statuses", dict(self.stage_statuses))
        object.__setattr__(self, "markers_used", tuple(self.markers_used))
        object.__setattr__(self, "readings", tuple(self.readings))
        if self.readings:
            for stage in FATAL_STAGES:
                status = self.stage_statuses.get(stage)
                if status is not None and not status.ok:
                    raise ValueError(f"readings present although {stage.value} failed")
        for reading in self.readings:
            support = sum(
                1 for m in self.markers_used if m.scale is reading.scale and m.inlier
            )
            if support < 2:
                raise ValueError(
                    f"{reading.scale.value} reading lacks two inlier markers"
                )

    @property
    def failure_reason(self) -> Optional[str]:
        """Reason of the single fatal failure, or None when a reading exists."""
        if self.readings:
            return None
        for stage in FATAL_STAGES:
            status = self.stage_statuses.get(stage)
            if status is not None and not status.ok:
                return status.reason
        return None

    def reading_for(self, scale: ScaleSide) -> Optional[float]:
        for reading in self.readings:
            if reading.scale is scale:
                return reading.value
        return None


# ---------------------------------------------------------------------------
# JSON parsing
# ---------------------------------------------------------------------------

def _as_number(value: Any, path: str) -> float:
    if not is_number(value):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected an array, got {type(value).__name__}")
    return value


def _as_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def parse_fixture(data: bytes | str) -> GaugeFixture:
    """Parse a UTF-8 JSON fixture document.

    Raises FixtureSyntaxError for malformed JSON and SchemaError (naming the
    offending path) for a wrong shape or a value the data model rejects.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FixtureSyntaxError(f"fixture is not valid UTF-8: {exc}") from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise FixtureSyntaxError(f"fixture is not valid JSON: {exc}") from None

    root = _as_object(doc, "$")
    if root.get("schema") != SCHEMA_VERSION:
        raise SchemaError("schema", f"expected schema version {SCHEMA_VERSION}")

    crop = _as_list(root.get("crop_size", [448, 448]), "crop_size")
    if len(crop) != 2:
        raise SchemaError("crop_size", "expected [width, height]")
    crop_size = (_as_number(crop[0], "crop_size[0]"), _as_number(crop[1], "crop_size[1]"))

    keypoints = []
    for i, entry in enumerate(_as_list(root.get("keypoints", []), "keypoints")):
        obj = _as_object(entry, f"keypoints[{i}]")
        if "x" not in obj or "y" not in obj:
            raise SchemaError(f"keypoints[{i}]", "missing x or y")
        x = _as_number(obj["x"], f"keypoints[{i}].x")
        y = _as_number(obj["y"], f"keypoints[{i}].y")
        raw_kind = obj.get("class")
        try:
            kind = KeypointClass(raw_kind)
        except ValueError:
            raise SchemaError(
                f"keypoints[{i}].class",
                f"expected one of start/intermediate/end, got {raw_kind!r}",
            ) from None
        try:
            keypoints.append(Keypoint(Point2(x, y), kind))
        except ValueError as exc:
            raise SchemaError(f"keypoints[{i}]", str(exc)) from None

    needle_points = []
    for i, entry in enumerate(_as_list(root.get("needle_points", []), "needle_points")):
        pair = _as_list(entry, f"needle_points[{i}]")
        if len(pair) != 2:
            raise SchemaError(f"needle_points[{i}]", "expected [x, y]")
        x = _as_number(pair[0], f"needle_points[{i}][0]")
        y = _as_number(pair[1], f"needle_points[{i}][1]")
        try:
            needle_points.append(Point2(x, y))
        except ValueError as exc:
            raise SchemaError(f"needle_points[{i}]", str(exc)) from None

    ocr_items = []
    for i, entry in enumerate(_as_list(root.get("ocr", []), "ocr")):
        obj = _as_object(entry, f"ocr[{i}]")
        box = _as_list(obj.get("box"), f"ocr[{i}].box")
        if len(box) != 4:
            raise SchemaError(f"ocr[{i}].box", "expected [x, y, width, height]")
        bx, by, bw, bh = (_as_number(v, f"ocr[{i}].box[{j}]") for j, v in enumerate(box))
        conf = _as_number(obj.get("confidence", 1.0), f"ocr[{i}].confidence")
        try:
            ocr_items.append(OcrItem(Rect(bx, by, bw, bh), obj.get("text", ""), conf))
        except ValueError as exc:
            raise SchemaError(f"ocr[{i}]", str(exc)) from None

    ground_truth = None
    if root.get("ground_truth") is not None:
        obj = _as_object(root["ground_truth"], "ground_truth")
        values = []
        for key in ("reading", "range_min", "range_max"):
            if key not in obj:
                raise SchemaError(f"ground_truth.{key}", "missing required field")
            values.append(_as_number(obj[key], f"ground_truth.{key}"))
        try:
            ground_truth = GroundTruth(*values, obj.get("unit", ""))
        except ValueError as exc:
            raise SchemaError("ground_truth", str(exc)) from None

    return GaugeFixture(
        crop_size=crop_size,
        keypoints=tuple(keypoints),
        needle_points=tuple(needle_points),
        ocr_items=tuple(ocr_items),
        ground_truth=ground_truth,
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _fixture_jsonable(f: GaugeFixture) -> dict:
    doc: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "crop_size": [f.crop_size[0], f.crop_size[1]],
        "keypoints": [
            {"x": kp.position.x, "y": kp.position.y, "class": kp.kind.value}
            for kp in f.keypoints
        ],
        "needle_points": [[p.x, p.y] for p in f.needle_points],
        "ocr": [
            {
                "box": [it.box.x, it.box.y, it.box.width, it.box.height],
                "text": it.text,
                "confidence": it.confidence,
            }
            for it in f.ocr_items
        ],
    }
    if f.ground_truth is not None:
        gt = f.ground_truth
        doc["ground_truth"] = {
            "reading": gt.reading,
            "range_min": gt.range_min,
            "range_max": gt.range_max,
            "unit": gt.unit,
        }
    return doc


def serialize_fixture(fixture: GaugeFixture) -> bytes:
    """Serialize a fixture; floats keep full precision so parse round-trips exactly."""
    return json.dumps(_fixture_jsonable(fixture), ensure_ascii=False).encode("utf-8")


def _round_tree(obj: Any) -> Any:
    if isinstance(obj, float):
        return float(format(obj, ".9g"))
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_tree(v) for v in obj]
    return obj


def rounded_json(doc: Any) -> bytes:
    """UTF-8 JSON of `doc` with every real rounded to 9 significant digits."""
    return json.dumps(_round_tree(doc), ensure_ascii=False).encode("utf-8")


def serialize_report(report: GaugeReadingReport) -> bytes:
    """Serialize a reading report deterministically.

    Keys follow a fixed order and every real is rounded to 9 significant
    digits, so identical reports serialize to identical bytes.
    """
    statuses = {}
    for stage in REPORT_STAGES:
        status = report.stage_statuses.get(stage)
        if status is None:
            continue
        statuses[stage.value] = (
            {"status": "ok"} if status.ok else {"status": "failed", "reason": status.reason}
        )

    e = report.fitted_ellipse
    t = report.upright_rotation
    doc = {
        "schema": SCHEMA_VERSION,
        "stage_statuses": statuses,
        "ellipse": None
        if e is None
        else {"center": [e.cx, e.cy], "a": e.a, "b": e.b, "theta": e.theta},
        "needle_line": None
        if report.needle_line is None
        else {
            "point": [report.needle_line.px, report.needle_line.py],
            "direction": [report.needle_line.dx, report.needle_line.dy],
        },
        "wrap_angle": report.wrap_angle,
        "needle_relative_angle": report.needle_relative_angle,
        "upright_rotation": None
        if t is None
        else {"linear": t.linear.tolist(), "translation": t.translation.tolist()},
        "markers": [
            {
                "scale": m.scale.value,
                "angle": m.angle,
                "value": m.value,
                "inlier": m.inlier,
                "text": m.text,
            }
            for m in report.markers_used
        ],
        "readings": [{"scale": r.scale.value, "value": r.value} for r in report.readings],
        "unit": report.unit,
    }
    return rounded_json(doc)
