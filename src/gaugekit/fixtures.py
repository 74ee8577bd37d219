"""Detection data model and its JSON wire format.

A fixture bundles everything the reading pipeline needs for one cropped
gauge: notch keypoints, sampled needle-mask pixels (one read-only (M, 2)
float array), OCR text boxes, and optional ground truth. All coordinates
live in the crop frame (origin top-left, y down) and must fall inside
[0, crop_size) per axis. The dataclasses enforce every value rule on
construction, so a fixture built in code obeys the same rules as a parsed
one; parse_fixture checks only shape.

Documents carry a top-level "schema": 1 field, the JSON integer 1 (not
true, 1.0 or "1"). Unknown fields are ignored so fixtures written by newer
producers still parse.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Any, Mapping, Optional

import numpy as np

from .errors import SchemaError
from .geometry import Ellipse, Line, finite_float, is_number, positive_int_size

SCHEMA_VERSION = 1
CROP_SIZE = (448, 448)


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        message = "x and y must be finite"
        object.__setattr__(self, "x", finite_float(self.x, message))
        object.__setattr__(self, "y", finite_float(self.y, message))


class KeypointClass(enum.Enum):
    START = "start"
    INTERMEDIATE = "intermediate"
    END = "end"


@dataclass(frozen=True)
class Keypoint:
    position: Point2
    kind: KeypointClass

    def __post_init__(self):
        if not (isinstance(self.position, Point2) and isinstance(self.kind, KeypointClass)):
            raise ValueError("keypoint position must be a Point2 and kind a KeypointClass")


@dataclass(frozen=True)
class Rect:
    """Axis-aligned box given by its min corner and positive extents."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self):
        message = "box values must be finite"
        x, y, w, h = [finite_float(v, message) for v in (self.x, self.y, self.width, self.height)]
        if w <= 0 or h <= 0:
            raise ValueError("box width and height must be positive")
        for name, v in zip(("x", "y", "width", "height"), (x, y, w, h)):
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class OcrItem:
    box: Rect
    text: str
    confidence: float = 1.0

    def __post_init__(self):
        if not isinstance(self.box, Rect):
            raise ValueError("box must be a Rect")
        if not isinstance(self.text, str):
            raise ValueError("text must be a string")
        message = "confidence must lie in [0, 1]"
        conf = finite_float(self.confidence, message)
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
            value = finite_float(getattr(self, name), f"{name} must be finite")
            object.__setattr__(self, name, value)
        if not self.range_max > self.range_min:
            raise ValueError("range_max must exceed range_min")
        if not isinstance(self.unit, str):
            raise ValueError("unit must be a string")


def _check_type(value, cls, path: str):
    if not isinstance(value, cls):
        raise SchemaError(path, f"expected {cls.__name__}, got {type(value).__name__}")


def _first_bad_needle_row(rows) -> None:
    """SchemaError for the first row of `rows` that is not a pair of finite
    numbers, checked row by row in document order."""
    for i, row in enumerate(rows):
        path = f"needle_points[{i}]"
        if not isinstance(row, (list, tuple)):
            raise SchemaError(path, f"expected an array, got {type(row).__name__}")
        if len(row) != 2:
            raise SchemaError(path, "expected [x, y]")
        try:
            for v in row:
                finite_float(v, "x and y must be finite")
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from None


def _needle_array(points) -> np.ndarray:
    """`points` as a new float64 (M, 2) array of finite values. Pairs of
    Python ints and floats, the usual case, take one type scan and one
    np.array call; other pairs are walked row by row for the first fault."""
    if isinstance(points, np.ndarray):
        if points.dtype.kind not in "iuf":
            raise SchemaError("needle_points", f"expected an int or float array, got {points.dtype}")
        arr = points.astype(np.float64)  # a copy, whatever the input dtype
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        elif arr.ndim != 2 or arr.shape[1] != 2:
            raise SchemaError("needle_points", f"expected shape (M, 2), got {points.shape}")
    elif not isinstance(points, (list, tuple)):
        raise SchemaError("needle_points", f"expected an array, got {type(points).__name__}")
    else:
        if not (
            set(map(type, points)) <= {list, tuple}
            and set(map(len, points)) <= {2}
            and set(map(type, chain.from_iterable(points))) <= {float, int}
        ):
            _first_bad_needle_row(points)  # pairs of numpy scalars pass on
        try:
            arr = np.array(points, dtype=np.float64).reshape(-1, 2)
        except OverflowError:  # an int beyond the float range
            _first_bad_needle_row(points)
            raise
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise SchemaError(f"needle_points[{int(finite.argmin())}]", "x and y must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class GaugeFixture:
    """One gauge's detections.

    `needle_points` takes an int or float (M, 2) array, or a list or tuple
    of [x, y] number pairs, and keeps a read-only float64 (M, 2) copy, (0, 2)
    when empty; equality and hashing compare its values.
    """

    crop_size: tuple[int, int] = CROP_SIZE
    keypoints: tuple[Keypoint, ...] = ()
    needle_points: np.ndarray = ()
    ocr_items: tuple[OcrItem, ...] = ()
    ground_truth: Optional[GroundTruth] = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "crop_size", positive_int_size(self.crop_size))
        except ValueError as exc:
            raise SchemaError("crop_size", str(exc)) from None
        object.__setattr__(self, "keypoints", tuple(self.keypoints))
        object.__setattr__(self, "ocr_items", tuple(self.ocr_items))
        for i, kp in enumerate(self.keypoints):
            _check_type(kp, Keypoint, f"keypoints[{i}]")
            self._check_bounds(kp.position.x, kp.position.y, f"keypoints[{i}]")
        needle = _needle_array(self.needle_points)
        inside = ((needle >= 0.0) & (needle < np.array(self.crop_size, dtype=float))).all(axis=1)
        if not inside.all():
            i = int(inside.argmin())
            self._check_bounds(*needle[i].tolist(), f"needle_points[{i}]")
        needle.flags.writeable = False
        object.__setattr__(self, "needle_points", needle)
        for i, item in enumerate(self.ocr_items):
            _check_type(item, OcrItem, f"ocr[{i}]")
            self._check_bounds(item.box.x, item.box.y, f"ocr[{i}].box")
        if self.ground_truth is not None:
            _check_type(self.ground_truth, GroundTruth, "ground_truth")
        for kind in (KeypointClass.START, KeypointClass.END):
            if sum(1 for kp in self.keypoints if kp.kind is kind) > 1:
                raise SchemaError("keypoints", f"more than one {kind.value} keypoint")

    def _check_bounds(self, x: float, y: float, path: str):
        w, h = self.crop_size
        if not (0.0 <= x < w and 0.0 <= y < h):
            raise SchemaError(path, f"coordinate ({x}, {y}) outside [0, {w}) x [0, {h})")

    def _values(self) -> tuple:
        needle = tuple(self.needle_points.ravel().tolist())
        return (self.crop_size, self.keypoints, needle, self.ocr_items, self.ground_truth)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def keypoint_array(self) -> np.ndarray:
        """Keypoint positions as an (N, 2) array."""
        return np.array([[kp.position.x, kp.position.y] for kp in self.keypoints]).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Reading reports
# ---------------------------------------------------------------------------

class Stage(enum.Enum):
    """Pipeline stages, declared in their order in reports and summaries."""

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


@dataclass(frozen=True)
class StageStatus:
    """Outcome of one stage: ok without a reason, failed with one."""

    reason: Optional[str] = None

    def __post_init__(self):
        # The type test first: an unhashable reason cannot be looked up.
        reason = self.reason
        if reason is not None and not (isinstance(reason, str) and reason in FAILURE_REASONS):
            raise ValueError(f"unknown failure reason {reason!r}")

    @property
    def ok(self) -> bool:
        return self.reason is None


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
    markers_used: tuple[MarkerUse, ...] = ()
    readings: tuple[Reading, ...] = ()
    unit: Optional[str] = None

    def __post_init__(self):
        statuses = self.stage_statuses  # kept in Stage order, whatever the recording order
        object.__setattr__(self, "stage_statuses", {s: statuses[s] for s in Stage if s in statuses})
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


# ---------------------------------------------------------------------------
# JSON parsing
# ---------------------------------------------------------------------------

def as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected an array, got {type(value).__name__}")
    return value


def as_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def present_entries(obj: dict, *keys: str) -> dict:
    """The entries of `obj` under those of `keys` it has, as keyword
    arguments, so absent keys keep the defaults of the fields they fill."""
    return {key: obj[key] for key in keys if key in obj}


def present_fields(cls, doc: Any, path: str) -> dict:
    """The entries of JSON object `doc` that name an init field of dataclass
    `cls`; SchemaError under `path` unless `doc` is an object."""
    return present_entries(as_object(doc, path), *(f.name for f in fields(cls) if f.init))


def load_json(data: bytes | str) -> Any:
    """The document encoded in UTF-8 JSON `data`.

    Raises SchemaError under "$" when `data` is not valid UTF-8 or JSON;
    every reader of a JSON file (fixtures, configs, manifests, scene
    sources) decodes through here, so the fault reads the same for each.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError("$", f"not valid UTF-8: {exc}") from None
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None


def parse_fixture(data: bytes | str) -> GaugeFixture:
    """Parse a UTF-8 JSON fixture document.

    Raises SchemaError naming the offending path: "$" for malformed UTF-8
    or JSON, the field for a wrong shape or a value the data model rejects.
    """
    doc = load_json(data)
    root = as_object(doc, "$")
    version = root.get("schema")
    if not (is_number(version, integer=True) and version == SCHEMA_VERSION):
        raise SchemaError("schema", f"expected schema version {SCHEMA_VERSION}")

    keypoints = []
    for i, entry in enumerate(as_list(root.get("keypoints", []), "keypoints")):
        obj = as_object(entry, f"keypoints[{i}]")
        if "x" not in obj or "y" not in obj:
            raise SchemaError(f"keypoints[{i}]", "missing x or y")
        raw_kind = obj.get("class")
        try:
            kind = KeypointClass(raw_kind)
        except ValueError:
            raise SchemaError(
                f"keypoints[{i}].class",
                f"expected one of start/intermediate/end, got {raw_kind!r}",
            ) from None
        try:
            keypoints.append(Keypoint(Point2(obj["x"], obj["y"]), kind))
        except ValueError as exc:
            raise SchemaError(f"keypoints[{i}]", str(exc)) from None

    ocr_items = []
    for i, entry in enumerate(as_list(root.get("ocr", []), "ocr")):
        obj = as_object(entry, f"ocr[{i}]")
        box = as_list(obj.get("box"), f"ocr[{i}].box")
        if len(box) != 4:
            raise SchemaError(f"ocr[{i}].box", "expected [x, y, width, height]")
        try:
            ocr_items.append(
                OcrItem(Rect(*box), obj.get("text", ""), **present_entries(obj, "confidence"))
            )
        except ValueError as exc:
            raise SchemaError(f"ocr[{i}]", str(exc)) from None

    ground_truth = None
    if root.get("ground_truth") is not None:
        obj = as_object(root["ground_truth"], "ground_truth")
        for key in ("reading", "range_min", "range_max"):
            if key not in obj:
                raise SchemaError(f"ground_truth.{key}", "missing required field")
        try:
            ground_truth = GroundTruth(
                **present_entries(obj, "reading", "range_min", "range_max", "unit")
            )
        except ValueError as exc:
            raise SchemaError("ground_truth", str(exc)) from None

    # The fixture checks the needle rows itself, in bulk.
    return GaugeFixture(
        keypoints=tuple(keypoints),
        ocr_items=tuple(ocr_items),
        ground_truth=ground_truth,
        **present_entries(root, "crop_size", "needle_points"),
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
        "needle_points": f.needle_points.tolist(),
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
    statuses = {
        stage.value: {"status": "ok"} if status.ok else {"status": "failed", "reason": status.reason}
        for stage, status in report.stage_statuses.items()
    }

    e = report.fitted_ellipse
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
