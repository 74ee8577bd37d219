"""Detection data model and its JSON wire format.

A fixture bundles everything the reading pipeline needs for one cropped
gauge as read-only float arrays with their labels: notch keypoints and
their classes, sampled needle-mask pixels, OCR text boxes with their texts
and confidences, and optional ground truth. All coordinates live in the
crop frame (origin top-left, y down) and must fall inside [0, crop_size)
per axis. GaugeFixture checks every value rule in bulk on construction, so
a fixture built in code obeys the same rules as a parsed one; parse_fixture
checks only the document's shape.

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

# The value faults of fixture items, worded alike from JSON and from code.
POINT_FAULT = "x and y must be finite"
BOX_FAULT = "box values must be finite"
BOX_SIZE_FAULT = "box width and height must be positive"
TEXT_FAULT = "text must be a string"
CONFIDENCE_FAULT = "confidence must lie in [0, 1]"


class KeypointClass(enum.Enum):
    START = "start"
    INTERMEDIATE = "intermediate"
    END = "end"


# Point2, Rect and OcrItem are on no fixture path; perfbench/tracing.py wraps their __post_init__.
@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", finite_float(self.x, POINT_FAULT))
        object.__setattr__(self, "y", finite_float(self.y, POINT_FAULT))


@dataclass(frozen=True)
class Rect:
    """Axis-aligned box given by its min corner and positive extents."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self):
        x, y, w, h = [finite_float(v, BOX_FAULT) for v in (self.x, self.y, self.width, self.height)]
        if w <= 0 or h <= 0:
            raise ValueError(BOX_SIZE_FAULT)
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
            raise ValueError(TEXT_FAULT)
        conf = finite_float(self.confidence, CONFIDENCE_FAULT)
        if not (0.0 <= conf <= 1.0):
            raise ValueError(CONFIDENCE_FAULT)
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


# The row shape of each array field and the array shape its errors name.
_ARRAY_FIELDS = {
    "keypoints": ((2,), "(N, 2)"),
    "needle_points": ((2,), "(M, 2)"),
    "ocr_boxes": ((4,), "(K, 4)"),
    "ocr_confidences": ((), "(K,)"),
}
# Shared read-only empties: an absent field costs no numpy call.
_EMPTY = {name: np.empty((0, *row)) for name, (row, _) in _ARRAY_FIELDS.items()}
for _empty in _EMPTY.values():
    _empty.setflags(write=False)


def _has_rows(values: np.ndarray, row: tuple) -> bool:
    return values.ndim == len(row) + 1 and values.shape[1:] == row


def _float_array(values, name: str, scan: bool = True) -> Optional[np.ndarray]:
    """`values`, array field `name`, as a new float64 array, or None.

    An int or float ndarray of the field's shape is copied, whatever its
    dtype. A list or tuple of Python ints and floats (rows of them for a
    2-D field) takes one type scan and one np.array call; without `scan`,
    any numbers pass. Everything else gives None.
    """
    row = _ARRAY_FIELDS[name][0]
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iuf":
            return None
        if not values.size:
            return _EMPTY[name]
        if not _has_rows(values, row):
            return None
    elif not isinstance(values, (list, tuple)):
        return None
    elif not values:
        return _EMPTY[name]
    elif scan:
        items = values
        if row:
            if not (set(map(type, values)) <= {list, tuple} and set(map(len, values)) == set(row)):
                return None
            items = chain.from_iterable(values)
        if not set(map(type, items)) <= {float, int}:
            return None
    try:
        return np.array(values, dtype=np.float64)  # always a copy
    except OverflowError:  # an int beyond the float range
        return None


def _inside(values: np.ndarray, low, high) -> bool:
    """Whether low <= v < high for every v in `values` (never for NaN)."""
    if not values.size:
        return True
    inside = (values >= low) & (values < high)
    return np.count_nonzero(inside) == inside.size


def _rows(values, name: str) -> list:
    """The rows of array field `name` as a list; SchemaError unless `values`
    is a list or tuple, or an int or float ndarray of the field's shape."""
    row, shape = _ARRAY_FIELDS[name]
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iuf":
            raise SchemaError(name, f"expected an int or float array, got {values.dtype}")
        if values.size and not _has_rows(values, row):
            raise SchemaError(name, f"expected shape {shape}, got {values.shape}")
        return values.reshape(-1, *row).tolist()
    if not isinstance(values, (list, tuple)):
        raise SchemaError(name, f"expected an array, got {type(values).__name__}")
    return list(values)


def _check_row(row, width: int, shape_path: str, value_path: str, message: str) -> list:
    """`row` as a list of floats; SchemaError unless it is a list or tuple
    of `width` finite numbers: a wrong shape under `shape_path`, a bad value
    under `value_path`."""
    if not isinstance(row, (list, tuple)):
        raise SchemaError(shape_path, f"expected an array, got {type(row).__name__}")
    if len(row) != width:
        arity = "[x, y]" if width == 2 else "[x, y, width, height]"
        raise SchemaError(shape_path, f"expected {arity}")
    try:
        return [finite_float(v, message) for v in row]
    except ValueError as exc:
        raise SchemaError(value_path, str(exc)) from None


def _check_points(values, name: str) -> list:
    """The rows of point field `name` as lists of floats; SchemaError for the
    field or for its first row that is not two finite numbers."""
    return [
        _check_row(row, 2, f"{name}[{i}]", f"{name}[{i}]", POINT_FAULT)
        for i, row in enumerate(_rows(values, name))
    ]


def _check_ocr_item(i: int, box, text, confidence) -> list:
    """The box of OCR item `i` as a list of floats; SchemaError for the
    item's first fault: box shape, box values, box size, text, confidence."""
    path = f"ocr[{i}]"
    box = _check_row(box, 4, f"{path}.box", path, BOX_FAULT)
    if not (box[2] > 0 and box[3] > 0):
        raise SchemaError(path, BOX_SIZE_FAULT)
    if not isinstance(text, str):
        raise SchemaError(path, TEXT_FAULT)
    try:
        if not 0.0 <= finite_float(confidence, CONFIDENCE_FAULT) <= 1.0:
            raise ValueError(CONFIDENCE_FAULT)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None
    return box


def _check_inside(rows: list, size: tuple[int, int], path: str) -> None:
    """SchemaError naming `path` with the first of `rows` whose x and y
    lie outside [0, width) x [0, height)."""
    w, h = size
    for i, (x, y, *_) in enumerate(rows):
        if not (0.0 <= x < w and 0.0 <= y < h):
            raise SchemaError(path.format(i), f"coordinate ({x}, {y}) outside [0, {w}) x [0, {h})")


@dataclass(frozen=True, eq=False)
class GaugeFixture:
    """One gauge's detections, as read-only float64 arrays.

    `keypoints` (N, 2) holds the notch positions, one `KeypointClass` per
    row in `keypoint_classes`; `needle_points` (M, 2) the needle pixels;
    `ocr_boxes` (K, 4) the OCR boxes as x, y, width, height, with one text
    per box in `ocr_texts` and one confidence in `ocr_confidences` (1.0 each
    when None). Each array field takes an int or float array, or a list or
    tuple of numbers (rows of them), and keeps its own copy; equality and
    hashing compare values.
    """

    crop_size: tuple[int, int] = CROP_SIZE
    keypoints: np.ndarray = ()
    keypoint_classes: tuple[KeypointClass, ...] = ()
    needle_points: np.ndarray = ()
    ocr_boxes: np.ndarray = ()
    ocr_texts: tuple[str, ...] = ()
    ocr_confidences: Optional[np.ndarray] = None
    ground_truth: Optional[GroundTruth] = None

    def __post_init__(self):
        if self.ocr_confidences is None and isinstance(self.ocr_texts, (list, tuple)):
            object.__setattr__(self, "ocr_confidences", [1.0] * len(self.ocr_texts))
        converted = self._converted()
        if converted is None:  # some value needs a closer look
            self._raise_first_fault()
            converted = self._converted(scan=False)  # numpy scalars pass the checks
        for name, value in zip(self.__dataclass_fields__, converted):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        for kind in (KeypointClass.START, KeypointClass.END):
            if self.keypoint_classes.count(kind) > 1:
                raise SchemaError("keypoints", f"more than one {kind.value} keypoint")

    def _converted(self, scan: bool = True) -> Optional[tuple]:
        """The fields but ground_truth, in order, when every value plainly
        obeys its rule: one type scan per column and one bounds test per
        kind of value. None when any value needs a closer look."""
        arrays = [
            _float_array(getattr(self, name), name, scan)
            for name in ("keypoints", "needle_points", "ocr_boxes", "ocr_confidences")
        ]
        classes, texts, truth = self.keypoint_classes, self.ocr_texts, self.ground_truth
        try:
            size = positive_int_size(self.crop_size)
        except ValueError:
            return None
        if any(a is None for a in arrays) or not (
            isinstance(classes, (list, tuple))
            and isinstance(texts, (list, tuple))
            and (truth is None or isinstance(truth, GroundTruth))
        ):
            return None
        keypoints, needle, boxes, confidences = arrays
        if not (
            len(classes) == len(keypoints)
            and len(texts) == len(boxes) == len(confidences)
            and set(map(type, classes)) <= {KeypointClass}
            and (not scan or set(map(type, texts)) <= {str})
            and _inside(np.concatenate([keypoints, needle, boxes[:, :2]]), 0.0, size)
            and _inside(boxes[:, 2:], 5e-324, np.inf)
            and all(0.0 <= c <= 1.0 for c in confidences.tolist())
        ):
            return None
        return size, keypoints, tuple(classes), needle, boxes, tuple(texts), confidences

    def _raise_first_fault(self) -> None:
        """SchemaError for the first fault in the documented order: keypoint
        values and classes, OCR items, ground truth, crop_size, keypoint
        bounds, needle rows, OCR box bounds."""
        keypoints = _check_points(self.keypoints, "keypoints")
        classes, texts = self.keypoint_classes, self.ocr_texts
        for name, column in (("keypoint_classes", classes), ("ocr_texts", texts)):
            if not isinstance(column, (list, tuple)):
                raise SchemaError(name, f"expected an array, got {type(column).__name__}")
        if len(classes) != len(keypoints):
            count = f"expected one per keypoint, {len(keypoints)}, got {len(classes)}"
            raise SchemaError("keypoint_classes", count)
        for i, kind in enumerate(classes):
            _check_type(kind, KeypointClass, f"keypoint_classes[{i}]")
        boxes = _rows(self.ocr_boxes, "ocr_boxes")
        confidences = _rows(self.ocr_confidences, "ocr_confidences")
        for name, column in (("ocr_texts", texts), ("ocr_confidences", confidences)):
            if len(column) != len(boxes):
                raise SchemaError(name, f"expected one per box, {len(boxes)}, got {len(column)}")
        boxes = [_check_ocr_item(i, *item) for i, item in enumerate(zip(boxes, texts, confidences))]
        if self.ground_truth is not None:
            _check_type(self.ground_truth, GroundTruth, "ground_truth")
        try:
            size = positive_int_size(self.crop_size)
        except ValueError as exc:
            raise SchemaError("crop_size", str(exc)) from None
        _check_inside(keypoints, size, "keypoints[{}]")
        needle = _check_points(self.needle_points, "needle_points")
        _check_inside(needle, size, "needle_points[{}]")
        _check_inside(boxes, size, "ocr[{}].box")

    def _values(self) -> tuple:
        return (
            self.crop_size,
            tuple(self.keypoints.ravel().tolist()),
            self.keypoint_classes,
            tuple(self.needle_points.ravel().tolist()),
            tuple(self.ocr_boxes.ravel().tolist()),
            self.ocr_texts,
            tuple(self.ocr_confidences.tolist()),
            self.ground_truth,
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


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


_KEYPOINT_CLASSES = {kind.value: kind for kind in KeypointClass}


def _entry_columns(keypoints, ocr) -> Optional[dict]:
    """GaugeFixture's keypoint and OCR arguments gathered from the decoded
    entries, unchecked values included; None when an entry has the wrong
    shape, a missing key or an unknown class."""
    if type(keypoints) is not list or type(ocr) is not list:
        return None
    try:
        return dict(
            keypoints=[[e["x"], e["y"]] for e in keypoints],
            keypoint_classes=tuple([_KEYPOINT_CLASSES[e["class"]] for e in keypoints]),
            ocr_boxes=[e.get("box") for e in ocr],
            ocr_texts=[e.get("text", "") for e in ocr],
            ocr_confidences=[e.get("confidence", 1.0) for e in ocr],
        )
    except (KeyError, TypeError, AttributeError):
        return None


def _first_entry_fault(keypoints, ocr) -> Optional[SchemaError]:
    """The first fault of the keypoint and OCR entries in document order,
    each entry checked whole (shape, class, values) before the next."""
    try:
        for i, entry in enumerate(as_list(keypoints, "keypoints")):
            path = f"keypoints[{i}]"
            obj = as_object(entry, path)
            if "x" not in obj or "y" not in obj:
                raise SchemaError(path, "missing x or y")
            if not isinstance(obj.get("class"), str) or obj["class"] not in _KEYPOINT_CLASSES:
                raise SchemaError(
                    f"{path}.class",
                    f"expected one of start/intermediate/end, got {obj.get('class')!r}",
                )
            _check_row([obj["x"], obj["y"]], 2, path, path, POINT_FAULT)
        for i, entry in enumerate(as_list(ocr, "ocr")):
            obj = as_object(entry, f"ocr[{i}]")
            _check_ocr_item(i, obj.get("box"), obj.get("text", ""), obj.get("confidence", 1.0))
    except SchemaError as exc:
        return exc
    return None


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

    # The entries go to GaugeFixture as columns, which it checks in bulk.
    # A fault found here may follow a bad value in an earlier entry, so the
    # entries are then walked for the first fault in document order.
    keypoints, ocr = root.get("keypoints", []), root.get("ocr", [])
    columns = _entry_columns(keypoints, ocr)
    if columns is None:
        raise _first_entry_fault(keypoints, ocr)
    try:
        ground_truth = _parse_ground_truth(root.get("ground_truth"))
    except SchemaError as exc:
        raise _first_entry_fault(keypoints, ocr) or exc from None
    return GaugeFixture(
        ground_truth=ground_truth, **columns, **present_entries(root, "crop_size", "needle_points")
    )


def _parse_ground_truth(doc) -> Optional[GroundTruth]:
    if doc is None:
        return None
    obj = as_object(doc, "ground_truth")
    for key in ("reading", "range_min", "range_max"):
        if key not in obj:
            raise SchemaError(f"ground_truth.{key}", "missing required field")
    try:
        return GroundTruth(**present_entries(obj, "reading", "range_min", "range_max", "unit"))
    except ValueError as exc:
        raise SchemaError("ground_truth", str(exc)) from None


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _fixture_jsonable(f: GaugeFixture) -> dict:
    doc: dict[str, Any] = {
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
