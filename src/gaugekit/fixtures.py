"""Detection data model and its JSON wire format.

A fixture bundles everything the reading pipeline needs for one cropped
gauge as read-only float arrays with their labels: notch keypoints and
their classes, sampled needle-mask pixels, OCR text boxes with their texts
and confidences, and optional ground truth. All coordinates live in the
crop frame (origin top-left, y down) and must fall inside [0, crop_size)
per axis. GaugeFixture validates every value on construction, in one place,
so a fixture built in code obeys the same rules as a parsed one and names
the same first fault; parse_fixture reads only the document's shape and
its ground truth, before any value.

Documents carry a top-level "schema": 1 field, the JSON integer 1 (not
true, 1.0 or "1"). Unknown fields are ignored so fixtures written by newer
producers still parse.
"""

from __future__ import annotations

import enum
import functools
import json
import math
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

    # Members are singletons that compare by identity, so the identity hash
    # fits; Enum's own hashes the name in Python on every dict lookup.
    __hash__ = object.__hash__


# Point2, Rect and OcrItem are on no fixture path. perfbench/tracing.py wraps
# their __post_init__ by name, so they go at the next change to the benchmark.
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
        if not math.isfinite(self.range_max - self.range_min):
            raise ValueError("range_max - range_min must be finite")
        if not isinstance(self.unit, str):
            raise ValueError("unit must be a string")


# Per array field: the row shape, the array shape its errors name and the
# path of a row's fault.
_ARRAY_FIELDS = {
    "keypoints": ((2,), "(N, 2)", "keypoints[{}]"),
    "needle_points": ((2,), "(M, 2)", "needle_points[{}]"),
    "ocr_boxes": ((4,), "(K, 4)", "ocr[{}].box"),
    "ocr_confidences": ((), "(K,)", None),
}
# The row lengths a row shape allows; the types of the rows of a plain 2-D
# field and of its values, and of a fixture's keypoint classes.
_ROW_LENGTHS = {row: frozenset(row) for row, _, _ in _ARRAY_FIELDS.values()}
_ROW_TYPES = frozenset((list, tuple))
_NUMBER_TYPES = frozenset((float, int))
_CLASS_TYPES = frozenset((KeypointClass,))
# The least x, y, width and height of a box: corners from 0, extents positive
# (5e-324 is the least positive float).
_BOX_LOW = np.array([0.0, 0.0, 5e-324, 5e-324])


@functools.lru_cache(maxsize=64)
def _upper_bounds(size: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The exclusive upper bounds of a crop of `size` as read-only float64
    arrays, built once per size: (w, h) for points, (w, h, inf, inf) for
    boxes. As floats, a size beyond int64 compares as the number it is;
    every size is a whole float, so no comparison moves."""
    w, h = size
    boxes = np.array([float(w), float(h), math.inf, math.inf])
    boxes.flags.writeable = False
    return boxes[:2], boxes


def _plain(values, row: tuple) -> bool:
    """Whether list or tuple `values` holds only Python ints and floats, in
    lists or tuples of the field's arity when `row` is not empty."""
    if row:
        if not set(map(type, values)) <= _ROW_TYPES or set(map(len, values)) != _ROW_LENGTHS[row]:
            return False
        values = chain.from_iterable(values)
    return set(map(type, values)) <= _NUMBER_TYPES


def _number(value) -> float:
    """`value` as a float for the finite rule to judge: NaN unless is_number
    accepts it, inf for an int beyond the float range."""
    if not is_number(value):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _float_rows(values, name: str) -> tuple[np.ndarray, Optional[SchemaError]]:
    """Array field `name` as a new float64 array, and the fault that ends it.

    An int or float ndarray of the field's shape is copied whole, and so is a
    list or tuple of Python ints and floats (rows of them for a 2-D field),
    after one type scan. Any other list or tuple is walked in Python up to
    its first row that is not a list or tuple of the field's arity, each
    value taken by _number. The fault is a SchemaError for that row, or for
    the whole field when it is no such array; None when every row converts.
    """
    row, shape, row_path = _ARRAY_FIELDS[name]
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iuf":
            dtype = f"expected an int or float array, got {values.dtype}"
            return np.empty((0, *row)), SchemaError(name, dtype)
        if not (values.ndim == len(row) + 1 and values.shape[1:] == row):
            got = f"expected shape {shape}, got {values.shape}"
            return np.empty((0, *row)), SchemaError(name, got)
        return values.astype(np.float64), None
    if not isinstance(values, (list, tuple)):
        got = f"expected an array, got {type(values).__name__}"
        return np.empty((0, *row)), SchemaError(name, got)
    if not values:
        return np.empty((0, *row)), None
    if _plain(values, row):
        try:
            if not row:
                return np.array(values, dtype=np.float64), None
            # The rows read flat, each value converted as np.array converts it,
            # without np.array's walk to find the nesting.
            count = len(values) * row[0]
            flat = np.fromiter(chain.from_iterable(values), np.float64, count)
            return flat.reshape(-1, *row), None
        except OverflowError:  # an int beyond the float range, walked below
            pass
    rows, fault = [], None
    for i, value in enumerate(values):
        if row and not isinstance(value, (list, tuple)):
            fault = SchemaError(row_path.format(i), f"expected an array, got {type(value).__name__}")
            break
        if row and len(value) != row[0]:
            arity = "[x, y]" if row[0] == 2 else "[x, y, width, height]"
            fault = SchemaError(row_path.format(i), f"expected {arity}")
            break
        rows.append([_number(v) for v in value] if row else _number(value))
    return np.array(rows, dtype=np.float64).reshape(-1, *row), fault


def _within(values: np.ndarray, low, high) -> tuple[np.ndarray, bool]:
    """The mask low <= v < high over `values`, False for NaN, and whether it
    holds everywhere."""
    mask = (values >= low) & (values < high)
    return mask, np.count_nonzero(mask) == mask.size


def _first_false(mask) -> int:
    """The index of the first row of boolean `mask` (an array or a list)
    that holds a False; its length when none does."""
    rows = np.asarray(mask, dtype=bool)
    if rows.ndim == 2:
        rows = rows.all(axis=1)
    return len(rows) if rows.all() else int(rows.argmin())


def _raise_point_fault(rows: np.ndarray, fault: Optional[SchemaError], path: str) -> None:
    """SchemaError naming `path` with the first of the point `rows` that is
    not finite; else `fault`, the fault that ended them, if any."""
    bad = _first_false(np.isfinite(rows))
    if bad < len(rows):
        raise SchemaError(path.format(bad), POINT_FAULT)
    if fault is not None:
        raise fault


def _raise_outside(rows: np.ndarray, inside: np.ndarray, path: str, size: tuple[int, int]) -> None:
    """SchemaError naming `path` with the first of `rows` whose x and y the
    mask `inside` rejects."""
    bad = _first_false(inside)
    if bad < len(rows):
        (x, y), (w, h) = rows[bad, :2].tolist(), size
        raise SchemaError(path.format(bad), f"coordinate ({x}, {y}) outside [0, {w}) x [0, {h})")


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
        """The one validator: SchemaError for the first fault in the order
        README documents, each value rule evaluated once, as a mask."""
        if self.ocr_confidences is None and isinstance(self.ocr_texts, (list, tuple)):
            object.__setattr__(self, "ocr_confidences", [1.0] * len(self.ocr_texts))
        keypoints, kp_fault = _float_rows(self.keypoints, "keypoints")
        needle, needle_fault = _float_rows(self.needle_points, "needle_points")
        boxes, box_fault = _float_rows(self.ocr_boxes, "ocr_boxes")
        confidences, conf_fault = _float_rows(self.ocr_confidences, "ocr_confidences")
        classes, texts, truth = self.keypoint_classes, self.ocr_texts, self.ground_truth
        try:
            size, size_fault = positive_int_size(self.crop_size), None
        except ValueError as exc:  # raised before any bounds fault, so (0, 0) never shows
            size, size_fault = (0, 0), SchemaError("crop_size", str(exc))
        # One mask per value rule, False for every non-finite value: points
        # inside the crop; box corners inside and extents positive;
        # confidences in [0, 1]. A finite test is made only where one fails.
        point_high, box_high = _upper_bounds(size)
        inside, points_ok = _within(np.concatenate([keypoints, needle]), 0.0, point_high)
        box_inside, boxes_ok = _within(boxes, _BOX_LOW, box_high)
        in_unit = [0.0 <= c <= 1.0 for c in confidences.tolist()]

        if kp_fault or not points_ok:
            _raise_point_fault(keypoints, kp_fault, "keypoints[{}]")
        for name, column in (("keypoint_classes", classes), ("ocr_texts", texts)):
            if not isinstance(column, (list, tuple)):
                raise SchemaError(name, f"expected an array, got {type(column).__name__}")
        if len(classes) != len(keypoints):
            count = f"expected one per keypoint, {len(keypoints)}, got {len(classes)}"
            raise SchemaError("keypoint_classes", count)
        if not set(map(type, classes)) <= _CLASS_TYPES:  # an Enum with members has no subclass
            for i, kind in enumerate(classes):
                if not isinstance(kind, KeypointClass):
                    got = f"expected KeypointClass, got {type(kind).__name__}"
                    raise SchemaError(f"keypoint_classes[{i}]", got)
        for fault in (box_fault, conf_fault):  # a fault of a whole field comes before its items
            if fault is not None and fault.path in _ARRAY_FIELDS:
                raise fault
        n_boxes = len(self.ocr_boxes)
        for name, column in (("ocr_texts", texts), ("ocr_confidences", self.ocr_confidences)):
            if len(column) != n_boxes:
                raise SchemaError(name, f"expected one per box, {n_boxes}, got {len(column)}")
        is_text = [isinstance(text, str) for text in texts]
        if box_fault or not (boxes_ok and all(in_unit) and all(is_text)):
            # Each OCR item whole before the next: box shape, box values, box
            # size, text, confidence. The box rows stop at box_fault's item.
            item, _, message = min(
                (_first_false(np.isfinite(boxes)), 0, BOX_FAULT),
                (_first_false(box_inside[:, 2:]), 1, BOX_SIZE_FAULT),
                (_first_false(is_text), 2, TEXT_FAULT),
                (_first_false(in_unit), 3, CONFIDENCE_FAULT),
            )
            if box_fault is not None and item >= len(boxes):
                raise box_fault
            if item < n_boxes:
                raise SchemaError(f"ocr[{item}]", message)
        if truth is not None and not isinstance(truth, GroundTruth):
            raise SchemaError("ground_truth", f"expected GroundTruth, got {type(truth).__name__}")
        if size_fault is not None:
            raise size_fault
        if needle_fault or not (points_ok and boxes_ok):
            _raise_outside(keypoints, inside[: len(keypoints)], "keypoints[{}]", size)
            _raise_point_fault(needle, needle_fault, "needle_points[{}]")
            _raise_outside(needle, inside[len(keypoints) :], "needle_points[{}]", size)
            _raise_outside(boxes, box_inside[:, :2], "ocr[{}].box", size)
        classes = tuple(classes)
        for kind in (KeypointClass.START, KeypointClass.END):
            if classes.count(kind) > 1:
                raise SchemaError("keypoints", f"more than one {kind.value} keypoint")
        values = (size, keypoints, classes, needle, boxes, tuple(texts), confidences)
        for name, value in zip(self.__dataclass_fields__, values):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

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

    __hash__ = object.__hash__  # as KeypointClass's


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

# Every stage in report order, as a tuple: iterating the Enum class costs more.
_STAGES = tuple(Stage)
# Stages whose failure stops the pipeline; notch-orientation trouble only
# degrades to a fallback wrap-around point.
FATAL_STAGES = (Stage.ELLIPSE, Stage.NEEDLE, Stage.OCR)


@dataclass(frozen=True, slots=True)
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

    __hash__ = object.__hash__  # as KeypointClass's


@dataclass(frozen=True, slots=True)
class Reading:
    scale: ScaleSide
    value: float


@dataclass(frozen=True, slots=True)
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
        object.__setattr__(self, "stage_statuses", {s: statuses[s] for s in _STAGES if s in statuses})
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


def require(doc: Any, path: str) -> Any:
    """The value under the last key of the dotted JSON `path` in `doc`;
    SchemaError naming the path when `doc` is no object or lacks that key."""
    key = path.rpartition(".")[2]
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(path, "missing required field")
    return doc[key]


def build_value(cls, path: str, **kwargs):
    """cls(**kwargs), the one way a JSON reader builds a value type: the
    ValueError of a value it rejects becomes a SchemaError under `path`."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


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


# What json.dumps(doc, ensure_ascii=False) builds on every call, built once.
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def dump_json(doc: Any) -> bytes:
    """`doc` as UTF-8 JSON, non-ASCII text kept as it is; every document
    gaugekit writes (fixtures, reports, summaries, manifests) is encoded
    here."""
    return _ENCODER.encode(doc).encode("utf-8")


_KEYPOINT_CLASSES = {kind.value: kind for kind in KeypointClass}


def parse_fixture(data: bytes | str) -> GaugeFixture:
    """Parse a UTF-8 JSON fixture document.

    Raises SchemaError naming the offending path: "$" for malformed UTF-8
    or JSON, the field for a wrong shape or a value the data model rejects.
    The document's shape is read first, where each fault is met (schema
    version, arrays, entry objects and their keys, keypoint class), then
    the ground truth; GaugeFixture then names the first value fault.
    """
    root = as_object(load_json(data), "$")
    version = root.get("schema")
    if not (is_number(version, integer=True) and version == SCHEMA_VERSION):
        raise SchemaError("schema", f"expected schema version {SCHEMA_VERSION}")
    points, classes = [], []
    for i, entry in enumerate(as_list(root.get("keypoints", []), "keypoints")):
        if type(entry) is not dict or "x" not in entry or "y" not in entry:
            as_object(entry, f"keypoints[{i}]")
            raise SchemaError(f"keypoints[{i}]", "missing x or y")
        kind = entry.get("class")
        if not (isinstance(kind, str) and kind in _KEYPOINT_CLASSES):
            known = f"expected one of start/intermediate/end, got {kind!r}"
            raise SchemaError(f"keypoints[{i}].class", known)
        points.append([entry["x"], entry["y"]])
        classes.append(_KEYPOINT_CLASSES[kind])
    boxes, texts, confidences = [], [], []
    for i, entry in enumerate(as_list(root.get("ocr", []), "ocr")):
        if type(entry) is not dict:
            as_object(entry, f"ocr[{i}]")
        boxes.append(entry.get("box"))
        texts.append(entry.get("text", ""))
        confidences.append(entry.get("confidence", 1.0))
    return GaugeFixture(
        keypoints=points,
        keypoint_classes=classes,
        ocr_boxes=boxes,
        ocr_texts=texts,
        ocr_confidences=confidences,
        ground_truth=_parse_ground_truth(root.get("ground_truth")),
        **present_entries(root, "crop_size", "needle_points"),
    )


def _parse_ground_truth(doc) -> Optional[GroundTruth]:
    if doc is None:
        return None
    kwargs = present_fields(GroundTruth, doc, "ground_truth")
    for key in ("reading", "range_min", "range_max"):
        require(kwargs, f"ground_truth.{key}")
    return build_value(GroundTruth, "ground_truth", **kwargs)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

_GROUND_TRUTH_FIELDS = tuple(key.name for key in fields(GroundTruth))


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
        doc["ground_truth"] = {name: getattr(gt, name) for name in _GROUND_TRUTH_FIELDS}
    return doc


def serialize_fixture(fixture: GaugeFixture) -> bytes:
    """Serialize a fixture; floats keep full precision so parse round-trips exactly."""
    return dump_json(_fixture_jsonable(fixture))


def _round9(value):
    """A float rounded to 9 significant digits; None, an int or a str passes as it is."""
    return float(format(value, ".9g")) if isinstance(value, float) else value


def serialize_report(report: GaugeReadingReport) -> bytes:
    """Serialize a reading report deterministically.

    Keys follow a fixed order and every real is rounded to 9 significant
    digits, so identical reports serialize to identical bytes.
    """
    statuses = {
        stage.value: {"status": "ok"} if status.ok else {"status": "failed", "reason": status.reason}
        for stage, status in report.stage_statuses.items()
    }

    e, line = report.fitted_ellipse, report.needle_line
    doc = {
        "schema": SCHEMA_VERSION,
        "stage_statuses": statuses,
        "ellipse": None
        if e is None
        else {
            "center": [_round9(e.cx), _round9(e.cy)],
            "a": _round9(e.a),
            "b": _round9(e.b),
            "theta": _round9(e.theta),
        },
        "needle_line": None
        if line is None
        else {
            "point": [_round9(line.px), _round9(line.py)],
            "direction": [_round9(line.dx), _round9(line.dy)],
        },
        "wrap_angle": _round9(report.wrap_angle),
        "needle_relative_angle": _round9(report.needle_relative_angle),
        "markers": [
            {
                "scale": m.scale.value,
                "angle": _round9(m.angle),
                "value": _round9(m.value),
                "inlier": m.inlier,
                "text": m.text,
            }
            for m in report.markers_used
        ],
        "readings": [{"scale": r.scale.value, "value": _round9(r.value)} for r in report.readings],
        "unit": report.unit,
    }
    return dump_json(doc)
