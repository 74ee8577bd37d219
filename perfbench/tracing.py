"""Outside-in tracing of gaugekit's layers.

The tracer replaces module attributes (``gaugekit.geometry.fit_ellipse_direct``,
``AffineTransform.apply``, the data-model ``__post_init__`` methods, ...) with
wrappers for the duration of a ``with`` block and restores them afterwards.
Nothing inside ``src/`` changes: gaugekit looks these names up through its
module globals and class dicts at call time, so the wrappers see every call
the pipeline makes.

Two kinds of wrapper exist. A *span* records name, op id, parent span,
start, end and whether the call raised; spans stay in memory and are turned
into per-layer numbers when the run ends. A *count* only bumps a counter; it
is used where a function runs hundreds of times per op and a span each would
cost more than the function (``Point2.__post_init__``, ``parametric_angle``).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from statistics import median

from gaugekit import fixtures, geometry, keypoints, pipeline, scale_model, synthgauge

# (owner, attribute, layer name). Layer names are "<module>.<function>".
SPAN_TARGETS = (
    (fixtures, "parse_fixture", "fixtures.parse_fixture"),
    (fixtures, "serialize_report", "fixtures.serialize_report"),
    (fixtures, "serialize_fixture", "fixtures.serialize_fixture"),
    (synthgauge, "generate_scene", "synthgauge.generate_scene"),
    (synthgauge, "perturb_scene", "synthgauge.perturb_scene"),
    (geometry.AffineTransform, "apply", "geometry.AffineTransform.apply"),
    (geometry, "fit_ellipse_direct", "geometry.fit_ellipse_direct"),
    (geometry, "odr_fit_line", "geometry.odr_fit_line"),
    (geometry, "circularize", "geometry.circularize"),
    (geometry, "line_circle_intersections", "geometry.line_circle_intersections"),
    (scale_model, "ransac_fit_linear", "scale_model.ransac_fit_linear"),
    (scale_model, "extract_unit", "scale_model.extract_unit"),
    (pipeline, "read_gauge", "pipeline.read_gauge"),
    (pipeline, "evaluate_batch", "pipeline.evaluate_batch"),
    (keypoints, "extract_keypoints_meanshift", "keypoints.extract_keypoints_meanshift"),
)

# Every fixtures dataclass that validates itself in __post_init__ counts
# towards one number, fixtures.validations_per_op.
_VALIDATING = (
    fixtures.Point2,
    fixtures.Rect,
    fixtures.OcrItem,
    fixtures.GroundTruth,
    fixtures.GaugeFixture,
    fixtures.StageStatus,
    fixtures.GaugeReadingReport,
)
COUNT_TARGETS = (
    (geometry, "parametric_angle", "geometry.parametric_angle"),
    (geometry, "radial_project_to_circle", "geometry.radial_project_to_circle"),
    (scale_model, "parse_numeric_token", "scale_model.parse_numeric_token"),
) + tuple((cls, "__post_init__", "fixtures.validations") for cls in _VALIDATING)

ALL_LAYERS = tuple(dict.fromkeys(name for _, _, name in SPAN_TARGETS + COUNT_TARGETS))

OP = "op"  # name of the root span that brackets one benchmark op

_NAME, _OP_ID, _PARENT, _START, _END, _RAISED = range(6)


class Tracer:
    """In-memory span and counter store; install with ``with tracer:``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op_id = -1
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._op_id, parent, time.perf_counter_ns(), 0, False])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, raised: bool) -> None:
        span = self.spans[index]
        span[_END] = time.perf_counter_ns()
        span[_RAISED] = raised
        self._stack.pop()

    def _span(self, name: str, fn, args, kwargs):
        index = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(index, True)
            raise
        self._close(index, False)
        return result

    def call_op(self, op_id: int, fn, arg):
        """Run one benchmark op, `fn(arg)`, under a root span."""
        self._op_id = op_id
        return self._span(OP, fn, (arg,), {})

    def _span_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def __enter__(self):
        for owner, attr, name in SPAN_TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._span_wrapper(original, name))
        for owner, attr, name in COUNT_TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._count_wrapper(original, name))
        return self

    def __exit__(self, exc_type, exc, tb):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- analysis ----------------------------------------------------------

    def layer_stats(self) -> "LayerStats":
        return LayerStats(self.spans, dict(self.counts))


class LayerStats:
    """Per-layer aggregates over the spans of one traced loop."""

    def __init__(self, spans: list[list], counts: dict[str, int]):
        child_time = [0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.raised: dict[str, int] = defaultdict(int)
        self.op_durations: dict[int, int] = {}
        self.durations_by_op: dict[str, dict[int, list[int]]] = defaultdict(
            lambda: defaultdict(list)
        )
        for index, span in enumerate(spans):
            name, op_id = span[_NAME], span[_OP_ID]
            duration = span[_END] - span[_START]
            if name == OP:
                self.op_durations[op_id] = duration
            self.durations[name].append(duration)
            self.durations_by_op[name][op_id].append(duration)
            self.self_ns[name] += duration - child_time[index]
            self.raised[name] += span[_RAISED]
        self.counts = counts
        self.n_ops = len(self.op_durations)
        self.total_op_ns = sum(self.op_durations.values())

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ())) or self.counts.get(name, 0)

    def calls_per_op(self, name: str) -> float:
        return self.calls(name) / self.n_ops if self.n_ops else 0.0

    def raised_per_op(self, name: str) -> float:
        return self.raised.get(name, 0) / self.n_ops if self.n_ops else 0.0

    def ms_p50(self, name: str, op_ids=None) -> float:
        if op_ids is None:
            values = self.durations.get(name, [])
        else:
            by_op = self.durations_by_op.get(name, {})
            values = [d for op_id in op_ids for d in by_op.get(op_id, ())]
        return median(values) / 1e6 if values else 0.0

    def share(self, name: str) -> float:
        """Inclusive time in `name` over total op time."""
        if not self.total_op_ns:
            return 0.0
        return sum(self.durations.get(name, ())) / self.total_op_ns

    def self_share(self, *names: str) -> float:
        """Self time (span minus child spans) in `names` over total op time."""
        if not self.total_op_ns:
            return 0.0
        return sum(self.self_ns.get(n, 0) for n in names) / self.total_op_ns

    def module_share(self, module: str) -> float:
        return self.self_share(*(n for n in self.self_ns if n.startswith(module + ".")))
