"""Fixture-to-reading orchestration with per-stage failure accounting.

read_gauge never raises on a valid fixture: every way the computation can
die is folded into a stage status, and the pipeline stops at the first
fatal stage so each failed report carries exactly one failure reason.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import geometry, scale_model
from .errors import (
    AmbiguousOrientation,
    DegenerateConfiguration,
    DegeneratePoints,
    InsufficientPoints,
    InvalidRange,
    IsotropicScatter,
    MissingGroundTruth,
    NoConsensus,
    NoIntersection,
    SchemaError,
)
from .fixtures import (
    REPORT_STAGES,
    GaugeFixture,
    GaugeReadingReport,
    KeypointClass,
    MarkerUse,
    Reading,
    ScaleSide,
    Stage,
    StageStatus,
    is_number,
    rounded_json,
)

MIN_NOTCHES = 5


def _present_fields(cls, doc, path: str) -> dict:
    """The entries of JSON object `doc` that name an init field of `cls`."""
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected an object, got {type(doc).__name__}")
    return {f.name: doc[f.name] for f in fields(cls) if f.init and f.name in doc}


@dataclass(frozen=True)
class RansacSettings:
    threshold_fraction: float = 0.02
    enabled: bool = True  # False switches to the plain least-squares baseline

    def __post_init__(self):
        if not (is_number(self.threshold_fraction) and 0 < self.threshold_fraction < math.inf):
            raise ValueError("threshold_fraction must be a finite number > 0")
        if not isinstance(self.enabled, bool):
            raise ValueError("enabled must be true or false")


@dataclass(frozen=True)
class PipelineConfig:
    ransac: RansacSettings = field(default_factory=RansacSettings)
    unit_lexicon_path: Optional[str] = None
    failure_error_threshold_percent: float = 10.0
    # Read from unit_lexicon_path once, when the config is built.
    unit_lexicon: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        threshold = self.failure_error_threshold_percent
        if not (is_number(threshold) and 0 <= threshold < math.inf):
            raise ValueError("failure_error_threshold_percent must be a finite number >= 0")
        if self.unit_lexicon_path is None:
            lexicon = scale_model.DEFAULT_UNIT_LEXICON
        elif isinstance(self.unit_lexicon_path, (str, os.PathLike)):
            lexicon = scale_model.load_unit_lexicon(self.unit_lexicon_path)
        else:
            raise ValueError("unit_lexicon_path must be a string or null")
        object.__setattr__(self, "unit_lexicon", lexicon)

    @classmethod
    def from_json(cls, doc) -> "PipelineConfig":
        """Config from a decoded JSON object; absent keys keep the defaults and
        unknown keys are ignored. SchemaError on a bad value, OSError on an
        unreadable unit lexicon."""
        kwargs = _present_fields(cls, doc, "config")
        if "ransac" in kwargs:
            try:
                kwargs["ransac"] = RansacSettings(
                    **_present_fields(RansacSettings, kwargs["ransac"], "ransac")
                )
            except ValueError as exc:
                raise SchemaError("ransac", str(exc)) from None
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise SchemaError("config", str(exc)) from None

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """Config from a UTF-8 JSON file; see from_json for the errors."""
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # malformed JSON or UTF-8; OSError passes
            raise SchemaError("config", f"not valid JSON: {exc}") from None
        return cls.from_json(doc)


def _needle_segment(line: geometry.Line, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extreme orthogonal projections of the needle pixels onto the fitted line."""
    params = line.project_parameter(points)
    return (
        line.point + line.direction * float(params.min()),
        line.point + line.direction * float(params.max()),
    )


def _wrap_and_notch_status(
    fixture: GaugeFixture, keypoints: np.ndarray, transform: geometry.AffineTransform
) -> tuple[float, StageStatus]:
    # One vote per distinct keypoint: an exact repeat is the same notch.
    distinct = {kp: i for i, kp in enumerate(fixture.keypoints)}
    points = transform.apply(keypoints[list(distinct.values())])
    directed = points.any(axis=1)  # a notch at the ellipse center has no direction
    angles = geometry.parametric_angle(points[directed]).tolist()
    kinds = [kp.kind for kp, keep in zip(distinct, directed) if keep]
    by_kind = {kind: [a for a, k in zip(angles, kinds) if k is kind] for kind in KeypointClass}

    start, end = by_kind[KeypointClass.START], by_kind[KeypointClass.END]
    if start and end:
        intermediates = by_kind[KeypointClass.INTERMEDIATE]
        try:
            return (
                scale_model.wrap_around_angle(start[0], end[0], intermediates),
                StageStatus.passed(),
            )
        except AmbiguousOrientation as exc:
            return exc.fallback_angle, StageStatus.failed("ambiguous_orientation")

    # Start or end missing: place the wrap in the largest notch gap.
    return scale_model.wrap_from_gaps(angles), StageStatus.failed("ambiguous_orientation")


def _back_map_line(line: geometry.Line, inverse: geometry.AffineTransform) -> geometry.Line:
    p = inverse.apply(line.point)
    q = inverse.apply(line.point + line.direction)
    return geometry.Line(p[0], p[1], q[0] - p[0], q[1] - p[1])


def _upright_rotation(
    ellipse: geometry.Ellipse, inverse: geometry.AffineTransform, wrap_angle: float
) -> Optional[geometry.AffineTransform]:
    wrap_img = inverse.apply(np.array([math.cos(wrap_angle), math.sin(wrap_angle)]))
    offset = wrap_img - ellipse.center
    norm = float(np.linalg.norm(offset))
    if norm == 0.0:
        return None
    return geometry.orientation_correction(offset / norm)


def read_gauge(fixture: GaugeFixture, config: Optional[PipelineConfig] = None) -> GaugeReadingReport:
    """Compute the calibrated reading(s) for one fixture.

    Stages run in order: ellipse fit over all notch keypoints, wrap-around
    from the start/end notches, needle line fit and circle intersection,
    marker projection and per-scale robust model fit, then evaluation at the
    needle angle. Each stage's outcome lands in the report; the first fatal
    failure ends the run with everything computed so far.
    """
    cfg = config or PipelineConfig()
    statuses: dict[Stage, StageStatus] = {}

    keypoints = fixture.keypoint_array()
    if len(keypoints) < MIN_NOTCHES:
        statuses[Stage.ELLIPSE] = StageStatus.failed("insufficient_notches")
        return GaugeReadingReport(stage_statuses=statuses)
    try:
        ellipse = geometry.fit_ellipse_direct(keypoints)
    except (InsufficientPoints, DegenerateConfiguration):
        statuses[Stage.ELLIPSE] = StageStatus.failed("degenerate_ellipse")
        return GaugeReadingReport(stage_statuses=statuses)
    statuses[Stage.ELLIPSE] = StageStatus.passed()

    transform = geometry.circularize(ellipse)
    inverse = transform.inverse()

    wrap, notch_status = _wrap_and_notch_status(fixture, keypoints, transform)
    statuses[Stage.NOTCHES] = notch_status
    upright = _upright_rotation(ellipse, inverse, wrap)

    def finish(**kwargs) -> GaugeReadingReport:
        return GaugeReadingReport(
            stage_statuses=statuses,
            fitted_ellipse=ellipse,
            wrap_angle=wrap,
            upright_rotation=upright,
            **kwargs,
        )

    needle_c = transform.apply(fixture.needle_array())
    try:
        needle_line = geometry.odr_fit_line(needle_c)
    except (InsufficientPoints, DegeneratePoints):
        statuses[Stage.NEEDLE] = StageStatus.failed("insufficient_needle_points")
        return finish()
    except IsotropicScatter:
        statuses[Stage.NEEDLE] = StageStatus.failed("isotropic_needle")
        return finish()
    needle_img = _back_map_line(needle_line, inverse)

    try:
        candidates = geometry.line_circle_intersections(needle_line)
    except NoIntersection:
        statuses[Stage.NEEDLE] = StageStatus.failed("no_intersection")
        return finish(needle_line=needle_img)
    tip = geometry.pick_needle_intersection(candidates, _needle_segment(needle_line, needle_c))
    needle_rel = scale_model.relative_angle(geometry.parametric_angle(tip), wrap)
    statuses[Stage.NEEDLE] = StageStatus.passed()

    # Project numeric OCR detections onto the circle; the rest are unit
    # candidates and need no geometry.
    numeric = [
        (item, value)
        for item in fixture.ocr_items
        if (value := scale_model.parse_numeric_token(item.text)) is not None
    ]
    centers = transform.apply(
        np.array(
            [[it.box.x + it.box.width / 2.0, it.box.y + it.box.height / 2.0] for it, _ in numeric]
        ).reshape(-1, 2)
    )
    directed = centers.any(axis=1)  # a marker at the ellipse center has no direction
    markers = [(item.text, value) for (item, value), keep in zip(numeric, directed) if keep]
    on_circle, radius = geometry.radial_project_to_circle(centers[directed])
    rel_angles = scale_model.relative_angle(geometry.parametric_angle(on_circle), wrap)
    unit = scale_model.extract_unit(fixture.ocr_items, cfg.unit_lexicon)

    readings: list[Reading] = []
    marker_uses: list[MarkerUse] = []
    no_consensus = False
    outer = radius >= 1.0
    for side, on_side in ((ScaleSide.OUTER, outer), (ScaleSide.INNER, ~outer)):
        group = [m for m, keep in zip(markers, on_side) if keep]
        angles = rel_angles[on_side]
        values = [value for _, value in group]
        inliers: set[int] = set()
        if len(group) >= 2:
            pairs = np.column_stack([angles, values])
            threshold = scale_model.default_inlier_threshold(
                values, cfg.ransac.threshold_fraction
            )
            try:
                if cfg.ransac.enabled:
                    model = scale_model.ransac_fit_linear(pairs, threshold)
                else:
                    model = scale_model.least_squares_fit_linear(pairs)
            except NoConsensus:
                no_consensus = True
            else:
                inliers = set(model.inliers)
                readings.append(Reading(side, model.value_at(needle_rel)))
        marker_uses.extend(
            MarkerUse(side, a, value, k in inliers, text)
            for k, (a, (text, value)) in enumerate(zip(angles.tolist(), group))
        )

    # A side with two or more markers either yields a reading or lacks consensus.
    statuses[Stage.OCR] = (
        StageStatus.passed()
        if readings
        else StageStatus.failed("no_consensus" if no_consensus else "insufficient_markers")
    )

    return finish(
        needle_line=needle_img,
        needle_relative_angle=needle_rel,
        markers_used=tuple(marker_uses),
        readings=tuple(readings),
        unit=unit,
    )


def compute_relative_error(
    predicted: float, truth: float, range_min: float, range_max: float
) -> float:
    """Reading error as a percentage of the full scale range."""
    if not range_max > range_min:
        raise InvalidRange(f"range_max {range_max} must exceed range_min {range_min}")
    return 100.0 * abs(predicted - truth) / (range_max - range_min)


def matched_reading(report: GaugeReadingReport, gt) -> Optional[float]:
    """Reading of the scale whose inlier marker values best match the
    ground-truth range; dual-scale gauges report one value per scale and the
    range tells them apart."""
    if not report.readings:
        return None
    if len(report.readings) == 1:
        return report.readings[0].value

    span = gt.range_max - gt.range_min

    def mismatch(reading: Reading) -> float:
        # A report guarantees every reading at least two inlier markers.
        values = [
            m.value for m in report.markers_used if m.scale is reading.scale and m.inlier
        ]
        return (
            abs(min(values) - gt.range_min) + abs(max(values) - gt.range_max)
        ) / span

    return min(report.readings, key=mismatch).value


@dataclass(frozen=True)
class EvalSummary:
    """Batch metrics: per-category mean relative error and stage failure shares."""

    n_fixtures: int
    n_readings: int
    reading_failure_share: float
    full_re_mean: Optional[float]
    ocr_success_re_mean: Optional[float]
    stage_failure_rates: dict[str, float]

    def to_jsonable(self) -> dict:
        return {
            "n_fixtures": self.n_fixtures,
            "n_readings": self.n_readings,
            "reading_failure_share": self.reading_failure_share,
            "full_re_mean_percent": self.full_re_mean,
            "ocr_success_re_mean_percent": self.ocr_success_re_mean,
            "stage_failure_rates": dict(self.stage_failure_rates),
        }

    def to_table(self) -> str:
        def fmt(v):
            return "-" if v is None else f"{v:.4f}"

        lines = [
            f"fixtures            {self.n_fixtures}",
            f"readings computed   {self.n_readings}",
            f"reading failures    {self.reading_failure_share * 100:.1f}%",
            f"full RE mean        {fmt(self.full_re_mean)}%",
            f"OCR-success RE mean {fmt(self.ocr_success_re_mean)}%",
            "stage failure rates:",
        ]
        for stage, rate in self.stage_failure_rates.items():
            lines.append(f"  {stage:<8} {rate * 100:.1f}%")
        return "\n".join(lines)


def evaluate_batch(
    fixtures: Sequence[GaugeFixture], config: Optional[PipelineConfig] = None
) -> EvalSummary:
    """Read every fixture and aggregate error and failure statistics.

    Every fixture must carry ground truth. A stage is charged with failure
    when it failed and either no reading came out or the reading was off by
    more than the configured error threshold (a flagged stage that still led
    to an accurate reading is not charged). An empty batch yields an empty
    summary.
    """
    cfg = config or PipelineConfig()
    for i, f in enumerate(fixtures):
        if f.ground_truth is None:
            raise MissingGroundTruth(f"fixtures[{i}] has no ground truth")

    n = len(fixtures)
    if n == 0:
        return EvalSummary(0, 0, 0.0, None, None, {s.value: 0.0 for s in REPORT_STAGES})

    full_errors: list[float] = []
    ocr_success_errors: list[float] = []
    stage_failures = {s: 0 for s in REPORT_STAGES}
    n_readings = 0

    for f in fixtures:
        gt = f.ground_truth
        report = read_gauge(f, cfg)
        predicted = matched_reading(report, gt)
        error = None
        if predicted is not None:
            n_readings += 1
            error = compute_relative_error(predicted, gt.reading, gt.range_min, gt.range_max)
            full_errors.append(error)
            ocr = report.stage_statuses.get(Stage.OCR)
            if ocr is not None and ocr.ok:
                ocr_success_errors.append(error)
        for stage in REPORT_STAGES:
            status = report.stage_statuses.get(stage)
            if status is None or status.ok:
                continue
            if error is None or error > cfg.failure_error_threshold_percent:
                stage_failures[stage] += 1

    return EvalSummary(
        n_fixtures=n,
        n_readings=n_readings,
        reading_failure_share=(n - n_readings) / n,
        full_re_mean=float(np.mean(full_errors)) if full_errors else None,
        ocr_success_re_mean=float(np.mean(ocr_success_errors)) if ocr_success_errors else None,
        stage_failure_rates={s.value: stage_failures[s] / n for s in REPORT_STAGES},
    )


def serialize_summary(summary: EvalSummary) -> bytes:
    """Deterministic JSON for an evaluation summary (9 significant digits)."""
    return rounded_json(summary.to_jsonable())
