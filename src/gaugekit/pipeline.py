"""Fixture-to-reading orchestration with per-stage failure accounting.

read_gauge never raises on a valid fixture: every way the computation can
die is folded into a stage status, and the pipeline stops at the first
fatal stage so each failed report carries exactly one failure reason.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import geometry, scale_model
from .errors import (
    DegenerateConfiguration,
    InsufficientPoints,
    IsotropicScatter,
    NoConsensus,
    NoIntersection,
    SchemaError,
)
from .fixtures import (
    GaugeFixture,
    GaugeReadingReport,
    KeypointClass,
    MarkerUse,
    Reading,
    ScaleSide,
    Stage,
    StageStatus,
    _round9,
    build_value,
    dump_json,
    load_json,
    present_fields,
)


@dataclass(frozen=True)
class RansacSettings:
    threshold_fraction: float = 0.02
    enabled: bool = True  # False switches to the plain least-squares baseline

    def __post_init__(self):
        message = "threshold_fraction must be a finite number > 0"
        if geometry.finite_float(self.threshold_fraction, message) <= 0:
            raise ValueError(message)
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
        message = "failure_error_threshold_percent must be a finite number >= 0"
        if geometry.finite_float(self.failure_error_threshold_percent, message) < 0:
            raise ValueError(message)
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
        kwargs = present_fields(cls, doc, "config")
        if "ransac" in kwargs:
            ransac = present_fields(RansacSettings, kwargs["ransac"], "ransac")
            kwargs["ransac"] = build_value(RansacSettings, "ransac", **ransac)
        return build_value(cls, "config", **kwargs)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """Config from a UTF-8 JSON file; see load_json and from_json for
        the errors. A relative unit_lexicon_path names a file beside the
        config, as a manifest's fixture paths do. OSError passes."""
        doc = load_json(Path(path).read_bytes())
        lexicon_path = doc.get("unit_lexicon_path") if isinstance(doc, dict) else None
        if isinstance(lexicon_path, str):
            doc = {**doc, "unit_lexicon_path": str(Path(path).parent / lexicon_path)}
        return cls.from_json(doc)


def _wrap_and_notch_status(
    fixture: GaugeFixture, transform: geometry.AffineTransform
) -> tuple[float, StageStatus]:
    # One vote per distinct (x, y, class): an exact repeat is the same notch.
    rows = zip(fixture.keypoints.tolist(), fixture.keypoint_classes)
    distinct = {(x, y, kind): i for i, ((x, y), kind) in enumerate(rows)}
    points = transform.apply(fixture.keypoints[list(distinct.values())])
    directed = points.any(axis=1)  # a notch at the ellipse center has no direction
    angles = geometry.parametric_angle(points[directed]).tolist()
    kinds = [kind for (_, _, kind), keep in zip(distinct, directed) if keep]
    by_kind = {kind: [a for a, k in zip(angles, kinds) if k is kind] for kind in KeypointClass}

    start, end = by_kind[KeypointClass.START], by_kind[KeypointClass.END]
    wrap, certain = scale_model.wrap_around_angle(
        start[0] if start else None, end[0] if end else None, by_kind[KeypointClass.INTERMEDIATE]
    )
    return wrap, StageStatus(None if certain else "ambiguous_orientation")


def _back_map_line(line: geometry.Line, inverse: geometry.AffineTransform) -> geometry.Line:
    p = inverse.apply(line.point)
    q = inverse.apply(line.point + line.direction)
    return geometry.Line(p[0], p[1], q[0] - p[0], q[1] - p[1])


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

    try:
        ellipse = geometry.fit_ellipse_direct(fixture.keypoints)
    except InsufficientPoints:
        statuses[Stage.ELLIPSE] = StageStatus("insufficient_notches")
        return GaugeReadingReport(stage_statuses=statuses)
    except DegenerateConfiguration:
        statuses[Stage.ELLIPSE] = StageStatus("degenerate_ellipse")
        return GaugeReadingReport(stage_statuses=statuses)
    statuses[Stage.ELLIPSE] = StageStatus()

    transform = geometry.circularize(ellipse)
    inverse = transform.inverse()

    wrap, notch_status = _wrap_and_notch_status(fixture, transform)
    statuses[Stage.NOTCHES] = notch_status

    def finish(**kwargs) -> GaugeReadingReport:
        return GaugeReadingReport(
            stage_statuses=statuses,
            fitted_ellipse=ellipse,
            wrap_angle=wrap,
            **kwargs,
        )

    needle_c = transform.apply(fixture.needle_points)
    try:
        needle_line = geometry.odr_fit_line(needle_c)
    except InsufficientPoints:
        statuses[Stage.NEEDLE] = StageStatus("insufficient_needle_points")
        return finish()
    except IsotropicScatter:
        statuses[Stage.NEEDLE] = StageStatus("isotropic_needle")
        return finish()
    needle_img = _back_map_line(needle_line, inverse)

    try:
        tip = geometry.needle_tip(needle_line, needle_c)
    except NoIntersection:
        statuses[Stage.NEEDLE] = StageStatus("no_intersection")
        return finish(needle_line=needle_img)
    needle_rel = geometry.normalize_angle(geometry.parametric_angle(tip) - wrap)
    statuses[Stage.NEEDLE] = StageStatus()

    # Project numeric OCR detections onto the circle; the rest are unit
    # candidates and need no geometry.
    texts = fixture.ocr_texts
    values = [scale_model.parse_numeric_token(text) for text in texts]
    numeric = [i for i, value in enumerate(values) if value is not None]
    boxes = fixture.ocr_boxes[numeric]
    centers = transform.apply(boxes[:, :2] + boxes[:, 2:] / 2)
    directed = centers.any(axis=1)  # a marker at the ellipse center has no direction
    markers = [(texts[i], values[i]) for i, keep in zip(numeric, directed) if keep]
    on_circle, radius = geometry.radial_project_to_circle(centers[directed])
    rel_angles = geometry.normalize_angle(geometry.parametric_angle(on_circle) - wrap)
    confidences = fixture.ocr_confidences.tolist()
    others = [i for i, value in enumerate(values) if value is None]
    unit = scale_model.extract_unit(
        [texts[i] for i in others], [confidences[i] for i in others], cfg.unit_lexicon
    )

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
            threshold = scale_model.default_inlier_threshold(values, cfg.ransac.threshold_fraction)
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
    statuses[Stage.OCR] = StageStatus(
        None if readings else ("no_consensus" if no_consensus else "insufficient_markers")
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
        raise ValueError(f"range_max {range_max} must exceed range_min {range_min}")
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
    """Batch metrics: mean relative error of the readings and stage failure shares."""

    n_fixtures: int
    n_readings: int
    full_re_mean: Optional[float]
    stage_failure_rates: dict[str, float]

    @property
    def reading_failure_share(self) -> float:
        """Share of fixtures without a reading; 0.0 for an empty batch."""
        return (self.n_fixtures - self.n_readings) / self.n_fixtures if self.n_fixtures else 0.0

    def to_jsonable(self) -> dict:
        """The summary as JSON values, every real rounded to 9 significant digits."""
        return {
            "n_fixtures": self.n_fixtures,
            "n_readings": self.n_readings,
            "reading_failure_share": _round9(self.reading_failure_share),
            "full_re_mean_percent": _round9(self.full_re_mean),
            "stage_failure_rates": {k: _round9(v) for k, v in self.stage_failure_rates.items()},
        }

    def to_table(self) -> str:
        def fmt(v):
            return "-" if v is None else f"{v:.4f}"

        lines = [
            f"fixtures            {self.n_fixtures}",
            f"readings computed   {self.n_readings}",
            f"reading failures    {self.reading_failure_share * 100:.1f}%",
            f"full RE mean        {fmt(self.full_re_mean)}%",
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
            raise SchemaError(f"fixtures[{i}].ground_truth", "required for evaluation")

    n = len(fixtures)
    if n == 0:
        return EvalSummary(0, 0, None, {s.value: 0.0 for s in Stage})

    full_errors: list[float] = []
    stage_failures = {s: 0 for s in Stage}
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
        for stage in Stage:
            status = report.stage_statuses.get(stage)
            if status is None or status.ok:
                continue
            if error is None or error > cfg.failure_error_threshold_percent:
                stage_failures[stage] += 1

    return EvalSummary(
        n_fixtures=n,
        n_readings=n_readings,
        full_re_mean=float(np.mean(full_errors)) if full_errors else None,
        stage_failure_rates={s.value: stage_failures[s] / n for s in Stage},
    )


def serialize_summary(summary: EvalSummary) -> bytes:
    """Deterministic JSON for an evaluation summary (9 significant digits)."""
    return dump_json(summary.to_jsonable())
