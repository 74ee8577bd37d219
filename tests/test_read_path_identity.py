"""Byte and bit identity of the lean read path against the code it replaced.

The references are kept inline: the tree walk that rounded a finished
report document (`_round_tree` plus `json.dumps`), the direct ellipse fit
with three scatter products and `mean`, the `mean`-based centroid and
least-squares fit, the RANSAC fit on ndarray methods with a second
`errstate` inside its least-squares refit, and the read that indexed and
masked every notch, voted through a dict over the `KeypointClass` enum and
projected markers whether or not any OCR text was numeric. Every
comparison is exact: equal bytes, equal floats, or the same exception with
the same message.
"""

import json
import math

import numpy as np
import pytest

from conftest import make_scene_spec, random_fixture
from gaugekit import geometry, pipeline, scale_model
from gaugekit.errors import (
    DegenerateConfiguration,
    InsufficientPoints,
    IsotropicScatter,
    NoConsensus,
    NoIntersection,
)
from gaugekit.fixtures import (
    SCHEMA_VERSION,
    GaugeFixture,
    GaugeReadingReport,
    KeypointClass,
    MarkerUse,
    Reading,
    ScaleSide,
    Stage,
    StageStatus,
    serialize_report,
)
from gaugekit.pipeline import EvalSummary, PipelineConfig, RansacSettings, read_gauge, serialize_summary
from gaugekit.synthgauge import (
    PerturbationSpec,
    generate_scene,
    perturb_scene,
    sample_affine,
    sample_scene_spec,
)

# ---------------------------------------------------------------------------
# Serialization: rounding at the leaves against the tree walk
# ---------------------------------------------------------------------------


def _round_tree(obj):
    if isinstance(obj, float):
        return float(format(obj, ".9g"))
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_tree(v) for v in obj]
    return obj


def _rounded_json(doc) -> bytes:
    return json.dumps(_round_tree(doc), ensure_ascii=False).encode("utf-8")


def _reference_report_bytes(report: GaugeReadingReport) -> bytes:
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
            {"scale": m.scale.value, "angle": m.angle, "value": m.value, "inlier": m.inlier, "text": m.text}
            for m in report.markers_used
        ],
        "readings": [{"scale": r.scale.value, "value": r.value} for r in report.readings],
        "unit": report.unit,
    }
    return _rounded_json(doc)


def _scene_fixtures(count: int):
    rng = np.random.default_rng(1616)
    for k in range(count):
        fixture, truth = generate_scene(sample_scene_spec(rng))
        viewpoint = k % 2 == 1
        pert = PerturbationSpec(
            keypoint_noise_sigma=float(rng.choice([0.0, 1.0, 2.0, 4.0])),
            ocr_dropout_rate=float(rng.choice([0.0, 0.1, 0.2])),
            n_outlier_ocr=int(rng.integers(0, 4)),
            digit_corruption_rate=float(rng.choice([0.0, 0.05, 0.1])),
            affine=sample_affine(rng, max_condition=3.0) if viewpoint else None,
            rotation=float(rng.uniform(0.0, geometry.TAU)) if viewpoint else 0.0,
            seed=k,
        )
        yield perturb_scene(fixture, truth, pert)


def test_serialize_report_matches_the_tree_walk_on_scenes_and_fuzz():
    rng = np.random.default_rng(2024)
    batch = list(_scene_fixtures(200)) + [random_fixture(rng) for _ in range(200)]
    reports = [read_gauge(f) for f in batch]
    for report in reports:
        assert serialize_report(report) == _reference_report_bytes(report)
    # The batch holds readings and early failures with None fields alike.
    assert sum(bool(r.readings) for r in reports) > 150
    assert any(r.fitted_ellipse is None for r in reports)
    assert any(r.fitted_ellipse is not None and r.needle_line is None for r in reports)
    assert any(r.readings and r.unit is None for r in reports)


_AWKWARD_FLOATS = (-0.0, 5e-324, 1e300, 0.1 + 0.2, 0.1234567895, -1.0000000005, 2.0**53 + 1.0)


@pytest.mark.parametrize("value", _AWKWARD_FLOATS)
def test_serialize_report_matches_the_tree_walk_on_hand_built_reports(value):
    ok = StageStatus()
    statuses = {Stage.NOTCHES: StageStatus("ambiguous_orientation")}
    statuses.update({stage: ok for stage in (Stage.ELLIPSE, Stage.NEEDLE, Stage.OCR)})
    markers = (
        MarkerUse(ScaleSide.OUTER, value, value, True, "−0,5 bär ✓"),
        MarkerUse(ScaleSide.OUTER, 1.0, 2, True, "2"),
        MarkerUse(ScaleSide.INNER, value, -value, False, ""),
    )
    report = GaugeReadingReport(
        stage_statuses=statuses,
        fitted_ellipse=geometry.Ellipse(value, -value, 1e300, 5e-324 if value == 5e-324 else 1.0, abs(value) % 3),
        needle_line=geometry.Line(value, value, 1.0, value),
        wrap_angle=value,
        needle_relative_angle=-value,
        markers_used=markers,
        readings=(Reading(ScaleSide.OUTER, value),),
        unit="°C",
    )
    data = serialize_report(report)
    assert data == _reference_report_bytes(report)
    assert "−0,5 bär ✓".encode("utf-8") in data

    empty = GaugeReadingReport(stage_statuses={Stage.ELLIPSE: StageStatus("degenerate_ellipse")})
    assert serialize_report(empty) == _reference_report_bytes(empty)


@pytest.mark.parametrize(
    "summary",
    [
        EvalSummary(0, 0, None, {s.value: 0.0 for s in Stage}),
        EvalSummary(3, 1, 0.1 + 0.2, {s.value: k / 3 for k, s in enumerate(Stage)}),
        EvalSummary(7, 7, 0.1234567895, {s.value: 0 for s in Stage}),
        EvalSummary(9, 2, 5e-324, {"ellipse": -0.0, "needle": 1e300}),
    ],
)
def test_serialize_summary_matches_the_tree_walk(summary):
    doc = {
        "n_fixtures": summary.n_fixtures,
        "n_readings": summary.n_readings,
        "reading_failure_share": summary.reading_failure_share,
        "full_re_mean_percent": summary.full_re_mean,
        "stage_failure_rates": dict(summary.stage_failure_rates),
    }
    assert serialize_summary(summary) == _rounded_json(doc)


# ---------------------------------------------------------------------------
# Fits: one design matrix and sum / n against three products and mean
# ---------------------------------------------------------------------------


def _reference_fit_ellipse(points) -> geometry.Ellipse:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    if n < 5:
        raise InsufficientPoints(f"ellipse fit needs at least 5 points, got {n}")
    mean = pts.mean(axis=0)
    centered = pts - mean
    scale = math.sqrt(float((centered**2).sum(axis=1).mean()))
    if scale == 0.0:
        raise DegenerateConfiguration("all points coincide")
    normalized = centered / scale
    sing = np.linalg.svd(normalized, compute_uv=False)
    if sing[1] < 1e-10 * sing[0]:
        raise DegenerateConfiguration("points are collinear")
    x = normalized[:, 0]
    y = normalized[:, 1]
    d1 = np.column_stack([x * x, x * y, y * y])
    d2 = np.column_stack([x, y, np.ones(n)])
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError:
        raise DegenerateConfiguration("points are collinear or otherwise rank-deficient") from None
    m = s1 + s2 @ t
    m = np.vstack([m[2] / 2.0, -m[1], m[0] / 2.0])
    evals, evecs = np.linalg.eig(m)
    quad = None
    for i in range(3):
        if abs(evals[i].imag) > 1e-9 * (1.0 + abs(evals[i].real)):
            continue
        vec = np.real(evecs[:, i])
        if 4.0 * vec[0] * vec[2] - vec[1] ** 2 > 0:
            quad = vec
            break
    if quad is None:
        raise DegenerateConfiguration("eigensystem yields no valid ellipse")
    lin = t @ quad
    geom = geometry.Ellipse(*geometry._conic_parameters(*map(float, (*quad, *lin))))
    return geometry.Ellipse(
        geom.cx * scale + mean[0], geom.cy * scale + mean[1], geom.a * scale, geom.b * scale, geom.theta
    )


def _outcome(fit, points):
    """The exact fields of a fit, or the class and message of its error."""
    try:
        result = fit(points)
    except (DegenerateConfiguration, InsufficientPoints, NoConsensus) as exc:
        return type(exc), str(exc)
    if isinstance(result, geometry.Ellipse):
        return result.cx, result.cy, result.a, result.b, result.theta
    if isinstance(result, geometry.Line):
        return result.px, result.py, result.dx, result.dy
    return result


def _ellipse_point_sets(rng):
    for _ in range(400):  # exact five-point fits
        e = geometry.Ellipse(*rng.uniform(0, 500, 2), rng.uniform(20, 300), rng.uniform(5, 200), rng.uniform(0, 4))
        yield e.point_at(rng.uniform(0, geometry.TAU, 5))
    for _ in range(800):  # 6-13 noisy points, full and partial arcs
        e = geometry.Ellipse(*rng.uniform(0, 500, 2), rng.uniform(20, 300), rng.uniform(5, 200), rng.uniform(0, 4))
        start, span = rng.uniform(0, geometry.TAU), rng.uniform(0.5, geometry.TAU)
        t = start + span * rng.random(int(rng.integers(6, 14)))
        yield e.point_at(t) + rng.normal(0, rng.choice([0.1, 1.0, 4.0]), (len(t), 2))
    for _ in range(300):  # near-degenerate: a/b above 100, short arcs, few points
        a = rng.uniform(100, 5000)
        e = geometry.Ellipse(*rng.uniform(0, 500, 2), a, a / rng.uniform(100, 2000), rng.uniform(0, 4))
        t = rng.uniform(0, 0.3) + rng.uniform(0, 0.2, int(rng.integers(5, 9)))
        yield e.point_at(t) + rng.normal(0, rng.choice([0.0, 0.01, 0.5]), (len(t), 2))
    for _ in range(200):  # arbitrary scatters, hyperbolas and failures included
        yield rng.uniform(0, 512, (int(rng.integers(5, 14)), 2))
    line = np.outer(np.arange(7.0), [3.0, 1.0]) + 10.0
    yield line  # collinear
    yield line + np.outer([0, 1e-13, 0, -1e-13, 0, 2e-13, 0], [-1.0, 3.0])  # near-collinear
    yield np.full((6, 2), 42.0)  # coincident
    yield np.array([[0, 0], [1, 0], [0, 1], [1, 1], [0, 0], [1, 0]], dtype=float)  # repeated points
    yield np.zeros((4, 2))  # too few
    # The two ill-conditioned five-point fits of the fuzz workload (bench seed
    # 1 input 1161, a/b about 333; seed 2 input 758, a/b about 25).
    for seed, index in ((1, 1161), (2, 758)):
        fuzz_rng = np.random.default_rng([seed, 2])
        for _ in range(index):
            random_fixture(fuzz_rng)
        yield random_fixture(fuzz_rng).keypoints


def test_fit_ellipse_direct_is_bit_identical_to_three_scatter_products():
    outcomes = {}
    for points in _ellipse_point_sets(np.random.default_rng(1616)):
        expected = _outcome(_reference_fit_ellipse, points)
        assert _outcome(geometry.fit_ellipse_direct, points) == expected, points.tolist()
        kind = "ok" if isinstance(expected[0], float) else expected[1]
        outcomes[kind] = outcomes.get(kind, 0) + 1
    # The sweep reaches fits and each way a fit can fail.
    assert outcomes["ok"] > 1500
    assert {
        "points are collinear",
        "all points coincide",
        "eigensystem yields no valid ellipse",
        "ellipse fit needs at least 5 points, got 4",
    } <= set(outcomes)


def _reference_odr_centroid(points):
    return tuple(np.asarray(points, dtype=float).mean(axis=0).tolist())


def _reference_ols(angles, values):
    if float(angles.max() - angles.min()) <= scale_model.SAME_ANGLE_EPS:
        raise NoConsensus("all pairs lie at one angle")
    a_mean, v_mean = float(angles.mean()), float(values.mean())
    da = angles - a_mean
    slope = float(da @ (values - v_mean)) / float(da @ da)
    return slope, v_mean - slope * a_mean


def test_odr_centroid_and_ols_are_bit_identical_to_mean():
    rng = np.random.default_rng(1617)
    for _ in range(2000):
        n = int(rng.integers(2, 40))
        magnitude = 10.0 ** rng.uniform(-6, 6)
        pts = rng.normal(rng.uniform(-500, 500, 2), magnitude, (n, 2))
        pts[:, 1] += 7.0 * pts[:, 0]  # elongated, so the line fit succeeds
        line = geometry.odr_fit_line(pts)
        assert (line.px, line.py) == _reference_odr_centroid(pts)

        angles = rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-10, 2)
        values = rng.uniform(-1e4, 1e4, n)
        assert _outcome(lambda p: scale_model._ols(*p), (angles, values)) == _outcome(
            lambda p: _reference_ols(*p), (angles, values)
        )


# ---------------------------------------------------------------------------
# RANSAC pair indices, built once per size
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 41))
def test_pair_indices_are_the_thinned_row_major_pairs_built_once(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = len(pairs)
    count = min(total, scale_model.MAX_PAIRS)
    expected = [pairs[k * total // count] for k in range(count)]

    i, j = scale_model._pair_indices(n)
    assert list(zip(i.tolist(), j.tolist())) == expected
    for array in (i, j):
        with pytest.raises(ValueError):
            array[0] = 0
    again = scale_model._pair_indices(n)
    assert again[0] is i and again[1] is j


# ---------------------------------------------------------------------------
# RANSAC on the C reductions, in one errstate
# ---------------------------------------------------------------------------


def _reference_errstate_ols(angles, values):
    if float(angles.max() - angles.min()) <= scale_model.SAME_ANGLE_EPS:
        raise NoConsensus("all pairs lie at one angle")
    with np.errstate(over="ignore", invalid="ignore"):
        a_mean, v_mean = float(angles.sum() / len(angles)), float(values.sum() / len(values))
        da = angles - a_mean
        slope = float(da @ (values - v_mean)) / float(da @ da)
    intercept = v_mean - slope * a_mean
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise NoConsensus("the least-squares fit overflows")
    return slope, intercept


def _reference_least_squares(pairs):
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    if len(arr) < 2:
        raise InsufficientPoints(f"need at least 2 pairs, got {len(arr)}")
    slope, intercept = _reference_errstate_ols(arr[:, 0], arr[:, 1])
    return scale_model.LinearScaleModel(slope, intercept, tuple(range(len(arr))))


def _reference_ransac(pairs, threshold):
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    n = len(arr)
    if n < 2:
        raise InsufficientPoints(f"need at least 2 pairs, got {n}")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    angles, values = arr.T
    i, j = scale_model._pair_indices(n)
    angles_i, values_i = angles[i], values[i]
    dx = angles[j] - angles_i
    valid = np.abs(dx) > scale_model.SAME_ANGLE_EPS
    with np.errstate(invalid="ignore", over="ignore"):
        slopes = np.where(valid, (values[j] - values_i) / np.where(valid, dx, 1.0), 0.0)
        intercepts = values_i - slopes * angles_i
        residuals = np.abs(
            values[None, :] - (slopes[:, None] * angles[None, :] + intercepts[:, None])
        )
        support = residuals <= threshold
        counts = np.where(valid, support.sum(axis=1), -1)
        best = int(counts.argmax())
        if counts[best] < 2:
            raise NoConsensus("no two-point model reached a consensus of two pairs")
        consensus = support[best]
        slope, intercept = _reference_errstate_ols(angles[consensus], values[consensus])
        final = np.abs(values - (slope * angles + intercept)) <= threshold
    if np.count_nonzero(final) >= 2:
        inliers = final.nonzero()[0]
    else:
        slope, intercept = float(slopes[best]), float(intercepts[best])
        inliers = consensus.nonzero()[0]
    return scale_model.LinearScaleModel(slope, intercept, tuple(inliers.tolist()))


def _fit_outcome(fit, *args):
    """repr of a model's slope, intercept and inliers (NaN and the sign of
    zero included), or the class and message of its error."""
    try:
        model = fit(*args)
    except (InsufficientPoints, NoConsensus, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(model, tuple):
        return repr(model)
    return repr((model.slope, model.intercept, model.inliers))


def _marker_pair_sets(rng):
    """(pairs, threshold) over n = 2..40: scales with outliers, two-of-three
    ties, angles within SAME_ANGLE_EPS, values near 1e308 and thresholds at
    the 1e-9 floor."""
    eps = scale_model.SAME_ANGLE_EPS
    for n in range(2, 41):
        for _ in range(40):
            angles = np.sort(rng.uniform(0.0, 5.0, n))
            values = rng.uniform(-50.0, 50.0) + rng.uniform(-80.0, 80.0) * angles
            kind = int(rng.integers(0, 6))
            if kind == 1:  # a few outliers, as misread digits give
                hit = rng.random(n) < 0.3
                values[hit] = rng.uniform(-1e4, 1e4, int(hit.sum()))
            elif kind == 2 and n >= 3:  # two of three agree, each pair a tie of two
                values[-1] = values[0] + 1e6
            elif kind == 3 and n >= 2:  # markers within SAME_ANGLE_EPS of each other
                angles[1:] = angles[0] + rng.choice([0.0, 0.5, 1.0, 1.5]) * eps
                angles[n // 2 :] = angles[: n - n // 2] + rng.uniform(0.0, 2.0 * eps)
            elif kind == 4:  # values near the float limit
                values = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.0, n) * 1.7e308
            elif kind == 5:  # one value: the threshold sits at its floor
                values[:] = values[0]
            threshold = scale_model.default_inlier_threshold(values.tolist(), 0.02)
            if rng.random() < 0.25:
                threshold = scale_model.INLIER_THRESHOLD_FLOOR
            yield np.column_stack([angles, values]), threshold
    # Residuals of exactly the threshold, to the consensus and to the refit line.
    angles = np.arange(7.0)
    yield np.column_stack([angles, 10.0 * angles + [2.0, -2.0, 0.0, -2.0, 2.0, 0.0, 0.0]]), 2.0
    # The refit fallback: bench fuzz seed 2, input 1641, a threshold at its floor.
    yield np.array([[5.476936234039407, 42.0], [5.486460081014411, 50234.0], [5.48702426939637, 42.0]]), 1e-9


def test_ransac_and_ols_are_bit_identical_to_the_ndarray_method_code():
    outcomes = {}
    for pairs, threshold in _marker_pair_sets(np.random.default_rng(2424)):
        expected = _fit_outcome(_reference_ransac, pairs, threshold)
        assert _fit_outcome(scale_model.ransac_fit_linear, pairs, threshold) == expected, pairs.tolist()
        assert _fit_outcome(scale_model.least_squares_fit_linear, pairs) == _fit_outcome(
            _reference_least_squares, pairs
        )
        with np.errstate(over="ignore", invalid="ignore"):  # as both callers hold it
            ols = _fit_outcome(scale_model._ols, pairs[:, 0], pairs[:, 1])
        assert ols == _fit_outcome(_reference_errstate_ols, pairs[:, 0], pairs[:, 1])
        kind = expected[1] if isinstance(expected, tuple) else "ok"
        outcomes[kind] = outcomes.get(kind, 0) + 1
    # The sweep reaches fits and each way a fit can fail.
    assert outcomes["ok"] > 1000
    assert {
        "no two-point model reached a consensus of two pairs",
        "the least-squares fit overflows",
    } <= set(outcomes)


# ---------------------------------------------------------------------------
# The read: no marker geometry without a numeric marker, a lean notch vote
# ---------------------------------------------------------------------------


def _reference_notch_vote(fixture, transform):
    rows = zip(fixture.keypoints.tolist(), fixture.keypoint_classes)
    distinct = {(x, y, kind): i for i, ((x, y), kind) in enumerate(rows)}
    points = transform.apply(fixture.keypoints[list(distinct.values())])
    directed = points.any(axis=1)
    angles = geometry.parametric_angle(points[directed]).tolist()
    kinds = [kind for (_, _, kind), keep in zip(distinct, directed) if keep]
    by_kind = {kind: [a for a, k in zip(angles, kinds) if k is kind] for kind in KeypointClass}
    start, end = by_kind[KeypointClass.START], by_kind[KeypointClass.END]
    wrap, certain = scale_model.wrap_around_angle(
        start[0] if start else None, end[0] if end else None, by_kind[KeypointClass.INTERMEDIATE]
    )
    return wrap, StageStatus(None if certain else "ambiguous_orientation")


def _reference_read(fixture, cfg):
    statuses = {}
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
    wrap, statuses[Stage.NOTCHES] = _reference_notch_vote(fixture, transform)

    def finish(**kwargs):
        return GaugeReadingReport(
            stage_statuses=statuses, fitted_ellipse=ellipse, wrap_angle=wrap, **kwargs
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
    needle_img = pipeline._back_map_line(needle_line, inverse)
    try:
        tip = geometry.needle_tip(needle_line, needle_c)
    except NoIntersection:
        statuses[Stage.NEEDLE] = StageStatus("no_intersection")
        return finish(needle_line=needle_img)
    needle_rel = float(geometry.normalize_angle(geometry.parametric_angle(tip) - wrap))
    statuses[Stage.NEEDLE] = StageStatus()

    texts = fixture.ocr_texts
    values = [scale_model.parse_numeric_token(text) for text in texts]
    numeric = [i for i, value in enumerate(values) if value is not None]
    boxes = fixture.ocr_boxes[numeric]
    centers = transform.apply(boxes[:, :2] + boxes[:, 2:] / 2)
    directed = centers.any(axis=1)
    markers = [(texts[i], values[i]) for i, keep in zip(numeric, directed) if keep]
    on_circle, radius = geometry.radial_project_to_circle(centers[directed])
    rel_angles = geometry.normalize_angle(geometry.parametric_angle(on_circle) - wrap).tolist()
    confidences = fixture.ocr_confidences.tolist()
    others = [i for i, value in enumerate(values) if value is None]
    unit = scale_model.extract_unit(
        [texts[i] for i in others], [confidences[i] for i in others], cfg.unit_lexicon
    )
    readings, marker_uses, no_consensus = [], [], False
    outer = (radius >= 1.0).tolist()
    for side, outside in ((ScaleSide.OUTER, True), (ScaleSide.INNER, False)):
        on_side = [k for k, o in enumerate(outer) if o is outside]
        group = [markers[k] for k in on_side]
        angles = [rel_angles[k] for k in on_side]
        values = [value for _, value in group]
        inliers = set()
        if len(group) >= 2:
            pairs = np.array(list(zip(angles, values)))
            threshold = scale_model.default_inlier_threshold(values, cfg.ransac.threshold_fraction)
            try:
                if cfg.ransac.enabled:
                    model = _reference_ransac(pairs, threshold)
                else:
                    model = _reference_least_squares(pairs)
                reading = model.value_at(needle_rel)
                if not math.isfinite(reading):
                    raise NoConsensus("the reading overflows")
            except NoConsensus:
                no_consensus = True
            else:
                inliers = set(model.inliers)
                readings.append(Reading(side, reading))
        marker_uses.extend(
            MarkerUse(side, a, value, k in inliers, text)
            for k, (a, (text, value)) in enumerate(zip(angles, group))
        )
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


def _assert_same_read(fixture, cfg):
    expected = serialize_report(_reference_read(fixture, cfg))
    assert serialize_report(read_gauge(fixture, cfg)) == expected
    return json.loads(expected)


_CONFIGS = (PipelineConfig(), PipelineConfig(ransac=RansacSettings(enabled=False)))


@pytest.mark.parametrize("cfg", _CONFIGS, ids=["ransac", "least-squares"])
def test_read_gauge_gives_the_reference_bytes_on_scenes_and_fuzz(cfg):
    rng = np.random.default_rng(2425)
    docs = [_assert_same_read(f, cfg) for f in _scene_fixtures(120)]
    docs += [_assert_same_read(random_fixture(rng), cfg) for _ in range(400)]
    # Reads that reach the markers with 0, 1, 2 and more numeric texts.
    marker_counts = {len(doc["markers"]) for doc in docs if doc["needle_relative_angle"] is not None}
    assert {0, 1, 2, 3} <= marker_counts
    assert sum(bool(doc["readings"]) for doc in docs) > 100


def _scene_with(numeric: int, unit: bool = True, notches=None, extra_ocr=()):
    """The canonical scene with its first `numeric` markers, its unit text
    if `unit`, `extra_ocr` (box, text) items and, if given, other notches."""
    fixture, _ = generate_scene(make_scene_spec())
    texts = fixture.ocr_texts
    is_marker = [scale_model.parse_numeric_token(t) is not None for t in texts]
    keep = [i for i, marker in enumerate(is_marker) if marker][:numeric]
    keep += [i for i, marker in enumerate(is_marker) if unit and not marker]
    keypoints, classes = notches or (fixture.keypoints, fixture.keypoint_classes)
    return GaugeFixture(
        keypoints=keypoints,
        keypoint_classes=classes,
        needle_points=fixture.needle_points,
        ocr_boxes=fixture.ocr_boxes[keep].tolist() + [box for box, _ in extra_ocr],
        ocr_texts=[texts[i] for i in keep] + [text for _, text in extra_ocr],
    )


@pytest.mark.parametrize("numeric", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("unit", [True, False])
def test_read_gauge_gives_the_reference_bytes_for_each_marker_count(numeric, unit):
    fixture = _scene_with(numeric, unit, extra_ocr=[([5, 5, 20, 10], "serial")])
    for cfg in _CONFIGS:
        doc = _assert_same_read(fixture, cfg)
        assert len(doc["markers"]) == numeric
        ocr = {"status": "ok"} if numeric >= 2 else {"status": "failed", "reason": "insufficient_markers"}
        assert doc["stage_statuses"]["ocr"] == ocr
        assert doc["unit"] == ("bar" if unit else None)


_START, _END, _MIDDLE = KeypointClass.START, KeypointClass.END, KeypointClass.INTERMEDIATE


def test_read_gauge_gives_the_reference_bytes_with_repeated_notches():
    fixture, _ = generate_scene(make_scene_spec())
    points, classes = fixture.keypoints.tolist(), list(fixture.keypoint_classes)
    middle = [k for k, kind in enumerate(classes) if kind is _MIDDLE]
    ends = [k for k, kind in enumerate(classes) if kind is not _MIDDLE]
    for repeat in ([middle[0]], [middle[2], middle[2], middle[-1]], middle, ends, ends + middle):
        # An exact repeat of an intermediate is the same notch; an intermediate
        # on the start or end notch's position is another notch and votes.
        notches = (points + [points[k] for k in repeat], classes + [_MIDDLE] * len(repeat))
        for numeric in (0, 2):
            _assert_same_read(_scene_with(numeric, notches=notches), PipelineConfig())
    # Start 0, end 180 and intermediates at 60, 240 and 300 degrees: counted
    # once, a repeat at 60 leaves the vote 1 against 2; counted twice, it
    # would make it ambiguous.
    layout = [(_START, 0), (_END, 180), (_MIDDLE, 60), (_MIDDLE, 60), (_MIDDLE, 240), (_MIDDLE, 300)]
    t = [math.radians(degrees) for _, degrees in layout]
    notches = ([[224.0 + 100.0 * math.cos(a), 224.0 + 100.0 * math.sin(a)] for a in t], [k for k, _ in layout])
    for numeric in (0, 2):
        doc = _assert_same_read(_scene_with(numeric, notches=notches), PipelineConfig())
        assert doc["stage_statuses"]["notches"] == {"status": "ok"}


def test_read_gauge_gives_the_reference_bytes_with_notches_and_markers_at_the_centre(monkeypatch):
    """A notch or a marker at the fitted centre has no direction and is left
    out. The fit is pinned to an ellipse whose circularizing map sends
    (224, 224) to exactly (0, 0)."""
    pinned = geometry.Ellipse(224.0, 224.0, 128.0, 64.0)
    monkeypatch.setattr(geometry, "fit_ellipse_direct", lambda points: pinned)
    fixture, _ = generate_scene(make_scene_spec())
    points, classes = fixture.keypoints.tolist(), list(fixture.keypoint_classes)
    assert classes[0] is _START
    centre, centre_box = [224.0, 224.0], ([220.0, 222.0, 8.0, 4.0], "7")
    for notches in (
        (points + [centre], classes + [_MIDDLE]),
        (points + [centre, centre], classes + [_MIDDLE, _MIDDLE]),
        ([centre] + points[1:], classes),  # the start notch at the centre
    ):
        for numeric, extra in ((0, [centre_box]), (1, [centre_box]), (2, [centre_box]), (3, [])):
            fixture = _scene_with(numeric, notches=notches, extra_ocr=extra)
            doc = _assert_same_read(fixture, PipelineConfig())
            assert len(doc["markers"]) == numeric  # the centre marker is left out
