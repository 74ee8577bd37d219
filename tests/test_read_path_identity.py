"""Byte and bit identity of the lean read path against the code it replaced.

The references are kept inline: the tree walk that rounded a finished
report document (`_round_tree` plus `json.dumps`), the direct ellipse fit
with three scatter products and `mean`, and the `mean`-based centroid and
least-squares fit. Every comparison is exact: equal bytes, equal floats, or
the same exception with the same message.
"""

import json
import math

import numpy as np
import pytest

from conftest import random_fixture
from gaugekit import geometry, scale_model
from gaugekit.errors import DegenerateConfiguration, InsufficientPoints, NoConsensus
from gaugekit.fixtures import (
    SCHEMA_VERSION,
    GaugeReadingReport,
    MarkerUse,
    Reading,
    ScaleSide,
    Stage,
    StageStatus,
    serialize_report,
)
from gaugekit.pipeline import EvalSummary, read_gauge, serialize_summary
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
    geom = geometry._conic_to_geometric(quad[0], quad[1], quad[2], lin[0], lin[1], lin[2])
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
