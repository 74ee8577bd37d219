"""Differential checks of the closed-form 2x2 kernels on the read path
against the numpy.linalg calls they replaced, kept inline as references:
eigh for the symmetric eigenproblem, the SVD for the needle line, inv for
the affine inverse, solve/eigh/det for the conic's geometric form, and
lstsq for the scale fit. Inputs are seeded; every check states its
tolerance, and a reference that raises must be matched by the same class.
The ellipse fit's 3x3 solve and eigensystem, which call numpy's LAPACK
gufuncs without the numpy.linalg wrappers, are checked bit for bit against
the reference fit through those wrappers.
"""

import math
import types
import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from conftest import make_scene_spec
from gaugekit import geometry, scale_model
from gaugekit.errors import DegenerateConfiguration, InsufficientPoints, IsotropicScatter
from gaugekit.geometry import (
    ISOTROPY_RATIO,
    AffineTransform,
    Ellipse,
    fit_ellipse_direct,
    odr_fit_line,
)
from gaugekit.pipeline import read_gauge
from gaugekit.synthgauge import generate_scene
from test_read_path_identity import _ellipse_point_sets, _outcome, _reference_fit_ellipse

# Absolute eigenvalue and direction tolerances, relative to the largest
# eigenvalue: a few ulps of the matrix entries.
EIG_TOL = 1e-13
DIR_TOL = 1e-12


def _same_direction(u, v, tol):
    """Unit vectors equal up to sign."""
    return min(np.abs(np.subtract(u, v)).max(), np.abs(np.add(u, v)).max()) <= tol


def _symmetric_matrices(rng, count):
    """(sxx, sxy, syy) triples of non-negative trace, the kernel's domain."""
    rows = [
        (4.0, 0.0, 1.0),  # diagonal, sxx above syy
        (1.0, 0.0, 4.0),  # diagonal, sxx below syy
        (2.0, 0.0, 2.0),  # isotropic
        (0.0, 0.0, 3.0),  # vertical needle
        (3.0, 0.0, 0.0),  # horizontal needle
        (0.0, 0.0, 0.0),  # all-coincident points
        (1.0, 1.0, 1.0),  # rank one along the diagonal
        (1e-30, 0.0, 1.0),
    ]
    for _ in range(count):
        scale = 10.0 ** rng.uniform(-6, 8)
        lo = scale * rng.choice([0.0, 1e-12, rng.uniform(0.0, 1.0), 0.9, rng.uniform(0.85, 0.95)])
        angle = rng.choice([0.0, math.pi / 2, math.pi / 4, rng.uniform(0.0, math.pi)])
        c, s = math.cos(angle), math.sin(angle)
        rows.append((scale * c * c + lo * s * s, (scale - lo) * c * s, scale * s * s + lo * c * c))
    return rows


def test_sym_eig2_matches_eigh():
    rng = np.random.default_rng(2013)
    for sxx, sxy, syy in _symmetric_matrices(rng, 3000):
        lo, hi, ux, uy = geometry._sym_eig2(sxx, sxy, syy)
        evals, evecs = np.linalg.eigh(np.array([[sxx, sxy], [sxy, syy]]))
        tol = EIG_TOL * max(abs(evals[1]), 1e-300)
        assert abs(lo - evals[0]) <= tol and abs(hi - evals[1]) <= tol, (sxx, sxy, syy)
        assert math.hypot(ux, uy) == pytest.approx(1.0, abs=1e-15)
        if hi - lo > 1e-6 * hi:  # a well-defined major direction
            assert _same_direction((ux, uy), evecs[:, 1], 1e-9), (sxx, sxy, syy)


def test_sym_eig2_exact_cases():
    assert geometry._sym_eig2(4.0, 0.0, 1.0) == (1.0, 4.0, 1.0, 0.0)
    assert geometry._sym_eig2(1.0, 0.0, 4.0) == (1.0, 4.0, 0.0, 1.0)
    assert geometry._sym_eig2(2.0, 0.0, 2.0) == (2.0, 2.0, 1.0, 0.0)
    assert geometry._sym_eig2(0.0, 0.0, 0.0) == (0.0, 0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Needle line: the SVD of the centred pixels
# ---------------------------------------------------------------------------


def _svd_line(points):
    """The SVD line fit: (centroid, direction, ratio), raising as it did."""
    pts = np.asarray(points, dtype=float)
    centroid = pts.mean(axis=0)
    _, sing, vt = np.linalg.svd(pts - centroid, full_matrices=False)
    if sing[0] == 0.0:
        raise InsufficientPoints("all coincide")
    ratio = float((sing[1] / sing[0]) ** 2)
    if ratio > ISOTROPY_RATIO:
        raise IsotropicScatter(ratio)
    return centroid, vt[0], ratio


def _needle_sets(rng, count):
    sets = [
        np.array([[3.0, 1.0], [3.0, 5.0], [3.0, 9.0]]),  # vertical
        np.array([[1.0, 4.0], [6.0, 4.0], [9.0, 4.0]]),  # horizontal
        np.full((6, 2), 7.5),  # all coincident
    ]
    for k in range(count):
        n = int(rng.integers(2, 80))
        length = rng.uniform(1.0, 300.0)
        if k % 4 == 3:  # near-isotropic: width set for a ratio around 0.9
            width = length * math.sqrt(rng.uniform(0.8, 1.0))
        else:
            width = length * rng.choice([0.0, rng.uniform(0.0, 0.3)])
        angle = rng.choice([0.0, math.pi / 2, rng.uniform(0.0, math.pi)])
        u, v = rng.uniform(-length, length, n), rng.uniform(-width, width, n)
        c, s = math.cos(angle), math.sin(angle)
        pts = np.column_stack([200.0 + c * u - s * v, 150.0 + s * u + c * v])
        sets.append(np.round(pts) if k % 3 == 0 else pts)
    return sets


def test_odr_fit_line_matches_svd():
    rng = np.random.default_rng(2113)
    outcomes = set()
    for pts in _needle_sets(rng, 2000):
        try:
            centroid, direction, ratio = _svd_line(pts)
        except (InsufficientPoints, IsotropicScatter) as exc:
            ratio = getattr(exc, "eigenvalue_ratio", None)
            if ratio is not None and abs(ratio - ISOTROPY_RATIO) < 1e-9:
                continue  # too close to the boundary for either verdict to be exact
            with pytest.raises(type(exc)) as caught:
                odr_fit_line(pts)
            if ratio is not None:
                assert caught.value.eigenvalue_ratio == pytest.approx(ratio, rel=1e-9)
            outcomes.add(type(exc).__name__)
            continue
        if abs(ratio - ISOTROPY_RATIO) < 1e-9:
            continue
        line = odr_fit_line(pts)
        assert (line.px, line.py) == (centroid[0], centroid[1])
        assert _same_direction((line.dx, line.dy), direction, DIR_TOL), pts
        outcomes.add("ok")
    assert outcomes == {"ok", "InsufficientPoints", "IsotropicScatter"}


def test_odr_axis_aligned_needles_are_exact():
    vertical = odr_fit_line([(3.0, y) for y in (1.0, 5.0, 9.0)])
    assert (vertical.dx, vertical.dy) == (0.0, 1.0)
    horizontal = odr_fit_line([(x, 4.0) for x in (1.0, 6.0, 9.0)])
    assert (horizontal.dx, horizontal.dy) == (1.0, 0.0)


# ---------------------------------------------------------------------------
# Affine inverse: np.linalg.inv
# ---------------------------------------------------------------------------


def test_affine_inverse_matches_inv():
    rng = np.random.default_rng(2213)
    for _ in range(2000):
        u, _, vt = np.linalg.svd(rng.normal(size=(2, 2)))
        cond = 10.0 ** rng.uniform(0, 6)
        linear = u @ np.diag([1.0, 1.0 / cond]) @ vt * 10.0 ** rng.uniform(-3, 3)
        translation = rng.uniform(-500.0, 500.0, 2)
        t = AffineTransform(linear, translation)
        inv = np.linalg.inv(t.linear)
        expected = AffineTransform(inv, -inv @ t.translation)
        got = t.inverse()
        tol = 1e-14 * cond
        assert np.allclose(got.linear, expected.linear, rtol=0, atol=tol * np.abs(inv).max())
        scale = np.abs(expected.translation).max() + np.abs(inv).max() * np.abs(translation).max()
        assert np.allclose(got.translation, expected.translation, rtol=0, atol=tol * scale)


# ---------------------------------------------------------------------------
# Conic to geometric ellipse: solve, eigh and two dets
# ---------------------------------------------------------------------------


def _linalg_conic_to_geometric(A, B, C, D, E, F):
    aq = np.array([[A, B / 2, D / 2], [B / 2, C, E / 2], [D / 2, E / 2, F]])
    a33 = aq[:2, :2]
    center = np.linalg.solve(a33, [-D / 2, -E / 2])
    evals, evecs = np.linalg.eigh(a33)
    k = -np.linalg.det(aq) / np.linalg.det(a33)
    axes_sq = k / evals
    if np.any(axes_sq <= 0) or not np.all(np.isfinite(axes_sq)):
        raise DegenerateConfiguration("conic has no real ellipse points")
    radii = np.sqrt(axes_sq)
    theta = math.atan2(evecs[1, 0], evecs[0, 0])
    return Ellipse(center[0], center[1], radii[0], radii[1], theta)


def _conics(rng, count):
    """Coefficients with 4AC - B^2 > 0, as the ellipse fit hands them over."""
    for k in range(count):
        b = rng.uniform(0.1, 3.0)
        a = b if k % 5 == 0 else b * 10.0 ** rng.uniform(0, 3)  # every fifth an exact circle
        theta = rng.choice([0.0, math.pi / 2, rng.uniform(0.0, math.pi)])
        coef = np.array(
            Ellipse(rng.normal(0.0, 0.5), rng.normal(0.0, 0.5), a, b, theta).conic_coefficients()
        )
        if k % 7 == 1:  # no real points: the value at the centre turns from -1 to +1
            coef[5] += 2.0
        yield coef * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)


def test_conic_to_geometric_matches_linalg():
    rng = np.random.default_rng(2313)
    raised = 0
    for coef in _conics(rng, 3000):
        try:
            expected = _linalg_conic_to_geometric(*coef)
        except DegenerateConfiguration:
            with pytest.raises(DegenerateConfiguration):
                Ellipse(*geometry._conic_parameters(*map(float, coef)))
            raised += 1
            continue
        got = Ellipse(*geometry._conic_parameters(*map(float, coef)))
        assert abs(got.cx - expected.cx) <= 1e-9 * expected.a
        assert abs(got.cy - expected.cy) <= 1e-9 * expected.a
        assert got.a == pytest.approx(expected.a, rel=1e-9)
        assert got.b == pytest.approx(expected.b, rel=1e-9)
        if expected.a / expected.b - 1.0 > 1e-6:  # theta is arbitrary on a circle
            gap = (got.theta - expected.theta + math.pi / 2) % math.pi - math.pi / 2
            assert abs(gap) <= 1e-9
    assert raised > 100


# ---------------------------------------------------------------------------
# Scale fit: lstsq on a column-stacked design
# ---------------------------------------------------------------------------


def test_ols_matches_lstsq():
    rng = np.random.default_rng(2413)
    for _ in range(2000):
        n = int(rng.integers(2, 30))
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        if rng.random() < 0.2:
            angles[: n // 2] = angles[0]  # ties, as markers on one tick give
        slope, intercept = rng.uniform(-50.0, 50.0), rng.uniform(-100.0, 100.0)
        values = intercept + slope * angles + rng.normal(0.0, 1.0, n)
        design = np.column_stack([angles, np.ones(n)])
        (slope, intercept), *_ = np.linalg.lstsq(design, values, rcond=None)
        got = scale_model._ols(angles, values)
        scale = np.abs(values).max()
        assert abs(got[0] - slope) <= 1e-9 * scale / np.ptp(angles)
        assert abs(got[1] - intercept) <= 1e-9 * scale * (1 + np.abs(angles).max() / np.ptp(angles))


# ---------------------------------------------------------------------------
# Collinearity verdicts of the ellipse fit
# ---------------------------------------------------------------------------


def test_fit_ellipse_collinearity_verdicts_follow_the_svd_rule():
    """The collinearity test stays the SVD rule: a scatter-eigenvalue test,
    lo < 1e-20 * hi, cannot resolve that ratio through cancellation and
    would let near-collinear sets through as ellipses."""
    rng = np.random.default_rng(1313)
    collinear = scatter_would_miss = 0
    for _ in range(600):
        n = 8
        t = rng.uniform(-100.0, 100.0, n)
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        off = rng.normal(0.0, 10.0 ** rng.uniform(-14, -6), n)
        pts = 200.0 + np.outer(t, d) + np.outer(off, [-d[1], d[0]])
        centered = pts - pts.mean(axis=0)
        normalized = centered / math.sqrt(float((centered**2).sum(axis=1).mean()))
        sing = np.linalg.svd(normalized, compute_uv=False)
        if sing[1] < 1e-10 * sing[0]:
            collinear += 1
            with pytest.raises(DegenerateConfiguration, match="points are collinear"):
                fit_ellipse_direct(pts)
            (sxx, sxy), (_, syy) = (normalized.T @ normalized).tolist()
            lo, hi, _, _ = geometry._sym_eig2(sxx, sxy, syy)
            scatter_would_miss += not lo < 1e-20 * hi
        else:
            try:
                fit_ellipse_direct(pts)
            except DegenerateConfiguration as exc:
                assert "points are collinear" != str(exc)
    # The sweep straddles the rule, and the weaker test would fail it.
    assert 100 < collinear < 500
    assert scatter_would_miss > 0


def test_fit_ellipse_consults_the_svd_wherever_the_scatter_leaves_collinearity_in_doubt(
    monkeypatch,
):
    """The fit skips the SVD only where its design scatter settles the
    verdict, lo >= 1e-8 * hi on the [[Sxx, Sxy], [Sxy, Syy]] block: over a
    sweep whose singular-value ratio spans 1e-12 to 1, every verdict equals
    the inline SVD rule, and the SVD runs for every set below that bar."""
    svd = np.linalg.svd
    calls = []

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    rng = np.random.default_rng(2207)
    below = collinear = skipped = 0
    for _ in range(1500):
        n = int(rng.integers(5, 15))
        t = rng.uniform(-100.0, 100.0, n)
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        off = rng.normal(0.0, 100.0 * 10.0 ** rng.uniform(-12, 0), n)
        pts = rng.uniform(-1e3, 1e3, 2) + np.outer(t, d) + np.outer(off, [-d[1], d[0]])
        # The fit's own normalization and design scatter, operation for operation.
        mean = pts.sum(axis=0) / n
        centered = pts - mean
        normalized = centered / math.sqrt(float((centered**2).sum(axis=1).sum() / n))
        x, y = normalized.T
        design = np.array([x * x, x * y, y * y, x, y, np.ones(n)])
        scatter = design @ design.T
        (sxx, sxy), (_, syy) = scatter[3:5, 3:5].tolist()
        lo, hi, _, _ = geometry._sym_eig2(sxx, sxy, syy)
        sing = svd(normalized, compute_uv=False)
        is_collinear = sing[1] < 1e-10 * sing[0]

        before = len(calls)
        try:
            fit_ellipse_direct(pts)
            verdict = False
        except DegenerateConfiguration as exc:
            verdict = str(exc) == "points are collinear"
        assert verdict == is_collinear, (n, sing.tolist())
        if not lo >= 1e-8 * hi:
            below += 1
            assert len(calls) == before + 1
        skipped += len(calls) == before
        collinear += is_collinear
    # The sweep crosses both the 1e-8 bar and the rule itself.
    assert 100 < below < 1400 and 100 < collinear < below and skipped > 100


# ---------------------------------------------------------------------------
# The ellipse fit's LAPACK gufuncs without the numpy.linalg wrappers
# ---------------------------------------------------------------------------


def test_fit_ellipse_calls_lapack_without_the_linalg_wrappers(monkeypatch):
    """With np.linalg.solve and np.linalg.eig made to raise, every outcome
    of the fit, fits and failures alike, equals the reference fit's through
    those wrappers, bit for bit."""
    point_sets = list(_ellipse_point_sets(np.random.default_rng(2626)))
    expected = [_outcome(_reference_fit_ellipse, points) for points in point_sets]

    def wrapper_called(*args, **kwargs):
        raise AssertionError("the fit went through a numpy.linalg wrapper")

    monkeypatch.setattr(np.linalg, "solve", wrapper_called)
    monkeypatch.setattr(np.linalg, "eig", wrapper_called)
    for points, outcome in zip(point_sets, expected):
        assert _outcome(fit_ellipse_direct, points) == outcome, points.tolist()
    assert sum(isinstance(outcome[0], float) for outcome in expected) > 1500


def test_a_singular_solve_is_a_degenerate_fit_without_a_warning(monkeypatch):
    """The gufunc's singular outcome, NaN with the invalid flag raised, ends
    the fit in DegenerateConfiguration; no RuntimeWarning escapes the fit,
    and read_gauge reports a degenerate ellipse."""
    solve = _umath_linalg.solve

    def singular_solve(a, b, signature):
        return solve(np.zeros_like(a), b, signature=signature)

    # Outside an errstate the singular solve warns; inside, it is all NaN.
    with pytest.warns(RuntimeWarning, match="invalid value"):
        singular_solve(np.eye(3), np.eye(3), "dd->d")
    with np.errstate(invalid="ignore"):
        assert np.isnan(singular_solve(np.eye(3), np.eye(3), "dd->d")).all()

    fixture, _ = generate_scene(make_scene_spec())
    assert fit_ellipse_direct(fixture.keypoints).b > 0
    stub = types.SimpleNamespace(solve=singular_solve, eig=_umath_linalg.eig)
    monkeypatch.setattr(geometry, "_umath_linalg", stub)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateConfiguration, match="rank-deficient"):
            fit_ellipse_direct(fixture.keypoints)
        report = read_gauge(fixture)
    assert report.failure_reason == "degenerate_ellipse"
