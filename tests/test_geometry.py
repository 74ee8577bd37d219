"""Geometry tests: fit recovery against analytic samplers, an exhaustive
angle-sweep oracle for the line fit, and frame-change invariants."""

import itertools
import math

import numpy as np
import pytest

from gaugekit.errors import (
    DegenerateConfiguration,
    InsufficientPoints,
    IsotropicScatter,
    NoIntersection,
)
from gaugekit.geometry import (
    TAU,
    AffineTransform,
    Ellipse,
    Line,
    circularize,
    finite_float,
    fit_ellipse_direct,
    line_circle_intersections,
    normalize_angle,
    odr_fit_line,
    needle_tip,
    parametric_angle,
    radial_project_to_circle,
)

# ---------------------------------------------------------------------------
# Ellipse fitting
# ---------------------------------------------------------------------------


def test_fit_unit_circle_five_points():
    s = math.sqrt(2) / 2
    pts = [(1, 0), (0, 1), (-1, 0), (0, -1), (s, s)]
    e = fit_ellipse_direct(pts)
    assert abs(e.cx) < 1e-9 and abs(e.cy) < 1e-9
    assert abs(e.a - 1) < 1e-9 and abs(e.b - 1) < 1e-9


def test_fit_recovers_sampled_ellipse():
    truth = Ellipse(2.0, 3.0, 4.0, 2.0, 0.0)
    pts = truth.point_at(np.radians(np.arange(12) * 30.0))
    e = fit_ellipse_direct(pts)
    assert abs(e.cx - 2) < 1e-6 and abs(e.cy - 3) < 1e-6
    assert abs(e.a - 4) < 1e-6 and abs(e.b - 2) < 1e-6
    assert min(e.theta, math.pi - e.theta) < 1e-6


def test_fit_rejects_four_points():
    with pytest.raises(InsufficientPoints):
        fit_ellipse_direct([(1, 0), (0, 1), (-1, 0), (0, -1)])


def test_fit_rejects_collinear_points():
    with pytest.raises(DegenerateConfiguration):
        fit_ellipse_direct([(i, 2 * i + 1) for i in range(8)])


def test_fit_rejects_coincident_points():
    with pytest.raises(DegenerateConfiguration):
        fit_ellipse_direct([(3.0, 4.0)] * 6)


def test_fit_exactness_over_ratio_and_arc_sweep():
    # Spec invariant: ratio <= 20, arc >= 90 degrees, >= 6 points.
    rng = np.random.default_rng(1234)
    for _ in range(150):
        a = rng.uniform(1.0, 200.0)
        ratio = rng.uniform(1.0, 20.0)
        truth = Ellipse(
            rng.uniform(-100, 100),
            rng.uniform(-100, 100),
            a,
            a / ratio,
            rng.uniform(0, math.pi),
        )
        arc = rng.uniform(math.pi / 2, TAU)
        t0 = rng.uniform(0, TAU)
        n = int(rng.integers(6, 25))
        pts = truth.point_at(t0 + np.linspace(0.0, arc, n))
        e = fit_ellipse_direct(pts)
        assert math.hypot(e.cx - truth.cx, e.cy - truth.cy) <= 1e-6 * truth.a
        assert abs(e.a - truth.a) <= 1e-6 * truth.a
        assert abs(e.b - truth.b) <= 1e-6 * truth.b


def _constraint_residual(conic: np.ndarray, pts: np.ndarray) -> float:
    """Algebraic residual normalized by the ellipse constraint 4AC - B^2."""
    x, y = pts[:, 0], pts[:, 1]
    design = np.column_stack([x * x, x * y, y * y, x, y, np.ones(len(x))])
    constraint = 4 * conic[0] * conic[2] - conic[1] ** 2
    return float(((design @ conic) ** 2).sum() / constraint)


def test_fit_residual_is_locally_optimal():
    # Feed points that are already zero-mean / unit-RMS so the internal
    # normalization is the identity and the returned conic minimizes the
    # constraint-normalized residual on exactly these points.
    rng = np.random.default_rng(7)
    raw = Ellipse(0.3, -0.2, 1.4, 0.8, 0.9).point_at(np.linspace(0.2, 5.5, 40))
    raw = raw + rng.normal(0, 0.02, raw.shape)
    raw = raw - raw.mean(axis=0)
    raw = raw / math.sqrt(float((raw**2).sum(axis=1).mean()))

    fitted = fit_ellipse_direct(raw)
    conic = np.array(fitted.conic_coefficients())
    base = _constraint_residual(conic, raw)
    for k in range(6):
        for sign in (1.01, 0.99):
            perturbed = conic.copy()
            perturbed[k] *= sign
            if 4 * perturbed[0] * perturbed[2] - perturbed[1] ** 2 <= 0:
                continue
            assert _constraint_residual(perturbed, raw) >= base * (1 - 1e-9) - 1e-15


# ---------------------------------------------------------------------------
# Circularization and affine maps
# ---------------------------------------------------------------------------


def test_circularize_axis_points():
    e = Ellipse(5.0, 5.0, 2.0, 1.0, 0.0)
    t = circularize(e)
    assert np.allclose(t.apply([7.0, 5.0]), [1.0, 0.0], atol=1e-12)
    assert np.allclose(t.apply([5.0, 6.0]), [0.0, 1.0], atol=1e-12)


def test_circularize_maps_ellipse_to_unit_circle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.uniform(0.5, 300)
        e = Ellipse(
            rng.uniform(-500, 500),
            rng.uniform(-500, 500),
            a,
            a * rng.uniform(0.05, 1.0),
            rng.uniform(0, math.pi),
        )
        pts = e.point_at(rng.uniform(0, TAU, 64))
        norms = np.linalg.norm(circularize(e).apply(pts), axis=1)
        assert np.abs(norms - 1).max() < 1e-9


def test_apply_affine_identity_and_inverse():
    unit = circularize(Ellipse(0, 0, 1, 1, 0))
    assert np.allclose(unit.apply([0.0, -1.0]), [0.0, -1.0], atol=1e-12)

    rng = np.random.default_rng(11)
    t = AffineTransform(rng.normal(size=(2, 2)) + 2 * np.eye(2), rng.normal(size=2))
    pts = rng.normal(size=(50, 2)) * 10
    assert np.abs(t.inverse().apply(t.apply(pts)) - pts).max() < 1e-9


def test_affine_rejects_singular_linear_part():
    with pytest.raises(ValueError):
        AffineTransform([[1.0, 2.0], [2.0, 4.0]], [0.0, 0.0])


# ---------------------------------------------------------------------------
# Orthogonal distance regression
# ---------------------------------------------------------------------------


def _orthogonal_rms(line: Line, pts: np.ndarray) -> float:
    normal = np.array([-line.dy, line.dx])
    return math.sqrt(float((((pts - line.point) @ normal) ** 2).mean()))


def _sweep_oracle_rms(pts: np.ndarray, step: float = 1e-4) -> float:
    """Exhaustive search over line angles through the centroid."""
    centered = pts - pts.mean(axis=0)
    thetas = np.arange(0.0, math.pi, step)
    normals = np.stack([np.sin(thetas), -np.cos(thetas)], axis=1)
    sse = ((centered @ normals.T) ** 2).sum(axis=0)
    return math.sqrt(float(sse.min()) / len(pts))


def test_odr_diagonal_line():
    line = odr_fit_line([(0, 0), (1, 1), (2, 2)])
    assert np.allclose(np.abs(line.direction), [1 / math.sqrt(2)] * 2, atol=1e-12)
    assert np.allclose(line.point, [1.0, 1.0])


def test_odr_vertical_line():
    line = odr_fit_line([(1, 0), (1, 1), (1, 2)])
    assert np.allclose(np.abs(line.direction), [0.0, 1.0], atol=1e-12)
    assert line.px == pytest.approx(1.0)


def test_odr_matches_sweep_oracle_on_noisy_line():
    rng = np.random.default_rng(99)
    x = rng.uniform(-10, 10, 200)
    base = np.column_stack([x, 0.5 * x + 3.0])
    normal = np.array([-0.5, 1.0]) / math.hypot(0.5, 1.0)
    pts = base + rng.normal(0, 0.1, 200)[:, None] * normal
    fit_rms = _orthogonal_rms(odr_fit_line(pts), pts)
    assert fit_rms <= _sweep_oracle_rms(pts) + 1e-9


def test_odr_rotation_equivariance():
    rng = np.random.default_rng(17)
    x = rng.uniform(-5, 5, 80)
    pts = np.column_stack([x, 0.3 * x - 1.0]) + rng.normal(0, 0.05, (80, 2))
    for angle in rng.uniform(0, TAU, 8):
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        d0 = odr_fit_line(pts).direction
        d1 = odr_fit_line(pts @ rot.T).direction
        assert min(np.linalg.norm(rot @ d0 - d1), np.linalg.norm(rot @ d0 + d1)) < 1e-9


def test_odr_degenerate_and_isotropic():
    with pytest.raises(InsufficientPoints):
        odr_fit_line([(1.0, 1.0)])
    with pytest.raises(InsufficientPoints):
        odr_fit_line([(2.0, 2.0)] * 10)
    rng = np.random.default_rng(0)
    angles = rng.uniform(0, TAU, 400)
    disc = np.sqrt(rng.uniform(0, 1, 400))[:, None] * np.column_stack(
        [np.cos(angles), np.sin(angles)]
    )
    with pytest.raises(IsotropicScatter):
        odr_fit_line(disc)


# ---------------------------------------------------------------------------
# Line / circle intersection
# ---------------------------------------------------------------------------


def _points_at(line, params):
    return line.point + np.outer(params, line.direction)


def test_intersections_horizontal_diameter():
    assert line_circle_intersections(Line(0, 0, 1, 0)) == [-1.0, 1.0]
    # Roots are parameters from the line's own point, ascending.
    line = Line(0.5, 0, 1, 0)
    params = line_circle_intersections(line)
    assert params == pytest.approx([-1.5, 0.5])
    assert np.allclose(_points_at(line, params), [[-1, 0], [1, 0]])


def test_intersections_tangent_line():
    assert line_circle_intersections(Line(0, 1, 1, 0)) == [0.0]
    assert line_circle_intersections(Line(0.25, 1, 1, 0)) == [-0.25]


def test_intersections_miss_raises():
    with pytest.raises(NoIntersection):
        line_circle_intersections(Line(0, 2, 1, 0))


def test_intersections_back_mapped_match_analytic_solution():
    # Line y = x against x^2/4 + y^2 = 1 has x = +-2/sqrt(5).
    e = Ellipse(0, 0, 2, 1, 0)
    t = circularize(e)
    p0, p1 = t.apply([0.0, 0.0]), t.apply([1.0, 1.0])
    circ_line = Line(p0[0], p0[1], p1[0] - p0[0], p1[1] - p0[1])
    back = t.inverse().apply(_points_at(circ_line, line_circle_intersections(circ_line)))
    xs = np.sort(back[:, 0])
    assert np.allclose(xs, [-2 / math.sqrt(5), 2 / math.sqrt(5)], atol=1e-9)
    assert np.allclose(back[:, 0], back[:, 1], atol=1e-9)


def test_intersections_back_mapped_satisfy_conic():
    rng = np.random.default_rng(21)
    for _ in range(30):
        a = rng.uniform(1, 200)
        e = Ellipse(
            rng.uniform(-300, 300),
            rng.uniform(-300, 300),
            a,
            a * rng.uniform(0.1, 1.0),
            rng.uniform(0, math.pi),
        )
        t = circularize(e)
        inner = e.center + rng.uniform(-0.3, 0.3, 2) * e.b
        q0, q1 = t.apply(inner), t.apply(inner + rng.normal(size=2))
        line = Line(q0[0], q0[1], q1[0] - q0[0], q1[1] - q0[1])
        back = t.inverse().apply(_points_at(line, line_circle_intersections(line)))
        A, B, C, D, E, F = e.conic_coefficients()
        x, y = back[:, 0], back[:, 1]
        residual = A * x * x + B * x * y + C * y * y + D * x + E * y + F
        assert np.abs(residual).max() < 1e-7


# ---------------------------------------------------------------------------
# Needle tip picking, angles, projection
# ---------------------------------------------------------------------------


def test_pick_prefers_candidate_near_segment_end():
    # Roots at x = -1 and x = 1. Pixels span [0.2, 0.9]: neither root is
    # inside, and x = 1 is nearer an end.
    line = Line(0, 0, 1, 0)
    assert np.array_equal(needle_tip(line, [(0.2, 0.0), (0.5, 0.0), (0.9, 0.0)]), [1.0, 0.0])
    # Pixels span [-1.2, 1.05]: both roots are inside, and x = 1 is nearer an end.
    assert np.array_equal(needle_tip(line, [(-1.2, 0.0), (1.05, 0.0)]), [1.0, 0.0])


def test_pick_symmetric_tie_breaks_by_angle():
    # Both roots sit 0.5 from an end of [-0.5, 0.5]; angle 0 beats angle pi.
    pixels = [(-0.5, 0.0), (0.5, 0.0)]
    assert np.array_equal(needle_tip(Line(0, 0, 1, 0), pixels), [1.0, 0.0])
    # The same holds on a vertical needle: angle pi/2 beats 3pi/2.
    pixels = [(0.0, -0.5), (0.0, 0.5)]
    assert np.allclose(needle_tip(Line(0, 0, 0, 1), pixels), [0.0, 1.0])


def test_pick_single_candidate():
    # A line touching the circle at (0, 1) has one root, whatever the pixels.
    pixels = [(-0.8, 1.0), (-0.3, 1.0)]
    assert np.array_equal(needle_tip(Line(0, 1, 1, 0), pixels), [0.0, 1.0])


def test_pick_membership_wins_over_distance():
    # Pixels span [-0.98, 1.3]: x = 1 lies inside, x = -1 outside but only
    # 0.02 from the lower end, nearer than x = 1 is to either end.
    pixels = [(-0.98, 0.0), (1.3, 0.0)]
    assert np.array_equal(needle_tip(Line(0, 0, 1, 0), pixels), [1.0, 0.0])


def test_pick_miss_raises():
    with pytest.raises(NoIntersection):
        needle_tip(Line(0, 2, 1, 0), [(0.0, 2.0), (1.0, 2.0)])


def test_parametric_angle_known_values():
    assert parametric_angle([1, 0]) == 0.0
    assert parametric_angle([0, 1]) == pytest.approx(math.pi / 2)
    s = math.sqrt(2) / 2
    assert parametric_angle([-s, -s]) == pytest.approx(5 * math.pi / 4)
    with pytest.raises(ValueError, match="zero vector"):
        parametric_angle([0.0, 0.0])


def test_parametric_angle_round_trip():
    ts = np.linspace(0, TAU, 721, endpoint=False)
    for t in ts:
        p = [math.cos(t), math.sin(t)]
        assert abs(parametric_angle(p) - normalize_angle(t)) < 1e-12


def test_radial_projection():
    on, r = radial_project_to_circle([2.2, 0.0])
    assert np.allclose(on, [1, 0]) and r == pytest.approx(2.2)
    on, r = radial_project_to_circle([0.6, 0.8])
    assert np.allclose(on, [0.6, 0.8]) and r == pytest.approx(1.0)
    on, r = radial_project_to_circle([0.3, 0.4])
    assert np.allclose(on, [0.6, 0.8]) and r == pytest.approx(0.5)
    with pytest.raises(ValueError, match="origin"):
        radial_project_to_circle([0.0, 0.0])


def _awkward_points():
    """Random points at several scales plus axis, signed-zero and tiny rows."""
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(300, 2)) * rng.choice([1e-6, 1.0, 1e4], size=(300, 1))
    edge = [[1, 0], [-1, 0], [0, 1], [0, -1], [-1, -0.0], [1, -0.0], [-0.0, -1], [1, -1e-300]]
    return np.vstack([pts, edge])


def test_angle_functions_on_arrays_match_row_by_row_bit_for_bit():
    pts = _awkward_points()
    rows = np.array([parametric_angle(p) for p in pts])
    assert parametric_angle(pts).tobytes() == rows.tobytes()
    assert np.all((rows >= 0.0) & (rows < TAU))

    on, radius = radial_project_to_circle(pts)
    by_row = [radial_project_to_circle(p) for p in pts]
    assert on.tobytes() == np.array([o for o, _ in by_row]).tobytes()
    assert radius.tobytes() == np.array([r for _, r in by_row]).tobytes()

    # -1e-17 % tau rounds up to tau itself; the guard folds it back to 0.
    angles = np.concatenate([np.linspace(-20.0, 20.0, 401), [-1e-17, TAU, -TAU, 0.0, -0.0]])
    by_row = np.array([normalize_angle(float(a)) for a in angles])
    assert normalize_angle(angles).tobytes() == by_row.tobytes()
    assert np.all((by_row >= 0.0) & (by_row < TAU))
    assert normalize_angle(-1e-17) == 0.0


def test_angle_functions_reject_an_origin_row():
    pts = np.array([[1.0, 2.0], [0.0, -0.0], [3.0, 4.0]])
    with pytest.raises(ValueError, match="zero vector"):
        parametric_angle(pts)
    with pytest.raises(ValueError, match="origin"):
        radial_project_to_circle(pts)
    # An empty batch has no origin row.
    assert parametric_angle(np.empty((0, 2))).shape == (0,)
    on, radius = radial_project_to_circle(np.empty((0, 2)))
    assert on.shape == (0, 2) and radius.shape == (0,)


def test_ellipse_points_satisfy_conic():
    e = Ellipse(12.0, -7.0, 30.0, 11.0, 1.1)
    A, B, C, D, E, F = e.conic_coefficients()
    pts = e.point_at(np.linspace(0, TAU, 37))
    x, y = pts[:, 0], pts[:, 1]
    residual = A * x * x + B * x * y + C * y * y + D * x + E * y + F
    assert np.abs(residual).max() < 1e-9 * e.a


def test_ellipse_normalizes_axes_and_theta():
    e = Ellipse(0, 0, 1.0, 2.0, 0.25)
    assert e.a == 2.0 and e.b == 1.0
    assert 0 <= e.theta < math.pi
    assert e.theta == pytest.approx(0.25 + math.pi / 2)


def test_value_types_take_only_finite_real_numbers():
    # Each slot of each type, one bad value at a time.
    for bad in (True, np.True_, "3", None, 10**400, math.inf, math.nan):
        for k in range(5):
            args = [224.0, 224.0, 150.0, 120.0, 0.3]
            args[k] = bad
            with pytest.raises(ValueError, match="ellipse"):
                Ellipse(*args)
        for k in range(4):
            args = [1.0, 2.0, 0.6, 0.8]
            args[k] = bad
            with pytest.raises(ValueError, match="line"):
                Line(*args)
        for k in range(6):
            entries = [1.0, 0.0, 0.0, 1.0, 3.0, 4.0]
            entries[k] = bad
            with pytest.raises(ValueError, match="affine"):
                AffineTransform([entries[:2], entries[2:4]], entries[4:])
    with pytest.raises(ValueError, match="translation"):
        AffineTransform(np.eye(2), [0.0, -math.inf])
    # Python ints and numpy scalars and arrays pass, as floats.
    e = Ellipse(np.int64(224), np.float32(224.5), 150, np.float64(120.0), 0)
    assert (e.cx, e.cy, e.a, e.b, e.theta) == (224.0, 224.5, 150.0, 120.0, 0.0)
    assert type(e.cx) is float and type(e.a) is float
    line = Line(1, np.int64(2), np.float32(0.0), -3)
    assert (line.px, line.py, line.dx, line.dy) == (1.0, 2.0, 0.0, 1.0)
    t = AffineTransform(np.eye(2, dtype=np.float32) * 2, np.array([3, 4]))
    assert t.linear.dtype == np.float64 and t.translation.dtype == np.float64
    np.testing.assert_array_equal(t.apply([[1.0, 1.0]]), [[5.0, 6.0]])
    assert AffineTransform([[2, 0], [0, 1]], (np.int64(1), 0.5)) == AffineTransform(
        np.diag([2.0, 1.0]), np.array([1.0, 0.5])
    )


# Each probe in each field of each value type. Python floats take one
# finiteness test per object; every other value goes through finite_float
# one field at a time, so each probe must meet the per-field verdict.
_PROBES = {
    "inf": math.inf,
    "-inf": -math.inf,
    "nan": math.nan,
    "float64-inf": np.float64("inf"),
    "True": True,
    "bool_-True": np.bool_(True),
    "str-1": "1",
    "None": None,
    "int-1e400": 10**400,
    "int64-3": np.int64(3),
    "float32-2.5": np.float32(2.5),
    "int-7": 7,
}
# Per type: valid floats for its fields, the message of each field's check
# and a builder from the field values.
_VALUE_TYPES = {
    "Ellipse": (
        (1.5, 2.5, 30.0, 20.0, 0.5),
        ("ellipse parameters must be finite",) * 5,
        lambda v: Ellipse(*v),
    ),
    "Line": (
        (1.5, 2.5, 0.6, 0.8),
        ("line point and direction must be finite",) * 4,
        lambda v: Line(*v),
    ),
    "AffineTransform": (
        (2.0, 0.5, 0.25, 1.5, 3.0, -4.0),
        ("affine linear part must be finite",) * 4 + ("affine translation must be finite",) * 2,
        lambda v: AffineTransform([v[:2], v[2:4]], v[4:]),
    ),
}


def _value_fields(obj) -> list:
    if isinstance(obj, AffineTransform):
        return [*obj.linear.ravel().tolist(), *obj.translation.tolist()]
    return [getattr(obj, name) for name in obj.__dataclass_fields__]


def _assert_per_field_verdict(kind: str, values: list):
    """The value type built from `values` accepts or rejects them as
    finite_float on each field in turn does, with that first message, and
    stores what it accepts as the Python floats of those fields."""
    _, messages, build = _VALUE_TYPES[kind]
    try:
        floats = [finite_float(v, message) for v, message in zip(values, messages)]
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            build(values)
        assert str(raised.value) == str(exc)
        return
    built = build(values)
    fields = _value_fields(built)
    assert fields == _value_fields(build(floats))
    assert all(type(value) is float for value in fields)


@pytest.mark.parametrize("probe", _PROBES)
@pytest.mark.parametrize(
    "kind, position",
    [(kind, k) for kind, (base, _, _) in _VALUE_TYPES.items() for k in range(len(base))],
)
def test_value_types_check_each_probe_in_each_field(kind, position, probe):
    values = list(_VALUE_TYPES[kind][0])
    values[position] = _PROBES[probe]
    _assert_per_field_verdict(kind, values)
    accepted = probe in ("int64-3", "float32-2.5", "int-7")
    try:
        _VALUE_TYPES[kind][2](values)
    except ValueError:
        assert not accepted
    else:
        assert accepted


def test_value_types_name_the_first_of_two_faults():
    for kind, (base, _, _) in _VALUE_TYPES.items():
        for i, j in itertools.combinations(range(len(base)), 2):
            for first, second in itertools.product(_PROBES.values(), repeat=2):
                values = list(base)
                values[i], values[j] = first, second
                _assert_per_field_verdict(kind, values)


@pytest.mark.parametrize("big", [1e308, -1e308])
def test_value_types_accept_finite_floats_whose_sum_overflows(big):
    """Floats whose sum overflows fall to the per-field check, which accepts them."""
    cases = {
        "Ellipse": (big, big, 1e308, 1e308, 0.5),
        "Line": (big, big, 0.6, 0.8),
        "AffineTransform": (big, 0.5, 0.25, 1.5, big, big),
    }
    for kind, values in cases.items():
        assert not math.isfinite(sum(values))
        _assert_per_field_verdict(kind, list(values))
        _VALUE_TYPES[kind][2](values)
