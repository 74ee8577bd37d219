"""Planar geometry for gauge reading.

Conic fitting, total-least-squares line fitting, affine frame changes, and
line/circle intersection. All coordinates follow the raster convention:
origin top-left, y grows downward, so increasing polar angle is clockwise on
screen. Angles are radians. It also holds the package's one number rule
(`is_number`, `finite_float`, `positive_int_size`), which every value type
applies to the numbers it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DegenerateConfiguration, InsufficientPoints, IsotropicScatter, NoIntersection

TAU = 2.0 * math.pi

# Scatter with covariance eigenvalue ratio above this has no usable axis.
ISOTROPY_RATIO = 0.9
# Discriminant magnitude below this counts as tangency (unit-circle frame).
TANGENCY_EPS = 1e-12
# Slack when testing whether a circle root lies within the needle pixels' extent.
SEGMENT_SLACK = 1e-9


# The reductions behind ndarray.sum, max and min, called without the Python
# wrappers those methods pass through.
_add, _max, _min = np.add.reduce, np.maximum.reduce, np.minimum.reduce


def _rows(points) -> np.ndarray:
    """`points` as a float array of at least two dimensions; atleast_2d only
    runs on a scalar or a single point."""
    pts = np.asarray(points, dtype=float)
    return pts if pts.ndim >= 2 else np.atleast_2d(pts)


def is_number(value: Any, integer: bool = False) -> bool:
    """True for a Python or numpy int, or float unless `integer`; never for a bool or np.bool_."""
    types = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    return isinstance(value, types) and not isinstance(value, bool)


def finite_float(value, message: str) -> float:
    """`value` as a float; ValueError(message) unless it is a finite real.

    Every value is_number accepts passes; strings and every other type do
    not. An int beyond the float range counts as infinite.
    """
    # A Python float, the common case, skips the call: is_number accepts it.
    if type(value) is not float and not is_number(value):
        raise ValueError(message)
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(message) from None
    if not math.isfinite(value):
        raise ValueError(message)
    return value


def positive_int_size(size) -> tuple[int, int]:
    """(width, height) as ints; ValueError unless `size` is two positive integers.

    Whole floats such as 448.0 pass; fractions, infinities and ints beyond
    the float range do not.
    """
    message = "width and height must be positive integers"
    try:
        w, h = size
    except (TypeError, ValueError):
        raise ValueError("expected [width, height]") from None
    w, h = finite_float(w, message), finite_float(h, message)
    if not (w > 0 and h > 0 and w.is_integer() and h.is_integer()):
        raise ValueError(message)
    return int(w), int(h)


def normalize_angle(angle):
    """Map an angle, or an array of them, to [0, 2*pi).

    A tiny negative x % tau rounds up to tau itself; the second % folds that
    back to 0 and leaves every other result as it is.
    """
    return angle % TAU % TAU


@dataclass(frozen=True)
class Ellipse:
    """Geometric ellipse: center + R(theta) @ (a*cos t, b*sin t).

    `a` is the semi-major and `b` the semi-minor axis; construction swaps
    them (rotating theta by pi/2) if given the other way round, and folds
    theta into [0, pi).
    """

    cx: float
    cy: float
    a: float
    b: float
    theta: float = 0.0

    def __post_init__(self):
        values = (self.cx, self.cy, self.a, self.b, self.theta)
        cx, cy, a, b, theta = [finite_float(v, "ellipse parameters must be finite") for v in values]
        if a < b:
            a, b = b, a
            theta += math.pi / 2
        if b <= 0:
            raise ValueError("ellipse axes must be positive")
        theta = theta % math.pi % math.pi
        for name, value in (("cx", cx), ("cy", cy), ("a", a), ("b", b), ("theta", theta)):
            object.__setattr__(self, name, value)

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy])

    def point_at(self, t) -> np.ndarray:
        """Point(s) at parametric angle t; t may be a scalar or an array."""
        t = np.asarray(t, dtype=float)
        ct, st = np.cos(self.theta), np.sin(self.theta)
        u = self.a * np.cos(t)
        v = self.b * np.sin(t)
        return np.stack([self.cx + ct * u - st * v, self.cy + st * u + ct * v], axis=-1)

    def conic_coefficients(self) -> tuple[float, float, float, float, float, float]:
        """Coefficients (A, B, C, D, E, F) of A x^2 + B xy + C y^2 + D x + E y + F = 0."""
        ct, st = math.cos(self.theta), math.sin(self.theta)
        ia, ib = 1.0 / self.a**2, 1.0 / self.b**2
        A = ct * ct * ia + st * st * ib
        B = 2.0 * ct * st * (ia - ib)
        C = st * st * ia + ct * ct * ib
        D = -2.0 * A * self.cx - B * self.cy
        E = -B * self.cx - 2.0 * C * self.cy
        F = A * self.cx**2 + B * self.cx * self.cy + C * self.cy**2 - 1.0
        return A, B, C, D, E, F


@dataclass(frozen=True)
class Line:
    """Parametric line: point + t * direction, with a unit direction.

    Parametric rather than y = m x + c so vertical lines are representable.
    The direction is canonicalized to point into the half-plane x > 0
    (y > 0 when vertical); a line has no intrinsic orientation.
    """

    px: float
    py: float
    dx: float
    dy: float

    def __post_init__(self):
        message = "line point and direction must be finite"
        px, py, dx, dy = [finite_float(v, message) for v in (self.px, self.py, self.dx, self.dy)]
        norm = math.hypot(dx, dy)
        if norm == 0.0 or not math.isfinite(norm):
            raise ValueError("line direction must be nonzero and finite")
        dx, dy = dx / norm, dy / norm
        if dx < 0 or (dx == 0 and dy < 0):
            dx, dy = -dx, -dy
        for name, value in (("px", px), ("py", py), ("dx", dx), ("dy", dy)):
            object.__setattr__(self, name, value)

    @property
    def point(self) -> np.ndarray:
        return np.array([self.px, self.py])

    @property
    def direction(self) -> np.ndarray:
        return np.array([self.dx, self.dy])

    def project_parameter(self, points) -> np.ndarray:
        """Signed parameter of each point's orthogonal projection onto the line."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self.point) @ self.direction


class AffineTransform:
    """Invertible map p -> linear @ p + translation."""

    __slots__ = ("linear", "translation")

    def __init__(self, linear, translation):
        # Entries as Python scalars of their own type; iterating an array is slow.
        linear = linear.tolist() if isinstance(linear, np.ndarray) else linear
        translation = translation.tolist() if isinstance(translation, np.ndarray) else translation
        try:
            ((a, b), (c, d)), (tx, ty) = linear, translation
        except (TypeError, ValueError):
            raise ValueError("expected a 2x2 linear part and a 2-vector translation") from None
        a, b, c, d = [finite_float(v, "affine linear part must be finite") for v in (a, b, c, d)]
        tx, ty = [finite_float(v, "affine translation must be finite") for v in (tx, ty)]
        det = a * d - b * c
        if det == 0.0 or not math.isfinite(det):
            raise ValueError("affine transform must be invertible")
        self.linear = np.array([[a, b], [c, d]])
        self.translation = np.array([tx, ty])

    @classmethod
    def rotation(cls, angle: float, about=(0.0, 0.0)) -> "AffineTransform":
        c, s = math.cos(angle), math.sin(angle)
        linear = np.array([[c, -s], [s, c]])
        about = np.asarray(about, dtype=float)
        return cls(linear, about - linear @ about)

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.linear.T + self.translation

    def inverse(self) -> "AffineTransform":
        """The inverse map, from the analytic 2x2 inverse (adjugate over
        determinant) of the linear part."""
        (a, b), (c, d) = self.linear.tolist()
        tx, ty = self.translation.tolist()
        det = a * d - b * c
        a, b, c, d = d / det, -b / det, -c / det, a / det
        return AffineTransform([[a, b], [c, d]], [-(a * tx + b * ty), -(c * tx + d * ty)])

    def compose(self, inner: "AffineTransform") -> "AffineTransform":
        """Transform equal to applying `inner` first, then this one."""
        return AffineTransform(
            self.linear @ inner.linear, self.linear @ inner.translation + self.translation
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineTransform):
            return NotImplemented
        return np.array_equal(self.linear, other.linear) and np.array_equal(
            self.translation, other.translation
        )

    def __repr__(self) -> str:
        return f"AffineTransform(linear={self.linear.tolist()}, translation={self.translation.tolist()})"


def _sym_eig2(sxx: float, sxy: float, syy: float) -> tuple[float, float, float, float]:
    """Eigenvalues lo <= hi of the symmetric matrix [[sxx, sxy], [sxy, syy]]
    of non-negative trace, and the unit eigenvector (ux, uy) of hi, in
    closed form.

    hi = mid + r adds terms of one sign; lo comes from the determinant,
    det / hi, as in LAPACK's dlaev2, since mid - r would keep only eps * hi
    of absolute accuracy. The eigenvector likewise takes whichever of its
    two formulas does not cancel; a multiple of the identity gets (1, 0).
    """
    mid, half = 0.5 * (sxx + syy), 0.5 * (sxx - syy)
    r = math.hypot(half, sxy)
    vx, vy = (half + r, sxy) if half >= 0.0 else (sxy, r - half)
    norm = math.hypot(vx, vy)
    if norm == 0.0:
        return mid, mid, 1.0, 0.0
    hi = mid + r
    return (sxx / hi) * syy - (sxy / hi) * sxy, hi, vx / norm, vy / norm


def _conic_parameters(A, B, C, D, E, F) -> tuple[float, float, float, float, float]:
    """(cx, cy, a, b, theta) of the real ellipse that the conic with float
    coefficients A..F describes, a >= b > 0 and theta not yet folded into
    [0, pi); DegenerateConfiguration unless there is one.

    The centre solves the 2x2 gradient system by Cramer's rule; the conic's
    value there, -k, fixes the axes, a^2 = k / lo and b^2 = k / hi, from the
    eigenvalues of the quadratic part. The major axis runs along the
    eigenvector of lo, perpendicular to the (ux, uy) of hi.
    """
    if A + C < 0:  # the same conic, with a quadratic part of positive trace
        A, B, C, D, E, F = -A, -B, -C, -D, -E, -F
    det = A * C - 0.25 * B * B
    lo, hi, ux, uy = _sym_eig2(A, 0.5 * B, C)
    if det > 0 and lo > 0:
        cx = (0.25 * B * E - 0.5 * C * D) / det
        cy = (0.25 * B * D - 0.5 * A * E) / det
        k = -(F + 0.5 * D * cx + 0.5 * E * cy)
        a_sq, b_sq = k / lo, k / hi
        if b_sq > 0 and math.isfinite(a_sq):
            a, b, theta = math.sqrt(a_sq), math.sqrt(b_sq), math.atan2(ux, -uy)
            # Ellipse's own swap, made before any scaling can round a and b equal.
            return (cx, cy, a, b, theta) if a >= b else (cx, cy, b, a, theta + math.pi / 2)
    raise DegenerateConfiguration("conic has no real ellipse points")


# C1^-1 of the constraint 4AC - B^2, as weights on the reduced scatter's reversed rows.
_CONSTRAINT_INVERSE = np.array([[0.5], [-1.0], [0.5]])


def fit_ellipse_direct(points) -> Ellipse:
    """Direct least-squares ellipse fit (Halir & Flusser's numerically stable
    variant of Fitzgibbon's method).

    Points are shifted to zero mean and scaled to unit RMS radius before
    building the scatter matrices; the quadratic/linear split keeps the
    reduced eigensystem 3x3 and guarantees an ellipse (never a hyperbola)
    when one exists.

    Raises InsufficientPoints for fewer than 5 points and
    DegenerateConfiguration when the scatter admits no real ellipse.
    """
    pts = _rows(points)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (N, 2) array of points")
    n = pts.shape[0]
    if n < 5:
        raise InsufficientPoints(f"ellipse fit needs at least 5 points, got {n}")

    # add.reduce / n is numpy's mean to the bit (one sum, then one division).
    mean = _add(pts, axis=0) / n
    centered = pts - mean
    scale = math.sqrt(float(_add(_add(centered**2, axis=1)) / n))
    if scale == 0.0:
        raise DegenerateConfiguration("all points coincide")
    if not scale < math.inf:
        raise DegenerateConfiguration("the points' spread is beyond the float range")

    # One scatter of the design rows [x^2, xy, y^2, x, y, 1], filled in
    # place with x and y normalized first; S1, S2, S3 are its blocks.
    design = np.empty((6, n))
    xy = np.divide(centered.T, scale, out=design[3:5])
    np.multiply(xy[0], xy, out=design[:2])  # x * x, x * y
    np.multiply(xy[1], xy[1], out=design[2])
    design[5] = 1.0
    scatter = design @ design.T
    # The SVD rule alone judges collinearity. The scatter's [[Sxx, Sxy],
    # [Sxy, Syy]] block settles the verdict when lo >= 1e-8 * hi: the smaller
    # singular value is then at least about 1e-4 of the larger, far above
    # the rule's 1e-10. Below that bar, or on a NaN, the SVD decides.
    (sxx, sxy), (_, syy) = scatter[3:5, 3:5].tolist()
    lo, hi, _, _ = _sym_eig2(sxx, sxy, syy)
    if not lo >= 1e-8 * hi:
        sing = np.linalg.svd(np.ascontiguousarray(xy.T), compute_uv=False)
        if sing[1] < 1e-10 * sing[0]:
            raise DegenerateConfiguration("points are collinear")
    s1, s2, s3 = scatter[:3, :3], scatter[:3, 3:], scatter[3:, 3:]
    try:
        t = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError:
        raise DegenerateConfiguration("points are collinear or otherwise rank-deficient") from None
    m = s1 + s2 @ t
    m = m[::-1] * _CONSTRAINT_INVERSE  # rows m[2] / 2, -m[1], m[0] / 2

    evals, evecs = np.linalg.eig(m)
    real = evecs.real
    for i, (value, quadratic) in enumerate(zip(evals.tolist(), real.T.tolist())):
        if abs(value.imag) > 1e-9 * (1.0 + abs(value.real)):
            continue
        if 4.0 * quadratic[0] * quadratic[2] - quadratic[1] ** 2 > 0:
            break
    else:
        raise DegenerateConfiguration("eigensystem yields no valid ellipse")

    cx, cy, a, b, theta = _conic_parameters(*quadratic, *(t @ real[:, i]).tolist())
    mx, my = mean.tolist()
    # Normalization was isotropic, so the geometric undo is a similarity;
    # Ellipse checks and folds the result as it would the normalized one.
    return Ellipse(cx * scale + mx, cy * scale + my, a * scale, b * scale, theta)


def circularize(ellipse: Ellipse) -> AffineTransform:
    """Affine map sending the ellipse to the unit circle centered at the origin.

    Translate the center to the origin, rotate the major axis onto x, then
    scale the axes by (1/a, 1/b). Points at parametric angle t land exactly
    at (cos t, sin t), so parametric angles survive the map. Raises
    DegenerateConfiguration when the axes are so short that the map
    overflows.
    """
    c, s = math.cos(ellipse.theta), math.sin(ellipse.theta)
    rot = np.array([[c, s], [-s, c]])
    linear = np.diag([1.0 / ellipse.a, 1.0 / ellipse.b]) @ rot
    try:
        return AffineTransform(linear, -linear @ ellipse.center)
    except ValueError:
        raise DegenerateConfiguration("the ellipse's circle frame is beyond the float range") from None


def odr_fit_line(points) -> Line:
    """Orthogonal-distance (total least squares) line fit.

    The optimal line passes through the centroid along the principal axis of
    the centered scatter: the eigenvector of the larger eigenvalue of the
    2x2 scatter matrix, taken in closed form by _sym_eig2. Raises
    InsufficientPoints (<2 points, or all coincident) or IsotropicScatter
    when the covariance eigenvalue ratio exceeds ISOTROPY_RATIO, or is NaN
    for a scatter beyond the float range, and no direction is trustworthy.
    """
    pts = _rows(points)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (N, 2) array of points")
    if pts.shape[0] < 2:
        raise InsufficientPoints(f"line fit needs at least 2 points, got {pts.shape[0]}")
    centroid = _add(pts, axis=0) / pts.shape[0]
    centered = pts - centroid
    (sxx, sxy), (_, syy) = (centered.T @ centered).tolist()
    lo, hi, ux, uy = _sym_eig2(sxx, sxy, syy)
    if hi == 0.0:
        raise InsufficientPoints("line fit needs two distinct points; all coincide")
    ratio = max(lo, 0.0) / hi
    if not ratio <= ISOTROPY_RATIO:
        raise IsotropicScatter(ratio)
    return Line(centroid[0], centroid[1], ux, uy)


def line_circle_intersections(line: Line) -> list[float]:
    """Parameters t at which a line meets the unit circle at the origin.

    Solving |p + t d|^2 = 1 for unit d gives t^2 + 2 t (p.d) + (p.p - 1) = 0.
    A discriminant within TANGENCY_EPS of zero returns the single tangency
    root; a discriminant below -TANGENCY_EPS, or NaN for a point whose
    square overflows, raises NoIntersection. Two roots come in ascending
    order.
    """
    p = line.point
    d = line.direction
    b = float(p @ d)
    c = float(p @ p) - 1.0
    disc = b * b - c
    if not disc >= -TANGENCY_EPS:
        raise NoIntersection("line misses the unit circle")
    if disc <= TANGENCY_EPS:
        return [-b]
    root = math.sqrt(disc)
    return [-b - root, -b + root]


def parametric_angle(point):
    """Polar angle in [0, 2*pi), y-down convention, of a point or of each
    row of an (N, 2) array. Raises ValueError if any point is the origin."""
    p = np.asarray(point, dtype=float)
    radius = np.hypot(p[..., 0], p[..., 1])
    if np.count_nonzero(radius) < radius.size:
        raise ValueError("angle of the zero vector is undefined")
    return normalize_angle(np.arctan2(p[..., 1], p[..., 0]))


def radial_project_to_circle(point) -> tuple[np.ndarray, np.ndarray]:
    """Project a point, or each row of an (N, 2) array, radially onto the
    unit circle; also return the radius (a scalar, or one per row).

    The radius classifies a point as inside (<1) or outside (>=1) the
    fitted scale downstream. Raises ValueError if any point is the origin.
    """
    p = np.asarray(point, dtype=float)
    radius = np.hypot(p[..., 0], p[..., 1])
    if np.count_nonzero(radius) < radius.size:
        raise ValueError("cannot project the origin onto the circle")
    return p / radius[..., None], radius


def needle_tip(line: Line, pixels) -> np.ndarray:
    """Point on the unit circle that the needle, fitted as `line` through
    `pixels`, is pointing at.

    The circle roots and the pixels' orthogonal projections [lo, hi] are
    compared as parameters along the line. If exactly one root lies within
    [lo, hi] (SEGMENT_SLACK either side), it wins. Otherwise the root
    nearest an end of that extent wins (the needle tip sits near the
    scale); an exact tie goes to the smaller parametric angle. Raises
    NoIntersection when the line misses the circle, or when its point lies
    so far out that the tip rounds to the centre.
    """
    point, direction = line.point, line.direction
    params = (_rows(pixels) - point) @ direction
    lo, hi = float(_min(params)), float(_max(params))
    roots = line_circle_intersections(line)
    best = [t for t in roots if lo - SEGMENT_SLACK <= t <= hi + SEGMENT_SLACK]
    if len(best) != 1:
        ends = [min(abs(t - lo), abs(t - hi)) for t in roots]
        best = [t for t, e in zip(roots, ends) if e == min(ends)]
    tips = [point + t * direction for t in best]
    if not all(map(np.count_nonzero, tips)):
        raise NoIntersection("the tip rounds to the centre")
    return tips[0] if len(tips) == 1 else min(tips, key=parametric_angle)
