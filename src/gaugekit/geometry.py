"""Planar geometry for gauge reading.

Conic fitting, total-least-squares line fitting, affine frame changes, and
line/circle intersection. All coordinates follow the raster convention:
origin top-left, y grows downward, so increasing polar angle is clockwise on
screen. Angles are radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfiguration,
    DegeneratePoints,
    InsufficientPoints,
    IsotropicScatter,
    NoIntersection,
    ZeroVector,
)

TAU = 2.0 * math.pi

# Scatter with covariance eigenvalue ratio above this has no usable axis.
ISOTROPY_RATIO = 0.9
# Discriminant magnitude below this counts as tangency (unit-circle frame).
TANGENCY_EPS = 1e-12
# Slack when testing whether an intersection lies on the needle segment.
SEGMENT_SLACK = 1e-9


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
        cx, cy, a, b, theta = (float(v) for v in (self.cx, self.cy, self.a, self.b, self.theta))
        if not all(math.isfinite(v) for v in (cx, cy, a, b, theta)):
            raise ValueError("ellipse parameters must be finite")
        if a < b:
            a, b = b, a
            theta += math.pi / 2
        if b <= 0:
            raise ValueError("ellipse axes must be positive")
        theta = theta % math.pi
        if theta >= math.pi:
            theta -= math.pi
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
        px, py, dx, dy = (float(v) for v in (self.px, self.py, self.dx, self.dy))
        norm = math.hypot(dx, dy)
        if norm == 0.0 or not math.isfinite(norm):
            raise ZeroVector("line direction must be nonzero and finite")
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
        linear = np.asarray(linear, dtype=float)
        translation = np.asarray(translation, dtype=float)
        if linear.shape != (2, 2) or translation.shape != (2,):
            raise ValueError("expected a 2x2 linear part and a 2-vector translation")
        det = float(np.linalg.det(linear))
        if det == 0.0 or not math.isfinite(det):
            raise ValueError("affine transform must be invertible")
        self.linear = linear
        self.translation = translation

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(np.eye(2), np.zeros(2))

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
        inv = np.linalg.inv(self.linear)
        return AffineTransform(inv, -inv @ self.translation)

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


def _conic_to_geometric(A, B, C, D, E, F) -> Ellipse:
    disc = 4.0 * A * C - B * B
    if disc <= 0:
        raise DegenerateConfiguration("conic is not an ellipse (4AC - B^2 <= 0)")
    aq = np.array([[A, B / 2, D / 2], [B / 2, C, E / 2], [D / 2, E / 2, F]])
    a33 = aq[:2, :2]
    center = np.linalg.solve(a33, [-D / 2, -E / 2])
    evals, evecs = np.linalg.eigh(a33)
    k = -np.linalg.det(aq) / np.linalg.det(a33)
    axes_sq = k / evals
    if np.any(axes_sq <= 0) or not np.all(np.isfinite(axes_sq)):
        raise DegenerateConfiguration("conic has no real ellipse points")
    radii = np.sqrt(axes_sq)
    # eigh sorts eigenvalues ascending, so radii[0] is the major axis.
    theta = math.atan2(evecs[1, 0], evecs[0, 0])
    return Ellipse(center[0], center[1], radii[0], radii[1], theta)


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
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (N, 2) array of points")
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

    geom = _conic_to_geometric(quad[0], quad[1], quad[2], lin[0], lin[1], lin[2])
    # Normalization was isotropic, so the geometric undo is a similarity.
    return Ellipse(
        geom.cx * scale + mean[0],
        geom.cy * scale + mean[1],
        geom.a * scale,
        geom.b * scale,
        geom.theta,
    )


def circularize(ellipse: Ellipse) -> AffineTransform:
    """Affine map sending the ellipse to the unit circle centered at the origin.

    Translate the center to the origin, rotate the major axis onto x, then
    scale the axes by (1/a, 1/b). Points at parametric angle t land exactly
    at (cos t, sin t), so parametric angles survive the map.
    """
    c, s = math.cos(ellipse.theta), math.sin(ellipse.theta)
    rot = np.array([[c, s], [-s, c]])
    linear = np.diag([1.0 / ellipse.a, 1.0 / ellipse.b]) @ rot
    return AffineTransform(linear, -linear @ ellipse.center)


def odr_fit_line(points) -> Line:
    """Orthogonal-distance (total least squares) line fit.

    The optimal line passes through the centroid along the principal axis of
    the centered scatter, obtained here from the SVD. Raises
    InsufficientPoints (<2), DegeneratePoints (all coincident), or
    IsotropicScatter when the covariance eigenvalue ratio exceeds
    ISOTROPY_RATIO and no direction is trustworthy.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (N, 2) array of points")
    if pts.shape[0] < 2:
        raise InsufficientPoints(f"line fit needs at least 2 points, got {pts.shape[0]}")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, sing, vt = np.linalg.svd(centered, full_matrices=False)
    if sing[0] == 0.0:
        raise DegeneratePoints("all points coincide")
    ratio = (sing[1] / sing[0]) ** 2
    if ratio > ISOTROPY_RATIO:
        raise IsotropicScatter(float(ratio))
    direction = vt[0]
    return Line(centroid[0], centroid[1], direction[0], direction[1])


def line_circle_intersections(line: Line) -> list[np.ndarray]:
    """Intersections of a line with the unit circle at the origin.

    Solving |p + t d|^2 = 1 for unit d gives t^2 + 2 t (p.d) + (p.p - 1) = 0.
    A discriminant within TANGENCY_EPS of zero returns the single tangency
    point; a discriminant below -TANGENCY_EPS raises NoIntersection. Two
    points are ordered by their parameter along the line.
    """
    p = line.point
    d = line.direction
    b = float(p @ d)
    c = float(p @ p) - 1.0
    disc = b * b - c
    if disc < -TANGENCY_EPS:
        raise NoIntersection("line misses the unit circle")
    if disc <= TANGENCY_EPS:
        return [p - b * d]
    root = math.sqrt(disc)
    return [p + (-b - root) * d, p + (-b + root) * d]


def parametric_angle(point):
    """Polar angle in [0, 2*pi), y-down convention, of a point or of each
    row of an (N, 2) array. Raises ZeroVector if any point is the origin."""
    p = np.asarray(point, dtype=float)
    radius = np.hypot(p[..., 0], p[..., 1])
    if np.count_nonzero(radius) < radius.size:
        raise ZeroVector("angle of the zero vector is undefined")
    return normalize_angle(np.arctan2(p[..., 1], p[..., 0]))


def radial_project_to_circle(point) -> tuple[np.ndarray, np.ndarray]:
    """Project a point, or each row of an (N, 2) array, radially onto the
    unit circle; also return the radius (a scalar, or one per row).

    The radius classifies a point as inside (<1) or outside (>=1) the
    fitted scale downstream. Raises ZeroVector if any point is the origin.
    """
    p = np.asarray(point, dtype=float)
    radius = np.hypot(p[..., 0], p[..., 1])
    if np.count_nonzero(radius) < radius.size:
        raise ZeroVector("cannot project the origin onto the circle")
    return p / radius[..., None], radius


def pick_needle_intersection(candidates, needle_segment) -> np.ndarray:
    """Choose the circle intersection the needle is actually pointing at.

    If exactly one candidate lies within the needle segment (small slack),
    that one wins. Otherwise the candidate closest to either segment end
    wins (the needle tip sits near the scale); exact ties go to the smaller
    parametric angle.
    """
    cands = [np.asarray(c, dtype=float) for c in candidates]
    if not cands:
        raise ValueError("need at least one candidate")
    e1, e2 = (np.asarray(e, dtype=float) for e in needle_segment)
    seg = e2 - e1
    length = float(np.hypot(seg[0], seg[1]))

    if length > 0.0:
        axis = seg / length
        inside = [
            c for c in cands if -SEGMENT_SLACK <= float((c - e1) @ axis) <= length + SEGMENT_SLACK
        ]
        if len(inside) == 1:
            return inside[0]

    def tip_distance(c):
        return min(float(np.linalg.norm(c - e1)), float(np.linalg.norm(c - e2)))

    scored = [(tip_distance(c), c) for c in cands]
    best_score = min(s for s, _ in scored)
    tied = [c for s, c in scored if s - best_score <= 1e-12]
    if len(tied) == 1:
        return tied[0]
    return min(tied, key=parametric_angle)


def orientation_correction(wrap_direction) -> AffineTransform:
    """Pure rotation sending the wrap direction to image-bottom (0, 1).

    For a unit w the rotation [[wy, -wx], [wx, wy]] has determinant 1 and
    maps w to (0, 1) exactly; it uprights a rotated gauge whose wrap-around
    point should face the bottom of the crop.
    """
    w = np.asarray(wrap_direction, dtype=float)
    norm = float(np.hypot(w[0], w[1]))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("wrap_direction must be a unit vector")
    wx, wy = float(w[0]), float(w[1])
    return AffineTransform(np.array([[wy, -wx], [wx, wy]]), np.zeros(2))
