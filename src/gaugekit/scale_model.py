"""Angle-to-value scale modelling.

Markers projected onto the circularized scale become (angle, value) pairs;
a wrap-around point between the start and end notches anchors the angular
origin outside the scale so the pairs are free of 2*pi discontinuities, and
a RANSAC-style hypothesise-and-verify loop over the marker pairs fits the
linear map while discarding misread or unrelated numbers.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InsufficientPoints, NoConsensus
from .geometry import TAU, _add, _max, _min, normalize_angle

DEFAULT_UNIT_LEXICON = (
    "bar",
    "mbar",
    "psi",
    "kPa",
    "MPa",
    "Pa",
    "%",
    "°C",
    "°F",
    "rpm",
    "L/min",
    "m3/h",
    "mmHg",
    "inHg",
)

# Optional sign, digits, at most one decimal point. No exponents, no
# thousands separators, no trailing junk.
_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)")


def load_unit_lexicon(path) -> tuple[str, ...]:
    """Read a unit lexicon file: one unit per line, UTF-8, '#' comments."""
    units = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        entry = line.split("#", 1)[0].strip()
        if entry:
            units.append(entry)
    return tuple(units)


def parse_numeric_token(text: str) -> Optional[float]:
    """Number carried by an OCR token, or None if the token is not numeric.

    Accepts an optional sign and a single decimal point ("160", "-0.4");
    the typographic minus and whitespace padding are normalized away.
    Mixed alphanumerics, separators and exponents are rejected.
    """
    cleaned = text.strip().replace("−", "-")
    if not _NUMBER_RE.fullmatch(cleaned):
        return None
    value = float(cleaned)
    return value if math.isfinite(value) else None


def extract_unit(
    texts: Sequence[str],
    confidences: Sequence[float],
    lexicon: Sequence[str] = DEFAULT_UNIT_LEXICON,
) -> Optional[str]:
    """Highest-confidence text matching the unit lexicon.

    `texts` are the non-numeric OCR texts (read_gauge splits them from the
    markers) and `confidences` theirs. Matching is case-insensitive; the
    lexicon's canonical casing is returned. Ties keep the earliest text.
    """
    canonical = _canonical_units(tuple(lexicon))
    best: Optional[str] = None
    best_conf = -1.0
    for text, confidence in zip(texts, confidences):
        match = canonical.get(text.strip().lower())
        if match is not None and confidence > best_conf:
            best = match
            best_conf = confidence
    return best


@functools.lru_cache(maxsize=16)
def _canonical_units(lexicon: tuple[str, ...]) -> dict[str, str]:
    """Each unit of `lexicon` under its stripped lower-case form, built once
    per lexicon; the last of units that share a form wins."""
    return {u.strip().lower(): u for u in lexicon}


# ---------------------------------------------------------------------------
# Wrap-around point
# ---------------------------------------------------------------------------

def wrap_around_angle(
    start_angle: Optional[float],
    end_angle: Optional[float],
    intermediate_angles: Iterable[float],
) -> tuple[float, bool]:
    """Angular origin placed in the notch-free gap between scale end and start,
    and whether the notches settle it.

    Of the two arcs bounded by the start and end notches, the one holding
    more intermediate notches is the scale; the wrap-around point is the
    midpoint of the other arc, so relative angles measured from it never
    jump across 2*pi inside the scale. Every other case returns a fallback
    flagged uncertain: on an even split of intermediates the longer arc is
    the scale, and exactly opposite notches put the wrap in [0, pi) (both
    certain only when there are no intermediates at all); coincident start
    and end give start + pi/2; and a missing (None) start or end puts the
    wrap in the middle of the largest gap between the notches given.
    """
    intermediates = [normalize_angle(a) for a in intermediate_angles]
    if start_angle is None or end_angle is None:
        known = [normalize_angle(a) for a in (start_angle, end_angle) if a is not None]
        ordered = sorted(known + intermediates)
        if not ordered:
            raise ValueError("need at least one notch angle")
        gaps = [(b - a) % TAU for a, b in zip(ordered, ordered[1:] + ordered[:1])]
        gaps[-1] = gaps[-1] or TAU  # a lone angle (or all equal) faces a full turn
        k = gaps.index(max(gaps))
        return normalize_angle(ordered[k] + gaps[k] / 2.0), False

    s = normalize_angle(start_angle)
    e = normalize_angle(end_angle)
    forward = (e - s) % TAU  # arc A: start -> end, increasing angle
    if forward == 0.0:
        return normalize_angle(s + math.pi / 2.0), False

    in_forward = sum(1 for a in intermediates if (a - s) % TAU < forward)
    in_backward = len(intermediates) - in_forward
    even = in_forward == in_backward
    certain = not (even and intermediates)
    if even and abs(forward - math.pi) <= 1e-12:
        mid = normalize_angle(s + forward / 2.0)
        return (mid if mid < math.pi else normalize_angle(mid + math.pi)), certain
    if in_forward > in_backward or (even and forward > math.pi):
        # Scale occupies arc A; wrap in the backward arc end -> start.
        return normalize_angle(e + (TAU - forward) / 2.0), certain
    return normalize_angle(s + forward / 2.0), certain


# ---------------------------------------------------------------------------
# Linear scale model
# ---------------------------------------------------------------------------

# Angles closer than this (radians) count as one angle: no two-point model
# runs through them. About 2e-7 px on a 200 px scale radius, far below a
# pixel, yet far above the rounding that separates markers on one ray.
SAME_ANGLE_EPS = 1e-9

# Least inlier cutoff of default_inlier_threshold, for degenerate spans.
INLIER_THRESHOLD_FLOOR = 1e-9

# Most two-point models one fit scores. A side with up to 20 markers has at
# most 190 pairs and scores them all; larger sets are thinned evenly.
MAX_PAIRS = 200


@dataclass(frozen=True)
class LinearScaleModel:
    """value = slope * relative angle + intercept, with its supporting pairs."""

    slope: float
    intercept: float
    inliers: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "inliers", tuple(self.inliers))
        if len(self.inliers) < 2:
            raise ValueError("a scale model needs at least two inliers")

    def value_at(self, rel_angle: float) -> float:
        return self.slope * rel_angle + self.intercept


def default_inlier_threshold(values, fraction: float) -> float:
    """Inlier cutoff as a fraction of a robust estimate of the value span.

    The span is estimated as four median absolute deviations: that matches
    the true max-min span for evenly spread scale values but stays put when
    a misread digit or a detected serial number lands among the candidates.
    Deriving the cutoff from the raw max-min span would let a single huge
    outlier inflate it until nothing gets rejected. Floored at
    INLIER_THRESHOLD_FLOOR for degenerate (single-value) spans.
    """
    values = [float(v) for v in values]
    if not values:
        return INLIER_THRESHOLD_FLOOR
    center = _median(values)
    mad = _median([abs(v - center) for v in values])
    return max(fraction * 4.0 * mad, INLIER_THRESHOLD_FLOOR)


def _median(values: list[float]) -> float:
    """np.median's result, bit for bit: the middle value, or the mean of
    the two middle values as (a + b) / 2."""
    ordered = sorted(values)
    k = len(ordered) // 2
    return ordered[k] if len(ordered) % 2 else (ordered[k - 1] + ordered[k]) / 2


def _ols(angles: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Least-squares (slope, intercept) in the centred closed form; raises
    NoConsensus when every angle lies within SAME_ANGLE_EPS of the others,
    or when the fit overflows (values near the float limit). The caller
    holds np.errstate(over="ignore", invalid="ignore") around it."""
    if float(_max(angles) - _min(angles)) <= SAME_ANGLE_EPS:
        raise NoConsensus("all pairs lie at one angle")
    a_mean, v_mean = float(_add(angles) / len(angles)), float(_add(values) / len(values))
    da = angles - a_mean
    slope = float(da @ (values - v_mean)) / float(da @ da)
    intercept = v_mean - slope * a_mean
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise NoConsensus("the least-squares fit overflows")
    return slope, intercept


def least_squares_fit_linear(pairs) -> LinearScaleModel:
    """Plain least-squares line through all pairs; no outlier handling.

    Exists as the non-robust baseline; every pair counts as an inlier
    regardless of residual. Raises InsufficientPoints (<2 pairs) or
    NoConsensus (all angles within SAME_ANGLE_EPS, or a fit that overflows).
    """
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    if len(arr) < 2:
        raise InsufficientPoints(f"need at least 2 pairs, got {len(arr)}")
    with np.errstate(over="ignore", invalid="ignore"):
        slope, intercept = _ols(arr[:, 0], arr[:, 1])
    return LinearScaleModel(slope, intercept, tuple(range(len(arr))))


@functools.lru_cache(maxsize=64)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j in row-major order, thinned evenly to MAX_PAIRS.

    Pair k of the n(n-1)/2 lies in the last row whose start is <= k, so only
    the n-1 row starts and the chosen pairs are ever built, once per n, read-only.
    """
    total = n * (n - 1) // 2
    count = min(total, MAX_PAIRS)
    k = np.arange(count, dtype=np.int64) * total // count
    rows = np.arange(n - 1, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, k, side="right") - 1
    j = k - starts[i] + i + 1
    i.flags.writeable = j.flags.writeable = False
    return i, j


def ransac_fit_linear(pairs, threshold: float) -> LinearScaleModel:
    """Robust linear fit of (relative angle, value) pairs.

    Scores the two-point model of every pair i < j (thinned evenly to
    MAX_PAIRS if there are more), keeps the largest consensus (the first
    pair in row-major order on ties), then refits by least squares on that
    consensus. Inliers are the pairs within `threshold` of the refit line;
    should the refit drop below two supporters, which only rounding can do
    (a threshold near its floor), the minimal model and its consensus stand.

    Only pairs more than SAME_ANGLE_EPS apart in angle define a model.
    Raises InsufficientPoints (<2 pairs) or NoConsensus (no model reaches
    two supporters, e.g. all pairs at one angle, or the refit overflows).
    """
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    n = len(arr)
    if n < 2:
        raise InsufficientPoints(f"need at least 2 pairs, got {n}")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    angles, values = arr.T

    i, j = _pair_indices(n)
    angles_i, values_i = angles[i], values[i]
    dx = angles[j] - angles_i
    valid = np.abs(dx) > SAME_ANGLE_EPS
    with np.errstate(invalid="ignore", over="ignore"):
        slopes = np.where(valid, (values[j] - values_i) / np.where(valid, dx, 1.0), 0.0)
        intercepts = values_i - slopes * angles_i
        residuals = np.abs(
            values[None, :] - (slopes[:, None] * angles[None, :] + intercepts[:, None])
        )
        support = residuals <= threshold
        counts = np.where(valid, _add(support, axis=1), -1)
        best = int(counts.argmax())  # argmax keeps the first of tied pairs
        if counts[best] < 2:
            raise NoConsensus("no two-point model reached a consensus of two pairs")

        consensus = support[best]
        slope, intercept = _ols(angles[consensus], values[consensus])
        final = np.abs(values - (slope * angles + intercept)) <= threshold
    if np.count_nonzero(final) >= 2:
        inliers = final.nonzero()[0]
    else:
        slope, intercept = float(slopes[best]), float(intercepts[best])
        inliers = consensus.nonzero()[0]
    return LinearScaleModel(slope, intercept, tuple(inliers.tolist()))
