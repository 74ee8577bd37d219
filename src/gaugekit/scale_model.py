"""Angle-to-value scale modelling.

Markers projected onto the circularized scale become (angle, value) pairs;
a wrap-around point between the start and end notches anchors the angular
origin outside the scale so the pairs are free of 2*pi discontinuities, and
a RANSAC-style hypothesise-and-verify loop over the marker pairs fits the
linear map while discarding misread or unrelated numbers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import AmbiguousOrientation, InsufficientMarkers, NoConsensus
from .geometry import TAU, normalize_angle

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


def extract_unit(ocr_items, lexicon: Sequence[str] = DEFAULT_UNIT_LEXICON) -> Optional[str]:
    """Highest-confidence non-numeric token matching the unit lexicon.

    Matching is case-insensitive; the lexicon's canonical casing is
    returned. Ties keep the earliest item.
    """
    canonical = {u.strip().lower(): u for u in lexicon}
    best: Optional[str] = None
    best_conf = -1.0
    for item in ocr_items:
        if parse_numeric_token(item.text) is not None:
            continue
        match = canonical.get(item.text.strip().lower())
        if match is not None and item.confidence > best_conf:
            best = match
            best_conf = item.confidence
    return best


# ---------------------------------------------------------------------------
# Wrap-around point
# ---------------------------------------------------------------------------

def _arc_contains(start: float, span: float, angle: float) -> bool:
    return (angle - start) % TAU < span


def shorter_arc_midpoint(start_angle: float, end_angle: float) -> float:
    """Midpoint of the shorter arc between two angles.

    Exactly opposite angles leave two candidates; the one in [0, pi) wins.
    """
    s = normalize_angle(start_angle)
    e = normalize_angle(end_angle)
    forward = (e - s) % TAU  # arc s -> e, increasing angle
    if abs(forward - math.pi) <= 1e-12:
        mid = normalize_angle(s + forward / 2.0)
        return mid if mid < math.pi else normalize_angle(mid + math.pi)
    if forward < math.pi:
        return normalize_angle(s + forward / 2.0)
    return normalize_angle(e + (TAU - forward) / 2.0)


def wrap_around_angle(
    start_angle: float, end_angle: float, intermediate_angles: Iterable[float]
) -> float:
    """Angular origin placed in the notch-free gap between scale end and start.

    Of the two arcs bounded by the start and end notches, the one holding
    the intermediate notches is the scale; the returned wrap-around point is
    the midpoint of the other arc, so relative angles measured from it never
    jump across 2*pi inside the scale. With no intermediates the shorter
    arc's midpoint is returned; an exact split of intermediates across both
    arcs raises AmbiguousOrientation carrying that same fallback.
    """
    s = normalize_angle(start_angle)
    e = normalize_angle(end_angle)
    intermediates = [normalize_angle(a) for a in intermediate_angles]
    forward = (e - s) % TAU  # arc A: start -> end, increasing angle
    if forward == 0.0:
        raise AmbiguousOrientation(normalize_angle(s + math.pi / 2.0))

    in_forward = sum(1 for a in intermediates if _arc_contains(s, forward, a))
    in_backward = len(intermediates) - in_forward
    if in_forward == in_backward:
        fallback = shorter_arc_midpoint(s, e)
        if not intermediates:
            return fallback
        raise AmbiguousOrientation(fallback)
    if in_forward > in_backward:
        # Scale occupies arc A; wrap in the backward arc end -> start.
        return normalize_angle(e + (TAU - forward) / 2.0)
    return normalize_angle(s + forward / 2.0)


def wrap_from_gaps(angles: Sequence[float]) -> float:
    """Fallback wrap-around point: midpoint of the largest gap between notches.

    Used when the start or end notch is missing and the scale boundary must
    be guessed from notch spacing alone.
    """
    normalized = sorted(normalize_angle(a) for a in angles)
    if not normalized:
        raise ValueError("need at least one notch angle")
    if len(normalized) == 1:
        return normalize_angle(normalized[0] + math.pi)
    best_gap = -1.0
    best_mid = 0.0
    for i, a in enumerate(normalized):
        nxt = normalized[(i + 1) % len(normalized)]
        gap = (nxt - a) % TAU
        if i == len(normalized) - 1 and gap == 0.0:
            gap = TAU
        if gap > best_gap:
            best_gap = gap
            best_mid = normalize_angle(a + gap / 2.0)
    return best_mid


def relative_angle(angle, wrap: float):
    """Angle (or array of angles) measured from the wrap-around point `wrap`,
    in [0, 2*pi)."""
    return normalize_angle(angle - wrap)


# ---------------------------------------------------------------------------
# Linear scale model
# ---------------------------------------------------------------------------

# Most two-point models one fit scores. A side with up to 20 markers has at
# most 190 pairs and scores them all; larger sets are thinned evenly.
MAX_PAIRS = 200


@dataclass(frozen=True)
class LinearScaleModel:
    """value = slope * relative_angle + intercept, with its supporting pairs."""

    slope: float
    intercept: float
    inliers: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "inliers", tuple(self.inliers))
        if len(self.inliers) < 2:
            raise ValueError("a scale model needs at least two inliers")

    def value_at(self, rel_angle: float) -> float:
        return self.slope * rel_angle + self.intercept


def default_inlier_threshold(values, fraction: float = 0.02, floor: float = 1e-9) -> float:
    """Inlier cutoff as a fraction of a robust estimate of the value span.

    The span is estimated as four median absolute deviations: that matches
    the true max-min span for evenly spread scale values but stays put when
    a misread digit or a detected serial number lands among the candidates.
    Deriving the cutoff from the raw max-min span would let a single huge
    outlier inflate it until nothing gets rejected. Floored for degenerate
    (single-value) spans.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return floor
    mad = float(np.median(np.abs(arr - np.median(arr))))
    return max(fraction * 4.0 * mad, floor)


def _ols(angles: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    design = np.column_stack([angles, np.ones(len(angles))])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return float(coef[0]), float(coef[1])


def least_squares_fit_linear(pairs) -> LinearScaleModel:
    """Plain least-squares line through all pairs; no outlier handling.

    Exists as the non-robust baseline; every pair counts as an inlier
    regardless of residual.
    """
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    if len(arr) < 2:
        raise InsufficientMarkers(f"need at least 2 pairs, got {len(arr)}")
    slope, intercept = _ols(arr[:, 0], arr[:, 1])
    return LinearScaleModel(slope, intercept, tuple(range(len(arr))))


def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j in row-major order, thinned evenly to MAX_PAIRS.

    Pair k of the n(n-1)/2 lies in the last row whose start is <= k, so only
    the n-1 row starts and the chosen pairs are ever built.
    """
    total = n * (n - 1) // 2
    count = min(total, MAX_PAIRS)
    k = np.arange(count, dtype=np.int64) * total // count
    rows = np.arange(n - 1, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, k, side="right") - 1
    return i, k - starts[i] + i + 1


def ransac_fit_linear(pairs, threshold: float) -> LinearScaleModel:
    """Robust linear fit of (relative angle, value) pairs.

    Scores the two-point model of every pair i < j (thinned evenly to
    MAX_PAIRS if there are more), keeps the largest consensus (the first
    pair in row-major order on ties), then refits by least squares on that
    consensus. Inliers are the pairs within `threshold` of the refit line;
    should the refit drop below two supporters, the minimal model and its
    consensus stand.

    Raises InsufficientMarkers (<2 pairs) or NoConsensus (no model reaches
    two supporters, e.g. all pairs at one angle).
    """
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    n = len(arr)
    if n < 2:
        raise InsufficientMarkers(f"need at least 2 pairs, got {n}")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    angles = arr[:, 0]
    values = arr[:, 1]

    i, j = _pair_indices(n)
    dx = angles[j] - angles[i]
    valid = dx != 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slopes = np.where(valid, (values[j] - values[i]) / np.where(dx == 0.0, 1.0, dx), 0.0)
        intercepts = values[i] - slopes * angles[i]
        residuals = np.abs(
            values[None, :] - (slopes[:, None] * angles[None, :] + intercepts[:, None])
        )
    support = residuals <= threshold
    counts = np.where(valid, support.sum(axis=1), -1)
    best = int(np.argmax(counts))  # argmax keeps the first of tied pairs
    if counts[best] < 2:
        raise NoConsensus("no two-point model reached a consensus of two pairs")

    consensus = support[best]
    slope, intercept = _ols(angles[consensus], values[consensus])
    final = np.abs(values - (slope * angles + intercept)) <= threshold
    if int(final.sum()) >= 2:
        inliers = np.nonzero(final)[0]
    else:
        slope, intercept = float(slopes[best]), float(intercepts[best])
        inliers = np.nonzero(consensus)[0]
    return LinearScaleModel(slope, intercept, tuple(int(k) for k in inliers))
