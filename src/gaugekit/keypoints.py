"""Dense-heatmap keypoint decoding and the matching training-style renderer.

Notch detectors hand over per-pixel probability maps; decoding collects the
pixels above 0.5 (strictly) and runs flat-kernel mean-shift on their indices
to one sub-pixel mode per notch. Each mode's window, a disc of the
bandwidth, is read as row segments from row prefix sums of the thresholded
mask: an iteration costs O(support x bandwidth), not O(support^2), and the
modes equal those of the all-pairs window bit for bit. The renderer builds
the same kind of map from known centers so decode quality is testable
without any model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSigma
from .fixtures import positive_int_size

DETECTION_THRESHOLD = 0.5
CONVERGENCE_SHIFT = 1e-3
MAX_ITERATIONS = 100


@dataclass(frozen=True)
class Heatmap:
    """Row-major grid of detection scores, all within [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("heatmap values must be a 2-D grid")
        # NaN fails both comparisons, so this also rejects non-finite values.
        if not ((values >= 0.0) & (values <= 1.0)).all():
            raise ValueError("heatmap values must be finite and lie in [0, 1]")
        object.__setattr__(self, "values", values)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


def render_gaussian_heatmap(size: tuple[int, int], centers, sigma: float) -> Heatmap:
    """Max-composed Gaussian blobs, one per center.

    Pixel (x, y) gets max_c exp(-|q - c|^2 / (2 sigma^2)); max rather than
    sum keeps overlapping blobs within [0, 1]. `size` is (width, height) in
    positive integers (whole floats pass); centers must lie inside the grid.
    """
    if isinstance(sigma, (bool, np.bool_)):
        raise InvalidSigma("sigma must be a number, not a bool")
    if sigma <= 0 or not np.isfinite(sigma):
        raise InvalidSigma(f"sigma must be positive, got {sigma}")
    w, h = positive_int_size(size)
    values = np.zeros((h, w))
    xs = np.arange(w)[None, :]
    ys = np.arange(h)[:, None]
    for center in centers:
        cx, cy = float(center[0]), float(center[1])
        if not (0.0 <= cx < w and 0.0 <= cy < h):
            raise ValueError(f"center ({cx}, {cy}) outside the heatmap")
        d2 = (xs - cx) ** 2 + (ys - cy) ** 2
        np.maximum(values, np.exp(-d2 / (2.0 * sigma * sigma)), out=values)
    return Heatmap(values)


def default_bandwidth(size: tuple[int, int]) -> float:
    """Window size used when the caller has no better prior: 5% of the short side."""
    return 0.05 * min(size)


def extract_keypoints_meanshift(heatmap: Heatmap, bandwidth: float) -> list[np.ndarray]:
    """Sub-pixel keypoints from a heatmap via flat-kernel mean-shift.

    Every pixel strictly above 0.5 seeds a shift toward the unweighted mean
    of the thresholded pixels within `bandwidth`; iteration stops once the
    largest shift drops below CONVERGENCE_SHIFT px (or after MAX_ITERATIONS).
    Converged modes closer than bandwidth/2 merge. Returns (x, y) modes
    sorted lexicographically; empty when nothing clears the threshold.

    Each window is read as row segments from row prefix sums of the
    thresholded mask (see `_window_sums`), so one iteration costs
    O(support x bandwidth) rather than O(support^2).
    """
    if isinstance(bandwidth, (bool, np.bool_)):
        raise ValueError("bandwidth must be a number, not a bool")
    if bandwidth <= 0 or not np.isfinite(bandwidth):
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    mask = heatmap.values > DETECTION_THRESHOLD
    rows, cols = np.nonzero(mask)
    if rows.size == 0:
        return []
    prefix = _row_prefix(mask)
    modes = np.column_stack([cols, rows]).astype(float)
    # A mode that did not move is a fixed point (same window, same mean),
    # so only the moving ones are recomputed.
    moving = np.ones(len(modes), dtype=bool)
    for _ in range(MAX_ITERATIONS):
        counts, sums = _window_sums(modes[moving], bandwidth, prefix)
        shifted = sums / counts[:, None]
        shift = np.abs(shifted - modes[moving])
        modes[moving] = shifted
        if float(shift.max()) < CONVERGENCE_SHIFT:
            break
        moving[moving] = shift.max(axis=1) != 0.0

    # Deterministic merge: visit modes in lexicographic order, grouping
    # everything within half a bandwidth of the group seed.
    order = np.lexsort((modes[:, 1], modes[:, 0]))
    modes = modes[order]
    merge2 = (bandwidth / 2.0) ** 2
    taken = np.zeros(len(modes), dtype=bool)
    results = []
    for i in range(len(modes)):
        if taken[i]:
            continue
        group = ((modes - modes[i]) ** 2).sum(axis=1) <= merge2
        group &= ~taken
        taken |= group
        results.append(modes[group].mean(axis=0))
    results.sort(key=lambda p: (p[0], p[1]))
    return results


def _row_prefix(mask: np.ndarray) -> np.ndarray:
    """prefix[y, k] = (count, column-index sum) of the mask's pixels in row y
    left of column k; the extra all-zero last row stands in for rows off
    the map."""
    height, width = mask.shape
    prefix = np.zeros((height + 1, width + 1, 2), dtype=np.int64)
    np.cumsum(mask, axis=1, out=prefix[:height, 1:, 0])
    np.cumsum(mask * np.arange(width), axis=1, out=prefix[:height, 1:, 1])
    return prefix


def _window_sums(modes, bandwidth, prefix):
    """Pixel count and (x, y) index sums of the support within `bandwidth`
    of each mode, membership decided by the float test
    (mx - x)**2 + (my - y)**2 <= bandwidth**2.

    The disc is a stack of row segments. Every row at distance bandwidth + 1
    or more fails the test, and the floor(2*bandwidth) + 3 rows from
    floor(my - bandwidth) cover all the others. Per row, sqrt(bw^2 - dy^2)
    puts each segment end within one column of the test's own boundary
    (rounding can still leave it one short), so the test itself, applied
    from one column outside the estimate inwards, fixes the exact end. The
    prefix sums then give the segment's count and column sum; its row sum
    is count * y. Integer sums are exact, so the means equal those of the
    all-pairs window bit for bit. Cost: O(len(modes) x bandwidth).
    """
    height, width = prefix.shape[0] - 1, prefix.shape[1] - 1
    bw2 = bandwidth * bandwidth
    n_rows = int(min(2.0 * bandwidth + 3.0, height))
    mx, my = modes[:, :1], modes[:, 1:]
    # Clamping the first row to 0 loses no row of the map: n_rows <= height.
    ys = np.maximum(np.floor(my - bandwidth), 0.0) + np.arange(n_rows)
    dy2 = (my - ys) ** 2
    half = np.sqrt(np.maximum(bw2 - dy2, 0.0))

    def outside(x):
        return (mx - x) ** 2 + dy2 > bw2

    # At most two inward steps: the exact end is within one of the estimate.
    lo = np.clip(np.ceil(mx - half), -2.0, width + 1.0) - 1.0
    lo += outside(lo)
    lo += outside(lo)
    hi = np.clip(np.floor(mx + half), -2.0, width + 1.0) + 1.0
    hi -= outside(hi)
    hi -= outside(hi)
    row = np.where(ys < height, ys, height).astype(np.intp)
    lo = np.clip(lo.astype(np.intp), 0, width)
    hi = np.clip(hi.astype(np.intp) + 1, lo, width)
    flat, base = prefix.reshape(-1, 2), row * (width + 1)
    segments = np.take(flat, base + hi, axis=0) - np.take(flat, base + lo, axis=0)
    counts = segments[..., 0]
    sums = np.column_stack([segments[..., 1].sum(axis=1), (counts * row).sum(axis=1)])
    return counts.sum(axis=1), sums
