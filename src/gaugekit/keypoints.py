"""Dense-heatmap keypoint decoding and the matching training-style renderer.

Notch detectors hand over per-pixel probability maps; decoding collects the
pixels above 0.5 (strictly) and runs flat-kernel mean-shift on their indices
to one sub-pixel mode per notch. Each mode's window, a disc of the
bandwidth, is read as row segments from prefix sums kept only for rows that
hold support; each distinct mode is shifted once per iteration, in blocks.
Cost and memory follow the support, not the map, and the modes equal those
of the all-pairs window bit for bit. The renderer builds the same kind of
map from known centers so decode quality is testable without any model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import finite_float, positive_int_size

DETECTION_THRESHOLD = 0.5
CONVERGENCE_SHIFT = 1e-3
MAX_ITERATIONS = 100
_BLOCK = 512  # modes per `_window_sums` call: more outgrow the cache, costing above linear


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
    message = f"sigma must be a positive number, got {sigma!r}"
    if finite_float(sigma, message) <= 0:
        raise ValueError(message)
    w, h = positive_int_size(size)
    values = np.zeros((h, w))
    xs = np.arange(w)[None, :]
    ys = np.arange(h)[:, None]
    for center in centers:
        message = "center coordinates must be finite numbers"
        cx, cy = finite_float(center[0], message), finite_float(center[1], message)
        if not (0.0 <= cx < w and 0.0 <= cy < h):
            raise ValueError(f"center ({cx}, {cy}) outside the heatmap")
        d2 = (xs - cx) ** 2 + (ys - cy) ** 2
        np.maximum(values, np.exp(-d2 / (2.0 * sigma * sigma)), out=values)
    return Heatmap(values)


def extract_keypoints_meanshift(heatmap: Heatmap, bandwidth: float) -> list[np.ndarray]:
    """Sub-pixel keypoints from a heatmap via flat-kernel mean-shift.

    Every pixel strictly above 0.5 seeds a shift toward the unweighted mean
    of the thresholded pixels within `bandwidth`; iteration stops once the
    largest shift drops below CONVERGENCE_SHIFT px (or after MAX_ITERATIONS).
    Converged modes closer than bandwidth/2 merge. Returns (x, y) modes
    sorted lexicographically; empty when nothing clears the threshold.

    Cost and memory follow the support: prefix sums cover only rows that
    hold support (`_support_prefix`), and an iteration reads the window of
    each distinct moving mode once, as row segments in blocks of _BLOCK
    modes (`_window_sums`): O(distinct modes x bandwidth), not O(support^2).
    """
    message = f"bandwidth must be a positive number, got {bandwidth!r}"
    if finite_float(bandwidth, message) <= 0:
        raise ValueError(message)
    mask = heatmap.values > DETECTION_THRESHOLD
    rows, cols = np.divmod(np.flatnonzero(mask), mask.shape[1])
    if rows.size == 0:
        return []
    prefix = _support_prefix(mask)
    modes = np.column_stack([cols, rows]).astype(float)
    # A mode that did not move is a fixed point (same window, same mean), so
    # only the moving ones are recomputed, and those that coincide only once:
    # a sort of their complex view (x, then y) finds the distinct ones.
    moving = np.arange(len(modes))
    for _ in range(MAX_ITERATIONS):
        current = modes[moving]
        keys = current.view(np.complex128).ravel()
        order = np.argsort(keys)
        ranked = keys[order]
        first = np.concatenate(([True], ranked[1:] != ranked[:-1]))
        distinct = current[order[first]]
        inverse = np.empty(len(keys), dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        for i in range(0, len(distinct), _BLOCK):
            counts, sums = _window_sums(distinct[i : i + _BLOCK], bandwidth, prefix)
            distinct[i : i + _BLOCK] = sums / counts[:, None]
        modes[moving] = shifted = distinct[inverse]
        shift = np.abs(shifted - current)
        if float(shift.max()) < CONVERGENCE_SHIFT:
            break
        moving = moving[shift.max(axis=1) != 0.0]

    # Deterministic merge: visit modes in lexicographic order, grouping
    # everything still free within half a bandwidth of the group seed.
    order = np.lexsort((modes[:, 1], modes[:, 0]))
    modes = modes[order]
    merge2 = (bandwidth / 2.0) ** 2
    free = np.ones(len(modes), dtype=bool)
    results = []
    while free.any():
        group = ((modes - modes[int(free.argmax())]) ** 2).sum(axis=1) <= merge2
        group &= free
        free &= ~group
        results.append(modes[group].mean(axis=0))
    results.sort(key=lambda p: (p[0], p[1]))
    return results


def _support_prefix(mask: np.ndarray):
    """table[row_of[y], k] = (count, column-index sum) of the mask's pixels in
    row y left of column k, stored only for rows that hold support; the
    others and row_of's extra entry (rows off the map) share one zero row."""
    height, width = mask.shape
    support_rows = np.flatnonzero(mask.any(axis=1))
    compact = mask[support_rows]
    table = np.zeros((len(support_rows) + 1, width + 1, 2), dtype=np.int64)
    np.cumsum(compact, axis=1, out=table[:-1, 1:, 0])
    np.cumsum(compact * np.arange(width), axis=1, out=table[:-1, 1:, 1])
    row_of = np.full(height + 1, len(support_rows), dtype=np.intp)
    row_of[support_rows] = np.arange(len(support_rows))
    return table, row_of


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
    `_support_prefix` sums give the segment's count and column sum; its row sum
    is count * y. Integer sums are exact, so the means equal those of the
    all-pairs window bit for bit. Cost: O(len(modes) x bandwidth).
    """
    table, row_of = prefix
    height, width = len(row_of) - 1, table.shape[1] - 1
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
    flat, base = table.reshape(-1, 2), row_of[row] * (width + 1)
    segments = np.take(flat, base + hi, axis=0) - np.take(flat, base + lo, axis=0)
    counts = segments[..., 0]
    sums = np.column_stack([segments[..., 1].sum(axis=1), (counts * row).sum(axis=1)])
    return counts.sum(axis=1), sums
