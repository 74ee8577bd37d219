"""Dense-heatmap keypoint decoding and the matching training-style renderer.

Notch detectors hand over per-pixel probability maps; decoding collects the
pixels above 0.5 (strictly) and runs flat-kernel mean-shift on their indices
to one sub-pixel mode per notch. Windows, discs of the bandwidth, are read
as row segments from prefix sums built from the support pixels and kept
only for the rows and columns that hold support, offset-major: one array
row per window row offset, so every numpy pass runs along the modes. The
first shift reads every seed pixel's window through one disc stencil built
once per call. The values several seeds share after it become anchors: a
window read once, and a reach within which every point has the same pixel
set. Later shifts move each distinct moving mode once, taking an anchor's
shift when the mode is strictly within its reach and reading its own window
otherwise, in blocks. The merge groups the distinct converged values in one
pass over nearby cells. Cost and memory follow the support, not the map,
and the modes equal those of the all-pairs window bit for bit. The renderer
builds the same kind of map from known centers so decode quality is
testable without any model.
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
    """Row-major grid of detection scores, all within [0, 1].

    Keeps a read-only float64 copy of `values`, so later writes to the
    caller's array never reach it.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        if values.ndim != 2:
            raise ValueError("heatmap values must be a 2-D grid")
        # NaN fails both comparisons, so this also rejects non-finite values.
        if not ((values >= 0.0) & (values <= 1.0)).all():
            raise ValueError("heatmap values must be finite and lie in [0, 1]")
        object.__setattr__(self, "values", values)


def render_gaussian_heatmap(size: tuple[int, int], centers, sigma: float) -> Heatmap:
    """Max-composed Gaussian blobs, one per center.

    Pixel (x, y) gets max_c exp(-|q - c|^2 / (2 sigma^2)); max rather than
    sum keeps overlapping blobs within [0, 1]. `size` is (width, height) in
    positive integers (whole floats pass); centers must lie inside the grid.
    Where 2 sigma^2 underflows to 0 (sigma below ~1e-162) each blob is its
    limit: 1 on the pixel its center falls on, if any, and 0 elsewhere.
    """
    message = f"sigma must be a positive number, got {sigma!r}"
    if finite_float(sigma, message) <= 0:
        raise ValueError(message)
    w, h = positive_int_size(size)
    spread = 2.0 * sigma * sigma
    values = np.zeros((h, w))
    xs = np.arange(w)[None, :]
    ys = np.arange(h)[:, None]
    for center in centers:
        message = "center coordinates must be finite numbers"
        cx, cy = finite_float(center[0], message), finite_float(center[1], message)
        if not (0.0 <= cx < w and 0.0 <= cy < h):
            raise ValueError(f"center ({cx}, {cy}) outside the heatmap")
        d2 = (xs - cx) ** 2 + (ys - cy) ** 2
        if spread > 0.0:
            # A tiny spread sends -d2 / spread to -inf, whose exp is the limit 0.
            with np.errstate(over="ignore"):
                np.maximum(values, np.exp(-d2 / spread), out=values)
        else:
            np.maximum(values, d2 == 0.0, out=values)
    return Heatmap(values)


def extract_keypoints_meanshift(heatmap: Heatmap, bandwidth: float) -> list[np.ndarray]:
    """Sub-pixel keypoints from a heatmap via flat-kernel mean-shift.

    Every pixel strictly above 0.5 seeds a shift toward the unweighted mean
    of the thresholded pixels within `bandwidth`; iteration stops once the
    largest shift drops below CONVERGENCE_SHIFT px (or after MAX_ITERATIONS).
    Converged modes closer than bandwidth/2 merge. Returns (x, y) modes
    sorted lexicographically; empty when nothing clears the threshold.

    Cost and memory follow the support: prefix sums, built from the
    support pixels, cover only the support's rows x the support's columns
    (`_support_prefix`), and windows are read offset-major, each numpy pass
    along the modes. Iteration 1 shifts the seeds through one disc stencil
    (`_stencil_sums`). Each later iteration shifts each distinct moving
    mode once: a mode strictly within an anchor's reach (`_Anchors`) takes
    the anchor's shift, and the others have their windows read as row
    segments in blocks of _BLOCK modes (`_window_sums`). The anchors cost
    O(anchors x bandwidth) once and O(log anchors) per mode looked up, so an
    iteration stays O(distinct modes x bandwidth), not O(support^2). The
    merge groups the distinct converged values in O(values)
    (`_greedy_groups`) and takes each group's mean over its modes.
    """
    message = f"bandwidth must be a positive number, got {bandwidth!r}"
    bandwidth = finite_float(bandwidth, message)
    if bandwidth <= 0:
        raise ValueError(message)
    mask = heatmap.values > DETECTION_THRESHOLD
    rows, cols = np.divmod(np.flatnonzero(mask), mask.shape[1])
    if rows.size == 0:
        return []
    prefix = _support_prefix(rows, cols, mask.shape)
    # Iteration 1 is the seed shift. After it, a mode that did not move is a
    # fixed point (same window, same mean), so only the moving ones are
    # recomputed, and those that coincide only once (`_distinct`).
    counts, sums = _stencil_sums(cols, rows, bandwidth, prefix)
    modes = sums / counts[:, None]
    shift = np.abs(modes - np.column_stack([cols, rows])).max(axis=1)
    moving = np.arange(len(modes))
    anchors = None
    for _ in range(MAX_ITERATIONS - 1):
        if float(shift.max()) < CONVERGENCE_SHIFT:
            break
        moving = moving[shift != 0.0]
        current = modes[moving]
        distinct, inverse = _distinct(current)
        if anchors is None:
            # The values that several seeds share after the seed shift (on a
            # blob, the centroid that every seed seeing all of it reaches)
            # are the anchors, kept for every later iteration. Their windows
            # are read with this pass's others.
            repeated = np.bincount(inverse) > 1
            anchors = _Anchors(distinct[repeated], bandwidth, prefix, cols)
            near = anchors.covering(distinct)
            near[repeated] = -1
        else:
            near = anchors.covering(distinct)
        far = near < 0
        pending = distinct[far]
        for i in range(0, len(pending), _BLOCK):
            counts, sums = _window_sums(pending[i : i + _BLOCK], bandwidth, prefix)
            pending[i : i + _BLOCK] = sums / counts[:, None]
        distinct[far] = pending
        if anchors.following is None:
            anchors.following = distinct[repeated]
        distinct[~far] = anchors.following[near[~far]]
        modes[moving] = shifted = distinct[inverse]
        shift = np.abs(shifted - current).max(axis=1)

    # Deterministic merge: visit modes in lexicographic order, grouping
    # everything still free within half a bandwidth of the group seed. Equal
    # modes always share a group, so the walk labels the distinct values;
    # each value repeated as often as it occurs, grouped stably, gives every
    # group's modes in sorted order, so a group's slice has the mean, bit for
    # bit, of the modes it stands for.
    values, inverse = _distinct(modes)
    group = _greedy_groups(values, bandwidth)
    order = np.argsort(group, kind="stable")
    expanded = np.repeat(values[order], np.bincount(inverse)[order], axis=0)
    ends = np.cumsum(np.bincount(group[inverse])).tolist()
    results = [expanded[start:end].mean(axis=0) for start, end in zip([0, *ends], ends)]
    results.sort(key=lambda p: (p[0], p[1]))
    return results


def _greedy_groups(values, bandwidth):
    """The merge group of each of the distinct, sorted values: the first
    value not yet grouped seeds a group of every ungrouped value v within
    half a bandwidth of it by the float test
    (vx - sx)**2 + (vy - sy)**2 <= (bandwidth / 2)**2.

    Python floats give the test's bits. A group lies within the 3 x 3 cells
    of side max(bandwidth, 1) around its seed. Any two seeds fail the test
    with each other, and below bandwidth 1 the values are pixels, so a cell
    holds a bounded number of seeds and each value is tested a bounded
    number of times: O(values), not O(groups x values).
    """
    half = bandwidth / 2.0
    merge2 = half * half  # a square would raise OverflowError past ~1e154
    points = values.tolist()
    keys = np.floor(values / max(bandwidth, 1.0)).astype(np.intp).tolist()
    cells = {}
    for i, (cx, cy) in enumerate(keys):
        cells.setdefault((cx, cy), []).append(i)
    group = [-1] * len(points)
    label = 0
    for i, (sx, sy) in enumerate(points):
        if group[i] >= 0:
            continue
        cx, cy = keys[i]
        for key in ((cx + dx, cy + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)):
            for j in cells.get(key, ()):
                x, y = points[j]
                if group[j] < 0 and (x - sx) * (x - sx) + (y - sy) * (y - sy) <= merge2:
                    group[j] = label
        label += 1
    return np.array(group)


class _Anchors:
    """Points whose reach was proven, and once their windows are read, the
    next mode of each (`following`).

    Every mode strictly within an anchor's reach (`_reach`) has the anchor's
    pixel set, so it takes the anchor's next mode, bit for bit, without a
    window read of its own. For the lookup the map is cut into square cells
    of side 2 * bandwidth. Reach <= bandwidth, so an anchor's reach touches
    at most the 2 x 2 cells around it; each of those cells keeps, of the
    anchors touching it, the one of largest positive reach, and a mode
    checks only its own cell's. Set-up costs O(anchors x bandwidth), a
    lookup O(log anchors) per mode: never anchors x modes. An anchor that a
    crowded cell drops costs only window reads.
    """

    def __init__(self, points, bandwidth, prefix, cols):
        self.points, self.following = points, None
        self.reach = _reach(points, bandwidth, prefix, cols)
        # The loop runs only for bandwidth >= 1 (below it every window is
        # its own pixel), so cells never outnumber the map's pixels.
        self.side = 2.0 * bandwidth
        self.stride = int((len(prefix[1]) - 1) / self.side) + 2
        kept = np.flatnonzero(self.reach > 0.0)
        corners = self._cells(points[kept] - bandwidth)
        keys = (corners[:, None] + [0, 1, self.stride, self.stride + 1]).ravel()
        owners = np.repeat(kept, 4)
        order = np.lexsort((-self.reach[owners], keys))
        keys, owners = keys[order], owners[order]
        first = np.diff(keys, prepend=-1) != 0
        self.keys, self.owner = keys[first], owners[first]

    def _cells(self, points):
        # Truncation floors every point of the map; a corner just left of or
        # above it moves to cell 0, whose block still holds the points near it.
        cell = (points / self.side).astype(np.intp)
        return cell[:, 0] * self.stride + cell[:, 1]

    def covering(self, points):
        """Per point, the index of an anchor whose reach strictly holds it,
        or -1 for none."""
        if not len(self.keys):
            return np.full(len(points), -1)
        cells = self._cells(points)
        slot = np.minimum(np.searchsorted(self.keys, cells), len(self.keys) - 1)
        anchor = self.owner[slot]
        offset = points - self.points[anchor]
        offset *= offset
        distance = np.sqrt(offset[:, 0] + offset[:, 1])
        return np.where((self.keys[slot] == cells) & (distance < self.reach[anchor]), anchor, -1)


def _reach(points, bandwidth, prefix, cols):
    """How far each point can move and keep its window's pixel set.

    The reach is the least |distance - bandwidth| over the support pixels,
    which is min(bandwidth - r_in, r_out - bandwidth) for r_in the largest
    distance of a pixel inside the window and r_out the smallest outside it,
    capped at bandwidth, less a slack of bandwidth * 2**-32. By the triangle
    inequality a point closer than that to this one sees every pixel on the
    same side of `bandwidth`, the slack away from it, so `_window_sums`'
    float test (a few ulps of bandwidth off the true distances) keeps the
    same set: the slack covers those ulps and this computation's many times
    over. A pixel on the rim gives reach <= 0, which disables the point.
    With the cap, only rows within 2 * bandwidth matter: a pixel farther
    off is more than the cap beyond the rim.

    Along a row |distance - bandwidth| is least at a pixel next to one of
    the two columns where the distance crosses `bandwidth` (next to the
    point's column when it never does). With lo and hi the prefix counts at
    the first column at or past each crossing, the row's pixels lo - 1, lo,
    hi - 1 and hi (those the row holds) include both pairs of neighbours; a
    crossing rounded past a pixel leaves that pixel, within ulps of the rim,
    among them. Cost: O(len(points) x bandwidth).
    """
    table, row_of, col_of = prefix
    height, width = len(row_of) - 1, len(col_of) - 1
    counts = table[..., 0]
    # start[r]: where stored row r's pixels begin in the row-major `cols`.
    start = np.cumsum(counts[:, -1]) - counts[:, -1]
    n_rows = int(min(4.0 * bandwidth + 3.0, height))
    x, y = points[:, :1], points[:, 1:]
    # Clamping the first row to 0 loses no row of the map: n_rows <= height.
    ys = np.maximum(np.floor(y - 2.0 * bandwidth), 0.0) + np.arange(n_rows)
    dy2 = (y - ys) ** 2
    half = np.sqrt(np.maximum(bandwidth * bandwidth - dy2, 0.0))
    row = row_of[np.minimum(ys, height).astype(np.intp)]
    lo = counts[row, col_of[np.maximum(np.ceil(x - half), 0.0).astype(np.intp)]]
    hi = counts[row, col_of[np.minimum(np.ceil(x + half), width).astype(np.intp)]]
    end = counts[row, -1]
    index = start[row][..., None] + np.stack((lo - 1, lo, hi - 1, hi), axis=-1)
    held = np.stack((lo > 0, lo < end, hi > 0, hi < end), axis=-1)
    offset = np.take(cols, index, mode="clip") - x[..., None]
    gap = np.abs(np.sqrt(offset * offset + dy2[..., None]) - bandwidth)
    gap = np.where(held, gap, np.inf).min(axis=(1, 2))
    return np.minimum(gap, bandwidth) - bandwidth * 2.0**-32


def _distinct(points):
    """The distinct rows of a C-contiguous (n, 2) float array in
    lexicographic order (one sort of its complex view: x, then y), and for
    each row the index of its value among them."""
    keys = points.view(np.complex128).ravel()
    order = np.argsort(keys)
    ranked = keys[order]
    first = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return points[order[first]], inverse


def _stencil_sums(cols, rows, bandwidth, prefix):
    """`_window_sums` of the integer pixels (cols[i], rows[i]), the seeds.

    Around an integer pixel the window is one disc stencil: row offset dy
    holds the columns within half(|dy|) of it, half(d) being the largest
    integer dx with dx**2 + d**2 <= bandwidth**2, decided once per call by
    `_window_sums`' own float test (squares of small integers are exact).
    Rows off the map read the shared zero row of `_support_prefix` and
    columns off it the prefix at its edge, so no bound or rounding step
    remains, and seeds, distinct by construction, need no dedupe. Cost:
    O(len(cols) x bandwidth), in blocks of _BLOCK.
    """
    table, row_of, col_of = prefix
    height, width = len(row_of) - 1, len(col_of) - 1
    # No offset beyond `bandwidth` passes (b < n rounds b * b below n * n),
    # and by monotone rounding a row's passing columns are a prefix of dx,
    # the rows holding any a prefix of dy.
    dy = np.arange(int(min(bandwidth, height - 1)) + 1.0)
    dx = np.arange(int(min(bandwidth, width)) + 1.0)
    half = (dx**2 + dy[:, None] ** 2 <= bandwidth * bandwidth).sum(axis=1) - 1
    half = half[half >= 0]
    reach = len(half) - 1
    half = np.concatenate((half[:0:-1], half))[:, None]
    offsets = np.arange(-reach, reach + 1)[:, None]
    # row_base[y + reach]: where row y's prefix starts in `flat`, the zero
    # row's for a row off the map. col_at[k + widest]: col_of at column k,
    # clamped to the map.
    zero = np.full(reach, row_of[-1])
    row_base = np.concatenate((zero, row_of[:-1], zero)) * table.shape[1]
    widest = half[reach, 0]
    col_at = np.concatenate((np.zeros(widest, np.intp), col_of, np.full(widest, col_of[-1])))
    left, right = widest - half, widest + half + 1
    flat = table.reshape(-1, 2)
    counts = np.empty(len(cols), dtype=np.int64)
    sums = np.empty((len(cols), 2), dtype=np.int64)
    for i in range(0, len(cols), _BLOCK):
        # (row offset, seed) arrays: every pass runs along the seeds.
        x, y = cols[i : i + _BLOCK], rows[i : i + _BLOCK]
        base = row_base[y + (offsets + reach)]
        segments = np.take(flat, base + col_at[x + right], axis=0)
        segments -= np.take(flat, base + col_at[x + left], axis=0)
        totals = np.add.reduce(segments, axis=0)
        counts[i : i + _BLOCK] = totals[:, 0]
        sums[i : i + _BLOCK, 0] = totals[:, 1]
        np.add.reduce(segments[..., 0] * (y + offsets), axis=0, out=sums[i : i + _BLOCK, 1])
    return counts, sums


def _support_prefix(rows, cols, shape):
    """table[row_of[y], col_of[k]] = (count, column-index sum) of the support
    pixels (cols[i], rows[i]) in row y left of column k, built from that
    list alone. Only rows and columns that hold support are stored: col_of[k]
    counts the support columns left of column k, and the other rows and
    row_of's extra entry (rows off the map) share one zero row. Cost and
    memory: O(support rows x support columns + height + width)."""
    height, width = shape
    held_rows = np.flatnonzero(np.bincount(rows, minlength=height))
    row_of = np.full(height + 1, len(held_rows), dtype=np.intp)
    row_of[held_rows] = np.arange(len(held_rows))
    col_of = np.zeros(width + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=width) > 0, out=col_of[1:])
    table = np.zeros((len(held_rows) + 1, col_of[-1] + 1, 2), dtype=np.int64)
    at = 2 * (row_of[rows] * table.shape[1] + col_of[cols] + 1)
    flat = table.reshape(-1)
    flat[at] = 1
    flat[at + 1] = cols
    np.add.accumulate(table, axis=1, out=table)
    return table, row_of, col_of


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
    table, row_of, col_of = prefix
    height, width = len(row_of) - 1, len(col_of) - 1
    bw2 = bandwidth * bandwidth
    n_rows = int(min(2.0 * bandwidth + 3.0, height))
    # (row offset, mode) arrays: every pass runs along the modes.
    mx, my = modes.T
    # Clamping the first row to 0 loses no row of the map: n_rows <= height.
    ys = np.maximum(np.floor(my - bandwidth), 0.0) + np.arange(n_rows)[:, None]
    dy2 = (my - ys) ** 2
    half = np.sqrt(np.maximum(bw2 - dy2, 0.0))

    def outside(x):
        return (mx - x) ** 2 + dy2 > bw2

    # At most two inward steps: the exact end is within one of the estimate.
    lo = np.minimum(np.maximum(np.ceil(mx - half), -2.0), width + 1.0) - 1.0
    lo += outside(lo)
    lo += outside(lo)
    hi = np.minimum(np.maximum(np.floor(mx + half), -2.0), width + 1.0) + 1.0
    hi -= outside(hi)
    hi -= outside(hi)
    lo = np.minimum(np.maximum(lo, 0.0), width)
    hi = np.minimum(np.maximum(hi + 1.0, lo), width)
    row = np.minimum(ys, height).astype(np.intp)
    flat, base = table.reshape(-1, 2), row_of[row] * table.shape[1]
    segments = np.take(flat, base + col_of[hi.astype(np.intp)], axis=0)
    segments -= np.take(flat, base + col_of[lo.astype(np.intp)], axis=0)
    totals = np.add.reduce(segments, axis=0)
    sums = np.empty((len(modes), 2), dtype=np.int64)
    sums[:, 0] = totals[:, 1]
    np.add.reduce(segments[..., 0] * row, axis=0, out=sums[:, 1])
    return totals[:, 0], sums
