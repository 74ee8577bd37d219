"""Heatmap rendering and mean-shift decoding, checked against the
intensity-weighted centroid of the thresholded pixels as an oracle, and the
row-segment decoder checked bit for bit against the all-pairs one."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaugekit
from gaugekit import keypoints
from gaugekit.keypoints import (
    CONVERGENCE_SHIFT,
    DETECTION_THRESHOLD,
    MAX_ITERATIONS,
    Heatmap,
    extract_keypoints_meanshift,
    render_gaussian_heatmap,
)


def weighted_centroid(values: np.ndarray) -> np.ndarray:
    """Oracle: intensity-weighted centroid of pixels strictly above 0.5."""
    rows, cols = np.nonzero(values > 0.5)
    weights = values[rows, cols]
    return np.array(
        [np.average(cols, weights=weights), np.average(rows, weights=weights)]
    )


def test_render_matches_gaussian_formula():
    h = render_gaussian_heatmap((32, 32), [(10.0, 12.0)], sigma=2.0)
    assert h.values[12, 10] == pytest.approx(1.0)
    assert h.values[16, 10] == pytest.approx(math.exp(-2.0))  # 4 px below center
    assert h.values[12, 14] == pytest.approx(math.exp(-2.0))


def test_render_no_centers_is_all_zero():
    h = render_gaussian_heatmap((16, 8), [], sigma=1.0)
    assert h.values.shape == (8, 16)
    assert not h.values.any()


def test_render_max_composition_stays_within_one():
    h = render_gaussian_heatmap((24, 24), [(10.0, 10.0), (11.0, 10.0)], sigma=2.0)
    assert h.values.max() <= 1.0
    assert h.values.min() >= 0.0


def test_render_validates_inputs():
    with pytest.raises(ValueError, match="sigma"):
        render_gaussian_heatmap((16, 16), [(4, 4)], sigma=0.0)
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match="sigma"):
            render_gaussian_heatmap((16, 16), [(4, 4)], sigma=flag)
    with pytest.raises(ValueError):
        render_gaussian_heatmap((16, 16), [(20, 4)], sigma=1.0)
    for center in [(True, 3), (4, "3")]:
        with pytest.raises(ValueError, match="center"):
            render_gaussian_heatmap((16, 16), [center], sigma=1.0)
    with pytest.raises(ValueError):
        Heatmap(np.full((4, 4), 1.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_heatmap_rejects_non_finite_values(bad):
    values = np.full((4, 4), 0.9)
    values[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        Heatmap(values)


@pytest.mark.parametrize("size", [(16.7, 8.9), (16, 0), (-4, 4), (math.inf, 8)])
def test_render_rejects_non_integral_size(size):
    with pytest.raises(ValueError, match="positive integers"):
        render_gaussian_heatmap(size, [], sigma=1.0)


def test_render_accepts_whole_float_size():
    assert render_gaussian_heatmap((16.0, 8.0), [], sigma=1.0).values.shape == (8, 16)


@pytest.mark.parametrize("bandwidth", [True, False, np.True_, 0.0, -1.0, math.nan, math.inf])
def test_extract_rejects_bad_bandwidth(bandwidth):
    h = render_gaussian_heatmap((16, 16), [(8.0, 8.0)], sigma=2.0)
    with pytest.raises(ValueError, match="bandwidth"):
        extract_keypoints_meanshift(h, bandwidth)


def test_extract_single_blob_near_center_and_oracle():
    h = render_gaussian_heatmap((32, 32), [(10.0, 12.0)], sigma=2.0)
    modes = extract_keypoints_meanshift(h, bandwidth=4.0)
    assert len(modes) == 1
    assert np.linalg.norm(modes[0] - [10, 12]) < 0.5
    assert np.linalg.norm(modes[0] - weighted_centroid(h.values)) < 0.3


def test_extract_nothing_above_threshold():
    assert extract_keypoints_meanshift(Heatmap(np.full((16, 16), 0.5)), 4.0) == []
    assert extract_keypoints_meanshift(Heatmap(np.zeros((4, 4))), 4.0) == []


def test_threshold_is_strict():
    values = np.zeros((16, 16))
    values[4:8, 4:8] = 0.5  # exactly at threshold: excluded
    assert extract_keypoints_meanshift(Heatmap(values), 4.0) == []
    values[5, 5] = 0.500001
    modes = extract_keypoints_meanshift(Heatmap(values), 4.0)
    assert len(modes) == 1 and np.allclose(modes[0], [5, 5])


def test_extract_two_blobs():
    h = render_gaussian_heatmap((64, 64), [(10.0, 10.0), (40.0, 40.0)], sigma=2.0)
    modes = extract_keypoints_meanshift(h, bandwidth=4.0)
    assert len(modes) == 2
    assert np.linalg.norm(modes[0] - [10, 10]) < 0.5
    assert np.linalg.norm(modes[1] - [40, 40]) < 0.5
    for mode, center in zip(modes, ([10, 10], [40, 40])):
        rows, cols = np.nonzero(h.values > 0.5)
        near = (cols - center[0]) ** 2 + (rows - center[1]) ** 2 < 16
        oracle = np.array(
            [
                np.average(cols[near], weights=h.values[rows[near], cols[near]]),
                np.average(rows[near], weights=h.values[rows[near], cols[near]]),
            ]
        )
        assert np.linalg.norm(mode - oracle) < 0.3


def test_extract_idempotent_through_rerender():
    h = render_gaussian_heatmap((48, 48), [(15.3, 20.1), (35.0, 12.5)], sigma=2.0)
    first = extract_keypoints_meanshift(h, bandwidth=4.0)
    rerendered = render_gaussian_heatmap((48, 48), first, sigma=2.0)
    second = extract_keypoints_meanshift(rerendered, bandwidth=4.0)
    assert len(first) == len(second)
    for p, q in zip(first, second):
        assert np.linalg.norm(p - q) < 0.5


def test_extract_translation_equivariance():
    centers = [(12.0, 14.0), (30.0, 22.0)]
    h0 = render_gaussian_heatmap((64, 64), centers, sigma=2.0)
    base = extract_keypoints_meanshift(h0, bandwidth=4.0)
    for dx, dy in [(3, 0), (0, 5), (7, 9)]:
        shifted = [(cx + dx, cy + dy) for cx, cy in centers]
        h1 = render_gaussian_heatmap((64, 64), shifted, sigma=2.0)
        moved = extract_keypoints_meanshift(h1, bandwidth=4.0)
        assert len(moved) == len(base)
        for p, q in zip(base, moved):
            assert np.abs(q - (p + np.array([dx, dy]))).max() < 1e-6


def all_pairs_meanshift(heatmap: Heatmap, bandwidth: float):
    """Oracle: the O(support^2) decoder that compares every mode with every
    support pixel on each iteration. Returns the modes and whether the
    shift fell below CONVERGENCE_SHIFT before MAX_ITERATIONS."""
    rows, cols = np.nonzero(heatmap.values > DETECTION_THRESHOLD)
    if rows.size == 0:
        return [], True
    support = np.column_stack([cols, rows]).astype(float)
    modes = support.copy()
    bw2 = bandwidth * bandwidth
    converged = False
    for _ in range(MAX_ITERATIONS):
        d2 = ((modes[:, None, :] - support[None, :, :]) ** 2).sum(axis=2)
        window = d2 <= bw2
        counts = window.sum(axis=1)
        shifted = (window @ support) / counts[:, None]
        converged = float(np.abs(shifted - modes).max()) < CONVERGENCE_SHIFT
        modes = shifted
        if converged:
            break
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
    return results, converged


def support_prefix(mask: np.ndarray):
    """`_support_prefix` of a boolean map's pixels, listed row-major."""
    return keypoints._support_prefix(*np.nonzero(mask), mask.shape)


def random_map(rng: np.random.Generator, kind: str) -> np.ndarray:
    h, w = (int(n) for n in rng.integers(1, 21, size=2))
    if kind == "noise":
        return rng.uniform(size=(h, w))
    if kind == "binary":
        return (rng.uniform(size=(h, w)) < rng.uniform(0.05, 0.95)).astype(float)
    centres = [(rng.uniform(0, w), rng.uniform(0, h)) for _ in range(rng.integers(1, 4))]
    if kind == "border_blobs":
        # Pin one coordinate of each centre to an edge of the map.
        centres = [
            (x, rng.choice([0.0, h - 0.5]))
            if rng.uniform() < 0.5
            else (rng.choice([0.0, w - 0.5]), y)
            for x, y in centres
        ]
    values = render_gaussian_heatmap((w, h), centres, sigma=rng.uniform(0.5, 5.0)).values
    if kind == "noisy_blobs":
        values = np.clip(values + rng.normal(0.0, 0.2, values.shape), 0.0, 1.0)
    return values


def random_bandwidth(rng: np.random.Generator, shape) -> float:
    draw = rng.integers(5)
    if draw == 0:  # sub-pixel
        return float(rng.uniform(0.05, 1.0))
    if draw == 1:  # fractional
        return float(rng.uniform(1.0, 12.0))
    if draw == 2:  # whole, half and square-root radii put pixels exactly on the rim
        whole, root = rng.integers(1, 9), math.sqrt(rng.integers(1, 80))
        return float(rng.choice([whole, whole + 0.5, root]))
    if draw == 3:  # larger than the map
        return float(rng.uniform(1.0, 3.0) * math.hypot(*shape))
    return float(rng.uniform(1.0, 3.0))  # small


MAP_KINDS = ("noise", "binary", "border_blobs", "noisy_blobs")


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_row_segment_decoder_matches_all_pairs_bit_for_bit(kind):
    rng = np.random.default_rng([2024, MAP_KINDS.index(kind)])
    for _ in range(260):
        values = random_map(rng, kind)
        bandwidth = random_bandwidth(rng, values.shape)
        heatmap = Heatmap(values)
        expected, _ = all_pairs_meanshift(heatmap, bandwidth)
        got = extract_keypoints_meanshift(heatmap, bandwidth)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), (kind, bandwidth)


BLOCK_CASES = [
    ("noise", 1.0),
    ("noise", math.sqrt(13.0)),
    ("binary", 2.5),
    ("binary", 6.0),
    ("blobs", math.sqrt(13.0)),
    ("blobs", 6.0),
]


@pytest.mark.parametrize("kind, bandwidth", BLOCK_CASES)
def test_row_segment_decoder_matches_all_pairs_over_several_blocks(kind, bandwidth):
    # 500-1100 support pixels: more distinct modes than one block of
    # `_window_sums` holds, and many that coincide once they converge.
    rng = np.random.default_rng([15, BLOCK_CASES.index((kind, bandwidth))])
    if kind == "noise":
        values = rng.uniform(size=(40, 44))
    elif kind == "binary":
        values = (rng.uniform(size=(40, 44)) < 0.4).astype(float)
    else:
        values = render_gaussian_heatmap((64, 64), rng.uniform(6, 58, (6, 2)), sigma=5.0).values
    assert keypoints._BLOCK < (values > DETECTION_THRESHOLD).sum() <= 1100
    heatmap = Heatmap(values)
    expected, _ = all_pairs_meanshift(heatmap, bandwidth)
    got = extract_keypoints_meanshift(heatmap, bandwidth)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def test_decoding_leaves_numpy_ma_unimported():
    # np.unique without index outputs imports numpy.ma on its first call
    # (numpy 2.x), which doubles the first decode in a fresh interpreter.
    code = (
        "import sys\n"
        "from gaugekit.keypoints import extract_keypoints_meanshift, render_gaussian_heatmap\n"
        "before = 'numpy.ma' in sys.modules\n"
        "heatmap = render_gaussian_heatmap((64, 48), [(20.0, 30.0), (41.5, 12.0)], sigma=4.0)\n"
        "assert len(extract_keypoints_meanshift(heatmap, 6.0)) == 2\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(gaugekit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    if before == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert after == "False"


def test_row_segment_decoder_matches_all_pairs_at_iteration_cap():
    # A dithered ramp of density: modes creep up the gradient in small
    # steps and are still moving when MAX_ITERATIONS runs out.
    bayer = np.array([[0, 8, 2, 10], [12, 4, 14, 6], [3, 11, 1, 9], [15, 7, 13, 5]])
    ramp = 0.3 + 0.4 * (np.arange(48) + 0.5) / 48
    heatmap = Heatmap((ramp[None, :] > (np.tile(bayer, (2, 12)) + 0.5) / 16).astype(float))
    expected, converged = all_pairs_meanshift(heatmap, 8.0)
    assert not converged
    got = extract_keypoints_meanshift(heatmap, 8.0)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def prefix_maps():
    """Boolean maps for `_support_prefix`, by name: the edge cases of its
    row and column lookups, then random maps of every kind."""
    rng = np.random.default_rng(28)
    gaps = rng.uniform(size=(12, 15)) < 0.5
    gaps[[0, 4, 5, 11], :] = False
    gaps[:, [0, 6, 7, 14]] = False
    single = np.zeros((9, 7), dtype=bool)
    single[4, 3] = True
    edges = rng.uniform(size=(10, 13)) < 0.1
    edges[3, 0] = edges[6, 12] = edges[9, 5] = True
    maps = {
        "empty rows and columns": gaps,
        "single pixel": single,
        "full": np.ones((6, 8), dtype=bool),
        "1 x N": rng.uniform(size=(1, 17)) < 0.5,
        "N x 1": rng.uniform(size=(17, 1)) < 0.5,
        "column 0, column W - 1, last row": edges,
    }
    for k in range(40):
        maps[f"random {k}"] = random_map(rng, MAP_KINDS[k % 4]) > DETECTION_THRESHOLD
    return {name: mask for name, mask in maps.items() if mask.any()}


def test_support_prefix_equals_the_dense_row_prefix():
    maps = prefix_maps()
    assert len(maps) > 30 and "single pixel" in maps and "1 x N" in maps and "N x 1" in maps
    for name, mask in maps.items():
        height, width = mask.shape
        dense = np.zeros((height + 1, width + 1, 2), dtype=np.int64)
        np.cumsum(mask, axis=1, out=dense[:-1, 1:, 0])
        np.cumsum(mask * np.arange(width), axis=1, out=dense[:-1, 1:, 1])
        table, row_of, col_of = support_prefix(mask)
        # Every row, the one off the map included, at every column bound.
        assert table[row_of[:, None], col_of].tolist() == dense.tolist(), name
        rows, cols = np.nonzero(mask)
        assert table.shape == (len(set(rows)) + 1, len(set(cols)) + 1, 2), name


def test_support_prefix_of_a_wide_map_holds_only_support_rows_and_columns():
    heatmap = render_gaussian_heatmap((4096, 48), [(90.0, 20.0), (3900.5, 31.0)], sigma=2.0)
    mask = heatmap.values > DETECTION_THRESHOLD
    rows, cols = np.nonzero(mask)
    table, _, _ = support_prefix(mask)
    assert table.size <= (len(set(rows)) + 1) * (len(set(cols)) + 1) * 2 < 400
    expected, _ = all_pairs_meanshift(heatmap, 3.0)
    got = extract_keypoints_meanshift(heatmap, 3.0)
    assert len(got) == 2 and np.asarray(got).tobytes() == np.asarray(expected).tobytes()


WIDE_BANDWIDTHS = (0.5, 1.0, 2.5, math.sqrt(13.0), 6.0, 40.0, 2000.0)


def test_wide_sparse_map_matches_all_pairs_bit_for_bit():
    # Scattered pixels and three blobs across 600 columns: most columns hold
    # no support, and many windows span several stretches without any.
    rng = np.random.default_rng(281)
    values = render_gaussian_heatmap((600, 24), [(40.0, 6.0), (310.5, 12.0), (555.0, 20.0)], 2.0).values
    values = np.maximum(values, rng.uniform(size=values.shape) < 0.01)
    heatmap = Heatmap(values)
    for bandwidth in WIDE_BANDWIDTHS:
        expected, _ = all_pairs_meanshift(heatmap, bandwidth)
        got = extract_keypoints_meanshift(heatmap, bandwidth)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), bandwidth


def test_wide_map_with_blobs_on_both_side_edges_matches_all_pairs_bit_for_bit():
    centres = [(0.0, 5.0), (0.0, 17.0), (299.5, 11.0), (150.0, 0.0), (299.5, 23.5)]
    for sigma in (1.0, 2.5):
        heatmap = render_gaussian_heatmap((300, 24), centres, sigma)
        mask = heatmap.values > DETECTION_THRESHOLD
        assert mask[:, 0].any() and mask[:, -1].any()
        for bandwidth in WIDE_BANDWIDTHS:
            expected, _ = all_pairs_meanshift(heatmap, bandwidth)
            got = extract_keypoints_meanshift(heatmap, bandwidth)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), (sigma, bandwidth)


@pytest.mark.parametrize(
    "mode, bandwidth, pixel",
    [((14.2, 5.6), math.sqrt(130.0), (14, 17)), ((0.7, 9.4), 8.5, (2, 1))],
)
def test_window_keeps_a_rim_pixel_its_row_estimate_misses(mode, bandwidth, pixel):
    # The pixel's squared distance rounds to exactly bandwidth * bandwidth,
    # so it passes the window test, yet the sqrt estimate of its row's
    # segment ends one column short of it (left end in the first case,
    # right end in the second). Each end starts one column outside its
    # estimate, so the pixel is still counted.
    mask = np.zeros((18, 16), dtype=bool)
    mask[pixel[1], pixel[0]] = True
    counts, sums = keypoints._window_sums(
        np.array([mode]), bandwidth, support_prefix(mask)
    )
    assert counts.tolist() == [1] and sums.tolist() == [list(pixel)]


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_seed_stencil_sums_match_window_sums(kind):
    # Every pixel of the map is a seed, the border ones included, against
    # each kind of bandwidth `random_bandwidth` draws: sub-pixel, whole,
    # half and square-root radii (pixels exactly on the rim), larger than
    # the map, and a fresh draw of it.
    rng = np.random.default_rng([19, MAP_KINDS.index(kind)])
    for _ in range(60):
        values = random_map(rng, kind)
        height, width = values.shape
        prefix = support_prefix(values > DETECTION_THRESHOLD)
        rows, cols = np.divmod(np.arange(values.size), width)
        seeds = np.column_stack([cols, rows]).astype(float)
        whole = int(rng.integers(1, 9))
        for bandwidth in (
            float(rng.uniform(0.05, 1.0)),
            float(whole),
            whole + 0.5,
            math.sqrt(rng.integers(1, 400)),
            float(rng.uniform(1.0, 3.0) * math.hypot(height, width)),
            random_bandwidth(rng, values.shape),
        ):
            counts, sums = keypoints._stencil_sums(cols, rows, bandwidth, prefix)
            expected_counts, expected_sums = keypoints._window_sums(seeds, bandwidth, prefix)
            assert counts.tolist() == expected_counts.tolist(), (kind, bandwidth)
            assert sums.tolist() == expected_sums.tolist(), (kind, bandwidth)


def test_seed_stencil_sums_match_window_sums_over_several_blocks():
    values = np.random.default_rng(19).uniform(size=(40, 44))
    prefix = support_prefix(values > DETECTION_THRESHOLD)
    rows, cols = np.divmod(np.arange(values.size), values.shape[1])
    assert keypoints._BLOCK < values.size
    for bandwidth in (0.5, math.sqrt(13.0), 6.0, 100.0):
        counts, sums = keypoints._stencil_sums(cols, rows, bandwidth, prefix)
        expected = keypoints._window_sums(np.column_stack([cols, rows]).astype(float), bandwidth, prefix)
        assert counts.tolist() == expected[0].tolist()
        assert sums.tolist() == expected[1].tolist()


def test_merge_of_repeated_distinct_modes_matches_all_pairs(monkeypatch):
    # A band two rows thick: the seeds of each column converge together onto
    # its midline, and each merge group spans several such columns, so a
    # group holds distinct converged values that each occur more than once.
    values = np.zeros((12, 34))
    values[5:7, 3:31] = 1.0
    heatmap, bandwidth = Heatmap(values), 4.0
    calls = []
    distinct = keypoints._distinct
    monkeypatch.setattr(keypoints, "_distinct", lambda p: calls.append(p.copy()) or distinct(p))
    got = extract_keypoints_meanshift(heatmap, bandwidth)
    expected, converged = all_pairs_meanshift(heatmap, bandwidth)
    assert converged
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
    # The last call sorts the converged modes for the merge. Walk the
    # greedy groups over them and count, per group, the distinct values
    # that occur more than once.
    modes = calls[-1]
    modes = modes[np.lexsort((modes[:, 1], modes[:, 0]))]
    taken = np.zeros(len(modes), dtype=bool)
    repeated = []
    for i in range(len(modes)):
        if taken[i]:
            continue
        group = (((modes - modes[i]) ** 2).sum(axis=1) <= (bandwidth / 2.0) ** 2) & ~taken
        taken |= group
        members = [tuple(m) for m in modes[group]]
        repeated.append(sum(members.count(v) > 1 for v in set(members)))
    assert max(repeated) >= 2


def test_heatmap_keeps_a_read_only_copy_of_the_callers_array():
    values = np.full((3, 3), 0.9)
    heatmap = Heatmap(values)
    values[0, 0] = 7.0
    assert heatmap.values[0, 0] == 0.9
    assert heatmap.values.dtype == np.float64 and not heatmap.values.flags.writeable
    with pytest.raises(ValueError):
        heatmap.values[1, 1] = 0.1
    rendered = render_gaussian_heatmap((8, 6), [(3.0, 2.0)], sigma=1.0)
    assert not rendered.values.flags.writeable
    # A caller's read-only array is copied too: setting its flag back and
    # writing to it leaves the checked values as they were.
    frozen = np.full((3, 3), 0.9)
    frozen.setflags(write=False)
    heatmap = Heatmap(frozen)
    frozen.setflags(write=True)
    frozen[0, 0] = 7.0
    assert heatmap.values[0, 0] == 0.9
    view = np.full((3, 3), 0.9)[:, :2]
    view.setflags(write=False)
    assert Heatmap(view).values.base is None


@pytest.mark.parametrize("sigma", [1e-160, 1e-200, 5e-324])
def test_render_with_a_vanishing_sigma_is_its_limit(sigma):
    # At 1e-160, 2 sigma^2 is subnormal and -d2 / (2 sigma^2) overflows; below
    # ~1e-162 it is 0 and the centre's pixel used to give 0/0.
    on_pixel = render_gaussian_heatmap((5, 4), [(2.0, 3.0), (1.5, 1.0)], sigma).values
    expected = np.zeros((4, 5))
    expected[3, 2] = 1.0
    assert on_pixel.tolist() == expected.tolist()
    assert extract_keypoints_meanshift(Heatmap(on_pixel), 1.0)[0].tolist() == [2.0, 3.0]


@pytest.mark.parametrize("bandwidth", [1.4e154, 1e200, sys.float_info.max])
def test_extract_accepts_a_huge_bandwidth(bandwidth):
    # Every window holds the whole map: the seeds meet at the centre, which
    # becomes an anchor whose reach is computed with bandwidth**2 = inf.
    modes = extract_keypoints_meanshift(Heatmap(np.ones((3, 3))), bandwidth)
    assert [m.tolist() for m in modes] == [[1.0, 1.0]]


def decode_counting_anchor_hits(monkeypatch, heatmap, bandwidth):
    """The decoded modes, and how many modes took an anchor's shift."""
    hits = []
    covering = keypoints._Anchors.covering

    def counted(self, points):
        near = covering(self, points)
        hits.append(int((near >= 0).sum()))
        return near

    monkeypatch.setattr(keypoints._Anchors, "covering", counted)
    return extract_keypoints_meanshift(heatmap, bandwidth), sum(hits)


def assert_matches_all_pairs_with_anchors(monkeypatch, values, bandwidth):
    heatmap = Heatmap(values)
    got, hits = decode_counting_anchor_hits(monkeypatch, heatmap, bandwidth)
    expected, _ = all_pairs_meanshift(heatmap, bandwidth)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), bandwidth
    return hits


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_reach_holds_the_window_just_inside_and_not_just_outside(kind):
    # Against every support pixel, for points anywhere on the map: the
    # reach is the least |distance - bandwidth| capped at bandwidth, less
    # the slack; a point just inside it reads the same window, and one
    # stepped just past it, toward or away from the pixel that sets it,
    # moves that pixel across the rim.
    rng = np.random.default_rng([20, MAP_KINDS.index(kind)])
    checked = 0
    for _ in range(40):
        values = random_map(rng, kind)
        mask = values > DETECTION_THRESHOLD
        if not mask.any():
            continue
        height, width = values.shape
        rows, cols = np.nonzero(mask)
        support = np.column_stack([cols, rows]).astype(float)
        prefix = support_prefix(mask)
        bandwidth = float(rng.choice([rng.uniform(1.0, 8.0), rng.integers(1, 6) + 0.5]))
        points = rng.uniform(size=(12, 2)) * [width - 1, height - 1]
        reach = keypoints._reach(points, bandwidth, prefix, cols)
        slack = bandwidth * 2.0**-32
        for point, r in zip(points, reach):
            distance = np.sqrt(((support - point) ** 2).sum(axis=1))
            gap = np.abs(distance - bandwidth)
            assert r == min(gap.min(), bandwidth) - slack
            if r <= 0:
                continue
            for angle in rng.uniform(0.0, 2 * math.pi, 4):
                inside = point + r * (1 - 2.0**-20) * np.array([math.cos(angle), math.sin(angle)])
                got = keypoints._window_sums(np.array([inside, point]), bandwidth, prefix)
                assert got[0][0] == got[0][1] and got[1][0].tolist() == got[1][1].tolist()
            pixel = support[gap.argmin()]
            if gap.min() >= bandwidth:
                continue
            toward = (pixel - point) / np.linalg.norm(pixel - point)
            sign = -1.0 if distance[gap.argmin()] <= bandwidth else 1.0
            past = point + sign * (r + 2 * slack + 1e-7 * bandwidth) * toward
            was_in = ((pixel - point) ** 2).sum() <= bandwidth * bandwidth
            is_in = ((pixel - past) ** 2).sum() <= bandwidth * bandwidth
            assert was_in != is_in
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("gap", [0.05, 0.2, 0.5, 1.0])
def test_anchors_of_blobs_whose_windows_nearly_touch_match_all_pairs(monkeypatch, gap):
    # Blob support reaches ~2.35 px at sigma 2; windows of 3 px around two
    # centres 6 + gap apart nearly touch, so each blob's pixels sit just
    # beyond the other's centroid window and set its reach.
    hits = 0
    for dy in (0.0, 0.3, 0.5):
        centres = [(10.2, 12.0), (16.2 + gap, 12.0 + dy), (10.2 + 3.0, 18.0 + gap)]
        values = render_gaussian_heatmap((30, 28), centres, sigma=2.0).values
        hits += assert_matches_all_pairs_with_anchors(monkeypatch, values, 3.0)
    assert hits > 0


@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
def test_anchors_of_blobs_on_the_map_border_match_all_pairs(monkeypatch, sigma):
    hits = 0
    for centres in (
        [(0.0, 9.0), (20.0, 0.0)],
        [(0.0, 0.0), (23.0, 15.0)],
        [(23.5, 7.2), (11.4, 15.5)],
    ):
        values = render_gaussian_heatmap((24, 16), centres, sigma).values
        hits += assert_matches_all_pairs_with_anchors(monkeypatch, values, 1.5 * sigma)
    assert hits > 0


RIM_CASES = [
    # A block whose centroid is an anchor (seeds that see the block but not
    # the pixel share it), and a pixel exactly `bandwidth` from it.
    ("whole", (slice(9, 12), slice(9, 12)), (14, 10), 4.0, (10.0, 10.0)),
    ("half", (slice(9, 12), slice(9, 13)), (14, 10), 3.5, (10.5, 10.0)),
    ("root", (slice(9, 12), slice(9, 12)), (12, 13), math.sqrt(13.0), (10.0, 10.0)),
]


@pytest.mark.parametrize("name, block, pixel, bandwidth, anchor", RIM_CASES)
def test_a_pixel_on_an_anchors_rim_disables_it(monkeypatch, name, block, pixel, bandwidth, anchor):
    values = np.zeros((20, 22))
    values[block] = 1.0
    values[pixel[1], pixel[0]] = 1.0
    made = []
    init = keypoints._Anchors.__init__

    def recorded(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(keypoints._Anchors, "__init__", recorded)
    assert_matches_all_pairs_with_anchors(monkeypatch, values, bandwidth)
    (anchors,) = made
    at = [i for i, p in enumerate(anchors.points.tolist()) if p == list(anchor)]
    assert len(at) == 1 and anchors.reach[at[0]] <= 0.0


def test_anchor_step_stays_within_its_bound_on_a_pathological_map(monkeypatch):
    # Noise with a bandwidth near the map's size: most windows hold most of
    # the map, so many seeds share values and the anchors are many. Each
    # anchor stands for at least two modes of the first window pass, the
    # reach is computed once over min(4 * bandwidth + 3, height) rows per
    # anchor, and each lookup takes only that pass's distinct modes: the
    # anchor step stays O(distinct modes x bandwidth).
    values = np.random.default_rng(7).uniform(size=(36, 40))
    bandwidth = 33.0
    calls = {"reach": [], "covering": [], "distinct": []}
    reach, covering, distinct = keypoints._reach, keypoints._Anchors.covering, keypoints._distinct
    monkeypatch.setattr(
        keypoints, "_reach", lambda p, *a: calls["reach"].append(len(p)) or reach(p, *a)
    )
    monkeypatch.setattr(
        keypoints._Anchors,
        "covering",
        lambda self, p: calls["covering"].append(len(p)) or covering(self, p),
    )
    monkeypatch.setattr(
        keypoints, "_distinct", lambda p: calls["distinct"].append(len(p)) or distinct(p)
    )
    heatmap = Heatmap(values)
    got = extract_keypoints_meanshift(heatmap, bandwidth)
    expected, _ = all_pairs_meanshift(heatmap, bandwidth)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
    (anchors,) = calls["reach"]
    first_pass = calls["covering"][0]
    assert 10 <= anchors and 2 * anchors <= first_pass
    # One lookup per window pass, each over no more than the modes it dedupes.
    assert len(calls["covering"]) == len(calls["distinct"]) - 1
    assert all(n <= m for n, m in zip(calls["covering"], calls["distinct"]))


def notch_map(seed: int, sigma: float) -> Heatmap:
    """A 448 x 448 map of 15 notches on a 270-340 degree arc, as a gauge
    detector would give, neighbours 40 px or more apart."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 2 * math.pi) + np.linspace(0.0, math.radians(rng.uniform(270, 340)), 15)
    a = rng.uniform(120.0, 150.0)
    centres = np.column_stack([224.0 + a * np.cos(t), 224.0 + 0.85 * a * np.sin(t)])
    return render_gaussian_heatmap((448, 448), centres, sigma)


def test_notch_maps_decode_to_the_same_bytes():
    # sha256 of the modes of nine fixed maps, taken before the anchors were
    # added; any change to a single bit of a mode shows here.
    digest = hashlib.sha256()
    for seed in range(3):
        for sigma in (2.0, 4.0, 6.0):
            modes = extract_keypoints_meanshift(notch_map(seed, sigma), 1.5 * sigma)
            assert len(modes) == 15
            digest.update(np.asarray(modes).tobytes())
    assert digest.hexdigest() == "d12fdf844ad2079354f1bf3149c6ab647de3d8954687799ed94d463953156660"


def test_window_reads_per_decode_stay_bounded(monkeypatch):
    # 2516 modes went through `_window_sums` on this map before modes within
    # an anchor's reach took its shift; about 620 do now. The bound catches
    # the shortcut switching off.
    read = []
    window_sums = keypoints._window_sums
    monkeypatch.setattr(
        keypoints, "_window_sums", lambda m, *a: read.append(len(m)) or window_sums(m, *a)
    )
    assert len(extract_keypoints_meanshift(notch_map(1, 6.0), 9.0)) == 15
    assert sum(read) < 1000
