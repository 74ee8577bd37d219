"""Heatmap rendering and mean-shift decoding, checked against the
intensity-weighted centroid of the thresholded pixels as an oracle, and the
row-segment decoder checked bit for bit against the all-pairs one."""

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
        np.array([mode]), bandwidth, keypoints._support_prefix(mask)
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
        prefix = keypoints._support_prefix(values > DETECTION_THRESHOLD)
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
    prefix = keypoints._support_prefix(values > DETECTION_THRESHOLD)
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
