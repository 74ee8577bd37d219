"""Heatmap rendering and mean-shift decoding, checked against the
intensity-weighted centroid of the thresholded pixels as an oracle, and the
row-segment decoder checked bit for bit against the all-pairs one."""

import math

import numpy as np
import pytest

from gaugekit import keypoints
from gaugekit.errors import InvalidSigma
from gaugekit.keypoints import (
    CONVERGENCE_SHIFT,
    DETECTION_THRESHOLD,
    MAX_ITERATIONS,
    Heatmap,
    default_bandwidth,
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
    with pytest.raises(InvalidSigma):
        render_gaussian_heatmap((16, 16), [(4, 4)], sigma=0.0)
    for flag in (True, False, np.True_):
        with pytest.raises(InvalidSigma, match="bool"):
            render_gaussian_heatmap((16, 16), [(4, 4)], sigma=flag)
    with pytest.raises(ValueError):
        render_gaussian_heatmap((16, 16), [(20, 4)], sigma=1.0)
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


def test_default_bandwidth_scales_with_short_side():
    assert default_bandwidth((448, 448)) == pytest.approx(22.4)
    assert default_bandwidth((100, 60)) == pytest.approx(3.0)


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
        np.array([mode]), bandwidth, keypoints._row_prefix(mask)
    )
    assert counts.tolist() == [1] and sums.tolist() == [list(pixel)]
