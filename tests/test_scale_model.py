"""Scale model tests. The RANSAC result is checked against a brute-force
search over every two-point minimal model."""

import itertools
import math

import numpy as np
import pytest

from gaugekit.errors import InsufficientPoints, NoConsensus
from gaugekit.scale_model import (
    DEFAULT_UNIT_LEXICON,
    SAME_ANGLE_EPS,
    LinearScaleModel,
    default_inlier_threshold,
    extract_unit,
    least_squares_fit_linear,
    load_unit_lexicon,
    parse_numeric_token,
    ransac_fit_linear,
    wrap_around_angle,
)

TAU = 2 * math.pi


# ---------------------------------------------------------------------------
# Wrap-around point
# ---------------------------------------------------------------------------


def test_wrap_midpoint_of_notch_free_arc():
    # Scale runs from 3pi/4 through the bottom (intermediates near 3pi/2) to
    # pi/4; the free arc between end and start has midpoint pi/2.
    wrap, certain = wrap_around_angle(3 * math.pi / 4, math.pi / 4, [1.4 * math.pi, 1.5 * math.pi])
    assert wrap == pytest.approx(math.pi / 2) and certain


def test_wrap_no_intermediates_falls_back_to_shorter_arc():
    # Opposite start/end tie-breaks into [0, pi); with nothing to outvote it
    # the fallback counts as certain.
    assert wrap_around_angle(0.0, math.pi, []) == (pytest.approx(math.pi / 2), True)
    # Genuinely shorter arc.
    assert wrap_around_angle(0.0, math.pi / 2, []) == (pytest.approx(math.pi / 4), True)


def test_wrap_even_split_is_uncertain_with_fallback():
    # Exactly opposite notches: the wrap goes to the midpoint in [0, pi).
    wrap, certain = wrap_around_angle(0.0, math.pi, [math.pi / 2, 3 * math.pi / 2])
    assert wrap == pytest.approx(math.pi / 2) and not certain
    # Otherwise the longer arc is the scale: here the forward arc 0 -> 3pi/2.
    wrap, certain = wrap_around_angle(0.0, 3 * math.pi / 2, [math.pi / 2, 1.6 * math.pi])
    assert wrap == pytest.approx(7 * math.pi / 4) and not certain


def test_wrap_coincident_start_and_end_is_uncertain():
    wrap, certain = wrap_around_angle(1.0, 1.0, [2.0, 3.0])
    assert wrap == pytest.approx(1.0 + math.pi / 2) and not certain
    # Equal after normalization counts as coincident too.
    wrap, certain = wrap_around_angle(TAU - 0.5, -0.5, [])
    assert wrap == pytest.approx(math.pi / 2 - 0.5) and not certain


def test_wrap_respects_majority_arc():
    # Three intermediates on the short way, one stray on the long way.
    wrap, certain = wrap_around_angle(0.0, math.pi, [0.3, 0.5, 2.0, 4.5])
    # Scale is the forward arc 0 -> pi, so the wrap sits at 3pi/2.
    assert wrap == pytest.approx(3 * math.pi / 2) and certain


def test_wrap_from_gaps():
    # Largest gap between 0, pi/2 and pi runs from pi back around to 0.
    for start, end, intermediates in (
        (None, math.pi, [0.0, math.pi / 2]),
        (0.0, None, [math.pi / 2, math.pi]),
        (None, None, [0.0, math.pi / 2, math.pi]),
    ):
        wrap, certain = wrap_around_angle(start, end, intermediates)
        assert wrap == pytest.approx(3 * math.pi / 2) and not certain
    # A lone notch faces a full turn; repeats of one angle do too.
    assert wrap_around_angle(None, 1.0, []) == (pytest.approx(1.0 + math.pi), False)
    assert wrap_around_angle(1.0, None, [1.0]) == (pytest.approx(1.0 + math.pi), False)
    # The first of equal gaps wins, counted from the smallest angle.
    assert wrap_around_angle(None, None, [0.0, math.pi]) == (pytest.approx(math.pi / 2), False)
    with pytest.raises(ValueError):
        wrap_around_angle(None, None, [])


# ---------------------------------------------------------------------------
# Token parsing and units
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, expected",
    [
        ("160", 160.0),
        ("0012", 12.0),
        ("٣٠", 30.0),  # Arabic-Indic digits are Unicode decimal digits
        ("-0.4", -0.4),
        ("−0.4", -0.4),  # typographic minus
        ("−5", -5.0),
        (" 25 ", 25.0),
        (" 12 ", 12.0),
        ("+3.5", 3.5),
        (".5", 0.5),
        ("+.5", 0.5),
        ("2.", 2.0),
        ("psi", None),
        ("2bar", None),
        ("1,000", None),
        ("1_000", None),
        ("1e3", None),
        ("1e5", None),
        ("²", None),  # a digit, but not a decimal one
        ("", None),
        ("-", None),
        ("1.2.3", None),
        ("9" * 400, None),  # overflows to inf: not a usable value
    ],
)
def test_parse_numeric_token(text, expected):
    assert parse_numeric_token(text) == expected


def _unit(*items):
    """extract_unit over (text, confidence) pairs, confidence 1.0 by default."""
    pairs = [item if isinstance(item, tuple) else (item, 1.0) for item in items]
    return extract_unit([t for t, _ in pairs], [c for _, c in pairs])


def test_extract_unit_single_hit():
    assert _unit("0", "2", "4", "bar") == "bar"


def test_extract_unit_absent():
    assert _unit("0", "2") is None
    assert _unit() is None
    assert _unit("furlongs") is None


def test_extract_unit_case_insensitive_max_confidence():
    assert _unit(("PSI", 0.9), ("psi", 0.6)) == "psi"
    # canonical casing comes from the lexicon
    assert _unit(("KPA", 0.8)) == "kPa"


def test_extract_unit_confidence_tie_keeps_first():
    assert _unit(("bar", 0.7), ("psi", 0.7)) == "bar"


def test_load_unit_lexicon(tmp_path):
    path = tmp_path / "units.txt"
    path.write_text("# pressure units\nbar\n  kPa  \n\npsi # common\n", encoding="utf-8")
    assert load_unit_lexicon(path) == ("bar", "kPa", "psi")


def test_load_unit_lexicon_ignores_a_leading_bom(tmp_path):
    # Windows Notepad saves UTF-8 with a byte order mark; the first unit
    # must not come back as "\ufeffbar".
    path = tmp_path / "units.txt"
    path.write_bytes("bar\r\npsi\r\n".encode("utf-8-sig"))
    lexicon = load_unit_lexicon(path)
    assert lexicon == ("bar", "psi")
    assert extract_unit(["bar"], [0.9], lexicon) == "bar"


# ---------------------------------------------------------------------------
# RANSAC with a brute-force oracle
# ---------------------------------------------------------------------------


def brute_force_consensus(pairs, threshold):
    """All two-point models; returns the maximal consensus mask (must be unique)."""
    arr = np.asarray(pairs, dtype=float)
    best_mask, best_count, ties = None, -1, 0
    for i, j in itertools.combinations(range(len(arr)), 2):
        if arr[i, 0] == arr[j, 0]:
            continue
        slope = (arr[j, 1] - arr[i, 1]) / (arr[j, 0] - arr[i, 0])
        icept = arr[i, 1] - slope * arr[i, 0]
        mask = np.abs(arr[:, 1] - (slope * arr[:, 0] + icept)) <= threshold
        count = int(mask.sum())
        if count > best_count:
            best_mask, best_count, ties = mask, count, 1
        elif count == best_count and not np.array_equal(mask, best_mask):
            ties += 1
    assert ties == 1, "oracle requires a unique maximal consensus"
    return best_mask


def test_ransac_rejects_outlier_confirmed_by_brute_force():
    pairs = [(1.0, 0.0), (2.0, 10.0), (3.0, 20.0), (4.0, 30.0), (2.5, 500.0)]
    oracle_mask = brute_force_consensus(pairs, 1.0)
    model = ransac_fit_linear(pairs, threshold=1.0)
    assert set(model.inliers) == set(np.nonzero(oracle_mask)[0])
    assert model.slope == pytest.approx(10.0)
    assert model.intercept == pytest.approx(-10.0)
    assert 4 not in model.inliers


def test_ransac_two_of_three_tie_keeps_first_pair():
    # Every pair fits exactly its own two points; the first pair (0, 1) wins.
    model = ransac_fit_linear([(0.0, 0.0), (1.0, 1.0), (2.0, 50.0)], threshold=0.5)
    assert model.inliers == (0, 1)
    assert model.slope == pytest.approx(1.0)
    assert model.intercept == pytest.approx(0.0, abs=1e-12)


def test_ransac_thins_large_pair_sets():
    # Scoring all ~4.5e6 two-point models against 3000 pairs would need over
    # 100 GB of residuals; the fit scores MAX_PAIRS of them and finds the line.
    rng = np.random.default_rng(7)
    angles = rng.uniform(0.0, 5.0, 3000)
    values = 4.0 * angles - 2.0
    outliers = rng.random(3000) < 0.1
    values[outliers] += rng.uniform(10.0, 100.0, int(outliers.sum()))
    model = ransac_fit_linear(list(zip(angles, values)), threshold=0.1)
    assert model.slope == pytest.approx(4.0)
    assert model.intercept == pytest.approx(-2.0)
    assert set(model.inliers) == set(np.nonzero(~outliers)[0])


def test_ransac_collinear_equals_ols():
    pairs = [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0), (3.0, 7.0)]
    model = ransac_fit_linear(pairs, threshold=0.5)
    ols = least_squares_fit_linear(pairs)
    assert model.inliers == (0, 1, 2, 3)
    assert model.slope == pytest.approx(ols.slope, abs=1e-12)
    assert model.intercept == pytest.approx(ols.intercept, abs=1e-12)


def test_ransac_keeps_the_minimal_model_when_rounding_drops_the_refit():
    # In exact arithmetic the refit keeps two of its consensus within the
    # threshold; at the 1e-9 floor the rounding of the refit loses both, and
    # the winning pair's own model stands (a fuzzed fixture reaches this).
    pairs = [[5.476936234039407, 42.0], [5.486460081014411, 50234.0], [3.7099009314055618, 42.0]]
    model = ransac_fit_linear(pairs, threshold=1e-9)
    slope = (50234.0 - 42.0) / (5.486460081014411 - 5.476936234039407)
    assert model.inliers == (0, 1)
    assert (model.slope, model.intercept) == (slope, 42.0 - slope * 5.476936234039407)


def test_fits_that_overflow_give_no_consensus():
    # Values near the float limit: their sum overflows, so no fit is finite.
    pairs = [(1.0, 1.6e308), (2.0, 1.7e308), (3.0, 1.6e308), (4.0, 1.7e308)]
    with pytest.raises(NoConsensus):
        least_squares_fit_linear(pairs)
    with pytest.raises(NoConsensus):
        ransac_fit_linear(pairs, threshold=1e307)


def test_ransac_insufficient_markers():
    with pytest.raises(InsufficientPoints):
        ransac_fit_linear([(1.0, 2.0)], threshold=1.0)
    with pytest.raises(InsufficientPoints):
        least_squares_fit_linear([])


def test_ransac_no_consensus_when_all_angles_equal():
    with pytest.raises(NoConsensus):
        ransac_fit_linear([(1.0, 0.0), (1.0, 5.0), (1.0, 9.0)], threshold=0.1)


def test_angles_within_same_angle_eps_are_one_angle():
    # Rounding-sized angle steps: markers on one ray from the centre.
    near = [(1.0, 0.0), (1.0 + 1e-12, 5.0), (1.0 - 1e-12, 9.0)]
    with pytest.raises(NoConsensus):
        ransac_fit_linear(near, threshold=0.1)
    for pairs in (near, [(1.0, 0.0), (1.0, 5.0), (1.0, 9.0)], [(2.0, 1.0), (2.0, 1.0)]):
        with pytest.raises(NoConsensus):
            least_squares_fit_linear(pairs)
    # Just beyond the constant, two markers define a model again.
    apart = [(1.0, 0.0), (1.0 + 2 * SAME_ANGLE_EPS, 1e-8)]
    assert ransac_fit_linear(apart, threshold=0.1).inliers == (0, 1)
    assert least_squares_fit_linear(apart).slope == pytest.approx(0.5e-8 / SAME_ANGLE_EPS)


def test_ransac_outlier_robustness_invariant():
    # <= 30% outliers at >= 10x threshold: slope within 1% of the clean slope.
    rng = np.random.default_rng(42)
    for trial in range(10):
        slope = rng.uniform(-30, 30)
        icept = rng.uniform(-10, 10)
        n_true = int(rng.integers(5, 12))
        angles = np.sort(rng.uniform(0.5, 5.5, n_true))
        pairs = [(a, slope * a + icept) for a in angles]
        threshold = max(abs(slope) * 0.05, 0.1)
        n_out = int(min(0.3 * len(pairs) / 0.7, 3))
        for _ in range(max(1, n_out)):
            a = rng.uniform(0.5, 5.5)
            pairs.append((a, slope * a + icept + 20 * threshold * rng.choice([-1, 1])))
        model = ransac_fit_linear(pairs, threshold=threshold)
        assert abs(model.slope - slope) <= 0.01 * abs(slope) + 1e-9


def test_ransac_angle_shift_equivariance():
    rng = np.random.default_rng(8)
    angles = rng.uniform(0, 4, 12)
    values = 7.5 * angles - 2.0 + rng.normal(0, 0.05, 12)
    pairs = list(zip(angles, values))
    delta = 0.37
    shifted = [(a + delta, v) for a, v in pairs]
    m0 = ransac_fit_linear(pairs, threshold=0.3)
    m1 = ransac_fit_linear(shifted, threshold=0.3)
    assert m1.slope == pytest.approx(m0.slope, abs=1e-9)
    assert m1.intercept == pytest.approx(m0.intercept - m0.slope * delta, abs=1e-9)
    assert m1.inliers == m0.inliers


def test_ransac_is_deterministic():
    rng = np.random.default_rng(2)
    pairs = [(a, 3 * a + rng.normal(0, 0.1)) for a in rng.uniform(0, 5, 15)]
    pairs.append((2.0, 500.0))
    a = ransac_fit_linear(pairs, threshold=0.5)
    b = ransac_fit_linear(pairs, threshold=0.5)
    assert (a.slope, a.intercept, a.inliers) == (b.slope, b.intercept, b.inliers)


def test_model_evaluation():
    model = LinearScaleModel(10.0, -10.0, (0, 1, 2, 3))
    assert model.value_at(3.0) == pytest.approx(20.0)
    assert model.value_at(0.0) == pytest.approx(model.intercept)


def test_ransac_inliers_within_threshold_of_model():
    rng = np.random.default_rng(19)
    angles = rng.uniform(0, 5, 20)
    values = -4.0 * angles + 3.0 + rng.normal(0, 0.02, 20)
    values[3] += 50.0
    threshold = 0.1
    model = ransac_fit_linear(list(zip(angles, values)), threshold=threshold)
    for idx in model.inliers:
        assert abs(values[idx] - model.value_at(angles[idx])) <= threshold + 1e-12


def test_model_requires_two_inliers():
    with pytest.raises(ValueError):
        LinearScaleModel(1.0, 0.0, (3,))


def test_default_inlier_threshold():
    # Evenly spread values: the robust span tracks max - min.
    values = list(np.linspace(0.0, 10.0, 11))
    assert default_inlier_threshold(values, 0.02) == pytest.approx(0.2, rel=0.3)
    # One wild outlier must not inflate the cutoff.
    corrupted = values + [373721.0]
    assert default_inlier_threshold(corrupted, 0.02) < 0.5
    assert default_inlier_threshold([5.0, 5.0], 0.02) == 1e-9
    assert default_inlier_threshold([], 0.02) == 1e-9
    assert default_inlier_threshold(values, fraction=0.1) == pytest.approx(
        5 * default_inlier_threshold(values, 0.02)
    )


def test_default_inlier_threshold_is_bit_exact():
    def reference(values, fraction, floor=1e-9):
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return floor
        mad = float(np.median(np.abs(arr - np.median(arr))))
        return max(fraction * 4.0 * mad, floor)

    rng = np.random.default_rng(20)
    cases = [[3.5], [-2.0, 7.25], [0.0, 0.0, 1.0], [5.0, 5.0, 5.0, 1e6], [-0.0, 0.0]]
    for n in (2, 3, 4, 5, 10, 11, 40, 41):
        cases.append(rng.normal(0.0, 100.0, n).tolist())
        cases.append(rng.integers(-5, 5, n).astype(float).tolist())  # ties
        cases.append((-rng.uniform(0.0, 1e-6, n)).tolist())
    for values in cases:
        for fraction in (0.02, 0.1, 1.0):
            expected = reference(values, fraction)
            got = default_inlier_threshold(values, fraction)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), values
    assert default_inlier_threshold([3.5], 0.02) == 1e-9  # a single value: the floor


def test_default_lexicon_contents():
    assert "bar" in DEFAULT_UNIT_LEXICON
    assert "%" in DEFAULT_UNIT_LEXICON
