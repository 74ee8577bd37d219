"""Acceptance suite. Each criterion prints one PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them) and is pinned to the
tolerances it must meet:

A1  closed-loop exactness on 100 noise-free scenes (mean RE < 0.1%, max < 0.5%, < 2 s)
A2  mean RE < 2% under keypoint noise, OCR dropout, outliers, rotation, affine
A3  robust fit beats plain least squares by >= 5x on outlier scenes
A4  ellipse recovery at 1e-6 relative up to axis ratio 20 / 90-degree arcs
A5  reading invariance under invertible affines (cond <= 10) and rotations
A6  heatmap decoding within 0.5 px, strict 0.5 threshold, blob separation
A7  totality: 1e5 fuzzed fixtures, zero aborts, closed-set failure reasons
A8  byte-determinism of generation and evaluation given seeds
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_scene_spec, random_fixture
from gaugekit.errors import InsufficientPoints
from gaugekit.fixtures import (
    FAILURE_REASONS,
    Stage,
    parse_fixture,
    serialize_fixture,
)
from gaugekit.geometry import TAU, Ellipse, fit_ellipse_direct
from gaugekit.keypoints import extract_keypoints_meanshift, render_gaussian_heatmap
from gaugekit.pipeline import (
    PipelineConfig,
    RansacSettings,
    compute_relative_error,
    matched_reading,
    read_gauge,
)
from gaugekit.synthgauge import (
    PerturbationSpec,
    generate_scene,
    perturb_scene,
    sample_affine,
    sample_scene_spec,
    scene_spec_to_jsonable,
)


@contextmanager
def criterion(cid, description):
    try:
        yield
    except BaseException:
        print(f"[{cid}] {description}: FAIL", flush=True)
        raise
    print(f"[{cid}] {description}: PASS", flush=True)


def _acceptance_scenes(n=100, dual_probability=0.2):
    rng = np.random.default_rng(20240901)
    return [sample_scene_spec(rng, dual_scale_probability=dual_probability) for _ in range(n)]


def test_a1_closed_loop_exactness():
    with criterion("A1", "closed-loop exactness on 100 noise-free scenes"):
        specs = _acceptance_scenes()
        assert sum(s.second_scale is not None for s in specs) >= 10
        assert sum(s.range_min < 0 for s in specs) >= 10
        spans = [10.0 ** k for k in (-1, 0, 1, 2)]
        covered = {k for s in specs for k, lo in enumerate(spans) if lo <= (s.range_max - s.range_min) < lo * 10}
        assert covered == {0, 1, 2, 3}  # four orders of magnitude

        start = time.perf_counter()
        errors = []
        for spec in specs:
            fixture, truth = generate_scene(spec)
            report = read_gauge(fixture)
            value = matched_reading(report, truth)
            assert value is not None
            assert report.unit == truth.unit
            errors.append(
                compute_relative_error(value, truth.reading, truth.range_min, truth.range_max)
            )
        elapsed = time.perf_counter() - start

        assert float(np.mean(errors)) < 0.1
        assert float(np.max(errors)) < 0.5
        assert elapsed < 2.0


def test_a2_headline_tolerance_under_noise():
    with criterion("A2", "mean relative error < 2% under detection noise"):
        specs = _acceptance_scenes()
        rng = np.random.default_rng(77001)
        errors = []
        produced = 0
        for k, spec in enumerate(specs):
            fixture, truth = generate_scene(spec)
            pert = PerturbationSpec(
                keypoint_noise_sigma=1.0,
                ocr_dropout_rate=0.2,
                n_outlier_ocr=2,
                affine=sample_affine(rng, max_condition=3.0),
                rotation=float(rng.uniform(0.0, TAU)),
                seed=k,
            )
            noisy = perturb_scene(fixture, truth, pert)
            value = matched_reading(read_gauge(noisy), truth)
            if value is None:
                continue
            produced += 1
            errors.append(
                compute_relative_error(value, truth.reading, truth.range_min, truth.range_max)
            )
        assert produced >= 80  # noise may kill a few scenes, not the batch
        assert float(np.mean(errors)) < 2.0


def test_a3_ransac_necessity():
    with criterion("A3", "plain least squares >= 5x worse on outlier scenes"):
        specs = _acceptance_scenes(n=60, dual_probability=0.0)
        rng = np.random.default_rng(88002)
        robust_cfg = PipelineConfig()
        plain_cfg = PipelineConfig(ransac=RansacSettings(enabled=False))
        robust_errors, plain_errors = [], []
        for k, spec in enumerate(specs):
            fixture, truth = generate_scene(spec)
            noisy = perturb_scene(
                fixture, truth, PerturbationSpec(n_outlier_ocr=2, seed=1000 + k)
            )
            v_robust = matched_reading(read_gauge(noisy, robust_cfg), truth)
            v_plain = matched_reading(read_gauge(noisy, plain_cfg), truth)
            if v_robust is None or v_plain is None:
                continue
            robust_errors.append(
                compute_relative_error(v_robust, truth.reading, truth.range_min, truth.range_max)
            )
            plain_errors.append(
                compute_relative_error(v_plain, truth.reading, truth.range_min, truth.range_max)
            )
        assert len(robust_errors) >= 50
        mean_robust = float(np.mean(robust_errors))
        mean_plain = float(np.mean(plain_errors))
        assert mean_plain > 0
        assert mean_plain >= 5.0 * mean_robust


def test_a4_ellipse_fit_recovery():
    with criterion("A4", "ellipse recovery at 1e-6 up to ratio 20, arc >= 90 deg"):
        rng = np.random.default_rng(99003)
        for _ in range(200):
            a = rng.uniform(5.0, 300.0)
            truth = Ellipse(
                rng.uniform(-200, 200),
                rng.uniform(-200, 200),
                a,
                a / rng.uniform(1.0, 20.0),
                rng.uniform(0, math.pi),
            )
            arc = rng.uniform(math.pi / 2, TAU)
            n = int(rng.integers(6, 30))
            pts = truth.point_at(rng.uniform(0, TAU) + np.linspace(0, arc, n))
            e = fit_ellipse_direct(pts)
            assert math.hypot(e.cx - truth.cx, e.cy - truth.cy) <= 1e-6 * truth.a
            assert abs(e.a - truth.a) <= 1e-6 * truth.a
            assert abs(e.b - truth.b) <= 1e-6 * truth.b
        with pytest.raises(InsufficientPoints):
            fit_ellipse_direct([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


def test_a5_affine_and_rotation_invariance():
    with criterion("A5", "readings invariant under affines (cond <= 10) and rotations"):
        rng = np.random.default_rng(55004)
        specs = _acceptance_scenes(n=30)
        for spec in specs:
            fixture, truth = generate_scene(spec)
            span = truth.range_max - truth.range_min
            base = matched_reading(read_gauge(fixture), truth)
            assert base is not None
            for k in range(4):
                pert = PerturbationSpec(
                    affine=sample_affine(rng, max_condition=10.0, allow_reflection=True),
                    rotation=float(rng.uniform(0.0, TAU)),
                    seed=k,
                )
                moved = perturb_scene(fixture, truth, pert)
                value = matched_reading(read_gauge(moved), truth)
                assert value is not None
                assert abs(value - base) / span < 1e-6


def test_a6_keypoint_decoding():
    with criterion("A6", "heatmap decoding: 0.5 px accuracy, strict threshold"):
        rng = np.random.default_rng(66005)
        # sub-pixel accuracy across random single blobs
        for _ in range(20):
            center = rng.uniform(8, 56, 2)
            h = render_gaussian_heatmap((64, 64), [center], sigma=2.0)
            modes = extract_keypoints_meanshift(h, bandwidth=4.0)
            assert len(modes) == 1
            assert float(np.linalg.norm(modes[0] - center)) < 0.5

        # strict threshold: exactly 0.5 never fires
        flat = np.full((32, 32), 0.5)
        from gaugekit.keypoints import Heatmap

        assert extract_keypoints_meanshift(Heatmap(flat), 4.0) == []

        # two blobs at exactly 4-sigma spacing resolve into two keypoints
        sigma = 2.0
        centers = [np.array([20.0, 20.0]), np.array([20.0 + 4 * sigma, 20.0])]
        h = render_gaussian_heatmap((64, 64), centers, sigma=sigma)
        modes = extract_keypoints_meanshift(h, bandwidth=1.5 * sigma)
        assert len(modes) == 2
        for mode, center in zip(modes, centers):
            assert float(np.linalg.norm(mode - center)) < 0.5


def test_a7_failure_taxonomy_totality():
    with criterion("A7", "totality over 1e5 fuzzed fixtures, closed-set reasons"):
        # forced failures hit the documented reasons
        fixture, truth = generate_scene(make_scene_spec())
        dropped = perturb_scene(fixture, truth, PerturbationSpec(ocr_dropout_rate=1.0))
        assert read_gauge(dropped).failure_reason == "insufficient_markers"

        few_notches = replace(
            fixture, keypoints=fixture.keypoints[:4], keypoint_classes=fixture.keypoint_classes[:4]
        )
        assert read_gauge(few_notches).failure_reason == "insufficient_notches"

        one_needle_point = replace(fixture, needle_points=fixture.needle_points[:1])
        assert read_gauge(one_needle_point).failure_reason == "insufficient_needle_points"

        rng = np.random.default_rng(12345)
        cfg = PipelineConfig()
        fatal_stages = (Stage.ELLIPSE, Stage.NEEDLE, Stage.OCR)
        for _ in range(100_000):
            fuzzed = random_fixture(rng)
            report = read_gauge(fuzzed, cfg)  # must never raise
            if report.readings:
                assert report.failure_reason is None
            else:
                assert report.failure_reason in FAILURE_REASONS
                fatal = [
                    s
                    for s in fatal_stages
                    if s in report.stage_statuses and not report.stage_statuses[s].ok
                ]
                assert len(fatal) == 1


def _run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "gaugekit", *args], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


def test_a8_byte_determinism(tmp_path):
    with criterion("A8", "generation and evaluation byte-deterministic given seeds"):
        scenes = []
        for k in range(6):
            spec = sample_scene_spec(np.random.default_rng(4000 + k))
            scenes.append(
                {
                    "spec": scene_spec_to_jsonable(spec),
                    "perturbation": {
                        "keypoint_noise_sigma": 0.5,
                        "ocr_dropout_rate": 0.1,
                        "n_outlier_ocr": 1,
                        "seed": k,
                    },
                }
            )
        manifest = tmp_path / "scenes.json"
        manifest.write_text(json.dumps({"scenes": scenes}), encoding="utf-8")

        dirs = (tmp_path / "run_a", tmp_path / "run_b")
        for out in dirs:
            _run_cli("generate", str(manifest), "--seed", "11", "--out-dir", str(out))
        names = sorted(p.name for p in dirs[0].glob("*.json"))
        assert len(names) == 7  # 6 fixtures + manifest
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

        eval_a = _run_cli("eval", str(dirs[0] / "manifest.json"))
        eval_b = _run_cli("eval", str(dirs[1] / "manifest.json"))
        assert eval_a.stdout == eval_b.stdout

        # library-level double-check: serialize -> parse -> read is stable
        fixture_bytes = (dirs[0] / "scene_000.json").read_bytes()
        fixture = parse_fixture(fixture_bytes)
        assert serialize_fixture(fixture) + b"\n" == fixture_bytes
