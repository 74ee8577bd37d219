"""Shared builders for tests: canonical scenes and randomized valid fixtures."""

from __future__ import annotations

import math

import numpy as np

from gaugekit import Ellipse, GaugeFixture, GroundTruth, KeypointClass
from gaugekit.synthgauge import SceneSpec


def make_scene_spec(**overrides) -> SceneSpec:
    """A well-behaved 270-degree scene, range 0-10, needle at mid-scale."""
    defaults = dict(
        ellipse=Ellipse(224.0, 224.0, 150.0, 120.0, 0.3),
        arc_start=3 * math.pi / 4,
        arc_end=math.pi / 4,
        direction=1,
        range_min=0.0,
        range_max=10.0,
        unit="bar",
        n_major_notches=9,
        needle_value=5.0,
    )
    defaults.update(overrides)
    return SceneSpec(**defaults)


_FUZZ_TEXT_POOL = (
    "0",
    "42",
    "-0.4",
    "3.5",
    "1600",
    "bar",
    "psi",
    "PSI",
    "serial",
    "x7",
    "",
    "50234",
    "..",
    "1,000",
)


def random_fixture(rng: np.random.Generator) -> GaugeFixture:
    """A random fixture satisfying every type invariant; content is arbitrary."""
    w = int(rng.integers(64, 512))
    h = int(rng.integers(64, 512))

    kinds = []
    if rng.random() < 0.8:
        kinds.append(KeypointClass.START)
    if rng.random() < 0.8:
        kinds.append(KeypointClass.END)
    kinds.extend([KeypointClass.INTERMEDIATE] * int(rng.integers(0, 11)))
    order = rng.permutation(len(kinds)) if kinds else []
    keypoints = [[rng.uniform(0, w - 1e-3), rng.uniform(0, h - 1e-3)] for _ in order]
    classes = tuple(kinds[int(k)] for k in order)

    n_needle = int(rng.integers(0, 40))
    if n_needle and rng.random() < 0.5:
        # Correlated cloud: a jittered segment, the realistic case.
        p0 = np.array([rng.uniform(0, w - 1), rng.uniform(0, h - 1)])
        p1 = np.array([rng.uniform(0, w - 1), rng.uniform(0, h - 1)])
        lam = rng.uniform(0, 1, size=(n_needle, 1))
        pts = p0 + lam * (p1 - p0) + rng.normal(0, 1.0, size=(n_needle, 2))
        pts = np.clip(pts, 0, [w - 1e-3, h - 1e-3])
    else:
        pts = np.column_stack(
            [rng.uniform(0, w - 1e-3, n_needle), rng.uniform(0, h - 1e-3, n_needle)]
        )

    boxes, texts, confidences = [], [], []
    for _ in range(int(rng.integers(0, 6))):
        bw = rng.uniform(1, 40)
        bh = rng.uniform(1, 20)
        boxes.append([rng.uniform(0, w - 1e-3), rng.uniform(0, h - 1e-3), bw, bh])
        texts.append(str(rng.choice(_FUZZ_TEXT_POOL)))
        confidences.append(rng.uniform(0, 1))

    truth = None
    if rng.random() < 0.5:
        lo = rng.uniform(-100, 100)
        span = rng.uniform(0.1, 200)
        truth = GroundTruth(lo + span * rng.random(), lo, lo + span, "bar")

    return GaugeFixture(
        crop_size=(w, h),
        keypoints=keypoints,
        keypoint_classes=classes,
        needle_points=pts,
        ocr_boxes=boxes,
        ocr_texts=texts,
        ocr_confidences=confidences,
        ground_truth=truth,
    )
