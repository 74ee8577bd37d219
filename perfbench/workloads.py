"""The four benchmark workloads: inputs from a seed, one op, and its checks.

Inputs are generated from ``--seed`` before anything is timed, so the
program under test only ever sees the generated bytes, maps and specs. Every
workload is a closed loop with one client: the next op starts only after the
previous one has returned.

    scenes    bytes -> parse_fixture -> read_gauge -> serialize_report over
              sampled, perturbed scenes with exact ground truth
    fuzz      the same op over fixtures from tests/conftest.py's
              random_fixture (loaded unmodified)
    heatmap   extract_keypoints_meanshift on 448x448 maps of 15 notches
    generate  generate_scene -> perturb_scene -> serialize_fixture
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from gaugekit import fixtures, geometry, keypoints, pipeline, synthgauge
from gaugekit.fixtures import FAILURE_REASONS

ROOT = Path(__file__).resolve().parent.parent

# The perturbation grid of the scenes and generate workloads. Each scene
# draws one value per knob; odd-indexed scenes also get an affine viewpoint
# (condition number <= 3) and a rotation about the crop centre.
KEYPOINT_SIGMAS = (0.0, 1.0, 2.0, 4.0)
DROPOUT_RATES = (0.0, 0.1, 0.2)
CORRUPTION_RATES = (0.0, 0.05, 0.1)
MAX_OUTLIERS = 3

HEATMAP_SIGMAS = (2.0, 4.0, 6.0)
HEATMAP_NOTCHES = 15
HEATMAP_SIZE = (448, 448)
DECODE_TOLERANCE_PX = 0.5  # acceptance criterion A6
SILENT_WRONG_PCT = 10.0
REPORT_STAGES = ("ellipse", "notches", "needle", "ocr")
FATAL_STAGES = ("ellipse", "needle", "ocr")  # a failure here ends the run


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per workload, so workloads never share draws."""
    return np.random.default_rng([seed, stream])


def _sample_perturbation(rng: np.random.Generator, index: int) -> synthgauge.PerturbationSpec:
    viewpoint = index % 2 == 1
    return synthgauge.PerturbationSpec(
        keypoint_noise_sigma=float(rng.choice(KEYPOINT_SIGMAS)),
        ocr_dropout_rate=float(rng.choice(DROPOUT_RATES)),
        n_outlier_ocr=int(rng.integers(0, MAX_OUTLIERS + 1)),
        digit_corruption_rate=float(rng.choice(CORRUPTION_RATES)),
        affine=synthgauge.sample_affine(rng, max_condition=3.0) if viewpoint else None,
        rotation=float(rng.uniform(0.0, geometry.TAU)) if viewpoint else 0.0,
        seed=int(rng.integers(0, 2**31)),
    )


def _grid_label(pert: synthgauge.PerturbationSpec) -> str:
    return (
        f"kp_sigma={pert.keypoint_noise_sigma:g} dropout={pert.ocr_dropout_rate:g} "
        f"corrupt={pert.digit_corruption_rate:g} outliers={pert.n_outlier_ocr} "
        f"viewpoint={'yes' if pert.affine is not None else 'no'}"
    )


def sample_scenes(
    seed: int, count: int, stream: int = 1
) -> list[tuple[synthgauge.SceneSpec, synthgauge.PerturbationSpec]]:
    rng = _rng(seed, stream)
    return [(synthgauge.sample_scene_spec(rng), _sample_perturbation(rng, k)) for k in range(count)]


def build_scene(spec, pert) -> tuple[bytes, fixtures.GroundTruth]:
    fixture, truth = synthgauge.generate_scene(spec)
    return fixtures.serialize_fixture(synthgauge.perturb_scene(fixture, truth, pert)), truth


def _load_test_builders():
    """tests/conftest.py, imported as a plain module and used unmodified."""
    path = ROOT / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("gaugekit_test_builders", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stage_line(report: fixtures.GaugeReadingReport) -> str:
    return " ".join(
        f"{stage.value}:{'ok' if status.ok else status.reason}"
        for stage, status in report.stage_statuses.items()
    )


def _totality_problem(report: fixtures.GaugeReadingReport):
    """A report either reads, or carries exactly one fatal closed-set reason."""
    fatal = [
        stage.value
        for stage, status in report.stage_statuses.items()
        if stage.value in FATAL_STAGES and not status.ok
    ]
    if report.readings:
        return f"reading present with failed stages {fatal}" if fatal else None
    if report.failure_reason not in FAILURE_REASONS:
        return f"no reading and reason {report.failure_reason!r} outside FAILURE_REASONS"
    if len(fatal) != 1:
        return f"no reading and {len(fatal)} fatal stage failures"
    return None


class Workload:
    name = ""
    cycle = 1  # the timed loop only stops at a multiple of this many ops
    min_ops = 0  # ... and not before this many
    # Runs every input gets, topped up untimed after the loop; two make the
    # output-identical-on-every-run check bite on every input.
    checked_runs = 2
    # Layers a traced run of this workload must reach; a wrapper that sees
    # no call here or on any other workload would be a silent blind spot.
    expected_layers: tuple[str, ...] = ()

    def fingerprint(self, out) -> bytes:
        """Bytes that must be identical every time an input is processed."""
        return out

    def check_op(self, index: int, out):
        return None

    def check_input(self, index: int, out):
        """Heavier per-input check, run once per input outside timing."""
        return None

    def report(self, outs: list) -> dict:
        """Workload-specific numbers from the first output of every input."""
        return {}


class _ReadWorkload(Workload):
    """Shared op of scenes and fuzz: what `gaugekit read` does per file."""

    expected_layers = (
        "fixtures.parse_fixture",
        "fixtures.serialize_report",
        "fixtures.validations",
        "pipeline.read_gauge",
        "geometry.AffineTransform.apply",
        "geometry.fit_ellipse_direct",
        "geometry.circularize",
        "geometry.odr_fit_line",
        "geometry.line_circle_intersections",
        "geometry.parametric_angle",
        "geometry.radial_project_to_circle",
        "scale_model.extract_unit",
        "scale_model.parse_numeric_token",
    )

    @staticmethod
    def op(data: bytes):
        report = pipeline.read_gauge(fixtures.parse_fixture(data))
        return report, fixtures.serialize_report(report)

    def fingerprint(self, out) -> bytes:
        return out[1]

    def check_op(self, index, out):
        return _totality_problem(out[0])

    def probe(self, workdir: Path):
        """Set-up probe: the `gaugekit read` CLI on the first input."""
        path = workdir / "first.json"
        path.write_bytes(self.inputs[0])
        report, data = self.op(self.inputs[0])
        argv = ["-m", "gaugekit", "read", str(path)]
        return argv, data + b"\n", 0 if report.readings else 1

    def report(self, outs):
        markers = sum(len(r.markers_used) for r, _ in outs)
        inliers = sum(m.inlier for r, _ in outs for m in r.markers_used)
        failed = dict.fromkeys(REPORT_STAGES, 0)
        for report, _ in outs:
            for stage, status in report.stage_statuses.items():
                if stage.value in failed:
                    failed[stage.value] += not status.ok
        n = len(outs)
        return {
            "inlier_share": inliers / markers if markers else 0.0,
            "stage_failed": {k: v / n for k, v in failed.items()},
            "bytes_in_per_op": sum(len(b) for b in self.inputs) / len(self.inputs),
            "bytes_out_per_op": sum(len(d) for _, d in outs) / n,
        }


class Scenes(_ReadWorkload):
    name = "scenes"
    expected_layers = _ReadWorkload.expected_layers + (
        "scale_model.ransac_fit_linear",
        "pipeline.evaluate_batch",
    )

    def __init__(self, seed: int, quick: bool):
        drawn = sample_scenes(seed, 40 if quick else 1000)
        built = [build_scene(spec, pert) for spec, pert in drawn]
        self.inputs = [data for data, _ in built]
        self.truths = [truth for _, truth in built]
        self.labels = [_grid_label(pert) for _, pert in drawn]

    def report(self, outs):
        numbers = super().report(outs)
        errors, rows = [], []
        silent = no_reading = 0
        for index, ((report, _), truth) in enumerate(zip(outs, self.truths)):
            predicted = pipeline.matched_reading(report, truth)
            if predicted is None:
                no_reading += 1
                continue
            error = pipeline.compute_relative_error(
                predicted, truth.reading, truth.range_min, truth.range_max
            )
            errors.append(error)
            all_ok = all(status.ok for status in report.stage_statuses.values())
            silent += error > SILENT_WRONG_PCT and all_ok
            rows.append((error, index, predicted, truth, _stage_line(report)))
        n = len(outs)
        rows.sort(key=lambda row: (-row[0], row[1]))
        numbers.update(
            re_mean_pct=float(np.mean(errors)) if errors else None,
            re_p95_pct=float(np.percentile(errors, 95)) if errors else None,
            re_max_pct=max(errors) if errors else None,
            silent_wrong_share=silent / n,
            no_reading_share=no_reading / n,
            worst=[
                f"#{index:<5} err={error:.6g}% read={predicted:.6g} truth={truth.reading:.6g} "
                f"range=[{truth.range_min:.6g}, {truth.range_max:.6g}] | {stages} | "
                f"{self.labels[index]}"
                for error, index, predicted, truth, stages in rows[:10]
            ],
        )
        return numbers


class Fuzz(_ReadWorkload):
    name = "fuzz"

    def __init__(self, seed: int, quick: bool):
        builders = _load_test_builders()
        rng = _rng(seed, 2)
        count = 60 if quick else 2000
        self.inputs = [
            fixtures.serialize_fixture(builders.random_fixture(rng)) for _ in range(count)
        ]


class Generate(Workload):
    name = "generate"
    expected_layers = (
        "synthgauge.generate_scene",
        "synthgauge.perturb_scene",
        "fixtures.serialize_fixture",
        "fixtures.validations",
        "geometry.AffineTransform.apply",
    )

    def __init__(self, seed: int, quick: bool):
        self.inputs = sample_scenes(seed, 40 if quick else 1000, stream=4)

    @staticmethod
    def op(item) -> bytes:
        spec, pert = item
        fixture, truth = synthgauge.generate_scene(spec)
        return fixtures.serialize_fixture(synthgauge.perturb_scene(fixture, truth, pert))

    def check_input(self, index, out):
        if fixtures.serialize_fixture(fixtures.parse_fixture(out)) != out:
            return "serialize_fixture(parse_fixture(b)) != b"
        return None

    def probe(self, workdir: Path):
        spec, pert = self.inputs[0]
        path = workdir / "first_spec.json"
        doc = {
            "spec": synthgauge.scene_spec_to_jsonable(spec),
            "perturbation": synthgauge.perturbation_to_jsonable(pert),
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [str(Path(__file__).with_name("probe.py")), "generate", str(path)]
        return argv, self.op(self.inputs[0]), 0

    def report(self, outs):
        return {"bytes_out_per_op": sum(len(b) for b in outs) / len(outs)}


class Heatmap(Workload):
    name = "heatmap"
    cycle = len(HEATMAP_SIGMAS)
    # Twenty notch layouts, each rendered at every sigma, and a loop that
    # runs each map at least once: the tail percentile (ten inputs beyond
    # it) then falls mid-way through the twenty sigma-6 maps, instead of on
    # the fastest of a few of them or in the sigma-4 class.
    layouts = 20
    checked_runs = 1  # a second untimed pass would double the run time
    expected_layers = ("keypoints.extract_keypoints_meanshift",)

    def __init__(self, seed: int, quick: bool):
        rng = _rng(seed, 3)
        self.inputs, self.centres, self.sigmas = [], [], []
        for _ in range(1 if quick else self.layouts):
            centres = self._notch_centres(rng)
            for sigma in HEATMAP_SIGMAS:
                heatmap = keypoints.render_gaussian_heatmap(HEATMAP_SIZE, centres, sigma)
                self.inputs.append((heatmap, 1.5 * sigma))
                self.centres.append(centres)
                self.sigmas.append(sigma)
        self.min_ops = len(self.inputs)

    @staticmethod
    def _notch_centres(rng: np.random.Generator) -> np.ndarray:
        """15 notches spread over a 270-340 degree arc of a near-circular
        ellipse; neighbours sit >= 30 px apart, so blobs at sigma 6 (support
        radius ~7 px) never touch and every one is resolvable."""
        w, h = HEATMAP_SIZE
        a = rng.uniform(0.27, 0.36) * min(w, h)
        ellipse = geometry.Ellipse(
            w / 2 + rng.uniform(-6, 6), h / 2 + rng.uniform(-6, 6), a,
            a * rng.uniform(0.8, 1.0), rng.uniform(0, math.pi),
        )
        start = rng.uniform(0.0, geometry.TAU)
        span = math.radians(rng.uniform(270.0, 340.0))
        return ellipse.point_at(start + np.linspace(0.0, span, HEATMAP_NOTCHES))

    @staticmethod
    def op(item):
        heatmap, bandwidth = item
        return keypoints.extract_keypoints_meanshift(heatmap, bandwidth)

    def fingerprint(self, out) -> bytes:
        return np.asarray(out).tobytes()

    def decode_errors(self, index: int, out) -> np.ndarray:
        """Distance from each rendered centre to its nearest decoded mode."""
        modes = np.asarray(out).reshape(-1, 2)
        if not len(modes):
            return np.full(HEATMAP_NOTCHES, np.inf)
        d = np.linalg.norm(self.centres[index][:, None, :] - modes[None, :, :], axis=2)
        return d.min(axis=1)

    def check_op(self, index, out):
        if len(out) != HEATMAP_NOTCHES:
            return f"decoded {len(out)} modes, expected {HEATMAP_NOTCHES}"
        worst = float(self.decode_errors(index, out).max())
        if worst >= DECODE_TOLERANCE_PX:
            return f"a rendered centre is {worst:.3f} px from every mode"
        return None

    def probe(self, workdir: Path):
        heatmap, bandwidth = self.inputs[0]
        path = workdir / "first_heatmap.npz"
        np.savez(path, values=heatmap.values, bandwidth=bandwidth)
        argv = [str(Path(__file__).with_name("probe.py")), "heatmap", str(path)]
        expected = json.dumps([[float(v) for v in m] for m in self.op(self.inputs[0])])
        return argv, (expected + "\n").encode(), 0

    def report(self, outs):
        per_sigma = {}
        for sigma in HEATMAP_SIGMAS:
            support = [
                int((self.inputs[i][0].values > keypoints.DETECTION_THRESHOLD).sum())
                for i, s in enumerate(self.sigmas)
                if s == sigma
            ]
            per_sigma[sigma] = float(np.mean(support))
        return {
            "decode_err_max_px": max(
                float(self.decode_errors(i, out).max()) for i, out in enumerate(outs)
            ),
            "support_px": per_sigma,
        }


WORKLOADS = {cls.name: cls for cls in (Scenes, Fuzz, Heatmap, Generate)}
