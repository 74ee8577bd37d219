"""Deterministic analog gauge reading from structured detections.

The package turns one cropped gauge's detections (notch keypoints, needle
pixels, OCR boxes) into a calibrated reading with per-stage diagnostics, and
ships a synthetic scene generator that makes the whole chain quantitatively
testable without any learned models.

`import gaugekit` loads no submodule: each public name below imports its
module on first use (PEP 562), so a process pays only for what it reads.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (),
    "fixtures": (
        "GaugeFixture",
        "GaugeReadingReport",
        "GroundTruth",
        "KeypointClass",
        "MarkerUse",
        "Reading",
        "ScaleSide",
        "Stage",
        "StageStatus",
        "parse_fixture",
        "serialize_fixture",
        "serialize_report",
    ),
    "geometry": (
        "AffineTransform",
        "Ellipse",
        "Line",
        "circularize",
        "fit_ellipse_direct",
        "line_circle_intersections",
        "needle_tip",
        "normalize_angle",
        "odr_fit_line",
        "parametric_angle",
        "radial_project_to_circle",
    ),
    "keypoints": (
        "Heatmap",
        "extract_keypoints_meanshift",
        "render_gaussian_heatmap",
    ),
    "pipeline": (
        "EvalSummary",
        "PipelineConfig",
        "compute_relative_error",
        "evaluate_batch",
        "matched_reading",
        "read_gauge",
        "serialize_summary",
    ),
    "scale_model": (
        "DEFAULT_UNIT_LEXICON",
        "LinearScaleModel",
        "default_inlier_threshold",
        "extract_unit",
        "least_squares_fit_linear",
        "load_unit_lexicon",
        "parse_numeric_token",
        "ransac_fit_linear",
        "wrap_around_angle",
    ),
    "synthgauge": (
        "PerturbationSpec",
        "SceneSpec",
        "SecondScale",
        "generate_scene",
        "parse_perturbation_spec",
        "parse_scene_spec",
        "perturb_scene",
        "sample_affine",
        "sample_scene_spec",
    ),
}
# Public name -> the submodule that defines it; a submodule names itself.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    try:
        module_name = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # The builtin __import__, unlike importlib.import_module, is the import
    # path that `python -X importtime` reports.
    __import__(f"{__name__}.{module_name}")
    value = sys.modules[f"{__name__}.{module_name}"]
    if name != module_name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
