"""Deterministic analog gauge reading from structured detections.

The package turns one cropped gauge's detections (notch keypoints, needle
pixels, OCR boxes) into a calibrated reading with per-stage diagnostics, and
ships a synthetic scene generator that makes the whole chain quantitatively
testable without any learned models.
"""

from . import errors
from .fixtures import (
    GaugeFixture,
    GaugeReadingReport,
    GroundTruth,
    Keypoint,
    KeypointClass,
    MarkerUse,
    OcrItem,
    Point2,
    Reading,
    Rect,
    ScaleSide,
    Stage,
    StageStatus,
    parse_fixture,
    serialize_fixture,
    serialize_report,
)
from .geometry import (
    AffineTransform,
    Ellipse,
    Line,
    circularize,
    fit_ellipse_direct,
    line_circle_intersections,
    needle_tip,
    normalize_angle,
    odr_fit_line,
    parametric_angle,
    radial_project_to_circle,
)
from .keypoints import (
    Heatmap,
    extract_keypoints_meanshift,
    render_gaussian_heatmap,
)
from .pipeline import (
    EvalSummary,
    PipelineConfig,
    compute_relative_error,
    evaluate_batch,
    matched_reading,
    read_gauge,
    serialize_summary,
)
from .scale_model import (
    DEFAULT_UNIT_LEXICON,
    LinearScaleModel,
    default_inlier_threshold,
    extract_unit,
    least_squares_fit_linear,
    load_unit_lexicon,
    parse_numeric_token,
    ransac_fit_linear,
    wrap_around_angle,
)
from .synthgauge import (
    PerturbationSpec,
    SceneSpec,
    SecondScale,
    generate_scene,
    parse_perturbation_spec,
    parse_scene_spec,
    perturb_scene,
    sample_affine,
    sample_scene_spec,
)

__version__ = "0.1.0"
