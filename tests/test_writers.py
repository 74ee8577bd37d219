"""Writer output pinned byte for byte: key order, float spelling and
non-ASCII text as the fixture and perturbation writers emit them."""

from gaugekit.fixtures import GaugeFixture, GroundTruth, KeypointClass, serialize_fixture
from gaugekit.geometry import AffineTransform
from gaugekit.synthgauge import PerturbationSpec, perturbation_to_jsonable

GOLDEN_FIXTURE = (
    '{"schema": 1, "crop_size": [448, 320], '
    '"keypoints": [{"x": 100.0, "y": 200.5, "class": "start"}, '
    '{"x": 150.25, "y": 80.0, "class": "end"}], '
    '"needle_points": [[200.0, 160.0], [210.125, 150.0]], '
    '"ocr": [{"box": [90.0, 210.0, 20.0, 10.5], "text": "5μ", "confidence": 0.75}], '
    '"ground_truth": {"reading": 0.3333333333333333, "range_min": -1.0, "range_max": 2.5, '
    '"unit": "кПа"}}'
)
PERTURBATION_KEYS = [
    "keypoint_noise_sigma",
    "ocr_dropout_rate",
    "n_outlier_ocr",
    "digit_corruption_rate",
    "rotation",
    "seed",
]


def test_writers_pin_their_bytes():
    fixture = GaugeFixture(
        crop_size=(448, 320),
        keypoints=[[100, 200.5], [150.25, 80]],
        keypoint_classes=(KeypointClass.START, KeypointClass.END),
        needle_points=[[200, 160], [210.125, 150]],
        ocr_boxes=[[90, 210, 20, 10.5]],
        ocr_texts=("5μ",),
        ocr_confidences=[0.75],
        ground_truth=GroundTruth(reading=1 / 3, range_min=-1, range_max=2.5, unit="кПа"),
    )
    # UTF-8 text as it is, never \u escapes.
    assert serialize_fixture(fixture) == GOLDEN_FIXTURE.encode("utf-8")

    assert list(perturbation_to_jsonable(PerturbationSpec())) == PERTURBATION_KEYS
    turned = PerturbationSpec(affine=AffineTransform.rotation(0.5))
    assert list(perturbation_to_jsonable(turned)) == [*PERTURBATION_KEYS, "affine"]
