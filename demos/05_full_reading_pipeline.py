"""
End-to-end: synthetic scene -> fixture -> calibrated reading
============================================================

Builds a dual-scale gauge scene with known ground truth, runs the full
reading pipeline on its detections, and prints the per-stage report. The
scene generator is the test oracle: the pipeline must reproduce the
needle value it was built with.
"""

import json
import math

from gaugekit import Ellipse, read_gauge, serialize_report
from gaugekit.synthgauge import SceneSpec, SecondScale, generate_scene

spec = SceneSpec(
    ellipse=Ellipse(224.0, 224.0, 155.0, 118.0, 0.35),
    arc_start=3 * math.pi / 4,
    arc_end=math.pi / 4,
    direction=1,
    range_min=0.0,
    range_max=16.0,
    unit="bar",
    n_major_notches=9,
    needle_value=11.5,
    marker_radius_factor=0.86,
    second_scale=SecondScale(0.0, 232.0, 1.13),  # psi ring outside the arc
)

fixture, truth = generate_scene(spec)
print(f"scene: {len(fixture.keypoints)} notches, {len(fixture.needle_points)} needle px, "
      f"{len(fixture.ocr_texts)} OCR boxes, truth = {truth.reading} {truth.unit}")

report = read_gauge(fixture)
for stage, status in report.stage_statuses.items():
    print(f"  stage {stage.value:<8} {'ok' if status.ok else status.reason}")
for reading in report.readings:
    print(f"  {reading.scale.value} scale reads {reading.value:.6f}")
print(f"  unit: {report.unit}, wrap at {math.degrees(report.wrap_angle):.1f} deg")

print("\nfull report document:")
print(json.dumps(json.loads(serialize_report(report)), indent=2)[:1200], "...")
