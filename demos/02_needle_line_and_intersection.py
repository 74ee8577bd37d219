"""
Needle line fit and scale intersection
======================================

The needle arrives as a cloud of segmented mask pixels. An orthogonal
distance regression (total least squares) gives the needle axis even when
the needle is vertical, and intersecting that axis with the unit circle
yields the point on the scale that the needle indicates. Both
intersections and the pixels are placed by their parameter along the line;
of the two intersections, the one near the needle tip wins.
"""

import numpy as np

from gaugekit import line_circle_intersections, needle_tip, odr_fit_line, parametric_angle

rng = np.random.default_rng(7)

# Needle pixels: a thin slab from the hub (origin) out to 95% of the rim,
# with a little segmentation jitter orthogonal to the axis.
angle = np.radians(215.0)
axis = np.array([np.cos(angle), np.sin(angle)])
normal = np.array([-axis[1], axis[0]])
t = rng.uniform(0.05, 0.95, 400)
pixels = t[:, None] * axis + rng.normal(0, 0.01, 400)[:, None] * normal

line = odr_fit_line(pixels)
print("fitted direction:", np.round(line.direction, 6))
print("true direction  :", np.round(axis, 6), "(sign is arbitrary)")

roots = line_circle_intersections(line)
print("circle intersections at t =", np.round(roots, 4))

# The pixels' extreme projections onto the line bound the needle; the root
# inside (or nearest an end of) that extent is the tip.
params = line.project_parameter(pixels)
print(f"needle pixels span t in [{params.min():.4f}, {params.max():.4f}]")
tip = needle_tip(line, pixels)
print("chosen tip      :", np.round(tip, 4))
print(f"needle angle    : {np.degrees(parametric_angle(tip)):.3f} deg (truth {np.degrees(angle) % 360:.3f})")

# The parametric form also handles a perfectly vertical needle.
vertical = odr_fit_line([(0.3, y) for y in np.linspace(-0.9, 0.9, 50)])
print("vertical needle direction:", vertical.direction)
