"""
Robust angle-to-value calibration
=================================

Projected scale markers give (relative angle, value) pairs. OCR also hands
over junk: misread digits and serial numbers. A plain least-squares line
gets dragged far off by a single such outlier; RANSAC, which tries the line
through every pair of markers and keeps the one most markers agree with,
ignores it. If matplotlib is installed, the comparison is saved as a PNG.
"""

import numpy as np

from gaugekit import least_squares_fit_linear, normalize_angle, ransac_fit_linear, wrap_around_angle

# A 270-degree scale from 0 to 16 bar, markers every 2 bar.
start, end = np.radians(135.0), np.radians(45.0)
marker_angles = np.radians(135 + np.linspace(0, 270, 9)) % (2 * np.pi)
values = np.linspace(0.0, 16.0, 9)

wrap, certain = wrap_around_angle(start, end, marker_angles[1:-1])
print(f"wrap-around point: {np.degrees(wrap):.1f} deg (outside the scale arc, certain: {certain})")

pairs = [(normalize_angle(a - wrap), v) for a, v in zip(marker_angles, values)]
pairs.append((normalize_angle(np.radians(300.0) - wrap), 50234.0))  # serial number

threshold = 0.02 * 16.0
robust = ransac_fit_linear(pairs, threshold=threshold)
plain = least_squares_fit_linear(pairs)

needle_rel = normalize_angle(np.radians(270.0) - wrap)  # needle at mid-scale
print(f"robust fit : value(needle) = {robust.value_at(needle_rel):8.3f} bar, "
      f"{len(robust.inliers)}/{len(pairs)} inliers")
print(f"plain LSQ  : value(needle) = {plain.value_at(needle_rel):8.3f} bar (wrecked)")
print("rejected pair indices:", sorted(set(range(len(pairs))) - set(robust.inliers)))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the plot")
else:
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    grid = np.linspace(xs.min(), xs.max(), 50)
    fig, ax = plt.subplots(figsize=(7, 4.5))
    ax.plot(xs[:-1], ys[:-1], "o", label="scale markers")
    ax.plot(xs[-1], ys[-1], "rx", markersize=10, label="outlier (serial no.)")
    ax.plot(grid, [robust.value_at(g) for g in grid], "-", label="RANSAC fit")
    ax.plot(grid, [plain.value_at(g) for g in grid], "--", label="plain least squares")
    ax.set_xlabel("relative angle [rad]")
    ax.set_ylabel("scale value [bar]")
    ax.set_ylim(-5, 60)
    ax.legend()
    fig.tight_layout()
    fig.savefig("robust_scale_model.png", dpi=120)
    print("wrote robust_scale_model.png")
