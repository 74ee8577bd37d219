"""
Decoding notch keypoints from probability heatmaps
==================================================

Upstream notch detectors output dense per-pixel probabilities. Decoding
thresholds at 0.5 (strictly) and runs flat-kernel mean-shift on the
surviving pixel indices, giving one sub-pixel keypoint per blob. The
renderer used here builds exactly the kind of heatmap such detectors are
trained against, which makes round-trip accuracy measurable.
"""

import numpy as np

from gaugekit import extract_keypoints_meanshift, render_gaussian_heatmap

# Twelve notch positions on an arc, rendered as sigma = 2 px blobs.
true_centers = [
    (32 + 90 * np.cos(t), 60 + 90 * np.sin(t))
    for t in np.linspace(np.radians(200), np.radians(340), 12)
]
true_centers = [(x + 80, y + 40) for x, y in true_centers]
heatmap = render_gaussian_heatmap((256, 192), true_centers, sigma=2.0)
height, width = heatmap.values.shape
print(f"heatmap {width}x{height}, "
      f"{int((heatmap.values > 0.5).sum())} pixels above threshold")

decoded = extract_keypoints_meanshift(heatmap, bandwidth=6.0)
print(f"decoded {len(decoded)} keypoints from {len(true_centers)} blobs")

worst = 0.0
for mode in decoded:
    errors = [np.hypot(mode[0] - cx, mode[1] - cy) for cx, cy in true_centers]
    worst = max(worst, min(errors))
print(f"worst decode error: {worst:.3f} px (sub-pixel)")

# Blobs at exactly 0.5 never fire: the threshold is strict.
flat = np.full((32, 32), 0.5)
from gaugekit import Heatmap

print("all-0.5 heatmap decodes to:", extract_keypoints_meanshift(Heatmap(flat), 4.0))
