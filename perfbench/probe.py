"""Set-up probe: a fresh interpreter imports gaugekit and runs one op.

    python3 perfbench/probe.py generate first_spec.json
    python3 perfbench/probe.py heatmap first_heatmap.npz

The run script times this process from spawn to exit and compares what it
prints with the same op run in the benchmark process. The scenes and fuzz
workloads use the `gaugekit read` CLI instead.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(workload: str, path: str) -> None:
    if workload == "generate":
        from gaugekit import fixtures, synthgauge

        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        spec = synthgauge.parse_scene_spec(doc["spec"])
        pert = synthgauge.parse_perturbation_spec(doc["perturbation"])
        fixture, truth = synthgauge.generate_scene(spec)
        sys.stdout.buffer.write(
            fixtures.serialize_fixture(synthgauge.perturb_scene(fixture, truth, pert))
        )
    elif workload == "heatmap":
        import numpy as np

        from gaugekit import keypoints

        with np.load(path) as data:
            heatmap = keypoints.Heatmap(data["values"])
            bandwidth = float(data["bandwidth"])
        modes = keypoints.extract_keypoints_meanshift(heatmap, bandwidth)
        print(json.dumps([[float(v) for v in m] for m in modes]))
    else:
        sys.exit(f"probe: unknown workload {workload!r}")


if __name__ == "__main__":
    main(*sys.argv[1:3])
