"""A fixed reference task that tracks how fast the machine runs right now.

On a shared host the same code runs at different speeds from one stretch of
tens of seconds to the next; an op can take 40% less CPU time in one stretch
than in another. A CPU clock cannot tell this from a change to the program,
so the benchmark runs this task between its ops and quotes every gated time
at the speed at which the task takes ``REFERENCE_NS``:

    quoted time = measured CPU time * REFERENCE_NS / task time nearby

The task does not touch gaugekit, so no change to the program changes its
work. Each sample runs it once untimed, so that its code and data are back in
cache whatever the op before it left there, and then times two runs on the
thread's CPU clock. The task keeps its arrays small and the cyclic garbage
collector off, so the size of the benchmark's heap does not reach it either.
"""

from __future__ import annotations

import gc
import json
import math
import time

import numpy as np

REFERENCE_NS = 2_000_000  # a sample's CPU time at the quoted speed


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._doc = json.dumps(
            {"points": [[i * 0.37, i * 1.3, f"n{i}"] for i in range(120)], "unit": "bar"}
        )
        self._a = rng.normal(size=(40, 3))
        self._b = rng.normal(size=40)
        self._v = rng.normal(size=8000)

    def _task(self) -> float:
        doc = json.loads(self._doc)
        acc = 0.0
        for x, y, name in doc["points"]:
            acc += math.atan2(y, x + 1.0) + math.hypot(x, y) + len(name)
        acc += len(json.dumps(doc))
        for _ in range(20):
            acc += float(np.linalg.lstsq(self._a, self._b, rcond=None)[0][0])
        for _ in range(8):
            acc += float(np.sqrt(self._v * self._v + 1.0).sum())
        return acc

    def sample(self) -> int:
        """CPU ns of two runs of the task, after one untimed run."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._task()
            start = time.thread_time_ns()
            self._task()
            self._task()
            return time.thread_time_ns() - start
        finally:
            if enabled:
                gc.enable()
