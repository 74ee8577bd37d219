"""Run one gaugekit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scenes --seed 1 --seconds 20 --trace 0

Run from the root of a gaugekit checkout; the package is imported from its
``src/`` directory, nothing is installed. Workloads: scenes, fuzz, heatmap,
generate (see workloads.py and README.md). The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` the run also repeats the loop under the tracer and the metrics
are the per-layer ones. Everything before that line is a human-readable
report, including the end-to-end metrics that only some workloads have.
"""

import os

# Pin BLAS to one thread before numpy loads; the load is one client on one
# thread, and child processes inherit the setting.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import mean, median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REQUIRED = (SRC / "gaugekit" / "__init__.py", ROOT / "tests" / "conftest.py")

SETUP_REPEATS = 9  # fresh processes per set-up number; the median is reported
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
MAX_PRINTED_FAILURES = 20
EVAL_BATCH = 200  # fixtures passed to evaluate_batch in a traced run
CHILD_TIMEOUT_S = 60
WINDOWS = 5  # the throughput is the median over this many parts of the loop
REFERENCE_EVERY_NS = 200_000_000  # wall time between reference samples in a loop
REFERENCE_REACH_NS = 1_000_000_000  # an op is quoted at the samples this close to it

# (name, unit) of every end-to-end number; BENCHMARK.json gates the ones
# every workload has. The others are printed where they apply.
END_TO_END = (
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_ops_share", "share"),
    ("re_mean_pct", "%"),
    ("re_p95_pct", "%"),
    ("re_max_pct", "%"),
    ("silent_wrong_share", "share"),
    ("no_reading_share", "share"),
    ("decode_err_max_px", "px"),
)
GATED = ("throughput_ops_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb")


def _require_checkout() -> None:
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: {ROOT} is not a gaugekit checkout (missing {', '.join(missing)})")


_require_checkout()
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import gaugekit  # noqa: E402
from gaugekit import fixtures, pipeline  # noqa: E402
from reference import REFERENCE_NS, Reference  # noqa: E402
from workloads import HEATMAP_SIGMAS, WORKLOADS, Scenes, build_scene, sample_scenes  # noqa: E402

if Path(gaugekit.__file__).resolve().parent != SRC / "gaugekit":
    sys.exit(f"perfbench: imported gaugekit from {gaugekit.__file__}, not from {SRC}")

CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p),
)


def tail(samples):
    """(value, percentile, samples beyond) at the highest percentile that
    still has TAIL_BEYOND samples beyond it; the maximum if there are fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, TAIL_BEYOND


class Run:
    """One invocation: inputs, the untraced loop, and optionally the traced one."""

    def __init__(self, workload, seed: int, seconds: float, quick: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.repeats = 1 if quick else SETUP_REPEATS
        n = len(workload.inputs)
        self.first = [None] * n  # (output, fingerprint) of each input's first run
        self.runs = [0] * n
        self.attempted = 0
        self.failures: list[str] = []
        self.reference = Reference()

    # -- checking ----------------------------------------------------------

    def fail(self, op_index, input_index, problem: str) -> None:
        self.failures.append(problem)
        if len(self.failures) <= MAX_PRINTED_FAILURES:
            print(
                f"CHECK FAILED workload={self.workload.name} seed={self.seed} "
                f"op={op_index} input={input_index}: {problem}",
                flush=True,
            )

    def _verify(self, op_index: int, i: int, out) -> None:
        self.attempted += 1
        self.runs[i] += 1
        fingerprint = self.workload.fingerprint(out)
        if self.first[i] is None:
            self.first[i] = (out, fingerprint)
            problem = self.workload.check_op(i, out)
        elif fingerprint != self.first[i][1]:
            problem = "output differs from the first run of this input"
        else:
            problem = None
        if problem:
            self.fail(op_index, i, problem)

    def _call(self, op_index: int, i: int, call):
        try:
            return call(op_index, self.workload.inputs[i])
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.attempted += 1
            self.runs[i] += 1
            self.fail(op_index, i, f"raised {type(exc).__name__}: {exc}")
            return None

    # -- the closed loop ---------------------------------------------------

    def loop(self, call) -> "Loop":
        """Closed loop over the inputs, in order, for `seconds` and at least the
        workload's `min_ops`; it stops only at a multiple of the workload's
        cycle. Each op is timed on the wall clock and on this thread's CPU
        clock; the reference task runs between ops every REFERENCE_EVERY_NS."""
        inputs = self.workload.inputs
        cycle = self.workload.cycle
        min_ops = self.workload.min_ops
        loop = Loop(len(inputs), cycle)
        wall_clock, cpu_clock = time.perf_counter_ns, time.thread_time_ns
        gc.collect()
        loop.refs.append((wall_clock(), self.reference.sample()))
        deadline = wall_clock() + int(self.seconds * 1e9)
        j = 0
        while True:
            i = j % len(inputs)
            w0, c0 = wall_clock(), cpu_clock()
            out = self._call(j, i, call)
            c1, w1 = cpu_clock(), wall_clock()
            loop.starts.append(w0)
            loop.wall.append(w1 - w0)
            loop.cpu.append(c1 - c0)
            if out is not None:
                self._verify(j, i, out)
            j += 1
            if w1 - loop.refs[-1][0] >= REFERENCE_EVERY_NS:
                loop.refs.append((w1, self.reference.sample()))
            if j % cycle == 0 and j >= min_ops and w1 >= deadline:
                break
        loop.end = wall_clock()
        loop.refs.append((loop.end, self.reference.sample()))
        return loop

    def complete(self) -> None:
        """Untimed: bring every input up to the workload's `checked_runs`
        runs, then run the per-input checks on its first output."""
        for i in range(len(self.workload.inputs)):
            while self.runs[i] < self.workload.checked_runs:
                out = self._call(-1, i, self.plain_call)
                if out is not None:
                    self._verify(-1, i, out)
        for i, first in enumerate(self.first):
            problem = first is not None and self.workload.check_input(i, first[0])
            if problem:
                self.fail(-1, i, problem)

    def warm_up(self) -> None:
        """One cycle, untimed, so lazy imports and first allocations do not
        land in the timed loop."""
        for i in range(self.workload.cycle):
            self._call(-1, i, self.plain_call)

    def plain_call(self, op_index, item):
        return self.workload.op(item)

    # -- child processes ---------------------------------------------------

    def spawn(self, argv, expected_stdout=None, expected_code=0) -> tuple[float, float]:
        """(CPU seconds, wall seconds) of one fresh interpreter running `argv`;
        checks its output. The CPU time is the child's user + system time."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv],
            capture_output=True,
            env=CHILD_ENV,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        self.attempted += 1
        if proc.returncode != expected_code:
            self.fail("setup", 0, f"{argv[:3]} exited {proc.returncode}: {proc.stderr[-300:]!r}")
        elif expected_stdout is not None and proc.stdout != expected_stdout:
            self.fail("setup", 0, f"{argv[:3]} printed other output than the in-process op")
        return cpu, elapsed

    def timed_spawns(self, argv, expected_stdout=None, expected_code=0):
        """(quoted, CPU, wall) median seconds of `repeats` fresh processes,
        each started after a reference sample; the CPU median is quoted at
        the median sample."""
        refs, cpu, wall = [], [], []
        for _ in range(self.repeats):
            refs.append(self.reference.sample())
            c, w = self.spawn(argv, expected_stdout, expected_code)
            cpu.append(c)
            wall.append(w)
        return median(cpu) * REFERENCE_NS / median(refs), median(cpu), median(wall)


class Loop:
    """Timings of one closed loop: op j ran input j % n_inputs. `cpu` holds
    each op's time on the thread's CPU clock, which stands still while the
    thread waits for a processor, whether another process or another guest
    of the host holds it. `refs` holds (wall stamp, reference sample) pairs;
    `quoted()` gives each op's CPU time at the reference speed, which is what
    the gated timings use. `wall` is printed next to them."""

    def __init__(self, n_inputs: int, cycle: int):
        self.n_inputs, self.cycle = n_inputs, cycle
        self.starts: list[int] = []  # wall stamp of each op's start
        self.wall: list[int] = []
        self.cpu: list[int] = []
        self.refs: list[tuple[int, int]] = []
        self.end = 0

    @property
    def ops(self) -> int:
        return len(self.cpu)

    def wall_s(self) -> float:
        return (self.end - self.starts[0]) / 1e9

    def windows(self) -> list[tuple[int, int]]:
        """WINDOWS consecutive [first, stop) op ranges of whole cycles."""
        cycles = np.array_split(np.arange(self.ops // self.cycle), WINDOWS)
        return [(g[0] * self.cycle, (g[-1] + 1) * self.cycle) for g in cycles if len(g)]

    def quoted(self) -> list[float]:
        """Each op's CPU time scaled by REFERENCE_NS over the mean of the
        reference samples taken within REFERENCE_REACH_NS of the op's middle,
        or over the first sample after it if none is that close."""
        stamps = np.array([stamp for stamp, _ in self.refs])
        samples = np.array([sample for _, sample in self.refs], dtype=float)
        sums = np.concatenate(([0.0], np.cumsum(samples)))
        middle = np.array(self.starts) + np.array(self.wall) / 2
        lo = np.searchsorted(stamps, middle - REFERENCE_REACH_NS, "left")
        hi = np.searchsorted(stamps, middle + REFERENCE_REACH_NS, "right")
        after = samples[np.minimum(np.searchsorted(stamps, middle), len(samples) - 1)]
        near = np.where(hi > lo, (sums[hi] - sums[lo]) / np.maximum(hi - lo, 1), after)
        return list(np.array(self.cpu) * (REFERENCE_NS / near))

    def window_ops_per_s(self, latencies) -> float:
        """Median over the windows of ops per second of op time; one slow
        stretch moves one window, not the result."""
        return median(
            (stop - first) / (sum(latencies[first:stop]) / 1e9) for first, stop in self.windows()
        )

    def input_latencies(self, latencies) -> list[float]:
        """Each input's median latency over its runs in the loop, in ns."""
        runs = [[] for _ in range(self.n_inputs)]
        for j, latency in enumerate(latencies):
            runs[j % self.n_inputs].append(latency)
        return [median(r) for r in runs if r]


def end_to_end(run: Run, loop: Loop, setup, peak_rss_mb, numbers) -> tuple[dict, dict]:
    quoted = loop.quoted()
    per_input = loop.input_latencies(quoted)
    value, pct, beyond = tail(per_input)
    cpu_input = loop.input_latencies(loop.cpu)
    wall_input = loop.input_latencies(loop.wall)
    setup_quoted, setup_cpu, setup_wall = setup
    metrics = {
        "throughput_ops_s": loop.window_ops_per_s(quoted),
        "latency_p50_ms": median(per_input) / 1e6,
        "latency_tail_ms": value / 1e6,
        "setup_s": setup_quoted,
        "peak_rss_mb": peak_rss_mb,
        "failed_ops_share": len(run.failures) / max(run.attempted, 1),
        "re_mean_pct": numbers.get("re_mean_pct"),
        "re_p95_pct": numbers.get("re_p95_pct"),
        "re_max_pct": numbers.get("re_max_pct"),
        "silent_wrong_share": numbers.get("silent_wrong_share"),
        "no_reading_share": numbers.get("no_reading_share"),
        "decode_err_max_px": numbers.get("decode_err_max_px"),
    }
    runs = loop.ops / loop.n_inputs
    notes = {
        "throughput_ops_s": (
            f"median of {WINDOWS} windows; CPU {loop.window_ops_per_s(loop.cpu):.6g}, "
            f"wall {loop.window_ops_per_s(loop.wall):.6g}, whole loop {loop.ops / loop.wall_s():.6g}"
        ),
        "latency_p50_ms": (
            f"over {len(per_input)} inputs, each the median of its runs ({runs:.1f} avg); "
            f"CPU {median(cpu_input) / 1e6:.6g}, wall {median(wall_input) / 1e6:.6g}"
        ),
        "latency_tail_ms": (
            f"p{pct:.2f} over {len(per_input)} inputs, {beyond} beyond; "
            f"CPU {tail(cpu_input)[0] / 1e6:.6g}, wall {tail(wall_input)[0] / 1e6:.6g}"
        ),
        "setup_s": (
            f"median of {run.repeats} processes; CPU {setup_cpu:.6g}, wall {setup_wall:.6g}"
        ),
    }
    return metrics, notes


def per_layer(stats, numbers, eval_ms, cli, overhead, workload) -> dict:
    """Per-layer metrics of one traced loop: name -> (value, unit)."""
    m = {}
    for function in ("parse_fixture", "serialize_report", "serialize_fixture"):
        name = f"fixtures.{function}"
        m[f"{name}.ms_p50"] = (stats.ms_p50(name), "ms")
        m[f"{name}.share"] = (stats.share(name), "share")
    m["fixtures.validations_per_op"] = (stats.calls_per_op("fixtures.validations"), "calls/op")
    m["fixtures.bytes_in_per_op"] = (numbers.get("bytes_in_per_op", 0.0), "B")
    m["fixtures.bytes_out_per_op"] = (numbers.get("bytes_out_per_op", 0.0), "B")
    for name in ("synthgauge.generate_scene", "synthgauge.perturb_scene"):
        m[f"{name}.ms_p50"] = (stats.ms_p50(name), "ms")
    m["synthgauge.share"] = (stats.module_share("synthgauge"), "share")

    apply = "geometry.AffineTransform.apply"
    m[f"{apply}.calls_per_op"] = (stats.calls_per_op(apply), "calls/op")
    m[f"{apply}.share"] = (stats.share(apply), "share")
    for name in ("geometry.parametric_angle", "geometry.radial_project_to_circle"):
        m[f"{name}.calls_per_op"] = (stats.calls_per_op(name), "calls/op")
    for name in ("geometry.fit_ellipse_direct", "geometry.odr_fit_line"):
        m[f"{name}.ms_p50"] = (stats.ms_p50(name), "ms")
        m[f"{name}.raised_per_op"] = (stats.raised_per_op(name), "calls/op")
    for name in ("geometry.circularize", "geometry.line_circle_intersections"):
        m[f"{name}.ms_p50"] = (stats.ms_p50(name), "ms")
    m["geometry.share"] = (stats.module_share("geometry"), "share")

    ransac = "scale_model.ransac_fit_linear"
    m[f"{ransac}.ms_p50"] = (stats.ms_p50(ransac), "ms")
    m[f"{ransac}.calls_per_op"] = (stats.calls_per_op(ransac), "calls/op")
    m[f"{ransac}.raised_per_op"] = (stats.raised_per_op(ransac), "calls/op")
    m["scale_model.inlier_share"] = (numbers.get("inlier_share", 0.0), "share")
    m["scale_model.parse_numeric_token.calls_per_op"] = (
        stats.calls_per_op("scale_model.parse_numeric_token"),
        "calls/op",
    )
    m["scale_model.extract_unit.ms_p50"] = (stats.ms_p50("scale_model.extract_unit"), "ms")
    m["scale_model.share"] = (stats.module_share("scale_model"), "share")

    m["pipeline.read_gauge.ms_p50"] = (stats.ms_p50("pipeline.read_gauge"), "ms")
    m["pipeline.read_gauge.self_share"] = (stats.self_share("pipeline.read_gauge"), "share")
    failed = numbers.get("stage_failed", {})
    for stage in ("ellipse", "notches", "needle", "ocr"):
        m[f"pipeline.stage_failed.{stage}"] = (failed.get(stage, 0.0), "share")
    m["pipeline.evaluate_batch.ms_per_fixture"] = (eval_ms, "ms")

    meanshift = "keypoints.extract_keypoints_meanshift"
    support = numbers.get("support_px", {})
    sigmas = getattr(workload, "sigmas", ())
    for sigma in HEATMAP_SIGMAS:
        label = f"sigma{sigma:g}"
        op_ids = [j for j in stats.op_durations if sigmas and sigmas[j % len(sigmas)] == sigma]
        m[f"{meanshift}.ms_p50.{label}"] = (stats.ms_p50(meanshift, op_ids), "ms")
        pixels = support.get(sigma, 0.0)
        m[f"keypoints.support_px.{label}"] = (pixels, "px")
        m[f"keypoints.pair_bytes_per_iter.{label}"] = (pixels * pixels * 16.0, "B_computed")

    for name, value in cli.items():
        m[f"cli.{name}"] = (value, "s")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def traced(run: Run, untraced_op_ns: float, numbers: dict):
    """Repeat the loop under the tracer and derive the per-layer metrics."""
    import tracing

    workload = run.workload
    tracer = tracing.Tracer()
    with tracer:
        traced_loop = run.loop(lambda j, item: tracer.call_op(j, workload.op, item))
    stats = tracer.layer_stats()
    overhead = untraced_op_ns / mean(traced_loop.quoted())

    problems = []
    eval_ms = 0.0
    reached = {name for name in tracing.ALL_LAYERS if stats.calls(name)}
    if isinstance(workload.inputs[0], bytes):  # scenes and fuzz: fixtures with truth
        parsed = (fixtures.parse_fixture(data) for data in workload.inputs)
        batch = [f for f in parsed if f.ground_truth is not None][:EVAL_BATCH]
        batch_tracer = tracing.Tracer()
        with batch_tracer:
            summary = pipeline.evaluate_batch(batch)
        eval_ms = batch_tracer.layer_stats().ms_p50("pipeline.evaluate_batch") / len(batch)
        reached.add("pipeline.evaluate_batch")
        if isinstance(workload, Scenes):
            own = workload.report([first[0] for first in run.first[:EVAL_BATCH]])["re_mean_pct"]
            if summary.full_re_mean != own:
                problems.append(f"evaluate_batch full_re_mean {summary.full_re_mean} != {own}")

    # The `gaugekit read` CLI on the first scenes fixture, whatever the workload.
    scene, _ = build_scene(*sample_scenes(run.seed, 1)[0])
    report, data = Scenes.op(scene)
    cli = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        path = Path(tmp) / "scene.json"
        path.write_bytes(scene)
        cli["interpreter_s"] = run.timed_spawns(["-c", "pass"])[0]
        cli["import_s"] = run.timed_spawns(["-c", "import gaugekit"])[0]
        cli["read_one_s"] = run.timed_spawns(
            ["-m", "gaugekit", "read", str(path)], data + b"\n", 0 if report.readings else 1
        )[0]
    problems += [
        f"traced run never reached {layer}"
        for layer in workload.expected_layers
        if layer not in reached
    ]
    layers = per_layer(stats, numbers, eval_ms, cli, overhead, workload)
    return layers, problems, [name for name in tracing.ALL_LAYERS if name not in reached]


def machine_facts() -> str:
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"os.cpu_count {os.cpu_count()}, BLAS threads {BLAS_THREADS} "
        f"(OPENBLAS/OMP/MKL_NUM_THREADS), {platform.machine()}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of each timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="tiny input sets and one set-up repeat (smoke test)"
    )
    args = parser.parse_args(argv)

    setup_start = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, args.quick)
    run = Run(workload, args.seed, args.seconds, args.quick)
    print(f"workload {workload.name}")
    print(f"seed {args.seed}, {len(workload.inputs)} distinct inputs, built in "
          f"{time.perf_counter() - setup_start:.2f} s; closed loop, 1 client, 1 thread")
    print(f"machine: {machine_facts()}")

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        probe_argv, expected, code = workload.probe(Path(tmp))
        setup = run.timed_spawns(probe_argv, expected, code)

    run.warm_up()
    loop = run.loop(run.plain_call)
    run.complete()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    numbers = workload.report([first[0] for first in run.first])
    e2e, notes = end_to_end(run, loop, setup, peak_rss_mb, numbers)

    problems = []
    if args.trace:
        layers, problems, unreached = traced(run, mean(loop.quoted()), numbers)
        e2e["failed_ops_share"] = len(run.failures) / max(run.attempted, 1)

    print(f"\nend-to-end (untraced loop of {loop.wall_s():.1f} s, {loop.ops} ops):")
    for name, unit in END_TO_END:
        value = e2e[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        gate = "gated" if name in GATED else ""
        print(f"  {name:<20} {shown:>12} {unit:<6} {gate:<5} {notes.get(name, '')}")
    if numbers.get("worst"):
        print("\nworst 10 scenes by relative error (input index, error, stages, perturbation):")
        for line in numbers["worst"]:
            print(f"  {line}")

    if args.trace:
        print(f"\nper-layer (traced loop, same length rule as the untraced one):")
        for name, (value, unit) in layers.items():
            print(f"  {name:<55} {value:>14.6g} {unit}")
        print(f"  wrapped layers with no call on this workload: {', '.join(unreached) or 'none'}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END if name in GATED
        }
    for problem in problems:
        print(f"CHECK FAILED workload={workload.name} seed={args.seed}: {problem}")

    result = {
        "correct": not run.failures and not problems,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
