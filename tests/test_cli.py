"""Command-line surface: exit codes, determinism, and that the CLI is a
thin shell over the library (outputs diffed against direct library calls)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaugekit
from conftest import make_scene_spec
from gaugekit.fixtures import parse_fixture, serialize_fixture, serialize_report
from gaugekit.pipeline import evaluate_batch, read_gauge, serialize_summary
from gaugekit.synthgauge import generate_scene, scene_spec_to_jsonable


def run_cli(*args, cwd=None):
    # The package's own folder goes first on the path, so any working
    # directory runs the gaugekit under test.
    src = str(Path(gaugekit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gaugekit", *args],
        capture_output=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture()
def scene_file(tmp_path):
    fixture, _ = generate_scene(make_scene_spec())
    path = tmp_path / "scene.json"
    path.write_bytes(serialize_fixture(fixture))
    return path


def test_read_valid_fixture_exit_zero(scene_file):
    proc = run_cli("read", str(scene_file))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["readings"]
    assert doc["unit"] == "bar"


def test_read_output_matches_library(scene_file):
    proc = run_cli("read", str(scene_file))
    expected = serialize_report(read_gauge(parse_fixture(scene_file.read_bytes())))
    assert proc.stdout == expected + b"\n"


def test_read_table_output(scene_file):
    proc = run_cli("read", "--table", str(scene_file))
    assert proc.returncode == 0
    line = proc.stdout.decode()
    assert "inner=" in line and "bar" in line and "ellipse:ok" in line
    # The table lists the stages in the order of the JSON report.
    report = json.loads(run_cli("read", str(scene_file)).stdout)
    stages = line.rstrip("\n").split("\t")[3].split("; ")
    assert [entry.split(":")[0] for entry in stages] == list(report["stage_statuses"])


def test_read_failing_fixture_exit_one(tmp_path):
    fixture, _ = generate_scene(make_scene_spec())
    doc = json.loads(serialize_fixture(fixture))
    doc["keypoints"] = doc["keypoints"][:4]
    path = tmp_path / "fail.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_cli("read", str(path))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["stage_statuses"]["ellipse"]["reason"] == "insufficient_notches"


def test_read_missing_file_exit_two(tmp_path):
    proc = run_cli("read", str(tmp_path / "nope.json"))
    assert proc.returncode == 2
    assert b"gaugekit:" in proc.stderr


def test_read_malformed_fixture_exit_three(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert run_cli("read", str(path)).returncode == 3
    path.write_text('{"schema": 2}', encoding="utf-8")
    assert run_cli("read", str(path)).returncode == 3
    # A value equal to 1 that is not the JSON integer 1 is no schema version.
    path.write_text('{"schema": true, "keypoints": []}', encoding="utf-8")
    proc = run_cli("read", str(path))
    assert proc.returncode == 3 and proc.stdout == b""
    assert b"schema: expected schema version 1" in proc.stderr
    path.write_text('{"schema": 1, "crop_size": [1%s, 448]}' % ("0" * 400), encoding="utf-8")
    proc = run_cli("read", str(path))
    assert proc.returncode == 3
    assert b"crop_size" in proc.stderr and b"Traceback" not in proc.stderr


def test_malformed_json_reads_alike_for_every_input(tmp_path, scene_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    for argv in (
        ["read", str(bad)],
        ["eval", str(bad)],
        ["generate", str(bad), "--out-dir", str(tmp_path / "x")],
        ["read", str(scene_file), "--config", str(bad)],
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 3
        assert f"gaugekit: {bad}: $: not valid JSON: ".encode() in proc.stderr


def test_unreadable_file_reads_alike_for_every_input(tmp_path, scene_file):
    missing = tmp_path / "missing.json"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"schema": 1, "fixtures": [missing.name]}), encoding="utf-8")
    for argv, named in (
        (["read", str(missing)], missing),
        (["eval", str(missing)], missing),
        (["eval", str(manifest)], missing),  # a fixture the manifest lists
        (["generate", str(missing), "--out-dir", str(tmp_path / "x")], missing),
        (["read", str(scene_file), "--config", str(missing)], missing),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 2 and proc.stdout == b""
        assert proc.stderr.startswith(f"gaugekit: cannot read {named}: [Errno 2] ".encode())


def _config_row(config, code, message, name=None):
    """A bad-config row; unless `name` is given, its id is the one
    `config, code` alone would give."""
    return pytest.param(config, code, message, id=name or f"{config}-{code}")


@pytest.mark.parametrize(
    "config, code, message",
    [
        _config_row("{not json", 3, b"cfg.json: $: not valid JSON: "),
        _config_row("[1]", 3, b"config: expected an object, got list"),
        _config_row(
            '{"ransac": {"enabled": "false"}}', 3, b"ransac: enabled must be true or false"
        ),
        _config_row(
            '{"ransac": {"threshold_fraction": 0}}',
            3,
            b"ransac: threshold_fraction must be a finite number > 0",
        ),
        _config_row(
            '{"ransac": {"threshold_fraction": 1%s}}' % ("0" * 400),
            3,
            b"ransac: threshold_fraction must be a finite number > 0",
            name="threshold-beyond-floats",
        ),
        # %s becomes a path with no file behind it.
        _config_row('{"unit_lexicon_path": "%s"}', 2, b"cfg.json: [Errno 2]"),
        _config_row(None, 2, b"cfg.json: [Errno 2]"),  # no config file
    ],
)
@pytest.mark.parametrize("command", ["read", "eval"])
def test_bad_config_exits_before_any_input(tmp_path, scene_file, command, config, code, message):
    cfg = tmp_path / "cfg.json"
    if config is not None:
        cfg.write_text(config.replace("%s", (tmp_path / "units.txt").as_posix()), encoding="utf-8")
    source = scene_file
    if command == "eval":
        source = tmp_path / "manifest.json"
        source.write_text(json.dumps({"schema": 1, "fixtures": [scene_file.name]}))
    proc = run_cli(command, str(source), "--config", str(cfg))
    assert proc.returncode == code
    assert proc.stdout == b""
    assert message in proc.stderr and b"Traceback" not in proc.stderr
    # The message names the config as given; its error names the missing
    # file, the config or the lexicon it points to.
    if code == 2:
        assert proc.stderr.startswith(f"gaugekit: cannot read {cfg}: ".encode())
        assert (b"cfg.json" if config is None else b"units.txt") in proc.stderr


def test_old_config_with_meanshift_key_still_loads(tmp_path, scene_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"meanshift": {"bandwidth_fraction": 0.05}}', encoding="utf-8")
    proc = run_cli("read", str(scene_file), "--config", str(cfg))
    assert proc.returncode == 0
    assert proc.stdout == serialize_report(read_gauge(parse_fixture(scene_file.read_bytes()))) + b"\n"


def test_relative_unit_lexicon_path_is_beside_the_config(tmp_path):
    # Run from the config's parent folder and from the config's own folder:
    # either way "units.txt" is the file beside the config.
    folder = tmp_path / "sub"
    folder.mkdir()
    fixture, _ = generate_scene(make_scene_spec(unit="kn"))  # not a built-in unit
    (folder / "f.json").write_bytes(serialize_fixture(fixture))
    (folder / "units.txt").write_text("kn\n", encoding="utf-8")
    (folder / "cfg.json").write_text('{"unit_lexicon_path": "units.txt"}', encoding="utf-8")
    for cwd, prefix in ((tmp_path, "sub/"), (folder, "")):
        proc = run_cli("read", prefix + "f.json", "--config", prefix + "cfg.json", cwd=cwd)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["unit"] == "kn"


def test_unit_lexicon_with_a_bom_keeps_its_first_unit(tmp_path, scene_file):
    (tmp_path / "units.txt").write_bytes("bar\npsi\n".encode("utf-8-sig"))
    (tmp_path / "cfg.json").write_text('{"unit_lexicon_path": "units.txt"}', encoding="utf-8")
    proc = run_cli("read", str(scene_file), "--config", str(tmp_path / "cfg.json"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["unit"] == "bar"


def _write_generation_manifest(tmp_path, n=4, perturb=True):
    scenes = []
    for k in range(n):
        spec = make_scene_spec(needle_value=1.0 + 2.0 * k)
        entry = {"spec": scene_spec_to_jsonable(spec)}
        if perturb:
            entry["perturbation"] = {
                "keypoint_noise_sigma": 0.5,
                "n_outlier_ocr": 1,
                "seed": k,
            }
        scenes.append(entry)
    path = tmp_path / "scenes.json"
    path.write_text(json.dumps({"scenes": scenes}), encoding="utf-8")
    return path


def test_generate_single_spec_then_read(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(scene_spec_to_jsonable(make_scene_spec())))
    out_dir = tmp_path / "out"
    proc = run_cli("generate", str(spec_path), "--out-dir", str(out_dir))
    assert proc.returncode == 0
    fixture_path = out_dir / "scene_000.json"
    assert fixture_path.exists()
    assert str(fixture_path) in proc.stdout.decode()
    assert run_cli("read", str(fixture_path)).returncode == 0


def test_generate_manifest_writes_all_files(tmp_path):
    manifest = _write_generation_manifest(tmp_path, n=5)
    out_dir = tmp_path / "batch"
    assert run_cli("generate", str(manifest), "--out-dir", str(out_dir)).returncode == 0
    files = sorted(p.name for p in out_dir.glob("scene_*.json"))
    assert files == [f"scene_{k:03d}.json" for k in range(5)]
    listed = json.loads((out_dir / "manifest.json").read_text())
    assert listed["fixtures"] == files


def test_generate_same_seed_is_byte_identical(tmp_path):
    manifest = _write_generation_manifest(tmp_path, n=3)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        proc = run_cli("generate", str(manifest), "--seed", "7", "--out-dir", str(out))
        assert proc.returncode == 0
    for name in ("scene_000.json", "scene_001.json", "scene_002.json", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_generate_output_matches_library(tmp_path):
    spec = make_scene_spec(needle_value=7.25)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(scene_spec_to_jsonable(spec)))
    out_dir = tmp_path / "out"
    run_cli("generate", str(spec_path), "--out-dir", str(out_dir))
    expected = serialize_fixture(generate_scene(spec)[0]) + b"\n"
    assert (out_dir / "scene_000.json").read_bytes() == expected


def test_generate_bad_spec_exit_three(tmp_path):
    spec = scene_spec_to_jsonable(make_scene_spec())
    spec["n_major_notches"] = 3
    path = tmp_path / "bad_spec.json"
    path.write_text(json.dumps(spec))
    assert run_cli("generate", str(path), "--out-dir", str(tmp_path / "x")).returncode == 3


_SPEC = scene_spec_to_jsonable(make_scene_spec())


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"scenes": [1]}, b"scenes[0]"),
        ({"scenes": [{"spec": _SPEC}, "x"]}, b"scenes[1]"),
        ({"spec": _SPEC, "perturbation": {"seed": -1}}, b"seed"),
        ({"spec": _SPEC, "perturbation": {"seed": 2.7}}, b"seed"),
        ({**_SPEC, "crop_size": [447.5, 448]}, b"crop_size"),
        ({**_SPEC, "range": {"min": 0, "max": math.inf}}, b"range_max must be finite"),
        ({**_SPEC, "marker_radius_factor": 1e308}, b"marker_radius_factor places a marker"),
        (
            {
                "spec": _SPEC,
                "perturbation": {
                    "affine": {"linear": [[1, 0], [0, 1]], "translation": [math.inf, 0]}
                },
            },
            b"affine translation must be finite",
        ),
        ({**_SPEC, "range": {**_SPEC["range"], "unit": None}}, b"unit must be a string"),
        ({**_SPEC, "range": {**_SPEC["range"], "unit": 5}}, b"unit must be a string"),
        # Raw bytes are written as they are.
        pytest.param(
            b'\xff\xfe{"spec": {}}',
            b"bad.json: $: not valid UTF-8: 'utf-8' codec can't decode byte 0xff",
            id="not-utf8",
        ),
        pytest.param(b"[1]", b"bad.json: $: expected an object, got list", id="not-an-object"),
        # A spec or perturbation given as JSON text is not decoded a second time.
        ({"scenes": [{"spec": "x"}]}, b"scenes[0]: spec: expected an object, got str"),
        ({"spec": json.dumps(_SPEC)}, b"spec: expected an object, got str"),
        ({"spec": _SPEC, "perturbation": "{}"}, b"perturbation: expected an object"),
    ],
)
def test_generate_bad_document_exit_three_without_traceback(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode("utf-8"))
    proc = run_cli("generate", str(path), "--out-dir", str(tmp_path / "x"))
    assert proc.returncode == 3
    assert message in proc.stderr and b"Traceback" not in proc.stderr


def test_generate_bad_later_entry_writes_nothing(tmp_path):
    bad = dict(_SPEC, n_major_notches=3)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"scenes": [{"spec": _SPEC}, {"spec": bad}]}))
    out_dir = tmp_path / "x"
    proc = run_cli("generate", str(path), "--out-dir", str(out_dir))
    assert proc.returncode == 3
    assert b"scenes[1]: spec: a scale needs at least 5 major notches" in proc.stderr
    assert not (out_dir / "scene_000.json").exists()
    assert not (out_dir / "manifest.json").exists()


def test_generate_negative_seed_exit_three(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"spec": _SPEC, "perturbation": {}}))
    proc = run_cli("generate", str(path), "--seed", "-3", "--out-dir", str(tmp_path / "x"))
    assert proc.returncode == 3
    assert b"perturbation: seed must be an integer >= 0" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_eval_manifest_matches_library(tmp_path):
    manifest = _write_generation_manifest(tmp_path, n=4, perturb=False)
    out_dir = tmp_path / "fixtures"
    run_cli("generate", str(manifest), "--out-dir", str(out_dir))
    proc = run_cli("eval", str(out_dir / "manifest.json"))
    assert proc.returncode == 0
    fixtures = [
        parse_fixture((out_dir / f"scene_{k:03d}.json").read_bytes()) for k in range(4)
    ]
    assert proc.stdout == serialize_summary(evaluate_batch(fixtures)) + b"\n"
    assert b"full RE mean" in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["n_fixtures"] == 4
    assert doc["full_re_mean_percent"] < 0.1


def test_eval_out_file(tmp_path):
    manifest = _write_generation_manifest(tmp_path, n=2, perturb=False)
    out_dir = tmp_path / "fx"
    run_cli("generate", str(manifest), "--out-dir", str(out_dir))
    summary_path = tmp_path / "summary.json"
    proc = run_cli("eval", str(out_dir / "manifest.json"), "--out", str(summary_path))
    assert proc.returncode == 0
    assert proc.stdout.decode().strip() == str(summary_path)
    assert json.loads(summary_path.read_text())["n_fixtures"] == 2


def test_eval_missing_ground_truth_exit_three(tmp_path):
    fixture, _ = generate_scene(make_scene_spec())
    doc = json.loads(serialize_fixture(fixture))
    del doc["ground_truth"]
    (tmp_path / "fx.json").write_text(json.dumps(doc))
    (tmp_path / "man.json").write_text(json.dumps({"schema": 1, "fixtures": ["fx.json"]}))
    proc = run_cli("eval", str(tmp_path / "man.json"))
    assert proc.returncode == 3
    assert b"man.json: fixtures[0].ground_truth: required for evaluation" in proc.stderr
    for manifest, message in (
        ("[1]", b"man.json: $: expected an object, got list"),
        ('{"fixtures": 3}', b"man.json: fixtures: expected an array, got int"),
        ("{}", b"man.json: fixtures: expected an array, got NoneType"),
    ):
        (tmp_path / "man.json").write_text(manifest)
        proc = run_cli("eval", str(tmp_path / "man.json"))
        assert proc.returncode == 3 and b"Traceback" not in proc.stderr
        assert message in proc.stderr
    # A non-string entry is named before any fixture, even a missing one, is read.
    for entry in (5, None, ["fx.json"], {"path": "fx.json"}, "fx\0.json"):
        (tmp_path / "man.json").write_text(json.dumps({"fixtures": ["missing.json", entry]}))
        proc = run_cli("eval", str(tmp_path / "man.json"))
        assert proc.returncode == 3 and b"fixtures[1]" in proc.stderr
        assert b"Traceback" not in proc.stderr


def test_eval_is_deterministic(tmp_path):
    manifest = _write_generation_manifest(tmp_path, n=3)
    out_dir = tmp_path / "fx"
    run_cli("generate", str(manifest), "--out-dir", str(out_dir))
    a = run_cli("eval", str(out_dir / "manifest.json"))
    b = run_cli("eval", str(out_dir / "manifest.json"))
    assert a.stdout == b.stdout


def test_usage_error_exit_two():
    assert run_cli().returncode == 2
    assert run_cli("read").returncode == 2
