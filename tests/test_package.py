"""The package namespace: every public name resolves as it did when the
package imported its modules eagerly, and a process loads only the
submodules its entry point uses."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaugekit
from conftest import make_scene_spec
from gaugekit.fixtures import serialize_fixture
from gaugekit.synthgauge import generate_scene, scene_spec_to_jsonable

# Every submodule and name `gaugekit` exported when it imported all its
# modules eagerly.
EXPORTS = {
    "errors": (),
    "fixtures": (
        "GaugeFixture", "GaugeReadingReport", "GroundTruth", "KeypointClass", "MarkerUse",
        "Reading", "ScaleSide", "Stage", "StageStatus", "parse_fixture", "serialize_fixture",
        "serialize_report",
    ),
    "geometry": (
        "AffineTransform", "Ellipse", "Line", "circularize", "fit_ellipse_direct",
        "line_circle_intersections", "needle_tip", "normalize_angle", "odr_fit_line",
        "parametric_angle", "radial_project_to_circle",
    ),
    "keypoints": ("Heatmap", "extract_keypoints_meanshift", "render_gaussian_heatmap"),
    "pipeline": (
        "EvalSummary", "PipelineConfig", "compute_relative_error", "evaluate_batch",
        "matched_reading", "read_gauge", "serialize_summary",
    ),
    "scale_model": (
        "DEFAULT_UNIT_LEXICON", "LinearScaleModel", "default_inlier_threshold", "extract_unit",
        "least_squares_fit_linear", "load_unit_lexicon", "parse_numeric_token",
        "ransac_fit_linear", "wrap_around_angle",
    ),
    "synthgauge": (
        "PerturbationSpec", "SceneSpec", "SecondScale", "generate_scene",
        "parse_perturbation_spec", "parse_scene_spec", "perturb_scene", "sample_affine",
        "sample_scene_spec",
    ),
}
PUBLIC = {name for module, names in EXPORTS.items() for name in (module, *names)}


def run_python(*args):
    """A fresh interpreter with the package under test first on its path."""
    src = str(Path(gaugekit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def loaded_by(code):
    """numpy and the gaugekit submodules that `code` loads in a fresh
    interpreter, printed on its last line of output."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "new = set(sys.modules) - before\n"
        "print(*sorted(m for m in new if m == 'numpy' or m.startswith('gaugekit.')))\n"
    )
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_exported_name_is_its_modules_object(module):
    source = importlib.import_module(f"gaugekit.{module}")
    assert getattr(gaugekit, module) is source
    for name in EXPORTS[module]:
        assert getattr(gaugekit, name) is getattr(source, name), name


def test_dir_and_star_import_list_every_public_name():
    # In a fresh interpreter, before any name has been looked up.
    code = (
        "import gaugekit\n"
        "listed = dir(gaugekit)\n"
        "namespace = {}\n"
        "exec('from gaugekit import *', namespace)\n"
        "print(' '.join(listed))\n"
        "print(' '.join(name for name in namespace if not name.startswith('_')))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    listed, starred = (set(line.split()) for line in proc.stdout.splitlines())
    assert PUBLIC | {"__version__"} <= listed
    assert starred == PUBLIC


def test_version_and_an_unknown_name():
    assert gaugekit.__version__ == "0.1.0"
    assert not hasattr(gaugekit, "no_such_name")
    with pytest.raises(AttributeError, match=r"^module 'gaugekit' has no attribute 'no_such_name'$"):
        gaugekit.no_such_name
    with pytest.raises(ImportError):
        exec("from gaugekit import no_such_name", {})


def test_import_loads_neither_numpy_nor_a_submodule():
    assert loaded_by("import gaugekit") == set()


def test_cli_read_loads_neither_the_generator_nor_the_decoder(tmp_path):
    fixture, _ = generate_scene(make_scene_spec())
    path = tmp_path / "scene.json"
    path.write_bytes(serialize_fixture(fixture))
    loaded = loaded_by(run_module_code("read", str(path)))
    assert {"gaugekit.cli", "gaugekit.pipeline", "gaugekit.scale_model"} <= loaded
    assert not loaded & {"gaugekit.synthgauge", "gaugekit.keypoints"}


def run_module_code(*argv):
    """Code that runs `python -m gaugekit <argv>` as -m runs it and expects
    exit 0."""
    return (
        "import runpy\n"
        f"sys.argv = ['gaugekit', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('gaugekit', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 0, stop.code"
    )


def test_cli_generate_loads_neither_the_pipeline_nor_the_decoder(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(scene_spec_to_jsonable(make_scene_spec())), encoding="utf-8")
    loaded = loaded_by(run_module_code("generate", str(spec), "--out-dir", str(tmp_path / "out")))
    assert (tmp_path / "out" / "scene_000.json").is_file()
    assert {"gaugekit.cli", "gaugekit.synthgauge", "gaugekit.fixtures"} <= loaded
    assert not loaded & {"gaugekit.pipeline", "gaugekit.keypoints"}


def test_heatmap_decoding_loads_only_geometry_and_keypoints():
    loaded = loaded_by(
        "from gaugekit import keypoints\n"
        "heatmap = keypoints.render_gaussian_heatmap((64, 48), [(20.0, 30.0)], sigma=4.0)\n"
        "assert len(keypoints.extract_keypoints_meanshift(heatmap, 6.0)) == 1"
    )
    assert loaded - {"numpy"} == {"gaugekit.errors", "gaugekit.geometry", "gaugekit.keypoints"}
