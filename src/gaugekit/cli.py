"""Command-line front end: read fixtures, evaluate batches, generate scenes.

Thin shell over the library; reports go to stdout as JSON (one document per
line), diagnostics to stderr. Exit codes: 0 success, 1 reading failure on at
least one input, 2 usage or I/O error, 3 bad input (SchemaError).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import GaugeKitError, SchemaError
from .fixtures import SCHEMA_VERSION, as_list, as_object, dump_json, load_json, parse_fixture
from .fixtures import serialize_fixture, serialize_report

EXIT_OK = 0
EXIT_READING_FAILURE = 1
EXIT_IO = 2
EXIT_SCHEMA = 3


def _fail(code: int, message: str) -> int:
    print(f"gaugekit: {message}", file=sys.stderr)
    return code


class _Exit(Exception):
    """Ends the command: args are the exit code and the message for stderr."""


def _read(path, reader):
    """reader(path), the one way an input file is read. An OSError ends the
    command with exit 2 as "cannot read <file>: <error>", a SchemaError
    with exit 3 as "<file>: <error>"."""
    try:
        return reader(path)
    except OSError as exc:
        raise _Exit(EXIT_IO, f"cannot read {path}: {exc}") from None
    except SchemaError as exc:
        raise _Exit(EXIT_SCHEMA, f"{path}: {exc}") from None


def _fixture(path):
    return parse_fixture(Path(path).read_bytes())


def _json_object(path) -> dict:
    return as_object(load_json(Path(path).read_bytes()), "$")


def _manifest_paths(path) -> list[str]:
    """The fixture paths a manifest lists, as given in its "fixtures" array."""
    paths = as_list(_json_object(path).get("fixtures"), "fixtures")
    for k, rel in enumerate(paths):
        if not isinstance(rel, str) or "\0" in rel:
            raise SchemaError(f"fixtures[{k}]", "expected a file path string")
    return paths


def _cmd_read(args, cfg) -> int:
    from .pipeline import read_gauge

    any_reading_failure = False
    for path in args.paths:
        report = read_gauge(_read(path, _fixture), cfg)
        if not report.readings:
            any_reading_failure = True
        if args.table:
            readings = (
                ", ".join(f"{r.scale.value}={r.value:.6g}" for r in report.readings) or "-"
            )
            stages = "; ".join(
                f"{stage.value}:{'ok' if st.ok else st.reason}"
                for stage, st in report.stage_statuses.items()
            )
            print(f"{path}\t{readings}\t{report.unit or '-'}\t{stages}")
        else:
            sys.stdout.buffer.write(serialize_report(report) + b"\n")
    return EXIT_READING_FAILURE if any_reading_failure else EXIT_OK


def _cmd_eval(args, cfg) -> int:
    from .pipeline import evaluate_batch, serialize_summary

    folder = Path(args.manifest).parent
    paths = _read(args.manifest, _manifest_paths)
    fixtures = [_read(folder / rel, _fixture) for rel in paths]
    try:
        summary = evaluate_batch(fixtures, cfg)
    except SchemaError as exc:
        return _fail(EXIT_SCHEMA, f"{args.manifest}: {exc}")

    payload = serialize_summary(summary)
    if args.out:
        try:
            Path(args.out).write_bytes(payload + b"\n")
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write {args.out}: {exc}")
        print(args.out)
    else:
        sys.stdout.buffer.write(payload + b"\n")
    print(summary.to_table(), file=sys.stderr)
    return EXIT_OK


def _scene_pairs(path) -> list[tuple[str, dict, dict | None]]:
    """(error prefix, spec, perturbation or None) for each scene of the
    scene source at `path`."""
    doc = _json_object(path)
    if "scenes" in doc:
        scenes = as_list(doc["scenes"], "scenes")
        entries = [as_object(entry, f"scenes[{k}]") for k, entry in enumerate(scenes)]
        return [
            (f"scenes[{k}]: ", entry.get("spec", entry), entry.get("perturbation"))
            for k, entry in enumerate(entries)
        ]
    if "spec" in doc:
        return [("", doc["spec"], doc.get("perturbation"))]
    return [("", doc, None)]


def _cmd_generate(args) -> int:
    # Imported here so that `read` and `eval` never load the generator.
    from .synthgauge import generate_scene, parse_perturbation_spec, parse_scene_spec, perturb_scene

    # Build every fixture before writing any file, so a bad entry leaves
    # no partial output behind.
    fixtures = []
    for index, (where, spec_doc, pert_doc) in enumerate(_read(args.source, _scene_pairs)):
        try:
            fixture, truth = generate_scene(parse_scene_spec(spec_doc))
            if pert_doc is not None:
                if args.seed is not None:  # checked with the rest of the perturbation
                    pert_doc = {**as_object(pert_doc, "perturbation"), "seed": args.seed + index}
                fixture = perturb_scene(fixture, truth, parse_perturbation_spec(pert_doc))
        except SchemaError as exc:
            return _fail(EXIT_SCHEMA, f"{args.source}: {where}{exc}")
        fixtures.append(fixture)

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot create {out_dir}: {exc}")
    try:
        names = []
        for index, fixture in enumerate(fixtures):
            name = f"scene_{index:03d}.json"
            (out_dir / name).write_bytes(serialize_fixture(fixture) + b"\n")
            names.append(name)
            print(out_dir / name)
        manifest = {"schema": SCHEMA_VERSION, "fixtures": names}
        (out_dir / "manifest.json").write_bytes(dump_json(manifest) + b"\n")
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugekit", description="Analog gauge reading from detection fixtures."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_read = sub.add_parser("read", help="read gauge fixtures and print reports")
    p_read.add_argument("paths", nargs="+", help="fixture JSON files")
    p_read.add_argument("--config", help="pipeline config JSON")
    p_read.add_argument(
        "--table", action="store_true", help="human-readable table instead of JSON"
    )

    p_eval = sub.add_parser("eval", help="evaluate a manifest of fixtures with ground truth")
    p_eval.add_argument("manifest", help="JSON manifest with a 'fixtures' array")
    p_eval.add_argument("--config", help="pipeline config JSON")
    p_eval.add_argument("--out", help="write the summary JSON here instead of stdout")

    p_gen = sub.add_parser("generate", help="generate fixture files from scene specs")
    p_gen.add_argument("source", help="scene spec or manifest JSON")
    p_gen.add_argument(
        "--seed", type=int, default=None, help="override perturbation seeds as seed+index"
    )
    p_gen.add_argument("--out-dir", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        # Imported here and in the read and eval commands, so that
        # `generate` never loads the pipeline.
        from .pipeline import PipelineConfig

        cfg = PipelineConfig()
        if args.config is not None:
            cfg = _read(args.config, PipelineConfig.from_file)
        return (_cmd_read if args.command == "read" else _cmd_eval)(args, cfg)
    except _Exit as stop:
        return _fail(*stop.args)
    except GaugeKitError as exc:  # pragma: no cover - safety net
        return _fail(EXIT_SCHEMA, str(exc))


if __name__ == "__main__":
    sys.exit(main())
