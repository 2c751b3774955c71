"""Command line front end.

    ghostsim run CONFIG.json [--out DIR]
    ghostsim preset NAME [--out DIR]
    ghostsim sweep CONFIG.json --axis AXIS --values V1,V2,... [--out DIR]
    ghostsim export-mask NAME OUT.pgm [--width W] [--height H]

Exit codes: 0 success, 2 configuration error, 3 contract/degenerate-input error, 4 I/O or file format error. main runs
each command with numpy's overflow and invalid warnings off, so a non-finite image is one error: exit 3, or a sweep row's.
Outputs are bytewise deterministic: no timestamps, stable key order, full float precision.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import build_scenario, load_config, parse_config_text
from .errors import ConfigurationError, DegenerateInputError, GhostsimError, PgmFormatError
from .measurement import write_curve_csv
# unused here; perfbench/spans.py patches these names in this module
from .measurement import clean_bucket_series, column_curve, save_series, simulate  # noqa: F401
from .metrics import pearson, quality_report
from .presets import PRESET_NAMES, preset_config
from .reconstruct import BlockRun, ValidityReport, block_pass, pass_key, run_blocks, save_f64, save_recon_pgm, validity_diagnostic
from .reconstruct import gi_reconstruct, igi_reconstruct  # noqa: F401  patched by name, as above
from .scene import builtin_mask, save_mask

SWEEP_AXES = ("noise-amplitude", "noise-frequency", "N")


def _judge(run: BlockRun) -> ValidityReport:
    """Validity against the clean bucket S0 of the run's pass; a non-finite GI or IGI pixel is a DegenerateInputError."""
    validity = validity_diagnostic(run.s0, run.scenario.noise.waveform, coupling=run.scenario.bucket_coupling)
    for name, image in (("GI", run.gi), ("IGI", run.igi)):
        if not np.isfinite(image).all():
            raise DegenerateInputError(f"the {name} image has non-finite pixels; the measurement exceeds float64 range")
    return validity


def evaluate(cfg: dict, out_dir: Path | None = None) -> tuple[BlockRun, ValidityReport]:
    """Run a validated config through run_blocks and judge it: the run and its validity report.

    With out_dir, emit_curves keeps the quarter and three-quarter column curves and emit_frames writes
    out_dir/series.gsim; nothing else is written.
    """
    output, width = cfg["output"], cfg["speckle"]["width"]
    columns = (width // 4, (3 * width) // 4) if out_dir and output["emit_curves"] else ()
    gsim = out_dir / "series.gsim" if out_dir and output["emit_frames"] else None
    run = run_blocks(*build_scenario(cfg), output["igi_normalization"], columns, gsim)
    return run, _judge(run)


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def run_scenario(cfg: dict, out_dir: Path) -> dict:
    """Judge the run (evaluate, then the GI and IGI quality reports) inside one guard, then write its artifacts.

    A run that fails before its artifacts are written removes its series.gsim and every directory it created.
    """
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        run, validity = evaluate(cfg, out_dir)
        images = {"gi": run.gi, "igi": run.igi}
        reports = {name: quality_report(image, run.scenario.object_mask) for name, image in images.items()}
    except BaseException:
        if cfg["output"]["emit_frames"]:
            (out_dir / "series.gsim").unlink(missing_ok=True)
        for d in created:
            d.rmdir()
        raise

    for name, image in images.items():
        save_f64(image, out_dir / f"{name}.f64")
        save_recon_pgm(image, out_dir / f"{name}.pgm")
        _write_json(reports[name].to_dict(), out_dir / f"metrics_{name}.json")
    _write_json(validity.to_dict(), out_dir / "validity.json")
    write_curve_csv(run.s, out_dir / "bucket_curve.csv")
    for curve, side in zip(run.curves, ("left", "right")):  # slit-plane style curves
        write_curve_csv(curve, out_dir / f"column_curve_{side}.csv")

    embedded = json.loads(json.dumps(cfg))  # deep copy, JSON types only
    del embedded["output"]["dir"]
    if "amplitude_rel_std" in embedded["noise"]:  # the manifest records the resolved amplitude
        del embedded["noise"]["amplitude_rel_std"]
        embedded["noise"]["amplitude"] = run.scenario.noise.waveform.amplitude
    manifest = {
        "format": "ghostsim-manifest",
        "version": 1,
        "tool": {"name": "ghostsim", "version": __version__},
        "config": embedded,
        "scenario_digest": run.scenario.digest(),
        "clean_bucket_std": float(run.s0.std()),
    }
    _write_json(manifest, out_dir / "manifest.json")
    gi_r, igi_r = reports["gi"].pearson_r, reports["igi"].pearson_r
    return {"out": str(out_dir), "gi_pearson_r": gi_r, "igi_pearson_r": igi_r, "validity_flag": validity.flag}


def _row_scenario(cfg: dict, axis: str, value: float) -> tuple:
    """The base config with one axis value set, built as a run builds it: (Scenario, amplitude_rel_std)."""
    row_cfg = json.loads(json.dumps(cfg))
    if axis == "noise-amplitude":
        row_cfg["noise"].pop("amplitude_rel_std", None)
        row_cfg["noise"]["amplitude"] = float(value)
    elif axis == "noise-frequency":
        row_cfg["noise"]["frequency"] = float(value)
    else:  # N
        if not float(value).is_integer():
            raise ConfigurationError(f"N sweep values must be integers, got {value}")
        row_cfg["count"] = int(value)
    try:
        return build_scenario(row_cfg)
    except ConfigurationError as exc:
        raise ConfigurationError(f"sweep value {value!r}: {exc.field}: {exc}") from exc


def run_sweep(cfg: dict, axis: str, values: list[float], out_dir: Path) -> Path:
    """One CSV row per value of one axis, each scored as a run of its config; all values are checked first.

    Each block_pass serves the pending rows of the first pending row's reconstruct.pass_key. A failed pass fails its
    longest rows; the rest pass again.
    """
    if axis not in SWEEP_AXES:
        raise ConfigurationError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    if not values:
        raise ConfigurationError("sweep needs at least one value")
    rows = [_row_scenario(cfg, axis, value) for value in values]
    keys, normalization = [pass_key(*row) for row in rows], cfg["output"]["igi_normalization"]
    out_dir.mkdir(parents=True, exist_ok=True)
    fields = {}
    while len(fields) < len(rows):
        first = min(i for i in range(len(rows)) if i not in fields)
        pending = [i for i in range(first, len(rows)) if i not in fields and keys[i] == keys[first]]
        top = max(rows[i][0].count for i in pending)
        try:
            finish = block_pass([rows[i][0] for i in pending], rows[first][1], normalization)
        except GhostsimError as exc:
            fields.update({i: ["", "", "", f"error: {exc}"] for i in pending if rows[i][0].count == top})
            continue
        for i in pending:
            try:
                validity = _judge(run := finish(rows[i][0], bucket=False))
                scores = [pearson(image, run.scenario.object_mask) for image in (run.gi, run.igi)]
                fields[i] = [*map(repr, [*scores, validity.ratio]), "ok"]
            except GhostsimError as exc:
                fields[i] = ["", "", "", f"error: {exc}"]
        finish = run = None  # held into the next pass, they cost peak RSS: heap its frame block would reuse
    csv_path = out_dir / "sweep.csv"  # opened once every row is scored, so an interrupted sweep leaves none
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["value", "gi_pearson_r", "igi_pearson_r", "validity_ratio", "status"])
        writer.writerows([repr(float(value)), *fields[i]] for i, value in enumerate(values))
    return csv_path


def _parse_values(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"bad sweep values {text!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ghostsim", description="pseudothermal ghost imaging simulator")
    parser.add_argument("--version", action="version", version=f"ghostsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory (default: config output.dir)")

    p_preset = sub.add_parser("preset", help="run a named preset")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--out", default=None, help="output directory (default: out-<name>)")

    p_sweep = sub.add_parser("sweep", help="re-run a config along one axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma separated values")
    p_sweep.add_argument("--out", default=None, help="output directory (default: config output.dir)")

    p_mask = sub.add_parser("export-mask", help="write a builtin mask as 8-bit PGM")
    p_mask.add_argument("name")
    p_mask.add_argument("out")
    p_mask.add_argument("--width", type=int, default=64)
    p_mask.add_argument("--height", type=int, default=64)
    return parser


@np.errstate(over="ignore", invalid="ignore")  # the command's one numpy policy: _judge reports non-finite images
def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("run", "preset"):
            if args.command == "run":
                cfg = load_config(args.config)
                out = Path(args.out or cfg["output"]["dir"])
            else:
                cfg = parse_config_text(json.dumps(preset_config(args.name)), path=f"<preset {args.name}>")
                out = Path(args.out or f"out-{args.name}")
            summary = run_scenario(cfg, out)
            print(
                f"wrote {summary['out']}: gi pearson_r={summary['gi_pearson_r']:.4f} "
                f"igi pearson_r={summary['igi_pearson_r']:.4f} validity={summary['validity_flag']}"
            )
        elif args.command == "sweep":
            cfg = load_config(args.config)
            out = Path(args.out) if args.out else Path(cfg["output"]["dir"])
            csv_path = run_sweep(cfg, args.axis, _parse_values(args.values), out)
            print(f"wrote {csv_path}")
        else:  # export-mask
            save_mask(builtin_mask(args.name, args.width, args.height), Path(args.out))
            print(f"wrote {args.out}")
    except (GhostsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigurationError):
            return 2
        return 4 if isinstance(exc, (PgmFormatError, OSError)) else 3  # contract and degenerate input: 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
