"""Measure the statistical spreads behind every frozen test threshold.

Runs Monte Carlo sweeps over seeds for the speckle statistics, the noise
step-bound violation rates, and the preset-scale reconstruction quality
numbers, then writes calibration/calibration.json (machine-readable) and
calibration/calibration.md (the summary the test thresholds cite). Preset
runs go through reconstruct.run_blocks, the path `ghostsim preset` takes, whose
block pass is the one place a relative noise amplitude is resolved, so no frame
cube is built. The breakdown sweep's nine amplitude rows share one frame pass.

Everything here is seeded and deterministic. A rerun reproduces
calibration.md exactly; calibration.json agrees to about 1e-16 relative
(numpy's CPU-dispatched exp in speckle._transfer and the C library, not
BLAS, can move its last digits from one host to another).

    python3 scripts/calibrate.py [--out DIR] [--sections a,b,...]
"""
from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path

import numpy as np

from ghostsim import (
    BlockRun,
    IgiAccumulator,
    MeasurementSeries,
    NoiseWaveform,
    SpeckleParams,
    builtin_mask,
    clean_bucket_series,
    generate_frame,
    igi_reconstruct,
    noise_value,
    pearson,
    per_step_noise_delta_bound,
    run_blocks,
)
from ghostsim.cli import run_sweep
from ghostsim.presets import PRESET_NAMES, preset_config
from ghostsim.config import build_scenario, parse_config_text


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def speckle_statistics() -> dict:
    """Per-frame mean/contrast and inter-frame correlation across 100 seeds."""
    out: dict = {}
    for label, width, grain in (("256x256_grain2", 256, 2.0), ("128x128_grain4", 128, 4.0)):
        means, contrasts, corrs = [], [], []
        for seed in range(100):
            p = SpeckleParams(width=width, height=width, grain_radius=grain, seed=seed)
            a = generate_frame(p, 1)
            b = generate_frame(p, 2)
            means.append(float(a.mean()))
            contrasts.append(float(a.std() / a.mean()))
            corrs.append(float(np.corrcoef(a.ravel(), b.ravel())[0, 1]))
        out[label] = {
            "seeds": 100,
            "mean_min": min(means),
            "mean_max": max(means),
            "contrast_min": min(contrasts),
            "contrast_max": max(contrasts),
            "contrast_worst_abs_dev": max(abs(c - 1.0) for c in contrasts),
            "interframe_corr_worst_abs": max(abs(c) for c in corrs),
        }
    return out


def speckle_exponential_fit() -> dict:
    """KS distance of pooled intensities against Exp(mean), 20 seeds."""
    stats = []
    for seed in range(20):
        p = SpeckleParams(width=64, height=64, grain_radius=2.0, seed=seed)
        pooled = np.sort(np.concatenate([generate_frame(p, n).ravel() for n in range(1, 101)]))
        empirical = np.arange(1, pooled.size + 1) / pooled.size
        model = 1.0 - np.exp(-pooled / pooled.mean())
        stats.append(float(np.max(np.abs(empirical - model))))
    return {
        "seeds": 20,
        "frames_per_seed": 100,
        "grid": "64x64",
        "ks_min": min(stats),
        "ks_max": max(stats),
        "frozen_threshold": 0.02,
    }


def speckle_grain_width() -> dict:
    """Autocorrelation half-width against grain_radius, 10 seeds each."""
    def half_width(frame: np.ndarray) -> int:
        d = frame - frame.mean()
        ac = np.fft.ifft2(np.abs(np.fft.fft2(d)) ** 2).real
        row = ac[0, : frame.shape[1] // 2]
        half = row[0] / 2.0
        for lag in range(1, row.size):
            if row[lag] < half:
                return lag
        return row.size

    out = {}
    for radius in (2.0, 4.0):
        widths = []
        for seed in range(10):
            p = SpeckleParams(width=256, height=256, grain_radius=radius, seed=seed)
            widths.append(half_width(generate_frame(p, 1)))
        out[f"grain_{radius:g}"] = {"widths_seen": sorted(set(widths)), "radius": radius}
    return out


def noise_violation_rates() -> dict:
    """Observed step-bound violations per 1e6 draws for the 6-sigma bounds.

    A 6-sigma bound on a difference of two i.i.d. draws (sigma_diff =
    sqrt(2)*sigma) is exceeded with probability 2*Phi(-6/sqrt(2)) ~= 2.2e-5,
    so the expected count per 1e6 steps is ~22; these are not rare events and
    the test allowance must sit above the Poisson spread of that expectation.
    """
    out = {}
    for kind in ("gaussian_white", "poisson"):
        per_seed = {}
        for seed in (7, 8, 9):
            w = NoiseWaveform(kind=kind, amplitude=100.0, seed=seed)
            bound = per_step_noise_delta_bound(w)
            vals = np.fromiter((noise_value(w, n) for n in range(1, 1000001)), dtype=np.float64)
            per_seed[str(seed)] = int(np.count_nonzero(np.abs(np.diff(vals)) > bound))
        out[kind] = {
            "amplitude": 100.0,
            "steps": 1000000,
            "violations_by_seed": per_seed,
            "expected_from_theory": 22.3,
            "frozen_allowance": 60,
        }
    return out


def _preset_run(name: str, seed: int | None = None) -> BlockRun:
    """One block-engine pass of a preset; run_blocks resolves its relative noise amplitude."""
    cfg = parse_config_text(json.dumps(preset_config(name)), path=f"<preset {name}>")
    if seed is not None:
        cfg["speckle"]["seed"] = seed
    return run_blocks(*build_scenario(cfg))


def clean_preset_across_seeds(seeds: int) -> dict:
    """Reconstruction quality of the clean preset across speckle seeds."""
    truth = builtin_mask("TH", 64, 64)
    rows = []
    for seed in range(seeds):
        run = _preset_run("clean", seed=seed)
        rows.append(
            {
                "seed": seed,
                "gi_pearson_r": pearson(run.gi, truth),
                "igi_pearson_r": pearson(run.igi, truth),
                "gi_igi_pearson_r": pearson(run.gi, run.igi),
            }
        )
    return {
        "rows": rows,
        "gi_pearson_min": min(r["gi_pearson_r"] for r in rows),
        "igi_pearson_min": min(r["igi_pearson_r"] for r in rows),
        "gi_igi_pearson_min": min(r["gi_igi_pearson_r"] for r in rows),
    }


def noisy_presets_at_shipped_seed() -> dict:
    """Quality numbers for every shipped preset at its committed seeds."""
    truth = builtin_mask("TH", 64, 64)
    clean_ref: dict = {}
    out = {}
    for name in PRESET_NAMES:
        run = _preset_run(name)
        entry = {
            "gi_pearson_r": pearson(run.gi, truth),
            "igi_pearson_r": pearson(run.igi, truth),
        }
        if name == "clean":
            clean_ref["gi"] = entry["gi_pearson_r"]
            clean_ref["igi"] = entry["igi_pearson_r"]
        else:
            entry["gi_drop_vs_clean"] = clean_ref["gi"] - entry["gi_pearson_r"]
            entry["igi_drop_vs_clean"] = clean_ref["igi"] - entry["igi_pearson_r"]
        out[name] = entry
    return out


def noisy_preset_seed_spread(seeds: int) -> dict:
    """position-B quality across alternate speckle seeds (the tightest preset)."""
    truth = builtin_mask("TH", 64, 64)
    rows = []
    for seed in range(seeds):
        run = _preset_run("position-B", seed=seed)
        rows.append(
            {
                "seed": seed,
                "gi_pearson_r": pearson(run.gi, truth),
                "igi_pearson_r": pearson(run.igi, truth),
            }
        )
    return {
        "rows": rows,
        "gi_pearson_max": max(r["gi_pearson_r"] for r in rows),
        "igi_pearson_min": min(r["igi_pearson_r"] for r in rows),
    }


def breakdown_sweep(tmp_dir: Path) -> dict:
    """IGI quality against the validity ratio on a 4000-record alternating run.

    The noise is a sinusoid at half the sample rate with a quarter-turn phase
    (samples alternate 0, amplitude), the worst case per step. Amplitudes are
    chosen to hit exact validity-ratio targets.
    """
    base = {
        "speckle": {"width": 64, "height": 64, "grain_radius": 2.0, "mean_intensity": 1.0, "seed": 42},
        "object": {"builtin": "TH"},
        "count": 4000,
        "noise": {
            "position": "B",
            "kind": "sinusoid",
            "amplitude": 0.0,
            "frequency": 12.5,
            "sample_rate": 25.0,
            "phase": math.pi / 2.0,
        },
    }
    cfg = parse_config_text(json.dumps(base), path="<breakdown base>")
    s0 = clean_bucket_series(build_scenario(cfg)[0])
    rms = float(np.sqrt(np.mean(np.diff(s0) ** 2)))
    targets = [0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0]
    csv_path = run_sweep(cfg, "noise-amplitude", [t * rms for t in targets], tmp_dir)
    rows = []
    for line in csv_path.read_text().splitlines()[1:]:
        value, gi_r, igi_r, ratio, status = line.split(",")
        rows.append(
            {
                "ratio_target": targets[len(rows)],
                "ratio_reported": float(ratio),
                "gi_pearson_r": float(gi_r),
                "igi_pearson_r": float(igi_r),
                "status": status,
            }
        )
    return {"signal_delta_rms": rms, "rows": rows}


def igi_streaming_identity() -> dict:
    """Largest streaming-vs-batch relative deviation over 50 random series."""
    worst = 0.0
    for seed in range(50):
        rng = np.random.Generator(np.random.PCG64(seed))
        frames = rng.exponential(size=(60, 8, 8))
        s = rng.uniform(10.0, 100.0, size=60)
        series = MeasurementSeries(s=s, frames=frames)
        batch = igi_reconstruct(series)
        acc = IgiAccumulator(8, 8)
        for rec in series.records():
            acc.push(rec)
        scale = float(np.max(np.abs(batch)))
        worst = max(worst, float(np.max(np.abs(acc.finalize() - batch))) / scale)
    return {"series": 50, "worst_rel_deviation": worst}


_SECTIONS = {
    "speckle": speckle_statistics,
    "exponential": speckle_exponential_fit,
    "grain": speckle_grain_width,
    "noise": noise_violation_rates,
    "clean": lambda: clean_preset_across_seeds(20),
    "presets": noisy_presets_at_shipped_seed,
    "spread": lambda: noisy_preset_seed_spread(8),
    "breakdown": None,  # needs a scratch dir, handled in main
    "streaming": igi_streaming_identity,
}


def _write_markdown(results: dict, path: Path) -> None:
    lines = [
        "# Calibration record",
        "",
        "Deterministic Monte Carlo spreads behind the frozen test thresholds.",
        "Regenerate with `python3 scripts/calibrate.py`; this file reproduces",
        "exactly, and `calibration.json` agrees to about 1e-16 relative (numpy's",
        "CPU-dispatched `exp` in `speckle._transfer` and the C library, not",
        "BLAS, can move its last digits from one host to another).",
        "",
    ]
    if "speckle" in results:
        lines += ["## Speckle frame statistics (100 seeds, frames 1 and 2)", ""]
        lines += ["| grid | contrast range | worst |contrast-1| | worst inter-frame |r| |", "|---|---|---|---|"]
        for label, r in sorted(results["speckle"].items()):
            lines.append(
                f"| {label} | {_fmt(r['contrast_min'])} .. {_fmt(r['contrast_max'])} "
                f"| {_fmt(r['contrast_worst_abs_dev'])} | {_fmt(r['interframe_corr_worst_abs'])} |"
            )
        lines += [
            "",
            "Frozen test bounds: contrast within 0.15 of 1.0 on both grids;",
            "inter-frame |r| < 0.05 on the 256x256 grain-2 grid only. The",
            "128x128 grain-4 grid has roughly (128/(2*4))^2 = 256 independent",
            "speckle cells per frame, so sample correlations near 0.14 are",
            "expected statistical spread and no inter-frame bound is frozen",
            "there.",
            "",
        ]
    if "exponential" in results:
        r = results["exponential"]
        lines += [
            "## Intensity histogram vs negative exponential",
            "",
            f"KS distance over {r['seeds']} seeds ({r['frames_per_seed']} frames of {r['grid']} pooled per seed): "
            f"{_fmt(r['ks_min'])} .. {_fmt(r['ks_max'])}. Frozen threshold {r['frozen_threshold']}.",
            "",
        ]
    if "grain" in results:
        lines += ["## Intensity autocorrelation half-width (10 seeds, 256x256)", ""]
        for label, r in sorted(results["grain"].items()):
            lines.append(f"- grain_radius {r['radius']:g}: half-widths seen {r['widths_seen']} px (test bound: within a factor 2)")
        lines.append("")
    if "noise" in results:
        lines += [
            "## Noise step-bound violation rates (1e6 steps each)",
            "",
            "The stochastic bounds are 6-sigma on a single draw, i.e. 6/sqrt(2)",
            "~= 4.24 sigma on a step difference, so ~22 violations per 1e6 are",
            "expected, not zero. Observed:",
            "",
        ]
        for kind, r in sorted(results["noise"].items()):
            counts = ", ".join(f"seed {s}: {c}" for s, c in sorted(r["violations_by_seed"].items(), key=lambda kv: int(kv[0])))
            lines.append(f"- {kind} (amplitude {r['amplitude']:g}): {counts}. Frozen allowance {r['frozen_allowance']}.")
        lines.append("")
    if "clean" in results:
        r = results["clean"]
        lines += [
            "## Clean preset across 20 speckle seeds (64x64, N=20000)",
            "",
            f"- min GI pearson_r vs truth: {_fmt(r['gi_pearson_min'])}",
            f"- min IGI pearson_r vs truth: {_fmt(r['igi_pearson_min'])}",
            f"- min GI-vs-IGI pearson_r: {_fmt(r['gi_igi_pearson_min'])}",
            "",
            "Frozen test thresholds 0.8 / 0.8 / 0.95 hold for every seed.",
            "",
        ]
    if "presets" in results:
        lines += ["## Shipped presets at their committed seeds", ""]
        lines += ["| preset | GI pearson_r | IGI pearson_r |", "|---|---|---|"]
        for name, r in sorted(results["presets"].items()):
            lines.append(f"| {name} | {_fmt(r['gi_pearson_r'])} | {_fmt(r['igi_pearson_r'])} |")
        lines.append("")
    if "spread" in results:
        r = results["spread"]
        lines += [
            "## position-B preset across 8 alternate speckle seeds",
            "",
            f"- max GI pearson_r: {_fmt(r['gi_pearson_max'])}",
            f"- min IGI pearson_r: {_fmt(r['igi_pearson_min'])}",
            "",
            "IGI holds >= 0.8 for every seed with wide margin. GI sits near",
            "its 0.2 bound and crosses it for some alternate seeds, so the",
            "GI <= 0.2 acceptance check is pinned to the committed preset",
            "seeds.",
            "",
        ]
    if "breakdown" in results:
        r = results["breakdown"]
        lines += [
            "## IGI quality vs validity ratio (64x64, N=4000, alternating noise)",
            "",
            f"Clean per-step RMS {_fmt(r['signal_delta_rms'])}. One row per amplitude:",
            "",
            "| ratio | GI pearson_r | IGI pearson_r |",
            "|---|---|---|",
        ]
        for row in r["rows"]:
            lines.append(f"| {row['ratio_target']:g} | {_fmt(row['gi_pearson_r'])} | {_fmt(row['igi_pearson_r'])} |")
        lines += [
            "",
            "IGI stays above 0.8 while ratio < 0.1 and falls below 0.3 once",
            "ratio >= 10; the transition lives in the marginal band.",
            "",
        ]
    if "streaming" in results:
        r = results["streaming"]
        lines += [
            "## Streaming vs batch identity",
            "",
            f"Worst relative deviation over {r['series']} random series: {r['worst_rel_deviation']:.3e}",
            "(threshold 1e-9).",
            "",
        ]
    path.write_text("\n".join(lines))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="calibration", help="output directory")
    parser.add_argument("--sections", default="all", help="comma list: " + ",".join(_SECTIONS))
    parser.add_argument(
        "--render-only",
        action="store_true",
        help="rewrite calibration.md from the stored calibration.json, no recompute",
    )
    args = parser.parse_args(argv)

    wanted = list(_SECTIONS) if args.sections == "all" else args.sections.split(",")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    json_path = out_dir / "calibration.json"
    # partial --sections runs merge into the stored results instead of dropping
    # the sections they did not recompute
    results: dict = json.loads(json_path.read_text()) if json_path.exists() else {}
    if args.render_only:
        _write_markdown(results, out_dir / "calibration.md")
        print(f"re-rendered {out_dir}/calibration.md")
        return 0
    for name in wanted:
        if name not in _SECTIONS:
            parser.error(f"unknown section {name!r}")
        start = time.time()
        if name == "breakdown":
            results[name] = breakdown_sweep(out_dir / "breakdown_sweep")
        else:
            results[name] = _SECTIONS[name]()
        print(f"[{name}] done in {time.time() - start:.1f}s")

    json_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    _write_markdown(results, out_dir / "calibration.md")
    print(f"wrote {out_dir}/calibration.json and {out_dir}/calibration.md")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
