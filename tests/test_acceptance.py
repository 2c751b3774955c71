"""End-to-end acceptance checks over full-size runs.

Each check prints one [PASS]/[FAIL] line with the measured numbers next to
their thresholds (visible in the -rA summary). Full-size simulations are
shared through session fixtures; each check times only its own work.
"""
import json
import math
import time

import numpy as np
import pytest

from ghostsim import (
    IgiAccumulator,
    MeasurementSeries,
    NoiseSpec,
    NoiseWaveform,
    Scenario,
    builtin_mask,
    generate_frame,
    gi_reconstruct,
    igi_reconstruct,
    pearson,
    simulate,
)
from ghostsim.cli import run_scenario, run_sweep
from ghostsim.config import build_scenario, parse_config_text
from ghostsim.presets import preset_config
from ghostsim.speckle import SpeckleParams

from conftest import oracle_covariance_image, synthetic_series

pytestmark = pytest.mark.acceptance

_TRUTH = builtin_mask("TH", 64, 64)


def _check(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def _rel_dev(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = float(np.max(np.abs(expected)))
    return float(np.max(np.abs(actual - expected))) / scale


def _parsed_preset(name: str) -> dict:
    return parse_config_text(json.dumps(preset_config(name)), path=f"<preset {name}>")


@pytest.fixture(scope="session")
def small_series_set():
    return [synthetic_series(100 + k) for k in range(20)]


@pytest.fixture(scope="session")
def clean_run():
    """The clean preset, simulated once and shared; build time is recorded."""
    scenario = build_scenario(_parsed_preset("clean"))[0]
    start = time.time()
    series = simulate(scenario)
    return {"series": series, "scenario": scenario, "sim_seconds": time.time() - start}


def test_criterion_1_gi_matches_oracle(small_series_set):
    start = time.time()
    worst = max(_rel_dev(gi_reconstruct(s), oracle_covariance_image(s)) for s in small_series_set)
    elapsed = time.time() - start
    _check(
        1,
        worst <= 1e-9 and elapsed < 1.0,
        f"GI vs naive covariance oracle on 20 random 8x8 N=50 series: "
        f"worst rel dev {worst:.2e} (<= 1e-9), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_streaming_equals_batch(small_series_set, clean_run):
    start = time.time()
    worst = 0.0
    for series in small_series_set + [clean_run["series"]]:
        acc = IgiAccumulator(series.width, series.height)
        for rec in series.records():
            acc.push(rec)
        worst = max(worst, _rel_dev(acc.finalize(), igi_reconstruct(series)))
    elapsed = time.time() - start
    _check(
        2,
        worst <= 1e-9 and elapsed < 30.0,
        f"streaming IGI vs batch on 20 small series + one 64x64 N=20000 series: "
        f"worst rel dev {worst:.2e} (<= 1e-9), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_two_record_hand_example():
    series = MeasurementSeries(s=np.array([1.0, 3.0]), frames=np.array([[[2.0]], [[6.0]]]))
    gi = float(gi_reconstruct(series)[0, 0])
    igi = float(igi_reconstruct(series)[0, 0])
    _check(3, gi == 2.0 and igi == 4.0, f"hand-worked 2-record series: GI {gi} (= 2.0), IGI {igi} (= 4.0), exact")


def test_criterion_4_dc_offset_invariance(clean_run):
    series = clean_run["series"]
    gi0, igi0 = gi_reconstruct(series), igi_reconstruct(series)
    shifted = MeasurementSeries(s=series.s + 940000.0, frames=series.frames)
    gi_dev = _rel_dev(gi_reconstruct(shifted), gi0)
    igi_dev = _rel_dev(igi_reconstruct(shifted), igi0)
    ok = gi_dev <= 1e-9 and igi_dev <= 1e-9
    _check(
        4,
        ok,
        f"+940000 on every bucket value of the 64x64 N=20000 run: "
        f"GI rel dev {gi_dev:.2e}, IGI rel dev {igi_dev:.2e} (both <= 1e-9)",
    )


def test_criterion_5_clean_preset_quality(clean_run):
    start = time.time()
    series = clean_run["series"]
    gi, igi = gi_reconstruct(series), igi_reconstruct(series)
    recon_seconds = time.time() - start
    total = clean_run["sim_seconds"] + recon_seconds
    r_gi = pearson(gi, _TRUTH)
    r_igi = pearson(igi, _TRUTH)
    r_cross = pearson(gi, igi)
    ok = r_cross >= 0.95 and r_gi >= 0.8 and r_igi >= 0.8 and total < 60.0
    _check(
        5,
        ok,
        f"clean preset: GI-vs-IGI r {r_cross:.4f} (>= 0.95), GI-vs-truth r {r_gi:.4f}, "
        f"IGI-vs-truth r {r_igi:.4f} (both >= 0.8), sim+recon {total:.1f}s (< 60s); "
        f"thresholds re-baselined over 20 seeds in calibration/calibration.md",
    )


def test_criterion_6_bucket_noise_splits_gi_from_igi(tmp_path, clean_run):
    results = {}
    for name in ("position-A", "position-B"):
        out = tmp_path / name
        run_scenario(_parsed_preset(name), out)
        results[name] = {
            "gi": json.loads((out / "metrics_gi.json").read_text())["pearson_r"],
            "igi": json.loads((out / "metrics_igi.json").read_text())["pearson_r"],
            "flag": json.loads((out / "validity.json").read_text())["flag"],
        }
    ok = all(r["gi"] <= 0.2 and r["igi"] >= 0.8 for r in results.values())
    detail = "; ".join(
        f"{name}: GI r {r['gi']:.3f} (<= 0.2), IGI r {r['igi']:.3f} (>= 0.8), validity '{r['flag']}'"
        for name, r in results.items()
    )
    _check(6, ok, detail)

    # Context: the same comparison with the waveform sped up to a fifth of the
    # sample rate. The per-step suppression of a consecutive-difference
    # estimator is 1/(1 - cos(2*pi*f/fs)) ~ 1.4x there, far short of what the
    # PASS above needs, which is why the shipped presets use a slow waveform;
    # see calibration/calibration.md.
    sp = clean_run["scenario"].speckle
    std = float(clean_run["series"].s.std())
    fast = Scenario(
        speckle=sp,
        object_mask=_TRUTH,
        count=20000,
        noise=NoiseSpec(
            waveform=NoiseWaveform(kind="sinusoid", amplitude=20.0 * std, frequency=5.0, sample_rate=25.0),
            position="B",
        ),
    )
    series = simulate(fast)
    print(
        f"[INFO] criterion 6 context: 5 Hz @ 25 Hz, amplitude 20x bucket std -> "
        f"GI r {pearson(gi_reconstruct(series), _TRUTH):.3f}, "
        f"IGI r {pearson(igi_reconstruct(series), _TRUTH):.3f} "
        f"(fast-noise regime, both estimators degrade together)"
    )


def test_criterion_7_reference_noise_hits_gi_only(clean_run):
    clean_series = clean_run["series"]
    gi_clean = pearson(gi_reconstruct(clean_series), _TRUTH)
    igi_clean = pearson(igi_reconstruct(clean_series), _TRUTH)

    series = simulate(build_scenario(_parsed_preset("position-C-half"))[0])
    gi_noisy = pearson(gi_reconstruct(series), _TRUTH)
    igi_noisy = pearson(igi_reconstruct(series), _TRUTH)

    untouched = bool(np.array_equal(series.frames[:, :, :32], clean_series.frames[:, :, :32]))
    igi_shift = abs(igi_noisy - igi_clean)
    gi_drop = gi_clean - gi_noisy
    ok = untouched and igi_shift <= 0.1 and gi_drop >= 0.2
    _check(
        7,
        ok,
        f"position-C-half preset: IGI r moved {igi_shift:.3f} (<= 0.1), GI r dropped {gi_drop:.3f} "
        f"(>= 0.2), left half of every frame bit-identical to the clean run: {untouched}",
    )


def test_criterion_8_breakdown_tracks_validity_ratio(tmp_path, clean_run):
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
    s0 = clean_run["series"].s[:4000]
    rms = float(np.sqrt(np.mean(np.diff(s0) ** 2)))
    targets = [0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0]
    csv_path = run_sweep(cfg, "noise-amplitude", [t * rms for t in targets], tmp_path)

    rows = []
    for line in csv_path.read_text().splitlines()[1:]:
        _, _, igi_r, ratio, status = line.split(",")
        assert status == "ok"
        rows.append((float(ratio), float(igi_r)))
    ratio_dev = max(abs(r - t) / t for (r, _), t in zip(rows, targets))
    good = [igi for ratio, igi in rows if ratio < 0.1]
    bad = [igi for ratio, igi in rows if ratio >= 10.0]
    ok = ratio_dev < 1e-9 and min(good) >= 0.8 and max(bad) <= 0.3
    _check(
        8,
        ok,
        f"N=4000 alternating-noise amplitude sweep: IGI r >= {min(good):.3f} while ratio < 0.1 "
        f"(>= 0.8), <= {max(bad):.3f} once ratio >= 10 (<= 0.3), reported ratios match "
        f"targets to {ratio_dev:.1e}",
    )


def test_criterion_9_preset_reruns_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_scenario(_parsed_preset("position-C-double-slit"), out_a)
    run_scenario(_parsed_preset("position-C-double-slit"), out_b)
    same = {
        name: (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("gi.f64", "igi.f64", "manifest.json")
    }
    _check(
        9,
        all(same.values()),
        "two position-C-double-slit preset runs byte-identical: "
        + ", ".join(f"{k}={v}" for k, v in same.items()),
    )


def test_criterion_10_speckle_statistics():
    p = SpeckleParams(width=256, height=256, grain_radius=2.0, seed=0)
    contrasts, corrs = [], []
    prev = None
    for n in range(1, 21):
        f = generate_frame(p, n)
        contrasts.append(float(f.std() / f.mean()))
        if prev is not None:
            corrs.append(abs(float(np.corrcoef(prev.ravel(), f.ravel())[0, 1])))
        prev = f
    worst_contrast = max(abs(c - 1.0) for c in contrasts)
    worst_corr = max(corrs)
    ok = worst_contrast < 0.15 and worst_corr < 0.05
    _check(
        10,
        ok,
        f"256x256 speckle over 20 frames: worst |contrast - 1| {worst_contrast:.4f} (< 0.15), "
        f"worst inter-frame |r| {worst_corr:.4f} (< 0.05); bounds calibrated over 100 seeds "
        f"in calibration/calibration.md",
    )
