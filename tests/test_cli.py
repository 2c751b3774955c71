import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghostsim
from ghostsim import clean_bucket_series, column_curve, load_f64, load_mask, save_mask, save_series, simulate
from ghostsim import builtin_mask, quality_report, write_curve_csv
from ghostsim.cli import SWEEP_AXES, evaluate, main
from ghostsim.presets import PRESET_NAMES, preset_config
from ghostsim.scene import BUILTIN_MASKS
from ghostsim.config import build_scenario, parse_config_text
from ghostsim.errors import ContractError, DegenerateInputError

from conftest import assert_close_rel

_ARTIFACTS = [
    "gi.f64",
    "igi.f64",
    "gi.pgm",
    "gi.pgm.txt",
    "igi.pgm",
    "igi.pgm.txt",
    "metrics_gi.json",
    "metrics_igi.json",
    "validity.json",
    "bucket_curve.csv",
    "column_curve_left.csv",
    "column_curve_right.csv",
    "manifest.json",
]


def _small_cfg(tmp_path, **noise):
    cfg = {
        "speckle": {"width": 16, "height": 16, "seed": 5},
        "object": {"builtin": "disk"},
        "count": 40,
    }
    if noise:
        cfg["noise"] = noise
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_writes_full_artifact_set(tmp_path, capsys):
    cfg = _small_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    for name in _ARTIFACTS:
        assert (out / name).exists(), name
    assert not (out / "series.gsim").exists()  # emit_frames defaults off
    stdout = capsys.readouterr().out
    assert "gi pearson_r=" in stdout and "validity=" in stdout
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == "ghostsim-manifest"
    assert "dir" not in manifest["config"]["output"]
    metrics = json.loads((out / "metrics_igi.json").read_text())
    assert set(metrics) == {"cnr", "pearson_r", "mse"}


def test_reruns_are_byte_identical(tmp_path):
    cfg = _small_cfg(tmp_path, position="B", kind="gaussian_white", amplitude=5.0, seed=3)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg), "--out", str(out_b)]) == 0
    for name in _ARTIFACTS:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_manifest_reproduces_the_run(tmp_path):
    cfg = _small_cfg(tmp_path, position="B", kind="sinusoid", amplitude_rel_std=2.0, frequency=5.0)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
    assert (out_a / "gi.f64").read_bytes() == (out_b / "gi.f64").read_bytes()
    assert (out_a / "igi.f64").read_bytes() == (out_b / "igi.f64").read_bytes()
    # the relative amplitude was resolved to an absolute one in the manifest
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert "amplitude_rel_std" not in manifest["config"]["noise"]
    assert manifest["config"]["noise"]["amplitude"] > 0.0


def test_exit_codes(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 4

    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "speckle": {"width": 16, "height": 16},\n  "object": {"builtin": "disk"},\n  "count": 1\n}')
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:4:" in err and "count" in err

    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"speckle": ')
    assert main(["run", str(malformed)]) == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"speckle": {"width": 16, "height": 16}, "object": {"builtin": "disk"}, "count": 5, "spam": 1}')
    assert main(["run", str(unknown)]) == 2
    assert "spam" in capsys.readouterr().err

    needs_spatial = tmp_path / "c.json"
    needs_spatial.write_text(
        '{"speckle": {"width": 16, "height": 16}, "object": {"builtin": "disk"}, "count": 5,'
        ' "noise": {"position": "C", "kind": "constant", "amplitude": 1.0}}'
    )
    assert main(["run", str(needs_spatial)]) == 2

    # refused only once the pass resolves it: A = 1e30 * std(S0) is past numpy's largest Poisson mean
    too_loud, out = _small_cfg(tmp_path, position="B", kind="poisson", amplitude_rel_std=1e30), tmp_path / "out"
    capsys.readouterr()
    assert main(["run", str(too_loud), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: noise.amplitude_rel_std 1e+30: poisson amplitude must be <=") and not out.exists()


def test_negative_sinusoid_frequency_exits_2_with_line(tmp_path, capsys):
    path = tmp_path / "freq.json"
    path.write_text(
        '{\n  "speckle": {"width": 16, "height": 16},\n  "object": {"builtin": "disk"},\n  "count": 5,\n'
        '  "noise": {"position": "B", "kind": "sinusoid", "amplitude": 1.0,\n    "frequency": -2.0}\n}'
    )
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:6:") and "noise.frequency" in err


def test_builtin_mask_on_small_grid_exits_2_with_line(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text('{\n  "speckle": {"width": 4, "height": 4},\n  "count": 5,\n  "object": {"builtin": "disk"}\n}')
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:4:") and "8x8" in err


@pytest.mark.parametrize("count", [10**12, 10**20], ids=["1e12", "1e20"])
def test_huge_count_exits_3_without_traceback(tmp_path, capsys, count):
    # 10**12 records: numpy refuses the allocation at once; a smaller count might really allocate.
    # 10**20 is past numpy's index range, where numpy raises ValueError instead of MemoryError.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"speckle": {"width": 64, "height": 64}, "object": {"builtin": "TH"}, "count": count}))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "GB" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "width, height, builtin", [(10**6, 10**6, "TH"), (10**19, 16, "disk")], ids=["1e6x1e6", "1e19x16"]
)
def test_huge_mask_exits_3_without_traceback(tmp_path, capsys, width, height, builtin):
    # a 10**6 x 10**6 float64 mask is 8000 GB: numpy refuses the allocation at once;
    # a 10**19-wide grid is past numpy's index range, where numpy raises ValueError instead of MemoryError
    path = tmp_path / "huge.json"
    cfg = {"speckle": {"width": width, "height": height}, "object": {"builtin": builtin}, "count": 5}
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "GB" in err[0]
    assert not out.exists()


def test_non_finite_sweep_values_exit_2_before_writing(tmp_path, capsys):
    cfg = _small_cfg(tmp_path, position="B", kind="sinusoid", amplitude=1.0, frequency=5.0)
    out = tmp_path / "s"
    for axis in ("noise-amplitude", "noise-frequency"):
        for value in ("nan", "inf", "-inf"):
            assert main(["sweep", str(cfg), "--axis", axis, "--values", f"1,{value}", "--out", str(out)]) == 2
            assert "must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_wrong_size_pgms_exit_2_with_line(tmp_path, capsys):
    save_mask(np.ones((8, 8)), tmp_path / "m8.pgm")
    object_pgm = '{\n  "speckle": {"width": 16, "height": 16},\n  "count": 5,\n  "object": {"pgm": "%s"}\n}'
    spatial_pgm = (
        '{\n  "speckle": {"width": 16, "height": 16},\n  "object": {"builtin": "disk"},\n  "count": 5,\n'
        '  "noise": {"position": "C", "kind": "constant", "amplitude": 1.0,\n'
        '    "spatial": {"region": "custom", "pgm": "%s"}}\n}'
    )
    for name, text, line, json_path in (
        ("object.json", object_pgm, 4, "object.pgm"),
        ("spatial.json", spatial_pgm, 6, "noise.spatial.pgm"),
    ):
        path = tmp_path / name
        path.write_text(text % (tmp_path / "m8.pgm"))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: {json_path}: ")
    assert not (tmp_path / "out").exists()


def test_uniform_object_pgm_exits_2_before_any_frame(tmp_path, capsys, monkeypatch):
    calls = _count_frames(monkeypatch)
    text = '{\n  "speckle": {"width": 16, "height": 16},\n  "count": 3000,\n  "object": {"pgm": "%s"}\n}'
    gray = np.zeros((16, 16))
    gray[::2] = 100 / 255  # transmits, but no pixel reaches 0.5: cnr has no object pixel
    one_below = np.ones((16, 16))
    one_below[3, 4] = 0.0  # cnr needs two background pixels
    # transmits nowhere, everywhere, everywhere at gray 128 (all object pixels)
    for mask in (np.zeros((16, 16)), np.ones((16, 16)), np.full((16, 16), 128 / 255), gray, one_below):
        save_mask(mask, tmp_path / "m.pgm")
        path = tmp_path / "object.json"
        path.write_text(text % (tmp_path / "m.pgm"))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:4: object.pgm: ")
    assert calls == [] and not (tmp_path / "out").exists()
    # all-ones custom weights are a legal region
    weights = {"region": "custom", "pgm": str(tmp_path / "m.pgm")}
    cfg = _small_cfg(tmp_path, position="C", kind="constant", amplitude=4.0, spatial=weights)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_non_finite_reconstruction_exits_3(tmp_path, capsys, monkeypatch):
    import ghostsim.cli as cli

    # a bucket offset of 1e308 overflows the bucket mean, so GI is NaN
    cfg = _small_cfg(tmp_path, position="B", kind="constant", amplitude=1e308)
    scored = tmp_path / "scored.json"
    scored.write_text(json.dumps({"speckle": {"width": 16, "height": 16}, "object": {"builtin": "disk"}, "count": 40}))

    def unscorable(image, truth):  # a run that reconstructs, then fails while scored
        raise DegenerateInputError("background is constant; cnr undefined")

    bright = []  # frames past float64: the speckle rescale overflows on the pool's threads, then S0, GI and validity
    for mean in (1e307, 1e306):
        bright.append(tmp_path / f"bright-{mean:g}.json")
        speckle = {"width": 16, "height": 16, "mean_intensity": mean}
        bright[-1].write_text(json.dumps({"speckle": speckle, "object": {"builtin": "disk"}, "count": 40}))

    def quiet_main(argv):  # main, and no RuntimeWarning from any thread (a user would see it above the error line)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)], argv
        return code

    out = tmp_path / "out"
    for path, message in ((cfg, "GI image"), *((path, "GI image") for path in bright), (scored, "cnr undefined")):
        if path == scored:
            monkeypatch.setattr(cli, "quality_report", unscorable)
        for emit_frames in (False, True):  # with frames, the run has started out/series.gsim before it fails
            data = json.loads(path.read_text())
            data["output"] = {"emit_frames": emit_frames}
            path.write_text(json.dumps(data))
            assert quiet_main(["run", str(path), "--out", str(out / "nested")]) == 3
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
            assert not out.exists()
    monkeypatch.undo()
    out.mkdir()  # a directory the run did not create stays, without the container
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert list(out.iterdir()) == []
    assert main(["sweep", str(cfg), "--axis", "noise-amplitude", "--values", "1,1e308", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[1].endswith(",ok") and "error: the GI image has non-finite pixels" in rows[2]
    capsys.readouterr()
    assert quiet_main(["sweep", str(bright[0]), "--axis", "N", "--values", "20,40", "--out", str(out / "n")]) == 0
    rows = (out / "n" / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all("error: the GI image has non-finite pixels" in row for row in rows)
    assert capsys.readouterr().err == ""


def test_sweep_checks_every_value_before_writing(tmp_path):
    cfg = _small_cfg(tmp_path)
    assert main(["sweep", str(cfg), "--axis", "N", "--values", "10,10.5", "--out", str(tmp_path / "s")]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(
        json.dumps({"speckle": {"width": 16, "height": 16}, "object": {"pgm": str(tmp_path / "absent.pgm")}, "count": 9})
    )
    assert main(["sweep", str(missing), "--axis", "N", "--values", "10", "--out", str(tmp_path / "s")]) == 4
    assert not (tmp_path / "s").exists()


def test_bad_cli_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "x.json", "--axis", "bogus", "--values", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["preset", "no-such-preset"])


def test_export_mask_round_trip(tmp_path, capsys):
    out = tmp_path / "th.pgm"
    assert main(["export-mask", "TH", str(out)]) == 0
    mask = load_mask(out)
    assert mask.shape == (64, 64)
    assert set(np.unique(mask)) == {0.0, 1.0}
    assert main(["export-mask", "TH", str(out), "--width", "32", "--height", "16"]) == 0
    assert load_mask(out).shape == (16, 32)
    assert main(["export-mask", "nonesuch", str(out)]) == 2


def test_custom_spatial_weights_from_pgm(tmp_path):
    weights = np.zeros((16, 16))
    weights[:, 10:] = 1.0
    wpath = tmp_path / "w.pgm"
    save_mask(weights, wpath)
    cfg = _small_cfg(
        tmp_path,
        position="C",
        kind="constant",
        amplitude=4.0,
        spatial={"region": "custom", "pgm": str(wpath)},
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0

    small = np.ones((4, 4))
    save_mask(small, wpath := tmp_path / "small.pgm")
    cfg2 = _small_cfg(
        tmp_path,
        position="C",
        kind="constant",
        amplitude=4.0,
        spatial={"region": "custom", "pgm": str(wpath)},
    )
    assert main(["run", str(cfg2), "--out", str(tmp_path / "out2")]) == 2


def test_igi_normalization_flag_changes_scale(tmp_path):
    base = json.loads((_small_cfg(tmp_path)).read_text())
    for norm, name in (("unbiased", "u"), ("paper-literal", "p")):
        cfg = dict(base)
        cfg["output"] = {"igi_normalization": norm}
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / name)]) == 0
    unbiased = load_f64(tmp_path / "u" / "igi.f64")
    literal = load_f64(tmp_path / "p" / "igi.f64")
    n = base["count"]
    assert np.allclose(literal, unbiased * (n - 1) / n, rtol=1e-12, atol=0)


def test_emit_frames_writes_container(tmp_path):
    cfg_data = json.loads(_small_cfg(tmp_path).read_text())
    cfg_data["output"] = {"emit_frames": True, "emit_curves": False}
    p = tmp_path / "f.json"
    p.write_text(json.dumps(cfg_data))
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out)]) == 0
    assert (out / "series.gsim").exists()
    assert not (out / "column_curve_left.csv").exists()
    from ghostsim import load_series

    assert len(load_series(out / "series.gsim")) == 40


def test_sweep_csv(tmp_path, capsys):
    cfg = _small_cfg(tmp_path, position="B", kind="sinusoid", amplitude=1.0, frequency=5.0)
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "--axis", "noise-amplitude", "--values", "0,10,1e4", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "value,gi_pearson_r,igi_pearson_r,validity_ratio,status"
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    assert all(row[4] == "ok" for row in rows)
    # amplitude 0 leaves the bucket clean: ratio exactly 0
    assert float(rows[0][3]) == 0.0
    # louder noise hurts the mean-subtracted image more
    assert float(rows[2][1]) < float(rows[0][1])
    ratios = [float(row[3]) for row in rows]
    assert ratios == sorted(ratios)


def test_an_interrupted_sweep_leaves_no_csv(tmp_path, monkeypatch):
    import ghostsim.cli as cli

    real, passes = cli.block_pass, []

    def interrupted(*args, **kwargs):
        passes.append(args)
        if len(passes) == 2:
            raise RuntimeError("interrupted")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "block_pass", interrupted)
    cfg, out = _small_cfg(tmp_path, position="B", kind="sinusoid", amplitude=1.0, frequency=5.0), tmp_path / "s"
    with pytest.raises(RuntimeError, match="interrupted"):  # one pass per frequency row
        main(["sweep", str(cfg), "--axis", "noise-frequency", "--values", "1,2", "--out", str(out)])
    assert out.is_dir() and not (out / "sweep.csv").exists()


def test_sweep_frequency_axis_ratio_monotone(tmp_path):
    cfg = _small_cfg(tmp_path, position="B", kind="sinusoid", amplitude=100.0, frequency=5.0)
    out = tmp_path / "sweepf"
    assert main(["sweep", str(cfg), "--axis", "noise-frequency", "--values", "0.1,1,5,12.5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    ratios = [float(row[3]) for row in rows]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))


def test_sweep_n_axis_requires_integers(tmp_path, capsys):
    cfg = _small_cfg(tmp_path)
    assert main(["sweep", str(cfg), "--axis", "N", "--values", "10,20", "--out", str(tmp_path / "s")]) == 0
    assert main(["sweep", str(cfg), "--axis", "N", "--values", "10.5", "--out", str(tmp_path / "s2")]) == 2


def test_preset_writes_out_name_and_its_manifest_replays(tmp_path, monkeypatch):
    import ghostsim.cli as cli

    def small(name):
        cfg = preset_config(name)
        cfg["speckle"].update(width=16, height=16)
        cfg["count"] = 40
        return cfg

    monkeypatch.setattr(cli, "preset_config", small)
    monkeypatch.chdir(tmp_path)
    assert main(["preset", "position-B"]) == 0
    out = tmp_path / "out-position-B"
    assert main(["run", str(out / "manifest.json"), "--out", "replay"]) == 0
    for name in _ARTIFACTS:
        assert (out / name).read_bytes() == (tmp_path / "replay" / name).read_bytes(), name


def test_preset_configs_are_valid():
    assert set(PRESET_NAMES) == {
        "clean",
        "position-A",
        "position-B",
        "position-C-half",
        "position-C-double-slit",
    }
    for name in PRESET_NAMES:
        cfg = parse_config_text(json.dumps(preset_config(name)), path=f"<preset {name}>")
        assert cfg["speckle"]["width"] == 64
        assert cfg["count"] == 20000
        if name == "clean":
            assert cfg["noise"]["kind"] == "off"
        else:
            assert cfg["noise"]["position"] in ("A", "B", "C")
    with pytest.raises(Exception):
        preset_config("nonesuch")


def _count_frames(monkeypatch) -> list:
    import ghostsim.measurement as measurement

    calls = []  # the ordinals of every frame made, in the order the pool's threads start them
    real = measurement.fill_frames

    def counting(params, first, out):
        calls.extend(range(first, first + len(out)))
        return real(params, first, out)

    monkeypatch.setattr(measurement, "fill_frames", counting)
    return calls


def test_run_and_sweep_generate_each_frame_once(tmp_path, monkeypatch):
    import ghostsim.measurement as measurement

    cfg = _small_cfg(tmp_path, position="B", kind="sinusoid", amplitude_rel_std=2.0, frequency=5.0)
    calls, noise = _count_frames(monkeypatch), []
    real_noise = measurement.noise_value
    monkeypatch.setattr(measurement, "noise_value", lambda waveform, n: noise.append(n) or real_noise(waveform, n))
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert sorted(calls) == list(range(1, 41))  # count = 40, the clean bucket comes from the same pass
    calls.clear()
    noise.clear()
    assert main(["sweep", str(cfg), "--axis", "N", "--values", "10,20", "--out", str(tmp_path / "s")]) == 0
    assert sorted(calls) == list(range(1, 21))  # one pass to the longest row
    # the pass's unit waveform, then each row's S as finish builds it: a sweep row is served as a run is
    assert noise == [*range(1, 21), *range(1, 11), *range(1, 21)]
    calls.clear()
    noise.clear()
    amplitudes = ["sweep", str(cfg), "--axis", "noise-amplitude", "--values", "0,10,100", "--out", str(tmp_path / "a")]
    assert main(amplitudes) == 0
    assert sorted(calls) == list(range(1, 41))  # one pass serves the three rows, not 120 frames
    assert noise == [*range(1, 41)] * 4
    calls.clear()
    # a relative poisson bucket does not split: a pass per count, each after an S0 pre-pass, and equal rows share one
    cfg = _small_cfg(tmp_path, position="B", kind="poisson", amplitude_rel_std=2.0, seed=4)
    assert main(["sweep", str(cfg), "--axis", "N", "--values", "20,20,30", "--out", str(tmp_path / "p")]) == 0
    assert sorted(calls) == sorted([*range(1, 21)] * 2 + [*range(1, 31)] * 2)  # 100 frames, not 140
    calls.clear()
    cfg = _small_cfg(tmp_path, position="B", kind="constant", amplitude=1.0)  # no split: a pass per amplitude
    assert main(["sweep", str(cfg), "--axis", "noise-amplitude", "--values", "0,10,10", "--out", str(tmp_path / "c")]) == 0
    assert sorted(calls) == sorted([*range(1, 41)] * 2)  # two passes, not three
    calls.clear()
    # no noise reaches S at position none, so a relative amplitude is each row's own, from its S0: one pass serves all
    cfg = _small_cfg(tmp_path, position="none", kind="sinusoid", amplitude_rel_std=2.0, frequency=5.0)
    assert main(["sweep", str(cfg), "--axis", "N", "--values", "100,256,513,700", "--out", str(tmp_path / "n")]) == 0
    assert sorted(calls) == list(range(1, 701))  # 700 frames, not 1569


@pytest.mark.parametrize("case", ["B-rel", "C-abs"])
def test_a_sweep_sums_each_block_once_where_its_rows_end_on_block_ends(tmp_path, monkeypatch, case):
    import ghostsim.reconstruct as reconstruct

    blocks, real = [], reconstruct.block_sums

    def counting(rows, frames, **kw):
        blocks.append(len(frames))
        return real(rows, frames, **kw)

    monkeypatch.setattr(reconstruct, "block_sums", counting)
    cfg = _small_cfg(tmp_path, **_ENGINE_CASES[case])  # 16x16 blocks hold 256 records: rows of 256 and 512 end on block ends
    assert main(["sweep", str(cfg), "--axis", "N", "--values", "256,512,700", "--out", str(tmp_path / "s")]) == 0
    assert blocks == [256, 256, 188]  # one block_sums per block, a row's stop on its block's end included


def test_sweep_row_equals_run_metrics(tmp_path):
    cfg = _small_cfg(tmp_path, position="A", kind="sinusoid", amplitude_rel_std=50.0, frequency=0.5)
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert main(["sweep", str(cfg), "--axis", "N", "--values", "40", "--out", str(tmp_path / "s")]) == 0
    row = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1].split(",")
    gi = json.loads((tmp_path / "run" / "metrics_gi.json").read_text())["pearson_r"]
    igi = json.loads((tmp_path / "run" / "metrics_igi.json").read_text())["pearson_r"]
    assert (float(row[1]), float(row[2])) == (gi, igi)


def test_non_finite_numbers_exit_2_with_line(tmp_path, capsys):
    texts = {
        "nan.json": '{\n  "speckle": {"width": 16, "height": 16},\n  "object": {"builtin": "disk"},\n'
        '  "count": 5,\n  "noise": {"position": "B", "kind": "constant", "amplitude": NaN}\n}',
        "inf.json": '{\n  "speckle": {"width": 16, "height": 16,\n    "mean_intensity": Infinity},\n'
        '  "object": {"builtin": "disk"},\n  "count": 5\n}',
    }
    for (name, text), line in zip(texts.items(), (5, 3)):
        path = tmp_path / name
        path.write_text(text)
        out = tmp_path / f"out-{name}"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert f"{path}:{line}:" in capsys.readouterr().err
        assert not out.exists()


_ENGINE_CASES = {
    "none": {},
    "none-rel": {"position": "none", "kind": "sinusoid", "amplitude_rel_std": 3.0, "frequency": 0.5},
    "A-abs": {"position": "A", "kind": "sinusoid", "amplitude": 400.0, "frequency": 0.5},
    "A-rel": {"position": "A", "kind": "gaussian_white", "amplitude_rel_std": 5.0, "seed": 8},
    "B-abs": {"position": "B", "kind": "gaussian_white", "amplitude": 300.0, "seed": 2},
    "B-rel": {"position": "B", "kind": "sinusoid", "amplitude_rel_std": 200.0, "frequency": 0.05},
    "B-rel-constant": {"position": "B", "kind": "constant", "amplitude_rel_std": 7.0},
    "B-rel-poisson": {"position": "B", "kind": "poisson", "amplitude_rel_std": 2.0, "seed": 4},
    "C-abs": {"position": "C", "kind": "sinusoid", "amplitude": 30.0, "frequency": 0.5, "spatial": {"region": "right_half"}},
    "C-rel": {"position": "C", "kind": "sinusoid", "amplitude_rel_std": 0.1, "frequency": 0.5, "spatial": {"region": "full"}},
}


@pytest.mark.parametrize("case", sorted(_ENGINE_CASES))
def test_block_engine_matches_materialized_run(tmp_path, case):
    # 700 records at 16x16 are three blocks of 256, the last one partial
    data = {
        "speckle": {"width": 16, "height": 16, "seed": 7},
        "object": {"builtin": "disk"},
        "count": 700,
        "output": {"emit_frames": True, "emit_curves": True},
    }
    if _ENGINE_CASES[case]:
        data["noise"] = _ENGINE_CASES[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert main(["run", str(path), "--out", str(out)]) == 0

    # the reference materializes the resolved scenario the manifest records
    manifest = (out / "manifest.json").read_text()
    scenario = build_scenario(parse_config_text(manifest))[0]
    noise = _ENGINE_CASES[case]
    if "amplitude_rel_std" in noise:
        clean = clean_bucket_series(scenario)
        assert scenario.noise.waveform.amplitude == noise["amplitude_rel_std"] * float(clean.std())
    series = simulate(scenario)
    ref.mkdir()
    write_curve_csv(series.s, ref / "bucket_curve.csv")
    write_curve_csv(column_curve(series, 4), ref / "column_curve_left.csv")
    write_curve_csv(column_curve(series, 12), ref / "column_curve_right.csv")
    save_series(series, ref / "series.gsim")
    for name in ("bucket_curve.csv", "column_curve_left.csv", "column_curve_right.csv", "series.gsim"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    flat = series.frames.reshape(700, -1)
    gi = (series.s - series.s.mean()) @ (flat - flat.mean(axis=0)) / 700
    igi = np.diff(series.s) @ np.diff(flat, axis=0) / (2 * 699)
    assert_close_rel(load_f64(out / "gi.f64"), gi.reshape(16, 16), 1e-12, "GI")
    assert_close_rel(load_f64(out / "igi.f64"), igi.reshape(16, 16), 1e-12, "IGI")


@pytest.mark.parametrize("case", sorted(_ENGINE_CASES))
def test_shared_pass_rows_equal_runs_of_their_configs(tmp_path, capsys, case):
    # 16x16 blocks hold 256 records: 100 stops inside a block, 256 on its boundary, 700 is the longest row
    data = {"speckle": {"width": 16, "height": 16, "seed": 7}, "object": {"builtin": "disk"}, "count": 700,
            "output": {"emit_curves": False}}  # a run then needs the memory a sweep row needs
    noise = _ENGINE_CASES[case]
    if noise:
        data["noise"] = noise
    sweeps = [("N", "700,100,256,513,100"), ("N", "40,10000000000000,60")]  # the huge row fails alone
    if noise.get("position") in ("A", "B") and noise["kind"] in ("sinusoid", "gaussian_white"):
        sweeps.append(("noise-amplitude", "0,10,1e308"))
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    for axis, values in sweeps:
        path.write_text(json.dumps(data))
        assert main(["sweep", str(path), "--axis", axis, "--values", values, "--out", str(tmp_path / "s")]) == 0
        with open(tmp_path / "s" / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(values.split(","))
        for value, row in zip(values.split(","), rows):
            row_data = json.loads(json.dumps(data))
            if axis == "N":
                row_data["count"] = int(value)
            else:
                row_data["noise"].pop("amplitude_rel_std", None)
                row_data["noise"]["amplitude"] = float(value)
            path.write_text(json.dumps(row_data))
            code = main(["run", str(path), "--out", str(out)])
            err = capsys.readouterr().err
            if row[4] != "ok":
                assert (code, err) == (3, row[4] + "\n"), (value, row)
                continue
            assert code == 0, (value, err)
            scores = [json.loads((out / f"metrics_{name}.json").read_text())["pearson_r"] for name in ("gi", "igi")]
            ratio = json.loads((out / "validity.json").read_text())["ratio"]
            assert row[1:4] == [*map(repr, scores), repr(ratio)], (axis, value)
            shutil.rmtree(out)
        statuses = [row[4] for row in rows]
        if values.startswith("40,"):
            assert statuses[0] == statuses[2] == "ok" and "needs 1.60e+5 GB" in statuses[1]
        if axis == "noise-amplitude":
            assert statuses[:2] == ["ok", "ok"] and statuses[2].startswith("error: ")


def _tree(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("case", ["B-rel", "C-rel", "B-rel-poisson"])
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, frame_workers, case):
    # 700 records at 16x16: blocks of 256 in items of 64 frames, 11 items in all
    data = {"speckle": {"width": 16, "height": 16, "seed": 7}, "object": {"builtin": "disk"}, "count": 700,
            "noise": _ENGINE_CASES[case], "output": {"emit_frames": True, "emit_curves": True}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    trees = []
    for workers in (1, 3):
        frame_workers(workers)
        out = tmp_path / str(workers)
        assert main(["run", str(path), "--out", str(out / "run")]) == 0
        assert main(["sweep", str(path), "--axis", "N", "--values", "100,256,513,700", "--out", str(out / "s")]) == 0
        trees.append(_tree(out))
    assert "run/series.gsim" in trees[0] and "s/sweep.csv" in trees[0]
    assert trees[0] == trees[1]


def _fail_at_frame_300(monkeypatch, error) -> None:
    """From now on, the pool item that makes frame 300 raises error."""
    import ghostsim.measurement as measurement

    real = measurement.fill_frames

    def failing(params, first, out):
        if first <= 300 < first + len(out):
            raise error("frame 300 failed")
        return real(params, first, out)

    monkeypatch.setattr(measurement, "fill_frames", failing)


def test_no_pool_thread_calls_in_order(tmp_path, monkeypatch, frame_workers):
    # a pool call that waits on work queued behind it deadlocks once every worker does the same
    import ghostsim.measurement as measurement
    import ghostsim.reconstruct as reconstruct

    frame_workers(3)
    callers, real = [], measurement._in_order

    def guarded(fn, args):
        if threading.current_thread() in measurement._POOL._threads:
            raise AssertionError(f"_in_order({fn.__name__}) called from a pool thread")
        callers.append(fn.__name__)
        return real(fn, args)

    monkeypatch.setattr(measurement, "_in_order", guarded)
    monkeypatch.setattr(reconstruct, "_in_order", guarded)
    run_cfg = json.loads(_small_cfg(tmp_path, **_ENGINE_CASES["C-rel"]).read_text())  # an S0 pre-pass, then the pass
    run_cfg.update(count=700, output={"emit_frames": True, "emit_curves": True})
    (tmp_path / "run.json").write_text(json.dumps(run_cfg))
    assert main(["run", str(tmp_path / "run.json"), "--out", str(tmp_path / "run")]) == 0
    assert set(callers) == {"_fill_item", "_slab_sums"}
    callers.clear()
    cfg = _small_cfg(tmp_path, **_ENGINE_CASES["B-rel"])
    assert main(["sweep", str(cfg), "--axis", "N", "--values", "100,256,700", "--out", str(tmp_path / "s")]) == 0
    assert set(callers) == {"_fill_item", "_slab_sums"}
    callers.clear()
    series = ghostsim.load_series(tmp_path / "run" / "series.gsim")
    ghostsim.gi_reconstruct(series)
    ghostsim.igi_reconstruct(series)
    assert callers == ["block_sums", "block_sums"]
    callers.clear()
    acc = ghostsim.IgiAccumulator(16, 16)
    for record in ghostsim.simulate_stream(build_scenario(parse_config_text(json.dumps(run_cfg)))[0]):
        acc.push(record)
    acc.finalize()
    assert callers == ["_fill_item"]


@pytest.mark.parametrize("error, code", [(ContractError, 3), (OSError, 4)])
def test_a_frame_worker_error_is_the_run_error(tmp_path, capsys, monkeypatch, frame_workers, error, code):
    frame_workers(3)
    _fail_at_frame_300(monkeypatch, error)
    cfg = json.loads(_small_cfg(tmp_path, **_ENGINE_CASES["B-rel"]).read_text())
    cfg.update(count=700, output={"emit_frames": True, "emit_curves": True})
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["run", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "new" / "out")]) == code
    assert capsys.readouterr().err == "error: frame 300 failed\n"
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("case", ["none", "C-rel"])
def test_outputs_do_not_depend_on_the_callers_blas_threads(tmp_path, blas_threads, case):
    # 37x53: a shape where a BLAS (1, 256) @ (256, 1961) product split over two threads sums in another order
    get, put = blas_threads
    data = {"speckle": {"width": 37, "height": 53, "seed": 11}, "object": {"builtin": "disk"}, "count": 600,
            "output": {"emit_frames": True, "emit_curves": True}}
    if _ENGINE_CASES[case]:
        data["noise"] = _ENGINE_CASES[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    trees = []
    for threads in (1, 2):
        put(threads)
        out = tmp_path / str(threads)
        assert main(["run", str(path), "--out", str(out / "run")]) == 0
        assert main(["sweep", str(path), "--axis", "N", "--values", "100,257,600", "--out", str(out / "s")]) == 0
        assert get() == threads
        trees.append(_tree(out))
    assert "run/series.gsim" in trees[0] and "run/gi.f64" in trees[0] and "s/sweep.csv" in trees[0]
    assert trees[0] == trees[1]


def test_scores_do_not_depend_on_the_callers_blas_threads(tmp_path, blas_threads):
    # 128x128: a size where a BLAS dot product of 16384 pixels split over two threads sums in another order
    get, put = blas_threads
    data = {"speckle": {"width": 128, "height": 128, "seed": 11}, "object": {"builtin": "disk"}, "count": 150,
            "noise": _ENGINE_CASES["B-rel"]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    scores = []
    for threads in (1, 2):
        put(threads)
        out = tmp_path / str(threads)
        assert main(["run", str(path), "--out", str(out / "run")]) == 0
        assert main(["sweep", str(path), "--axis", "N", "--values", "70,150", "--out", str(out / "s")]) == 0
        assert get() == threads
        scores.append({name: (out / name).read_text() for name in ("run/metrics_gi.json", "run/metrics_igi.json", "s/sweep.csv")})
    assert scores[0] == scores[1]
    # metrics called directly, at sizes where a BLAS dot product splits over two threads in another summation order
    rng = np.random.Generator(np.random.PCG64(12))
    for size in (128, 256):
        truth = builtin_mask("disk", size, size)
        image = truth + rng.standard_normal((size, size))
        reports = []
        for threads in (1, 2):
            put(threads)
            reports.append(repr(quality_report(image, truth).to_dict()))
        assert reports[0] == reports[1], size


def test_evaluate_holds_no_frame_cube(tmp_path):
    # a 4000x64x64 float64 frame cube alone is 131 MB; one block of 256 frames is 8.4 MB
    text = json.dumps({
        "speckle": {"width": 64, "height": 64, "seed": 3},
        "object": {"builtin": "TH"},
        "count": 4000,
        "noise": {"position": "B", "kind": "sinusoid", "amplitude_rel_std": 200.0, "frequency": 0.005},
        "output": {"emit_curves": True},
    })
    cfg = parse_config_text(text)
    tracemalloc.start()
    try:
        run = evaluate(cfg, tmp_path)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.curves.shape == (2, 4000)
    assert peak < 32e6, f"evaluate peaked at {peak / 1e6:.1f} MB"


_REGIONS = st.sampled_from(["full", "right_half", "double_slit_right_half"])
_AMOUNTS = st.sampled_from([0.0, 1.0, 50.0, 1e308, -1.0]) | st.floats(0.0, 1e3)
_NOISE = st.fixed_dictionaries({
    "position": st.sampled_from(["none", "A", "B", "C"]),
    "kind": st.sampled_from(["off", "constant", "sinusoid", "gaussian_white", "poisson"]),
    "frequency": st.sampled_from([0.0, 0.5, 5.0]),
    "seed": st.integers(0, 3),
    "spatial": st.none() | st.fixed_dictionaries({"region": _REGIONS}),
})
# a PGM mask: one fill level, then a few pixels set to other levels
_PGM = st.tuples(
    st.sampled_from([0, 255]) | st.integers(0, 255),
    st.lists(st.tuples(st.integers(0, 255), st.sampled_from([0, 255]) | st.integers(0, 255)), max_size=4),
)
_VALUES = st.lists(st.sampled_from(["0", "1", "2.5", "3", "40", "-1", "1e308", "nan"]), min_size=1, max_size=3)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    size=st.tuples(st.integers(8, 16), st.integers(8, 16)),
    count=st.integers(0, 40),
    builtin=st.none() | st.sampled_from(BUILTIN_MASKS),
    pgm=_PGM,
    noise=st.none() | _NOISE,
    amount=st.tuples(st.booleans(), _AMOUNTS),
    emit_frames=st.booleans(),
    sweep=st.none() | st.tuples(st.sampled_from(SWEEP_AXES), _VALUES),
)
@example(  # one blocking pixel: exits 2 at object.pgm, since cnr needs two background pixels
    size=(16, 16), count=40, builtin=None, pgm=(255, [(52, 0)]), noise=None, amount=(False, 0.0),
    emit_frames=True, sweep=None,
)
@example(  # a poisson mean past numpy's limit: numpy's ValueError
    size=(8, 8), count=2, builtin="disk", pgm=(0, []), amount=(False, 0.0), emit_frames=False,
    noise={"position": "A", "kind": "poisson", "frequency": 0.0, "seed": 0, "spatial": None},
    sweep=("noise-amplitude", ["1e308"]),
)
@example(  # 2*pi*f*t past float range: math.sin(inf) raised
    size=(8, 8), count=2, builtin="disk", pgm=(0, []), amount=(False, 0.0), emit_frames=False,
    noise={"position": "A", "kind": "sinusoid", "frequency": 0.0, "seed": 0, "spatial": None},
    sweep=("noise-frequency", ["1e308"]),
)
def test_main_exits_0_2_3_or_4_and_a_failed_run_leaves_nothing(
    size, count, builtin, pgm, noise, amount, emit_frames, sweep
):
    (width, height), (relative, value) = size, amount
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = {"speckle": {"width": width, "height": height}, "count": count, "output": {"emit_frames": emit_frames}}
        if builtin is None:
            fill, pixels = pgm
            levels = np.full(width * height, fill, dtype=np.uint8)
            for at, level in pixels:
                levels[at % levels.size] = level
            save_mask(levels.reshape(height, width) / 255.0, tmp / "mask.pgm")
            cfg["object"] = {"pgm": str(tmp / "mask.pgm")}
        else:
            cfg["object"] = {"builtin": builtin}
        if noise is not None:
            cfg["noise"] = {**noise, "amplitude_rel_std" if relative else "amplitude": value}
        (tmp / "cfg.json").write_text(json.dumps(cfg))
        out = tmp / "made" / "out"
        if sweep is None:
            code = main(["run", str(tmp / "cfg.json"), "--out", str(out)])
            assert code in (0, 2, 3, 4)
            assert (code == 0) == (tmp / "made").exists()
        else:
            axis, values = sweep  # --values=V: a first value of -1 is not an option
            argv = ["sweep", str(tmp / "cfg.json"), "--axis", axis, f"--values={','.join(values)}", "--out", str(out)]
            assert main(argv) in (0, 2, 3, 4)


def test_perfbench_trace_mode_installs():
    # perfbench/spans.py wraps names where ghostsim.cli and ghostsim.measurement look them up, the noqa imports
    # among them; a fresh interpreter, since installing rebinds module attributes for the rest of the process
    spans = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    src = Path(ghostsim.__file__).resolve().parent.parent
    script = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('spans', sys.argv[1])\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "spans.Tracer().install()\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, str(spans)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
