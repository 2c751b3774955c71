import contextvars
import math
import os
import signal
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghostsim.measurement as measurement
import ghostsim.reconstruct as reconstruct
from ghostsim import (
    ConfigurationError,
    ContractError,
    MeasurementSeries,
    NoiseSpec,
    NoiseWaveform,
    PgmFormatError,
    Scenario,
    SpatialNoiseMask,
    SpeckleParams,
    bucket_signal,
    builtin_mask,
    clean_bucket_series,
    column_curve,
    generate_frame,
    gi_reconstruct,
    igi_reconstruct,
    load_f64,
    load_series,
    noise_value,
    run_blocks,
    save_f64,
    save_series,
    simulate,
    simulate_stream,
    write_curve_csv,
)
from ghostsim.measurement import POSITIONS
from ghostsim.noise import NOISE_KINDS, SPATIAL_REGIONS
from ghostsim.pgm import read_pgm, write_pgm
from ghostsim.reconstruct import IGI_NORMALIZATIONS
from ghostsim.speckle import fill_frames

_SP = SpeckleParams(width=16, height=16, seed=5)
_MASK = builtin_mask("disk", 16, 16)


def _scenario(position="none", waveform=None, spatial=None, count=12):
    noise = NoiseSpec(waveform=waveform or NoiseWaveform(), position=position, spatial=spatial)
    return Scenario(speckle=_SP, object_mask=_MASK, count=count, noise=noise)


def test_clean_run_matches_direct_generation():
    series = simulate(_scenario())
    for rec in series.records():
        frame = generate_frame(_SP, rec.n)
        assert np.array_equal(rec.frame, frame)
        assert rec.s == bucket_signal(frame, _MASK)


def test_noise_off_is_identical_at_every_position():
    base = simulate(_scenario(position="none"))
    for pos in ("A", "B"):
        other = simulate(_scenario(position=pos))
        assert np.array_equal(base.s, other.s)
        assert np.array_equal(base.frames, other.frames)
    c = simulate(_scenario(position="C", spatial=SpatialNoiseMask(region="full")))
    assert np.array_equal(base.s, c.s)
    assert np.array_equal(base.frames, c.frames)


def test_position_a_scales_by_object_coupling():
    wf = NoiseWaveform(kind="constant", amplitude=1000.0)
    base = simulate(_scenario())
    noisy = simulate(_scenario(position="A", waveform=wf))
    kappa = _MASK.sum() / (16 * 16)
    assert np.allclose(noisy.s, base.s + 1000.0 * kappa, rtol=0, atol=1e-9)
    assert np.array_equal(noisy.frames, base.frames)


def test_position_b_adds_waveform_to_bucket():
    wf = NoiseWaveform(kind="sinusoid", amplitude=500.0, frequency=5.0, sample_rate=25.0)
    base = simulate(_scenario())
    noisy = simulate(_scenario(position="B", waveform=wf))
    expected = base.s + np.array([noise_value(wf, n) for n in range(1, 13)])
    assert np.array_equal(noisy.s, expected)
    assert np.array_equal(noisy.frames, base.frames)


def test_position_b_sinusoid_disturbance_is_periodic():
    wf = NoiseWaveform(kind="sinusoid", amplitude=500.0, frequency=5.0, sample_rate=25.0)
    noisy = simulate(_scenario(position="B", waveform=wf, count=40))
    clean = clean_bucket_series(_scenario(position="B", waveform=wf, count=40))
    disturbance = noisy.s - clean
    # 5 Hz sampled at 25/s: period 5 steps
    assert np.allclose(disturbance[5:], disturbance[:-5], rtol=0, atol=1e-6)
    assert disturbance.max() > 400.0


def test_position_c_perturbs_frames_not_bucket():
    wf = NoiseWaveform(kind="constant", amplitude=7.0)
    spatial = SpatialNoiseMask(region="right_half")
    base = simulate(_scenario())
    noisy = simulate(_scenario(position="C", waveform=wf, spatial=spatial))
    assert np.array_equal(noisy.s, base.s)
    # untouched columns stay bit-identical
    assert np.array_equal(noisy.frames[:, :, :8], base.frames[:, :, :8])
    assert np.array_equal(noisy.frames[:, :, 8:], base.frames[:, :, 8:] + 7.0)


def test_records_stay_nonnegative_under_noise():
    wf = NoiseWaveform(kind="poisson", amplitude=50.0, seed=2)
    for pos, spatial in (("A", None), ("B", None), ("C", SpatialNoiseMask(region="full"))):
        series = simulate(_scenario(position=pos, waveform=wf, spatial=spatial))
        assert series.s.min() >= 0.0
        assert series.frames.min() >= 0.0


def test_simulate_is_deterministic():
    wf = NoiseWaveform(kind="gaussian_white", amplitude=10.0, seed=9)
    a = simulate(_scenario(position="B", waveform=wf))
    b = simulate(_scenario(position="B", waveform=wf))
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.frames, b.frames)


def test_stream_matches_materialized():
    wf = NoiseWaveform(kind="gaussian_white", amplitude=10.0, seed=9)
    scenario = _scenario(position="B", waveform=wf)
    series = simulate(scenario)
    for rec, (i, s) in zip(simulate_stream(scenario), enumerate(series.s)):
        assert rec.n == i + 1
        assert rec.s == s
        assert np.array_equal(rec.frame, series.frames[i])


@pytest.mark.parametrize(
    "width, height, count, items",
    [
        pytest.param(64, 64, 301, [16] * 18 + [13], id="64-64-301"),
        pytest.param(37, 53, 300, [33] * 7 + [25, 33, 11], id="37-53-300"),
        pytest.param(256, 256, 22, [1] * 22, id="256-256-22"),
    ],
)
def test_pooled_frames_equal_generate_frame_for_any_worker_count(frame_workers, monkeypatch, width, height, count, items):
    # items of about 65536 pixels over blocks of 256, 256 and 16 frames: 19, 10 and 22 items, none a multiple of 3
    sp = SpeckleParams(width=width, height=height, grain_radius=1.5, seed=9)
    scenario = Scenario(speckle=sp, object_mask=builtin_mask("disk", width, height), count=count)
    expected = [generate_frame(sp, k) for k in range(1, count + 1)]
    out = np.zeros((5, height, width))
    fill_frames(sp, 3, out[1:4])  # into the middle of a buffer, as a pool item does
    assert np.array_equal(out[1:4], expected[2:5]) and not out[[0, 4]].any()
    real, made = measurement.fill_frames, []
    monkeypatch.setattr(measurement, "fill_frames", lambda params, first, out: made.append((first, len(out))) or real(params, first, out))
    for workers in (1, 3):
        frame_workers(workers)
        s0, seen, made[:] = np.empty(count), 0, []
        for a, frames in measurement.clean_blocks(scenario, s0):
            assert a == seen and np.array_equal(frames, expected[a : a + len(frames)]), (workers, a)
            seen += len(frames)
        assert seen == count
        assert [m for _, m in sorted(made)] == items  # the pool's threads call it, so sort by ordinal
        assert s0.tolist() == [bucket_signal(frame, scenario.object_mask) for frame in expected]


@pytest.mark.parametrize("size, count, items", [(16, 2055, [256] * 8 + [7]), (64, 141, [16] * 8 + [13]), (128, 33, [4] * 8 + [1])])
def test_stream_does_not_depend_on_the_worker_count(frame_workers, monkeypatch, size, count, items):
    # items as in clean_blocks, 9 of them, 2 or 6 ahead, none a multiple of 3; position C adds its noise to the yielded frame
    wf = NoiseWaveform(kind="sinusoid", amplitude=30.0, frequency=0.5, sample_rate=25.0)
    noise = NoiseSpec(waveform=wf, position="C", spatial=SpatialNoiseMask(region="right_half"))
    sp = SpeckleParams(width=size, height=size, seed=5)
    scenario = Scenario(speckle=sp, object_mask=builtin_mask("disk", size, size), count=count, noise=noise)
    series, real, made = simulate(scenario), measurement.fill_frames, []
    monkeypatch.setattr(measurement, "fill_frames", lambda params, first, out: made.append((first, len(out))) or real(params, first, out))
    for workers in (1, 3):
        frame_workers(workers)
        made[:] = []
        records = list(simulate_stream(scenario))
        assert [m for _, m in sorted(made)] == items  # the pool's threads call it, so sort by ordinal
        assert [rec.n for rec in records] == list(range(1, count + 1))
        assert [rec.s for rec in records] == series.s.tolist()
        assert np.array_equal([rec.frame for rec in records], series.frames)


def test_closing_a_stream_cancels_the_frames_not_started(monkeypatch):
    # one thread, six items of 16 ahead: item 17 holds the thread until released, so 33 .. 97 wait in the queue
    pool, started, release = ThreadPoolExecutor(1), [], threading.Event()
    monkeypatch.setattr(measurement, "_POOL", pool)
    monkeypatch.setattr(measurement, "_WORKERS", 3)
    real = measurement.fill_frames

    def gated(params, first, out):
        started.append(first)
        if first > 1:
            release.wait(30)
        return real(params, first, out)

    monkeypatch.setattr(measurement, "fill_frames", gated)
    sp = SpeckleParams(width=64, height=64, seed=5)
    stream = simulate_stream(Scenario(speckle=sp, object_mask=builtin_mask("disk", 64, 64), count=128))
    assert [next(stream).n for _ in range(4)] == [1, 2, 3, 4]
    stream.close()
    release.set()
    pool.shutdown(wait=True)
    assert started in ([1], [1, 17])


def test_in_order_yields_in_order_a_bounded_way_ahead_and_cancels_on_close(frame_workers, monkeypatch):
    frame_workers(3)
    finished, gate = [], threading.Event()

    def late_first(i):  # call 0 waits until call 2 has finished
        if i == 0:
            gate.wait(30)
        finished.append(i)
        if i == 2:
            gate.set()
        return i * i

    with closing(measurement._in_order(late_first, zip(range(3)))) as results:
        assert list(results) == [0, 1, 4]
    assert finished.index(2) < finished.index(0)

    tag = contextvars.ContextVar("tag", default="unset")  # each call runs in the context its caller had at submission
    tag.set("caller's")
    with closing(measurement._in_order(lambda i: (i, tag.get()), zip(range(8)))) as results:
        assert list(results) == [(i, "caller's") for i in range(8)]

    pulled = []

    def args():
        for i in range(40):
            pulled.append(i)
            yield (i,)

    with closing(measurement._in_order(lambda i: i, args())) as results:
        seen = [(r, len(pulled) - i) for i, r in enumerate(results)]  # calls submitted and not consumed, as r arrives
    assert [r for r, _ in seen] == list(range(40)) and max(ahead for _, ahead in seen) == 2 * 3 + 1

    later_failed, got = threading.Event(), []

    def fails(i):  # call 3 fails first, then call 2
        if i == 3:
            later_failed.set()
            raise ValueError("call 3")
        if i == 2:
            later_failed.wait(30)
            raise ValueError("call 2")
        return i

    with pytest.raises(ValueError, match="call 2"), closing(measurement._in_order(fails, zip(range(6)))) as results:
        got.extend(results)
    assert got == [0, 1]

    # one thread, five calls submitted: call 1 holds the thread, so 2 .. 4 wait in the queue until closed
    pool, started, running, release = ThreadPoolExecutor(1), [], threading.Event(), threading.Event()
    monkeypatch.setattr(measurement, "_POOL", pool)
    monkeypatch.setattr(measurement, "_WORKERS", 2)

    def held(i):
        started.append(i)
        if i == 1:
            running.set()
            release.wait(30)
        return i

    results = measurement._in_order(held, zip(range(10)))
    assert next(results) == 0 and running.wait(30)
    results.close()
    release.set()
    pool.shutdown(wait=True)
    assert started == [0, 1]


def _in_a_forked_child(check) -> None:
    """Assert that check() is true in a forked child, which has 60 s."""
    pid = os.fork()
    if pid == 0:
        try:
            os._exit(0 if check() else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if done[0] == 0:  # still waiting on a pool with no threads
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_makes_frames_on_a_pool_of_its_own():
    # the parent's pool has run (items of 256 frames at 16x16); the child inherits it without its threads
    scenario = _scenario(count=300)
    expected = clean_bucket_series(scenario)
    _in_a_forked_child(lambda: np.array_equal(clean_bucket_series(scenario), expected))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_replays_on_a_pool_of_its_own():
    # the parent's pool has summed 4 blocks of 256 records at 16x16; the child inherits it without its threads
    series = simulate(_scenario(count=1000))
    expected = gi_reconstruct(series)
    _in_a_forked_child(lambda: np.array_equal(gi_reconstruct(series), expected))


def test_clean_bucket_series_ignores_noise():
    wf = NoiseWaveform(kind="constant", amplitude=9999.0)
    clean = clean_bucket_series(_scenario())
    also_clean = clean_bucket_series(_scenario(position="B", waveform=wf))
    assert np.array_equal(clean, also_clean)
    assert np.array_equal(clean, simulate(_scenario()).s)


def test_simulate_keeps_the_clean_bucket():
    wf = NoiseWaveform(kind="sinusoid", amplitude=300.0, frequency=2.0, sample_rate=25.0)
    clean = clean_bucket_series(_scenario())
    for pos, spatial in (("none", None), ("A", None), ("B", None), ("C", SpatialNoiseMask(region="full"))):
        scenario = _scenario(position=pos, waveform=wf, spatial=spatial)
        run = run_blocks(scenario)
        assert np.array_equal(run.s0, clean)
        assert run.scenario is scenario  # an absolute amplitude is left as given
        assert np.array_equal(run.s, simulate(scenario).s)


def test_relative_amplitude_resolves_from_the_same_pass(monkeypatch):
    wf = NoiseWaveform(kind="sinusoid", amplitude=0.0, frequency=2.0, sample_rate=25.0)
    scenario = _scenario(position="B", waveform=wf)
    clean = clean_bucket_series(scenario)
    frames = []
    real = measurement.fill_frames

    def counting(params, first, out):  # the pool's threads call it, so compare the ordinals sorted
        frames.extend(range(first, first + len(out)))
        return real(params, first, out)

    monkeypatch.setattr(measurement, "fill_frames", counting)
    run = run_blocks(scenario, amplitude_rel_std=3.0)
    assert sorted(frames) == list(range(1, 13))  # N frames: S0 comes from the pass that makes them
    resolved = run.scenario.noise.waveform
    assert resolved.amplitude == 3.0 * float(clean.std())
    assert np.array_equal(run.s0, clean)
    assert np.array_equal(run.s, clean + np.array([noise_value(resolved, n) for n in range(1, 13)]))
    assert scenario.noise.waveform.amplitude == 0.0  # the input scenario is left as it was
    # a poisson S needs A during the pass: S0 alone first (clean_bucket_series), then one engine pass
    passes, frames[:] = [], []
    real_pass = reconstruct.clean_blocks
    monkeypatch.setattr(reconstruct, "clean_blocks", lambda *a: passes.append(a) or real_pass(*a))
    poisson = run_blocks(_scenario(position="B", waveform=NoiseWaveform(kind="poisson", seed=3)), amplitude_rel_std=3.0)
    assert len(frames) == 24 and len(passes) == 1
    assert poisson.scenario.noise.waveform.amplitude == resolved.amplitude
    flat = Scenario(speckle=_SP, object_mask=np.zeros((16, 16)), count=12)
    with pytest.raises(ConfigurationError):
        run_blocks(flat, amplitude_rel_std=1.0)


def test_block_pass_rows_are_their_runs_bit_for_bit():
    # 16x16 blocks hold 256 records: 100 and 513 end inside a block, 256 on its boundary
    wf = NoiseWaveform(kind="gaussian_white", amplitude=40.0, seed=3)
    split = _scenario(position="A", waveform=wf, count=700)
    louder = replace(split, noise=replace(split.noise, waveform=replace(wf, amplitude=900.0)))  # a split row
    spatial = SpatialNoiseMask(region="right_half")
    in_frames = _scenario(position="C", waveform=NoiseWaveform(kind="constant", amplitude=5.0), spatial=spatial, count=700)
    for scenario, rel, extra in ((split, 4.0, []), (split, None, [louder]), (in_frames, None, [])):
        rows = [replace(scenario, count=m) for m in (100, 256, 513, 700)] + extra
        finish = reconstruct.block_pass(rows, rel)
        for row in rows:
            shared, alone = finish(row), run_blocks(row, rel)
            assert shared.scenario.digest() == alone.scenario.digest()
            for name in ("s0", "s", "gi", "igi"):
                assert np.array_equal(getattr(shared, name), getattr(alone, name)), (row.count, name)


def _counting_frames():
    """(made, patch): within patch, the ordinals of every frame made are appended to made, as the pool starts them."""
    made, real = [], measurement.fill_frames

    def counting(params, first, out):
        made.extend(range(first, first + len(out)))
        return real(params, first, out)

    return made, mock.patch.object(measurement, "fill_frames", counting)


def test_block_pass_serves_only_rows_of_its_pass():
    # rows share a pass only where their pass_key is one: a row that would get the pass's images under its own digest is
    # refused before the first frame, and finish refuses any row not of its pass
    wf = NoiseWaveform(kind="sinusoid", amplitude=40.0, frequency=0.5)
    scenario = _scenario(position="B", waveform=wf, count=300)
    faster = replace(scenario, noise=replace(scenario.noise, waveform=replace(wf, frequency=5.0)))
    reseeded = replace(scenario, speckle=replace(_SP, seed=6))
    # without a split, S holds the A resolved from all 300 S0 values: a row of 100 would resolve another
    constant = _scenario(position="B", waveform=NoiseWaveform(kind="constant"), count=300)
    made, counting = _counting_frames()
    with counting:
        refused = [([scenario, faster], None), ([scenario, reseeded], None), ([constant, replace(constant, count=100)], 2.0)]
        for rows, rel in refused + [([], None)]:
            with pytest.raises(ContractError):
                reconstruct.block_pass(rows, rel)
        assert made == []
        finish = reconstruct.block_pass([scenario, replace(scenario, count=100)])
    for row in (faster, replace(faster, count=100), reseeded, replace(scenario, count=200)):  # 200: a count not given
        with pytest.raises(ContractError):
            finish(row)
    assert finish(replace(scenario, count=100)).scenario.count == 100
    relative = reconstruct.block_pass([constant], 2.0)
    with pytest.raises(ContractError):
        relative(replace(constant, count=100))
    run = relative(constant)
    assert run.scenario.digest() == run_blocks(constant, 2.0).scenario.digest()
    assert relative(run.scenario).scenario.digest() == run.scenario.digest()  # resolved, a row is of its pass still
    quiet = _scenario(count=300)  # no noise: finish resolves A all the same
    assert reconstruct.block_pass([quiet], 2.0)(quiet).scenario.noise.waveform.amplitude > 0.0


@st.composite
def _pass_rows(draw):
    """The parameters of one block pass: a grid up to 24x24, up to three 256-record blocks and part of one, any noise."""
    width, height = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    return {
        "width": width, "height": height, "seed": draw(st.integers(0, 2**64 - 1)),
        "count": draw(st.integers(2, 3 * 256 + 255)), "counts": draw(st.lists(st.integers(2, 3 * 256 + 255), max_size=3)),
        "position": draw(st.sampled_from(POSITIONS)), "region": draw(st.sampled_from(SPATIAL_REGIONS)),
        "kind": draw(st.sampled_from(NOISE_KINDS)), "frequency": draw(st.floats(0.0, 12.5)),
        "amplitude": draw(st.floats(0.0, 100.0)), "amplitudes": draw(st.lists(st.floats(0.0, 1e4), max_size=2)),
        "rel": draw(st.none() | st.floats(0.1, 5.0)), "normalization": draw(st.sampled_from(IGI_NORMALIZATIONS)),
        "columns": tuple(draw(st.lists(st.integers(0, width - 1), max_size=2))),
    }


# draws 60 examples; `pytest --hypothesis-profile slow` (tests/conftest.py) draws more
@settings(derandomize=True, database=None, deadline=None)
@given(p=_pass_rows())
@example(p={"width": 1, "height": 23, "seed": 9, "count": 700, "counts": [100, 256, 513], "position": "A",
            "region": "full", "kind": "gaussian_white", "frequency": 0.0, "amplitude": 3.0, "amplitudes": [0.0, 40.0],
            "rel": 2.0, "normalization": "unbiased", "columns": (0,)})
@example(p={"width": 13, "height": 7, "seed": 4, "count": 513, "counts": [513, 100], "position": "C",
            "region": "custom", "kind": "poisson", "frequency": 0.0, "amplitude": 3.0, "amplitudes": [],
            "rel": 0.5, "normalization": "paper-literal", "columns": (12, 3)})
def test_block_pass_rows_are_their_runs_and_share_its_frames(p):
    """Every row of a pass is run_blocks of that row, bit for bit; the pass makes each frame once, twice where a
    relative amplitude meets an active bucket that does not split; a row of another pass is refused before any frame."""
    sp, rng = SpeckleParams(width=p["width"], height=p["height"], seed=p["seed"]), np.random.default_rng(p["seed"])
    weights = rng.random((p["height"], p["width"])) if p["region"] == "custom" else None
    spatial = SpatialNoiseMask(p["region"], weights) if p["position"] == "C" else None
    wf = NoiseWaveform(p["kind"], p["amplitude"], p["frequency"], seed=p["seed"] % 1000)
    base = Scenario(sp, rng.random((p["height"], p["width"])), p["count"], NoiseSpec(wf, p["position"], spatial))
    rel, split = p["rel"], p["position"] in ("A", "B") and p["kind"] in ("sinusoid", "gaussian_white")
    shares = [m == base.count or rel is None or split for m in p["counts"]]  # S needs A, which needs all of S0
    rows = [base] + [replace(base, count=m) for m, share in zip(p["counts"], shares) if share]
    rows += [replace(base, noise=replace(base.noise, waveform=replace(wf, amplitude=a))) for a in p["amplitudes"] if split]
    foreign = [replace(base, speckle=replace(sp, seed=p["seed"] ^ 1))]
    foreign += [replace(base, count=m) for m, share in zip(p["counts"], shares) if not share]
    made, counting = _counting_frames()
    with counting:
        for row in foreign:
            with pytest.raises(ContractError):
                reconstruct.block_pass(rows + [row], rel, p["normalization"], p["columns"])
        assert made == []
        finish = reconstruct.block_pass(rows, rel, p["normalization"], p["columns"])
    active = p["position"] != "none" and p["kind"] != "off"
    ordinals = range(1, max(row.count for row in rows) + 1)
    assert sorted(made) == sorted([*ordinals] * (2 if rel is not None and not split and active else 1))
    for row in rows:
        shared, alone = finish(row), run_blocks(row, rel, p["normalization"], p["columns"])
        assert shared.scenario.digest() == alone.scenario.digest() == finish(shared.scenario, False).scenario.digest()
        for name in ("s0", "s", "gi", "igi", "curves"):
            assert np.array_equal(getattr(shared, name), getattr(alone, name)), (row.count, name)
    with pytest.raises(ContractError):
        finish(foreign[0])


def test_digest_tracks_parameters():
    base = _scenario().digest()
    assert base == _scenario().digest()
    assert base != _scenario(count=13).digest()
    other_seed = Scenario(
        speckle=SpeckleParams(width=16, height=16, seed=6), object_mask=_MASK, count=12
    )
    assert base != other_seed.digest()
    wf = NoiseWaveform(kind="constant", amplitude=1.0)
    assert base != _scenario(position="B", waveform=wf).digest()


def test_scenario_validation():
    with pytest.raises(ConfigurationError):
        Scenario(speckle=_SP, object_mask=builtin_mask("disk", 8, 8), count=12)
    with pytest.raises(ConfigurationError):
        Scenario(speckle=_SP, object_mask=_MASK, count=1)
    with pytest.raises(ConfigurationError):
        Scenario(speckle=_SP, object_mask=_MASK * 2.0, count=12)
    with pytest.raises(ConfigurationError) as nan:
        Scenario(speckle=_SP, object_mask=np.where(_MASK > 0.5, np.nan, 0.0), count=12)
    assert nan.value.field == "object_mask"
    with pytest.raises(ConfigurationError):
        NoiseSpec(position="D")
    with pytest.raises(ConfigurationError):
        NoiseSpec(position="C")  # needs a spatial mask


def test_curves():
    series = simulate(_scenario())
    col = column_curve(series, 3)
    assert np.allclose(col, series.frames[:, :, 3].sum(axis=1), rtol=0, atol=0)
    with pytest.raises(ContractError):
        column_curve(series, 16)
    with pytest.raises(ContractError):
        column_curve(series, -1)


def test_series_container_round_trip(tmp_path):
    series = simulate(_scenario(count=5))
    path = tmp_path / "run.gsim"
    save_series(series, path)
    back = load_series(path)
    assert len(back) == 5
    assert back.width == 16 and back.height == 16
    assert np.array_equal(back.s, series.s)  # bucket kept at full precision
    assert np.array_equal(back.frames, series.frames.astype(np.float32).astype(np.float64))


def test_series_container_errors(tmp_path):
    good = tmp_path / "run.gsim"
    series = simulate(_scenario(count=3))
    save_series(series, good)
    data = good.read_bytes()

    bad_magic = tmp_path / "a.bin"
    bad_magic.write_bytes(b"XSIM" + data[4:])
    with pytest.raises(PgmFormatError):
        load_series(bad_magic)

    truncated = tmp_path / "b.bin"
    truncated.write_bytes(data[:-10])
    with pytest.raises(PgmFormatError):
        load_series(truncated)

    bad_version = tmp_path / "c.bin"
    bad_version.write_bytes(data[:4] + b"\x09\x00\x00\x00" + data[8:])
    with pytest.raises(PgmFormatError):
        load_series(bad_version)

    zero_width = tmp_path / "d.bin"  # 3 records of 8 bytes each pass the size check
    zero_width.write_bytes(struct.pack("<4sIIII", b"GSIM", 1, 0, 16, 3) + data[20:])
    with pytest.raises(PgmFormatError):
        load_series(zero_width)
    with pytest.raises(ContractError):
        MeasurementSeries(s=np.zeros(3), frames=np.zeros((3, 16, 0)))


def test_series_container_hand_packed_layout(tmp_path):
    # packed by hand to the documented layout: header, then per record <f8 bucket and <f4 frame, row-major
    width, height = 3, 2
    buckets = [1.5, -2.25, 1e300]
    frames = [[float(i * 10 + p) / 8.0 for p in range(width * height)] for i in range(3)]
    data = struct.pack("<4sIIII", b"GSIM", 1, width, height, 3)
    for s, frame in zip(buckets, frames):
        data += struct.pack("<d", s) + struct.pack(f"<{width * height}f", *frame)
    path = tmp_path / "hand.gsim"
    path.write_bytes(data)
    back = load_series(path)
    assert back.frames.dtype == np.float32  # the stored precision, not widened
    assert back.s.tolist() == buckets
    assert np.array_equal(back.frames, np.array(frames, dtype=np.float32).reshape(3, height, width))
    again = tmp_path / "again.gsim"
    save_series(back, again)
    assert again.read_bytes() == data


def test_series_container_resave_is_byte_identical(tmp_path):
    simulated = simulate(_scenario(count=5))
    rng = np.random.Generator(np.random.PCG64(3))
    stored = MeasurementSeries(s=rng.normal(size=4), frames=rng.exponential(size=(4, 5, 7)).astype(np.float32))
    for name, series in (("f64", simulated), ("f32", stored)):
        first, second = tmp_path / f"{name}-1.gsim", tmp_path / f"{name}-2.gsim"
        save_series(series, first)
        save_series(load_series(first), second)
        assert first.read_bytes() == second.read_bytes(), name


def test_series_container_rejects_oversized_headers_before_allocating(tmp_path, monkeypatch):
    good = tmp_path / "run.gsim"
    save_series(simulate(_scenario(count=3)), good)
    data = good.read_bytes()

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before checking the header against the file size")

    monkeypatch.setattr(measurement, "_gsim_record", refuse)
    monkeypatch.setattr(np, "fromfile", refuse)
    too_many = tmp_path / "many.gsim"
    too_many.write_bytes(data[:16] + struct.pack("<I", 4) + data[20:])  # claims 4 records, holds 3
    huge = tmp_path / "huge.gsim"
    huge.write_bytes(struct.pack("<4sIIII", b"GSIM", 1, 65535, 65535, 2) + data[20:])
    empty = tmp_path / "empty.gsim"
    empty.write_bytes(struct.pack("<4sIIII", b"GSIM", 1, 65535, 65535, 0))
    for path in (too_many, huge, empty):
        with pytest.raises(PgmFormatError):
            load_series(path)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Bytes of a valid 3-record 4x3 .gsim, a 3x2 .f64 and a 4x3 8-bit PGM, and a directory to write edits to."""
    directory = tmp_path_factory.mktemp("formats")
    rng = np.random.Generator(np.random.PCG64(4))
    save_series(MeasurementSeries(s=rng.normal(size=3), frames=rng.exponential(size=(3, 3, 4))), directory / "v.gsim")
    save_f64(rng.normal(size=(2, 3)), directory / "v.f64")
    write_pgm(directory / "v.pgm", rng.integers(0, 256, size=(3, 4)), 255)
    return directory, {fmt: (directory / f"v.{fmt}").read_bytes() for fmt in ("gsim", "f64", "pgm")}


@settings(max_examples=2000, derandomize=True, database=None, deadline=None)
@given(
    fmt=st.sampled_from(["gsim", "f64", "pgm"]),
    at=st.integers(0, 400),
    byte=st.none() | st.integers(0, 255),
    tail=st.none() | st.binary(max_size=96),
)
@example(fmt="gsim", at=8, byte=0, tail=None)  # width 0: 3 records of 8 bytes pass the size check
@example(fmt="f64", at=12, byte=0, tail=None)  # height 0
@example(fmt="gsim", at=0, byte=None, tail=struct.pack("<IIII", 1, 1, 1, 2) + bytes(24))  # two 1x1 records
def test_any_truncation_or_byte_edit_loads_or_raises_format_error(valid_files, fmt, at, byte, tail):
    """byte None truncates the file at `at`; otherwise the byte at `at` (modulo the size) becomes `byte`.

    A tail instead keeps only the format's magic and appends the tail's arbitrary bytes.
    """
    directory, files = valid_files
    data = bytearray(files[fmt])
    if tail is not None:
        data = data[: 2 if fmt == "pgm" else 4] + tail
    elif byte is None:
        del data[at % len(data):]
    else:
        data[at % len(data)] = byte
    path = directory / f"edited.{fmt}"
    path.write_bytes(data)
    try:
        loaded = {"gsim": load_series, "f64": load_f64, "pgm": lambda p: read_pgm(p)[0]}[fmt](path)
    except PgmFormatError:
        return
    if fmt != "gsim":
        assert loaded.size > 0
        return
    with np.errstate(all="ignore"):  # edited frames may hold NaN or inf
        gi_reconstruct(loaded)
        igi_reconstruct(loaded)
    save_series(loaded, directory / "again.gsim")


def test_curve_csv_round_trip(tmp_path):
    values = np.array([1.5, math.pi, 1e-17, 123456789.123456])
    path = tmp_path / "curve.csv"
    write_curve_csv(values, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 5
    for i, line in enumerate(lines[1:]):
        n, v = line.split(",")
        assert int(n) == i + 1
        assert float(v) == values[i]  # repr round-trips exactly
