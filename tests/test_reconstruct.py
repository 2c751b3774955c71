import threading
import warnings
from functools import reduce
from itertools import product, starmap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghostsim.measurement as measurement
import ghostsim.reconstruct as reconstruct
from ghostsim import (
    ContractError,
    DegenerateInputError,
    IgiAccumulator,
    MeasurementRecord,
    MeasurementSeries,
    NoiseWaveform,
    PgmFormatError,
    builtin_mask,
    gi_reconstruct,
    igi_reconstruct,
    load_f64,
    load_series,
    save_f64,
    save_recon_pgm,
    save_series,
    simulate,
    validity_diagnostic,
)
from ghostsim.measurement import Scenario, block_records
from ghostsim.reconstruct import Sums, block_sums, fold
from ghostsim.speckle import SpeckleParams

from conftest import assert_close_rel, oracle_covariance_image, synthetic_series


def _hand_series():
    # Two 1x1 records, worked by hand:
    #   s = (1, 3), frames = (2, 6)
    #   means: <s> = 2, <I> = 4
    #   GI  = [(1-2)(2-4) + (3-2)(6-4)] / 2       = (2 + 2) / 2 = 2
    #   IGI = [(3-1)(6-2)] / (2 * 1 pair)          = 8 / 2       = 4
    s = np.array([1.0, 3.0])
    frames = np.array([[[2.0]], [[6.0]]])
    return MeasurementSeries(s=s, frames=frames)


def test_hand_example_exact():
    series = _hand_series()
    assert gi_reconstruct(series)[0, 0] == 2.0
    assert igi_reconstruct(series)[0, 0] == 4.0


def test_gi_matches_naive_oracle():
    for seed in (1, 2, 3):
        series = synthetic_series(seed)
        assert_close_rel(gi_reconstruct(series), oracle_covariance_image(series), 1e-9, f"seed {seed}")


def test_gi_blocked_accumulation_spans_block_boundary():
    # more records than one accumulation block
    series = synthetic_series(9, count=2100, width=3, height=2)
    assert_close_rel(gi_reconstruct(series), oracle_covariance_image(series), 1e-9)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(2, 30),
    cuts=st.lists(st.integers(1, 29), max_size=8),
    amplitude=st.floats(-1e3, 1e3),
)
def test_fold_of_pieces_cut_anywhere_matches_the_definitions(seed, count, cuts, amplitude):
    # rows [S0, u] with weights [1, A] are the bucket S = S0 + A*u; cuts give one-record and uneven pieces
    series = synthetic_series(seed, count=count, width=3, height=2)
    u = np.random.Generator(np.random.PCG64(seed + 1)).normal(size=count)
    edges = sorted({0, count, *(c for c in cuts if c < count)})
    rows = np.stack((series.s, u))
    pieces = [block_sums(rows[:, a:b], series.frames[a:b]) for a, b in zip(edges, edges[1:])]
    weights = [1.0, amplitude]
    bucket = MeasurementSeries(s=series.s + amplitude * u, frames=series.frames)
    igi = np.diff(bucket.s) @ np.diff(series.frames.reshape(count, -1), axis=0) / (2 * (count - 1))
    # in ordinal order from the left, as the engine folds, and from the right, as a merge of later ranges would
    for sums in (reduce(fold, pieces, Sums(0)), reduce(lambda acc, piece: fold(piece, acc), pieces[::-1], Sums(0))):
        assert sums.n == count
        assert_close_rel(sums.gi((2, 3), weights), oracle_covariance_image(bucket), 1e-9, f"GI at {edges}")
        assert_close_rel(sums.igi((2, 3), weights), igi.reshape(2, 3), 1e-9, f"IGI at {edges}")


def test_blocks_are_bounded_in_bytes_above_64x64(tmp_path):
    # 128x128 holds 64 records per block (8 MB of f64 frames), so 600 records span ten blocks
    series = synthetic_series(11, count=600, width=128, height=128)
    assert block_records(128, 128) == 64
    flat = series.frames.reshape(600, -1)
    gi = (series.s - series.s.mean()) @ (flat - flat.mean(axis=0)) / 600
    igi = np.diff(series.s) @ np.diff(flat, axis=0) / (2 * 599)
    assert_close_rel(gi_reconstruct(series), gi.reshape(128, 128), 1e-12)
    assert_close_rel(igi_reconstruct(series), igi.reshape(128, 128), 1e-12)
    save_series(series, tmp_path / "s.gsim")
    back = load_series(tmp_path / "s.gsim")
    assert np.array_equal(back.s, series.s) and np.array_equal(back.frames, series.frames.astype(np.float32))


def test_streaming_equals_batch():
    # 77 records are one block of igi_reconstruct, and one-record pushes fold its products one at a time: the same
    # bytes, on frames of one pixel too
    for seed, width, height in ((4, 8, 8), (0, 1, 1), (1, 1, 1), (2, 1, 1), (3, 3, 1)):
        series = synthetic_series(seed, 77, width, height)
        acc = IgiAccumulator(width, height)
        for rec in series.records():
            acc.push(rec)
        assert acc.finalize().tobytes() == igi_reconstruct(series).tobytes(), (seed, width, height)


def test_accumulator_snapshot_semantics():
    series = synthetic_series(5, count=10)
    recs = list(series.records())
    acc = IgiAccumulator(series.width, series.height)
    for rec in recs[:6]:
        acc.push(rec)
    first = acc.finalize()
    early = MeasurementSeries(s=series.s[:6], frames=series.frames[:6])
    assert_close_rel(first, igi_reconstruct(early), 1e-9)
    snapshot = first.copy()
    for rec in recs[6:]:
        acc.push(rec)
    second = acc.finalize()
    assert np.array_equal(first, snapshot)  # finalize returned an isolated image
    assert_close_rel(second, igi_reconstruct(series), 1e-9)


def test_accumulator_contracts():
    acc = IgiAccumulator(2, 2)
    with pytest.raises(ContractError):
        acc.finalize()
    acc.push(MeasurementRecord(1, 1.0, np.ones((2, 2))))
    with pytest.raises(ContractError):
        acc.finalize()  # one record is zero pairs
    with pytest.raises(ContractError):
        acc.push(MeasurementRecord(2, 1.0, np.ones((3, 2))))
    with pytest.raises(ContractError):
        IgiAccumulator(0, 4)


def test_accumulator_requires_consecutive_ordinals():
    frame = np.ones((2, 2))
    skipped = IgiAccumulator(2, 2)
    skipped.push(MeasurementRecord(1, 1.0, frame))
    with pytest.raises(ContractError):
        skipped.push(MeasurementRecord(3, 2.0, frame))
    repeated = IgiAccumulator(2, 2)
    repeated.push(MeasurementRecord(1, 1.0, frame))
    repeated.push(MeasurementRecord(2, 2.0, frame))
    with pytest.raises(ContractError):
        repeated.push(MeasurementRecord(2, 2.0, frame))
    assert repeated.pairs == 1  # the rejected record left the state alone


def test_dc_offset_invariance():
    series = synthetic_series(6)
    gi0, igi0 = gi_reconstruct(series), igi_reconstruct(series)
    shifted = MeasurementSeries(s=series.s + 940000.0, frames=series.frames)
    assert_close_rel(gi_reconstruct(shifted), gi0, 1e-9, "GI, bucket offset")
    assert_close_rel(igi_reconstruct(shifted), igi0, 1e-9, "IGI, bucket offset")
    lifted = MeasurementSeries(s=series.s, frames=series.frames + 940000.0)
    assert_close_rel(gi_reconstruct(lifted), gi0, 1e-9, "GI, frame offset")
    assert_close_rel(igi_reconstruct(lifted), igi0, 1e-9, "IGI, frame offset")


def test_scale_equivariance():
    series = synthetic_series(7)
    gi0, igi0 = gi_reconstruct(series), igi_reconstruct(series)
    # powers of two keep the arithmetic exact
    scaled = MeasurementSeries(s=series.s * 2.0, frames=series.frames * 4.0)
    assert np.array_equal(gi_reconstruct(scaled), gi0 * 8.0)
    assert np.array_equal(igi_reconstruct(scaled), igi0 * 8.0)
    general = MeasurementSeries(s=series.s * 1.7, frames=series.frames * 0.3)
    assert_close_rel(gi_reconstruct(general), gi0 * (1.7 * 0.3), 1e-12)
    assert_close_rel(igi_reconstruct(general), igi0 * (1.7 * 0.3), 1e-12)


def test_record_order_matters_only_for_igi():
    series = synthetic_series(8, count=60)
    rng = np.random.Generator(np.random.PCG64(0))
    perm = rng.permutation(60)
    shuffled = MeasurementSeries(s=series.s[perm], frames=series.frames[perm])
    assert_close_rel(gi_reconstruct(shuffled), gi_reconstruct(series), 1e-9)
    scale = float(np.max(np.abs(igi_reconstruct(series))))
    diff = float(np.max(np.abs(igi_reconstruct(shuffled) - igi_reconstruct(series))))
    assert diff > 1e-3 * scale


def test_igi_normalizations():
    series = synthetic_series(10, count=25)
    unbiased = igi_reconstruct(series, normalization="unbiased")
    literal = igi_reconstruct(series, normalization="paper-literal")
    assert_close_rel(literal, unbiased * (24.0 / 25.0), 1e-15)
    acc = IgiAccumulator(series.width, series.height)
    for rec in series.records():
        acc.push(rec)
    assert_close_rel(acc.finalize("paper-literal"), literal, 1e-12)
    with pytest.raises(ContractError):
        igi_reconstruct(series, normalization="rescaled")


def test_streaming_from_simulation():
    sp = SpeckleParams(width=12, height=12, seed=20)
    scenario = Scenario(speckle=sp, object_mask=builtin_mask("checker", 12, 12), count=30)
    series = simulate(scenario)
    acc = IgiAccumulator(12, 12)
    for rec in series.records():
        acc.push(rec)
    assert_close_rel(acc.finalize(), igi_reconstruct(series), 1e-9)


def _images(series):
    """GI and both IGI normalizations of a series, as gi_reconstruct and igi_reconstruct give them."""
    return [gi_reconstruct(series), igi_reconstruct(series), igi_reconstruct(series, "paper-literal")]


def _serial_images(series):
    """The same three images from a left fold of block_sums in this thread, one block_records block at a time."""
    s, step, shape = np.asarray(series.s, dtype=np.float64), block_records(series.width, series.height), series.frames.shape[1:]
    sums = reduce(fold, (block_sums(s[None, a : a + step], series.frames[a : a + step]) for a in range(0, len(series), step)), Sums(0))
    return [sums.gi(shape), sums.igi(shape), sums.igi(shape, normalization="paper-literal")]


@pytest.mark.parametrize("width, height", [(64, 64), (37, 53), (63, 63), (256, 256), (1, 1)])
def test_block_sums_add_records_in_ordinal_order_whatever_the_slabs(tmp_path, monkeypatch, frame_workers, width, height):
    # the reference adds one record at a time, in ordinal order, over the whole frame: a one-pixel frame too, whose
    # records numpy's reduce would sum pairwise. The frames are a loaded .gsim's strided float32 record view, whose
    # sums of 40 are mostly exact in any order, and a float64 block (at seed 0 a pairwise 1x1 mean differs in its last
    # bit); the block is cut in slabs of 37, 512 and every pixel, in this thread and on three pool workers
    series, bufsize = synthetic_series(0, 40, width, height), np.getbufsize()
    save_series(series, tmp_path / "s.gsim")
    frame_workers(3)
    for frames, k in product((load_series(tmp_path / "s.gsim").frames, series.frames), (1, 2)):
        flat, rows = frames.reshape(40, -1).astype(np.float64), np.stack([series.s, np.sin(np.arange(40.0))])[:k]
        total, centered, dr, df = flat[0].copy(), rows - rows.mean(axis=1)[:, None], np.diff(rows), np.diff(flat, axis=0)
        for b in range(1, 40):
            total += flat[b]
        mean_f = total / 40
        comoment, diffsum = centered[:, :1] * (flat[0] - mean_f), dr[:, :1] * df[0]
        for b in range(1, 40):
            comoment += centered[:, b : b + 1] * (flat[b] - mean_f)
        for b in range(1, 39):
            diffsum += dr[:, b : b + 1] * df[b]
        for gi, igi, slab, each in product((True, False), (True, False), (37, 512, width * height), (starmap, measurement._in_order)):
            if not (gi or igi):
                continue
            monkeypatch.setattr(reconstruct, "_SLAB", slab * 40)
            monkeypatch.setattr(reconstruct, "_SPACE", threading.local())
            sums, case = block_sums(rows, frames, gi, igi, each=each), (frames.dtype, k, gi, igi, slab, each.__name__)
            for got, want in ((sums.mean_f, mean_f), (sums.comoment, comoment)) if gi else ((sums.comoment, 0.0),):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), case
            assert np.asarray(sums.diffsum).tobytes() == np.asarray(diffsum if igi else 0.0).tobytes(), case
            if each is starmap:  # this thread summed every slab in its work space: K product slabs of _SLAB at most
                assert reconstruct._SPACE.array.size <= k * slab * 40 and np.getbufsize() == bufsize, case


@pytest.mark.parametrize("case", ["gsim-64x64-600", "f64-37x53-300", "f64-8x8-2", "f64-16x16-512"])
def test_replay_does_not_depend_on_the_worker_count(tmp_path, frame_workers, monkeypatch, case):
    # 64x64 and 37x53 take blocks of 256 records, as does 16x16, where 512 records are exactly two blocks
    kind, size, count = case.split("-")
    width, height = map(int, size.split("x"))
    series = synthetic_series(5, int(count), width, height)
    if kind == "gsim":
        save_series(series, tmp_path / "s.gsim")
        series = load_series(tmp_path / "s.gsim")
        assert series.frames.dtype == np.float32
    expected = _serial_images(series)
    real, threads = reconstruct.block_sums, set()
    monkeypatch.setattr(reconstruct, "block_sums", lambda *a: threads.add(threading.get_ident()) or real(*a))
    for workers in (1, 3):
        frame_workers(workers)
        images = _images(series)
        assert all(np.array_equal(image, want) for image, want in zip(images, expected)), workers
    assert threads and threading.get_ident() not in threads  # the blocks are summed on the pool


def test_replay_does_not_depend_on_the_callers_blas_threads(blas_threads):
    # 37x53: a shape where a BLAS (1, 256) @ (256, 1961) product split over two threads sums in another order
    get, put = blas_threads
    series, replays = synthetic_series(7, 1200, 37, 53), []
    for threads in (1, 2):
        put(threads)
        replays.append(_images(series))
        assert get() == threads
    assert all(np.array_equal(a, b) for a, b in zip(*replays))


def test_replay_keeps_the_callers_floating_point_error_state():
    # record 271, in the second block of 256, has an inf pixel. GI: inf - mean inf is invalid. IGI: the pixel's
    # differences are +inf and -inf, and the bucket rises across both, so their products sum to inf - inf
    series = synthetic_series(9, 300, 8, 8)
    series.frames[270, 3, 4] = np.inf
    series.s[269:272] = [10.0, 20.0, 30.0]
    for replay in (gi_reconstruct, igi_reconstruct):
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            replay(series)
        with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
            warnings.simplefilter("always")
            replay(series)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], replay.__name__


@pytest.mark.parametrize("workers", [1, 3])
def test_frames_keep_the_callers_floating_point_error_state(frame_workers, workers):
    # mean_intensity 1e307 rescales each frame past float64 (speckle) and sums inf against 0 (S0), on the pool's threads
    frame_workers(workers)
    scenario = Scenario(SpeckleParams(16, 16, mean_intensity=1e307), builtin_mask("disk", 16, 16), 40)
    for make in (lambda: measurement.clean_blocks(scenario, np.empty(40)), lambda: measurement.simulate_stream(scenario)):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            list(make())
        with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):  # sees every thread's warnings
            warnings.simplefilter("always")
            list(make())
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_igi_accumulator_does_not_depend_on_the_blas_thread_count(blas_threads):
    # a push folds one record: np.outer and elementwise sums, no matrix product for OpenBLAS to split
    get, put = blas_threads
    for width, height in ((37, 53), (63, 63), (128, 128)):
        scenario = Scenario(SpeckleParams(width, height, seed=3), builtin_mask("disk", width, height), 300)
        images = []
        for threads in (1, 2):
            put(threads)
            acc = IgiAccumulator(width, height)
            for record in measurement.simulate_stream(scenario):
                acc.push(record)
            assert get() == threads
            images.append(acc.finalize().tobytes())
        assert images[0] == images[1], (width, height)


def test_validity_flags():
    rng = np.random.Generator(np.random.PCG64(1))
    bucket = 100.0 + 10.0 * rng.standard_normal(500)
    rms = float(np.sqrt(np.mean(np.diff(bucket) ** 2)))

    def waveform_with_bound(target_bound):
        # alternation frequency: bound equals the amplitude
        return NoiseWaveform(kind="sinusoid", amplitude=target_bound, frequency=12.5, sample_rate=25.0)

    slow = validity_diagnostic(bucket, waveform_with_bound(0.05 * rms))
    assert slow.flag == "IGI regime"
    assert slow.ratio == pytest.approx(0.05, rel=1e-9)
    mid = validity_diagnostic(bucket, waveform_with_bound(0.5 * rms))
    assert mid.flag == "marginal"
    loud = validity_diagnostic(bucket, waveform_with_bound(100.0 * rms))
    assert loud.flag == "breakdown"
    assert loud.ratio == pytest.approx(100.0, rel=1e-9)
    d = loud.to_dict()
    assert set(d) == {"signal_delta_rms", "noise_delta_bound", "ratio", "flag"}


def test_validity_coupling_scales_bound():
    bucket = np.array([1.0, 5.0, 2.0, 8.0, 3.0])
    wf = NoiseWaveform(kind="sinusoid", amplitude=10.0, frequency=12.5, sample_rate=25.0)
    full = validity_diagnostic(bucket, wf)
    damped = validity_diagnostic(bucket, wf, coupling=0.25)
    assert damped.noise_delta_bound == pytest.approx(0.25 * full.noise_delta_bound, rel=1e-12)
    assert damped.ratio == pytest.approx(0.25 * full.ratio, rel=1e-12)


def test_validity_degenerate_and_contract():
    wf = NoiseWaveform(kind="constant", amplitude=1.0)
    with pytest.raises(DegenerateInputError):
        validity_diagnostic(np.full(10, 7.0), wf)
    with pytest.raises(ContractError):
        validity_diagnostic(np.array([1.0]), wf)


def test_f64_round_trip(tmp_path):
    img = np.random.Generator(np.random.PCG64(2)).standard_normal((5, 9))
    path = tmp_path / "img.f64"
    save_f64(img, path)
    assert np.array_equal(load_f64(path), img)


def test_f64_errors(tmp_path):
    path = tmp_path / "img.f64"
    save_f64(np.ones((2, 2)), path)
    data = path.read_bytes()
    bad = tmp_path / "bad.f64"
    bad.write_bytes(b"XF64" + data[4:])
    with pytest.raises(PgmFormatError):
        load_f64(bad)
    short = tmp_path / "short.f64"
    short.write_bytes(data[:-8])
    with pytest.raises(PgmFormatError):
        load_f64(short)
    with pytest.raises(ContractError):
        save_f64(np.ones(4), path)


def test_recon_pgm_export(tmp_path):
    from ghostsim.pgm import read_pgm

    img = np.array([[0.0, 1.0], [2.0, 4.0]])
    path = tmp_path / "recon.pgm"
    save_recon_pgm(img, path)
    arr, maxval = read_pgm(path)
    assert maxval == 65535
    assert arr[0, 0] == 0 and arr[1, 1] == 65535
    assert arr[1, 0] == round(2.0 / 4.0 * 65535)
    sidecar = (tmp_path / "recon.pgm.txt").read_text()
    assert "min=0.0" in sidecar and "max=4.0" in sidecar
    # constant image maps to black rather than dividing by zero
    save_recon_pgm(np.full((3, 3), 5.0), path)
    arr, _ = read_pgm(path)
    assert arr.max() == 0
