import numpy as np
import pytest

from ghostsim import (
    BUILTIN_MASKS,
    ConfigurationError,
    ContractError,
    PgmFormatError,
    bucket_signal,
    builtin_mask,
    load_mask,
    save_mask,
)
from ghostsim.scene import bucket_signals


@pytest.mark.parametrize("name", BUILTIN_MASKS)
@pytest.mark.parametrize("size", [(8, 8), (64, 64), (33, 17)])
def test_builtin_masks_are_binary_and_nondegenerate(name, size):
    w, h = size
    m = builtin_mask(name, w, h)
    assert m.shape == (h, w)
    assert set(np.unique(m)) <= {0.0, 1.0}
    assert 0.0 < m.sum() < w * h


def test_builtin_mask_validation():
    with pytest.raises(ConfigurationError):
        builtin_mask("TH", 7, 64)
    with pytest.raises(ConfigurationError):
        builtin_mask("TH", 64, 4)
    with pytest.raises(ConfigurationError):
        builtin_mask("triangle", 64, 64)


def test_th_letters_live_in_central_region():
    m = builtin_mask("TH", 64, 64)
    # nothing outside the central block
    assert m[:10, :].sum() == 0 and m[-10:, :].sum() == 0
    assert m[:, :10].sum() == 0 and m[:, -10:].sum() == 0
    # one letter on each side of the vertical midline
    assert m[:, :32].sum() > 0 and m[:, 32:].sum() > 0


def test_disk_is_rotation_symmetric():
    m = builtin_mask("disk", 64, 64)
    assert np.array_equal(m, np.rot90(m))
    assert np.array_equal(m, m[::-1, :])


def test_double_slit_geometry():
    m = builtin_mask("double-slit", 64, 64)
    # every row identical, full height
    assert np.array_equal(m, np.tile(m[0], (64, 1)))
    # exactly two disjoint column bands
    cols = m[0]
    runs = np.flatnonzero(np.diff(np.concatenate(([0.0], cols, [0.0]))) == 1.0)
    assert runs.size == 2


def test_checker_covers_half():
    m = builtin_mask("checker", 64, 64)
    assert m.sum() == 64 * 64 / 2


def test_mask_pgm_round_trip(tmp_path):
    path = tmp_path / "m.pgm"
    m = builtin_mask("TH", 32, 32)
    save_mask(m, path)
    assert np.array_equal(load_mask(path), m)
    # graded values on the 1/255 lattice survive exactly
    graded = np.arange(256, dtype=np.float64).reshape(16, 16) / 255.0
    save_mask(graded, path)
    assert np.array_equal(load_mask(path), graded)


def test_save_mask_rejects_bad_values(tmp_path):
    with pytest.raises(ContractError):
        save_mask(np.full((8, 8), 1.5), tmp_path / "x.pgm")
    with pytest.raises(ContractError):
        save_mask(np.zeros(8), tmp_path / "x.pgm")
    with pytest.raises(ContractError):  # NaN fails no comparison, so no range check alone refuses it
        save_mask(np.where(np.eye(8) > 0, np.nan, 0.5), tmp_path / "x.pgm")
    assert not (tmp_path / "x.pgm").exists()


def test_load_mask_rejects_16bit(tmp_path):
    from ghostsim.pgm import write_pgm

    path = tmp_path / "deep.pgm"
    write_pgm(path, np.zeros((8, 8), dtype=np.uint16), 65535)
    with pytest.raises(PgmFormatError):
        load_mask(path)


def test_malformed_pgm_errors(tmp_path):
    bad_magic = tmp_path / "a.pgm"
    bad_magic.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(PgmFormatError):
        load_mask(bad_magic)

    truncated = tmp_path / "b.pgm"
    truncated.write_bytes(b"P5\n4 4\n255\n\x00\x01\x02")
    with pytest.raises(PgmFormatError):
        load_mask(truncated)

    garbled = tmp_path / "c.pgm"
    garbled.write_bytes(b"P5\nfour 4\n255\n" + bytes(16))
    with pytest.raises(PgmFormatError):
        load_mask(garbled)

    with pytest.raises(OSError):
        load_mask(tmp_path / "missing.pgm")


def test_pgm_comments_and_whitespace_tolerated(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n 4\t2 #dims\n255\n" + bytes(range(8)))
    m = load_mask(path)
    assert m.shape == (2, 4)
    assert m[0, 1] == 1.0 / 255.0


def test_bucket_signal_hand_value():
    frame = np.array([[1.0, 2.0], [3.0, 4.0]])
    mask = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert bucket_signal(frame, mask) == 5.0
    assert bucket_signal(frame, np.ones((2, 2))) == 10.0
    assert bucket_signal(frame, np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("width, height", [(64, 64), (37, 53), (256, 256)])
def test_batched_buckets_are_the_per_frame_sums_bit_for_bit(width, height):
    # the pool's S0 sum over an item of frames against np.sum of each frame alone
    rng = np.random.default_rng(3)
    frames, mask = rng.exponential(size=(3, height, width)), builtin_mask("disk", width, height)
    assert bucket_signals(frames, mask).tolist() == [float(np.sum(frame * mask)) for frame in frames]
    assert [bucket_signal(frame, mask) for frame in frames] == [float(np.sum(frame * mask)) for frame in frames]


def test_bucket_signal_shape_contract():
    with pytest.raises(ContractError):
        bucket_signal(np.ones((2, 2)), np.ones((2, 3)))
