import struct

import numpy as np
import pytest

from afsr import archive, tensorio
from afsr.dsp import PatchSet
from afsr.model import Model, ModelConfig
from afsr.optim import AdamState
from afsr.trainer import load_checkpoint, save_checkpoint


def header(version=1, count=1, magic=tensorio.CHECKPOINT_MAGIC):
    return magic + struct.pack("<II", version, count)


def tensor_head(name, shape):
    encoded = name.encode("utf-8")
    return (struct.pack("<H", len(encoded)) + encoded + struct.pack("<B", len(shape))
            + b"".join(struct.pack("<I", d) for d in shape))


def check_owned_float32(arr):
    assert arr.dtype == np.float32
    assert arr.flags.c_contiguous
    assert arr.flags.aligned
    assert arr.flags.writeable
    assert arr.flags.owndata


class TestEntries:
    def test_entry_shape_with_free_axis(self):
        tensors = {"lo": np.zeros((3, 4), dtype=np.float32)}
        assert tensorio.entry(tensors, "lo", (None, 4)) is tensors["lo"]
        with pytest.raises(tensorio.ContainerFormatError, match=r"'lo' has shape \(3, 4\)"):
            tensorio.entry(tensors, "lo", (None, 5))
        with pytest.raises(tensorio.ContainerFormatError, match="lacks entry 'hi'"):
            tensorio.entry(tensors, "hi", (None, 4))

    @pytest.mark.parametrize("value", [2.5, -1.0, np.nan, np.inf, np.zeros(1)])
    def test_integer_rejects(self, value):
        tensors = {"n": np.asarray(value, dtype="<f4")}
        with pytest.raises(tensorio.ContainerFormatError, match="'n'"):
            tensorio.integer(tensors, "n", 0)

    def test_integer_array(self):
        tensors = {"n": np.asarray([0.0, 3.0, 7.0], dtype="<f4")}
        got = tensorio.integer(tensors, "n", 0, (None,))
        assert got.dtype == np.int64 and got.tolist() == [0, 3, 7]
        assert type(tensorio.integer({"s": np.float32(4.0)}, "s", 0)) is int

    @pytest.mark.parametrize("value", [2.5, -1.0, np.nan, np.inf])
    def test_integer_array_rejects(self, value):
        tensors = {"n": np.asarray([0.0, 1.0, value], dtype="<f4")}
        with pytest.raises(tensorio.ContainerFormatError, match="'n' is .* at index 2"):
            tensorio.integer(tensors, "n", 0, (3,))


class TestReader:
    @pytest.mark.parametrize("shape", [(3,), (1000, 1000), (65535, 65535, 65535)])
    def test_declared_size_beyond_file_is_format_error(self, tmp_path, shape):
        path = tmp_path / "big.bin"
        path.write_bytes(header() + tensor_head("w", shape) + b"\0" * 8)
        with pytest.raises(tensorio.ContainerFormatError, match="data of 'w'"):
            tensorio.read_tensors(str(path))

    def test_version_2_is_format_error(self, tmp_path):
        path = tmp_path / "v2.bin"
        path.write_bytes(header(version=2, count=0))
        with pytest.raises(tensorio.ContainerFormatError, match="version 2"):
            tensorio.read_tensors(str(path))

    def test_repeated_name_is_format_error(self, tmp_path):
        path = tmp_path / "twice.bin"
        one = tensor_head("w", (1,)) + struct.pack("<f", 1.0)
        path.write_bytes(header(count=2) + one + one)
        with pytest.raises(tensorio.ContainerFormatError, match="'w' appears twice"):
            tensorio.read_tensors(str(path))

    def test_name_not_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "latin1.bin"
        path.write_bytes(header() + struct.pack("<H", 2) + b"\xe9t" + struct.pack("<B", 0)
                         + struct.pack("<f", 1.0))
        with pytest.raises(tensorio.ContainerFormatError, match="tensor 0 is not UTF-8"):
            tensorio.read_tensors(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        tensorio.write_tensors(str(path), {"a": np.ones(3)})
        path.write_bytes(path.read_bytes() + b"xy")
        with pytest.raises(tensorio.ContainerFormatError, match="2 trailing bytes"):
            tensorio.read_tensors(str(path))

    def test_round_trip_scalar_and_empty(self, tmp_path, rng):
        tensors = {"s": np.float32(2.5), "e": np.zeros((0, 7)),
                   "m": rng.normal(size=(3, 5)).astype(np.float32)}
        path = str(tmp_path / "r.bin")
        tensorio.write_tensors(path, tensors)
        got = tensorio.read_tensors(path)
        assert list(got) == ["s", "e", "m"]
        for name, arr in tensors.items():
            assert got[name].shape == np.shape(arr)
            assert np.array_equal(got[name], arr)
            check_owned_float32(got[name])

    def test_checkpoint_arrays_are_owned_float32(self, tmp_path):
        cfg = ModelConfig(depth=2, blocks=4, transformer_layers=1, heads=2,
                          ffn_hidden=8, dropout_rate=0.0, patch_length=256,
                          width_mult=1.0 / 32.0)
        model = Model(cfg, seed=0)
        state = AdamState()
        state.m = {k: np.full_like(v, 0.5) for k, v in model.state().items()}
        state.v = {k: np.full_like(v, 0.25) for k, v in model.state().items()}
        path = str(tmp_path / "ck.afsr")
        save_checkpoint(path, model, state, epoch=1, seed=0)
        ckpt = load_checkpoint(path)
        for group in (ckpt.params, ckpt.opt_m, ckpt.opt_v):
            assert set(group) == set(model.params)
            for arr in group.values():
                check_owned_float32(arr)

    def test_archive_arrays_are_owned_float32(self, tmp_path, rng):
        patches = PatchSet(lo=rng.normal(size=(4, 64)).astype(np.float32),
                           hi=rng.normal(size=(4, 64)).astype(np.float32),
                           file_index=np.arange(4), offset=np.arange(4) * 64,
                           patch_length=64, sample_rate_hz=16000, scale=2)
        path = str(tmp_path / "p.afsp")
        archive.write_patch_archive(path, patches)
        tensors = tensorio.read_tensors(path, magic=tensorio.PATCH_MAGIC)
        for arr in tensors.values():
            check_owned_float32(arr)
        got = archive.read_patch_archive(path)
        assert np.array_equal(got.lo, patches.lo) and np.array_equal(got.hi, patches.hi)
        check_owned_float32(got.lo)
        check_owned_float32(got.hi)
