"""Patch archive files: a PatchSet stored in the framed tensor container."""

from __future__ import annotations

import numpy as np

from . import tensorio
from .dsp import PatchSet


def write_patch_archive(path, patches):
    tensors = {
        "lo": patches.lo,
        "hi": patches.hi,
        "file_index": patches.file_index.astype(np.float32),
        "offset": patches.offset.astype(np.float32),
        "meta.patch_length": np.float32(patches.patch_length),
        "meta.sample_rate_hz": np.float32(patches.sample_rate_hz),
        "meta.scale": np.float32(patches.scale),
    }
    tensorio.write_tensors(path, tensors, magic=tensorio.PATCH_MAGIC)


def _check_shapes(tensors, shapes):
    for key, shape in shapes.items():
        if tensors[key].shape != shape:
            raise tensorio.ContainerFormatError(
                f"archive tensor '{key}' has shape {tensors[key].shape}, expected {shape}")


def _meta_int(tensors, key, least):
    value = float(tensors[key])
    if not value.is_integer() or value < least:
        raise tensorio.ContainerFormatError(
            f"archive entry '{key}' is {value}, expected an integer >= {least}")
    return int(value)


def read_patch_archive(path):
    """A PatchSet whose P patch pairs are `(P, patch_length)` and whose
    `file_index` and `offset` are `(P,)`; any other shape, or a `meta.*`
    entry that is not an integer in range, is a format error."""
    tensors = tensorio.read_tensors(path, magic=tensorio.PATCH_MAGIC)
    for key in ("lo", "hi", "file_index", "offset",
                "meta.patch_length", "meta.sample_rate_hz", "meta.scale"):
        if key not in tensors:
            raise tensorio.ContainerFormatError(f"archive lacks tensor '{key}'")
    _check_shapes(tensors, {"meta.patch_length": (), "meta.sample_rate_hz": (), "meta.scale": ()})
    P, L = tensors["file_index"].size, _meta_int(tensors, "meta.patch_length", 1)
    rate = _meta_int(tensors, "meta.sample_rate_hz", 1)
    scale = _meta_int(tensors, "meta.scale", 2)  # as `prepare --scale` requires
    _check_shapes(tensors, {"file_index": (P,), "offset": (P,), "lo": (P, L), "hi": (P, L)})
    return PatchSet(
        lo=tensors["lo"],
        hi=tensors["hi"],
        file_index=tensors["file_index"].astype(np.int64),
        offset=tensors["offset"].astype(np.int64),
        patch_length=L, sample_rate_hz=rate, scale=scale,
    )


def empty_patch_set(length, rate, scale):
    return PatchSet(lo=np.zeros((0, length), dtype=np.float32),
                    hi=np.zeros((0, length), dtype=np.float32),
                    file_index=np.zeros(0, dtype=np.int64),
                    offset=np.zeros(0, dtype=np.int64),
                    patch_length=length, sample_rate_hz=rate, scale=scale)
