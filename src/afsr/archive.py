"""Patch archive files: a PatchSet stored in the framed tensor container."""

from __future__ import annotations

import numpy as np

from . import tensorio
from .dsp import PatchSet


def write_patch_archive(path, patches):
    tensorio.write_tensors(path, {
        "lo": patches.lo, "hi": patches.hi,
        "file_index": patches.file_index, "offset": patches.offset,
        "meta.patch_length": patches.patch_length,
        "meta.sample_rate_hz": patches.sample_rate_hz, "meta.scale": patches.scale,
    }, magic=tensorio.PATCH_MAGIC)


def read_patch_archive(path):
    """A PatchSet whose P patch pairs are `(P, patch_length)` and whose
    `file_index` and `offset` are `(P,)` integers >= 0; any other shape, or a
    `meta.*` entry that is not an integer in range, is a format error that
    names `path`."""
    try:
        tensors = tensorio.read_tensors(path, magic=tensorio.PATCH_MAGIC)
        L = tensorio.integer(tensors, "meta.patch_length", 1)
        rate = tensorio.integer(tensors, "meta.sample_rate_hz", 1)
        scale = tensorio.integer(tensors, "meta.scale", 2)  # as `prepare --scale` requires
        lo = tensorio.entry(tensors, "lo", (None, L))
        P = len(lo)
        return PatchSet(
            lo=lo, hi=tensorio.entry(tensors, "hi", (P, L)),
            file_index=tensorio.integer(tensors, "file_index", 0, (P,)),
            offset=tensorio.integer(tensors, "offset", 0, (P,)),
            patch_length=L, sample_rate_hz=rate, scale=scale,
        )
    except tensorio.ContainerFormatError as exc:
        raise tensorio.ContainerFormatError(f"{path}: {exc}") from None


def empty_patch_set(length, rate, scale):
    return PatchSet(lo=np.zeros((0, length), dtype=np.float32),
                    hi=np.zeros((0, length), dtype=np.float32),
                    file_index=np.zeros(0, dtype=np.int64),
                    offset=np.zeros(0, dtype=np.int64),
                    patch_length=length, sample_rate_hz=rate, scale=scale)
