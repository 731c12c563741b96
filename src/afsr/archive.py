"""Patch archive files: a PatchSet stored in the framed tensor container."""

from __future__ import annotations

import contextlib
import os

import numpy as np

from . import tensorio
from .dsp import PatchSet

EMPTY_ARCHIVE_RATE_HZ = 16000  # recorded by an archive that holds no patch
SPILL_BLOCK_BYTES = 1 << 20    # `hi` is copied back from its spill file in blocks this size


def write_patch_archive(path, patch_sets, patch_length, scale):
    """Write the patch pairs of `patch_sets`, an iterable of PatchSets in
    file order, as one archive at `path`; returns the number of pairs.

    The sets are pulled one at a time, and each is let go before the next is
    pulled, so a lazy iterable, such as a generator that reads and cuts one
    file per set, keeps one file's patches in memory. The container stores
    all of `lo` before any of `hi`, so each set's `hi` rows wait in a spill
    file beside `path`, which is removed on every path out. Every set with
    patches must have `patch_length` and the sample rate of the first such
    set, which becomes the archive's (EMPTY_ARCHIVE_RATE_HZ when none has a
    patch).
    """
    sets = iter(patch_sets)

    def next_set():  # the next set that holds patches, or None
        return next((s for s in sets if len(s)), None)

    first = next_set()  # pulled ahead for the archive's rate
    rate = EMPTY_ARCHIVE_RATE_HZ if first is None else first.sample_rate_hz
    file_index, offset = [], []
    empty = np.empty((0, patch_length), dtype=np.float32)  # the shape when no set has rows

    def lo_rows(spill):
        nonlocal first
        s, first = first, None  # held here alone, so it goes once written
        yield empty
        while s is not None:
            spill.write(memoryview(np.ascontiguousarray(s.hi, dtype="<f4")))
            file_index.append(s.file_index)
            offset.append(s.offset)
            yield s.lo
            s = None  # this file's patches go before the next file is read
            s = next_set()

    def hi_rows(spill):
        spill.seek(0)
        yield empty
        rows = max(1, SPILL_BLOCK_BYTES // (4 * patch_length))
        while len(block := np.fromfile(spill, dtype="<f4", count=rows * patch_length)):
            yield block.reshape(-1, patch_length)

    def collected(parts):  # runs once `lo` is written, when `parts` is complete
        yield np.empty(0)
        yield from parts

    spill_path = f"{path}.{os.getpid()}.hi"
    try:
        with open(spill_path, "w+b") as spill:
            tensorio.write_tensors(path, {
                "lo": lo_rows(spill), "hi": hi_rows(spill),
                "file_index": collected(file_index), "offset": collected(offset),
                "meta.patch_length": patch_length,
                "meta.sample_rate_hz": rate, "meta.scale": scale,
            }, magic=tensorio.PATCH_MAGIC)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(spill_path)
    return sum(len(part) for part in offset)


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
