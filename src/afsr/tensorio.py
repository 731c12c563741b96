"""Framed binary container for named float32 tensors.

Layout: 4-byte magic, u32 version (always 1), u32 tensor count, then per
tensor: u16 name length, UTF-8 name, u8 rank, u32 per dimension, raw
32-bit little-endian floats. Used for both checkpoints and patch archives.

Every value is stored as float32, ints included, and `entry` and `integer`
are the only decoders of a stored entry; `integer` decodes a 0-d entry to
an int and an array entry, such as a patch archive's `file_index` and
`offset`, to an int64 array. Integers above 2^24 can round: a
patch `offset` past about 17.5 min of 16 kHz audio, and a seed above 2^24.
Both wait for a container that stores a dtype per tensor.

The reader goes through the file once, front to back. Each tensor's
declared size is checked against the bytes left in the file before its
array is allocated, and its data is read straight into that array, so a
load holds one copy of the data and a corrupt header cannot ask for more
memory than the file holds.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

CHECKPOINT_MAGIC = b"AFSR"
PATCH_MAGIC = b"AFSP"
VERSION = 1


class ContainerFormatError(ValueError):
    """Bad magic, unsupported version, truncated payload, or malformed framing."""


def write_tensors(path, tensors, magic=CHECKPOINT_MAGIC):
    """Write `tensors` (name -> array) to `path`; values stored as float32.

    Atomic: the container goes to a temporary file beside `path`, which
    replaces `path` only once it is complete, so a failed or interrupted
    write leaves any earlier file intact.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            _write_container(fh, tensors, magic)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_container(fh, tensors, magic):
    fh.write(magic)
    fh.write(struct.pack("<II", VERSION, len(tensors)))
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
        if arr.ndim > 255:
            raise ValueError(f"tensor rank too large: {arr.ndim}")
        fh.write(struct.pack("<H", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
        fh.write(np.ascontiguousarray(arr).tobytes())


def read_tensors(path, magic=CHECKPOINT_MAGIC):
    """Read a tensor container into a dict name -> float32 array; each
    array owns its data."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n, what):
            chunk = fh.read(n)
            if len(chunk) != n:
                raise ContainerFormatError(f"truncated file while reading {what}")
            return chunk

        got_magic = take(4, "magic")
        if got_magic != magic:
            raise ContainerFormatError(
                f"bad magic {got_magic!r}, expected {magic!r}")
        version, count = struct.unpack("<II", take(8, "header"))
        if version != VERSION:
            raise ContainerFormatError(
                f"unsupported format version {version} (only {VERSION})")
        tensors = {}
        for i in range(count):
            (nlen,) = struct.unpack("<H", take(2, "name length"))
            raw = take(nlen, "name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ContainerFormatError(f"name of tensor {i} is not UTF-8: {raw!r}") from None
            if name in tensors:
                raise ContainerFormatError(f"tensor name '{name}' appears twice")
            (rank,) = struct.unpack("<B", take(1, "rank"))
            shape = struct.unpack(f"<{rank}I", take(4 * rank, f"shape of '{name}'"))
            if 4 * math.prod(shape) > size - fh.tell():
                raise ContainerFormatError(f"truncated file while reading data of '{name}'")
            arr = np.empty(shape, dtype="<f4")
            fh.readinto(arr)
            tensors[name] = arr
        trailing = size - fh.tell()
    if trailing:
        raise ContainerFormatError(f"{trailing} trailing bytes after last tensor")
    return tensors


def entry(tensors, name, shape):
    """The array stored as `name`, which must have `shape`; a None in `shape`
    matches any length along that axis."""
    if name not in tensors:
        raise ContainerFormatError(f"container lacks entry '{name}'")
    arr = tensors[name]
    if arr.ndim != len(shape) or any(want is not None and want != got
                                     for want, got in zip(shape, arr.shape)):
        raise ContainerFormatError(f"entry '{name}' has shape {arr.shape}, expected {shape}")
    return arr


def integer(tensors, name, least, shape=()):
    """The entry `name`, which must have `shape` as in `entry`, as exact
    integers >= `least`: an int when 0-d, an int64 array otherwise."""
    arr = entry(tensors, name, shape)
    bad = np.flatnonzero(~(np.isfinite(arr) & (arr == np.floor(arr)) & (arr >= least)))
    if bad.size:
        at = f" at index {bad[0]}" if arr.ndim else ""
        raise ContainerFormatError(f"entry '{name}' is {float(arr.flat[bad[0]])}{at}, "
                                   f"expected an integer >= {least}")
    return int(arr) if arr.ndim == 0 else arr.astype(np.int64)
