"""Framed binary container for named float32 tensors.

Layout: 4-byte magic, u32 version, u32 tensor count, then per tensor:
u16 name length, UTF-8 name, u8 rank, u32 per dimension, raw 32-bit
little-endian floats. Used for both checkpoints and patch archives.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

CHECKPOINT_MAGIC = b"AFSR"
PATCH_MAGIC = b"AFSP"


class ContainerFormatError(ValueError):
    """Bad magic, truncated payload, or malformed framing."""


class ContainerVersionError(ValueError):
    """The file's format version is not supported."""


def write_tensors(path, tensors, magic=CHECKPOINT_MAGIC, version=1):
    """Write `tensors` (name -> array) to `path`; values stored as float32.

    Atomic: the container goes to a temporary file beside `path`, which
    replaces `path` only once it is complete, so a failed or interrupted
    write leaves any earlier file intact.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            _write_container(fh, tensors, magic, version)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_container(fh, tensors, magic, version):
    fh.write(magic)
    fh.write(struct.pack("<II", version, len(tensors)))
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
        if arr.ndim > 255:
            raise ValueError(f"tensor rank too large: {arr.ndim}")
        fh.write(struct.pack("<H", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            fh.write(struct.pack("<I", d))
        fh.write(np.ascontiguousarray(arr).tobytes())


def read_tensors(path, magic=CHECKPOINT_MAGIC, max_version=1):
    """Read a tensor container; returns (version, dict name -> float32 array)."""
    with open(path, "rb") as fh:
        blob = fh.read()

    def take(n, what):
        nonlocal pos
        if pos + n > len(blob):
            raise ContainerFormatError(f"truncated file while reading {what}")
        chunk = blob[pos:pos + n]
        pos += n
        return chunk

    pos = 0
    got_magic = take(4, "magic")
    if got_magic != magic:
        raise ContainerFormatError(
            f"bad magic {got_magic!r}, expected {magic!r}")
    version, count = struct.unpack("<II", take(8, "header"))
    if version < 1 or version > max_version:
        raise ContainerVersionError(
            f"unsupported format version {version} (max {max_version})")
    tensors = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2, "name length"))
        name = take(nlen, "name").decode("utf-8")
        (rank,) = struct.unpack("<B", take(1, "rank"))
        shape = tuple(struct.unpack("<I", take(4, "dimension"))[0] for _ in range(rank))
        n_items = int(np.prod(shape)) if shape else 1
        raw = take(4 * n_items, f"data of '{name}'")
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    if pos != len(blob):
        raise ContainerFormatError(f"{len(blob) - pos} trailing bytes after last tensor")
    return version, tensors
