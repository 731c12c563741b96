"""RIFF WAV input/output, 16-bit PCM.

Samples are mapped to [-1, 1) by division by 32768. Multi-channel input is
averaged down to mono on read.
"""

from __future__ import annotations

import wave

import numpy as np


def read_wav(path):
    """Read a PCM-16 WAV file; returns (samples float64 in [-1, 1), rate).

    A file that is not a WAV, is cut off inside its header, or whose data
    ends inside a frame raises ValueError naming the path.
    """
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getsampwidth() != 2:
                raise ValueError(
                    f"{path}: only 16-bit PCM is supported, "
                    f"got sample width {wf.getsampwidth()} bytes")
            n_channels = wf.getnchannels()
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError) as exc:
        raise ValueError(
            f"{path}: malformed WAV file: {str(exc) or 'truncated header'}") from exc
    if len(raw) % (2 * n_channels):
        raise ValueError(
            f"{path}: malformed WAV file: data ends inside a frame "
            f"({len(raw)} bytes, {2 * n_channels} per frame)")
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if n_channels > 1:
        data = data.reshape(-1, n_channels).mean(axis=1)
    return data, rate


def write_wav(path, samples, rate):
    """Write mono float samples as PCM-16; values are clipped to [-1, 1).

    Returns the number of samples that had to be clipped. NaN or inf samples
    raise ValueError before the file is opened.
    """
    samples = np.asarray(samples, dtype=np.float64)
    bad = int(np.count_nonzero(~np.isfinite(samples)))
    if bad:
        raise ValueError(f"{path}: {bad} non-finite samples (NaN or inf), nothing written")
    scaled = np.round(samples * 32768.0)
    clipped = int(np.count_nonzero((scaled < -32768) | (scaled > 32767)))
    pcm = np.clip(scaled, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(int(rate))
        wf.writeframes(pcm.tobytes())
    return clipped
