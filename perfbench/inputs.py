"""Seeded synthetic inputs for the benchmark workloads.

Every input is a function of the workload seed only: harmonic tones (a
fundamental plus its partials below 7 kHz) and band-limited tones (a few
sinusoids at random frequencies inside the r = 2 pass band and above it),
at 16 kHz. Low-resolution training inputs are made here with scipy
directly, so the benchmark's inputs do not move when the program's own
DSP code changes.

Run as a script to write a full-size checkpoint (parameters only, 0.5 GB)
in a child process, which keeps its memory out of the measured process:

    python3 perfbench/inputs.py full-checkpoint OUT.afsr SEED
"""

from __future__ import annotations

import os
import sys
import wave

import numpy as np
from scipy import interpolate, signal

RATE = 16000
SCALE = 2


def tone(rng, n, rate=RATE):
    """One clip of `n` samples at peak amplitude 0.5: a harmonic tone or a
    band-limited tone, picked by the rng."""
    t = np.arange(n) / rate
    sig = np.zeros(n)
    if rng.random() < 0.5:
        f0 = rng.uniform(150.0, 1400.0)
        for m in range(1, 40):
            if m * f0 > 7000.0:
                break
            sig += rng.uniform(0.3, 1.0) / np.sqrt(m) * np.sin(
                2 * np.pi * m * f0 * t + rng.uniform(0, 2 * np.pi))
    else:
        for f in rng.uniform(100.0, 7500.0, size=int(rng.integers(3, 9))):
            sig += rng.uniform(0.2, 1.0) * np.sin(
                2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    return 0.5 * sig / np.max(np.abs(sig))


def pcm16(x):
    """Quantise to the PCM-16 grid, as a WAV file stores it."""
    return np.clip(np.round(np.asarray(x) * 32768.0), -32768, 32767) / 32768.0


def write_wav(path, samples, rate):
    """Mono PCM-16 writer independent of the program's own."""
    pcm = np.clip(np.round(np.asarray(samples) * 32768.0), -32768, 32767)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(int(rate))
        wf.writeframes(pcm.astype("<i2").tobytes())


def read_wav(path):
    """Mono PCM-16 reader independent of the program's own."""
    with wave.open(str(path), "rb") as wf:
        rate = wf.getframerate()
        raw = wf.readframes(wf.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0, rate


def downsample(x, r=SCALE):
    """Order-8 Chebyshev I low-pass at 0.8/r of Nyquist, zero phase, then
    every r-th sample: the pipeline of Kuleshov et al. 2017."""
    b, a = signal.cheby1(8, 0.05, 0.8 / r, btype="low")
    y = signal.filtfilt(b, a, x)
    return y[:(len(y) // r) * r:r]


def cubic_upsample(x, r=SCALE):
    """Natural cubic spline through the low-rate samples."""
    n = len(x)
    return interpolate.CubicSpline(np.arange(n) * r, x, bc_type="natural")(np.arange(n * r))


def training_patches(seed, n_patches, length):
    """(lo, hi) float32 arrays of shape (n_patches, length): hi is a PCM-16
    tone, lo its downsampled and cubic-upsampled version."""
    rng = np.random.default_rng((seed, 1))
    lo = np.empty((n_patches, length), dtype=np.float32)
    hi = np.empty((n_patches, length), dtype=np.float32)
    for i in range(n_patches):
        x = pcm16(tone(rng, length))
        lo[i] = cubic_upsample(downsample(x))
        hi[i] = x
    return lo, hi


def write_corpus(directory, seed, n_files, seconds):
    """WAV files of `seconds` each at 16 kHz; returns their paths."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng((seed, 2))
    paths = []
    for i in range(n_files):
        path = os.path.join(directory, f"clip{i:02d}.wav")
        write_wav(path, tone(rng, int(seconds * RATE)), RATE)
        paths.append(path)
    return paths


def write_low_rate_wav(path, seed, n_low):
    """A low-rate (8 kHz) WAV of `n_low` samples for inference."""
    rng = np.random.default_rng((seed, 3))
    write_wav(path, downsample(tone(rng, n_low * SCALE)), RATE // SCALE)


def write_checkpoint(path, config, seed):
    """Write a seeded model's parameters through the program's own
    `trainer.save_checkpoint`, as `afsr train` writes a checkpoint before
    its first step: without Adam moments, so a full-size file is 0.5 GB
    instead of the 1.6 GB a trained checkpoint takes."""
    from afsr import trainer
    from afsr.model import Model
    from afsr.optim import AdamState

    model = Model(config, seed=seed)
    state = AdamState()
    tmp = path + ".tmp"
    trainer.save_checkpoint(tmp, model, state, 0, seed)
    # flush now, so the kernel's write-back of a large file does not
    # compete with the measured region for the CPUs
    with open(tmp, "rb+") as fh:
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def full_config():
    """The paper's default architecture, as `afsr train` builds it."""
    from afsr.model import ModelConfig
    return ModelConfig()


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "full-checkpoint":
        print(__doc__, file=sys.stderr)
        sys.exit(1)
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    write_checkpoint(sys.argv[2], full_config(), int(sys.argv[3]))
