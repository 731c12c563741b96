"""Signal pipeline: decimation filter, resampling, patching, spectrograms.

Produces the aligned (low-resolution-upsampled, high-resolution) training
pairs and the log-power spectra consumed by the metrics and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import interpolate, signal

DEFAULT_RIPPLE_DB = 0.05
STFT_FLOOR = 1e-10


@dataclass
class AudioSignal:
    """Mono waveform in [-1, 1] plus its sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"expected mono 1-D samples, got shape {self.samples.shape}")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")

    def __len__(self):
        return len(self.samples)


@dataclass
class IIRFilter:
    """Rational filter b/a with a[0] == 1 and all poles inside the unit circle."""

    b: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        if abs(self.a[0] - 1.0) > 1e-12:
            raise ValueError("denominator must be normalized (a[0] == 1)")
        if len(self.a) > 1:
            poles = np.roots(self.a)
            if np.any(np.abs(poles) >= 1.0):
                raise ValueError("unstable filter: pole on or outside the unit circle")


@dataclass
class PatchSet:
    """Aligned pairs of low-res-upsampled and high-res windows."""

    lo: np.ndarray          # (P, L) float32
    hi: np.ndarray          # (P, L) float32
    file_index: np.ndarray  # (P,) int
    offset: np.ndarray      # (P,) int
    patch_length: int
    sample_rate_hz: int
    scale: int

    def __len__(self):
        return self.lo.shape[0]


def design_cheby1_lowpass(order, ripple_db, cutoff_normalized):
    """Design a Chebyshev type-I low-pass; cutoff in (0, 1) of Nyquist."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not 0.0 < cutoff_normalized < 1.0:
        raise ValueError(
            f"cutoff must lie in (0, 1) of Nyquist, got {cutoff_normalized}")
    b, a = signal.cheby1(order, ripple_db, cutoff_normalized, btype="low")
    return IIRFilter(b, a)


def _zero_phase(filt, x):
    """Forward-backward filtering; removes the IIR phase distortion that
    would otherwise wreck waveform-domain SNR after resampling."""
    return signal.filtfilt(filt.b, filt.a, x)


def downsample(sig, r, ripple_db=DEFAULT_RIPPLE_DB):
    """Low-pass at 0.8/r of Nyquist, then keep every r-th sample.

    Output length is floor(len / r); output rate is rate / r.
    """
    if r < 2:
        raise ValueError(f"downsampling factor must be >= 2, got {r}")
    filt = design_cheby1_lowpass(8, ripple_db, 0.8 / r)
    filtered = _zero_phase(filt, sig.samples)
    n = (len(filtered) // r) * r
    return AudioSignal(filtered[:n:r], sig.sample_rate_hz // r)


def cubic_upsample(sig, r):
    """Interpolate by an integer factor with a natural cubic spline."""
    n = len(sig)
    if n < 4:
        raise ValueError(f"need at least 4 samples to fit a cubic spline, got {n}")
    if r < 1:
        raise ValueError(f"upsampling factor must be >= 1, got {r}")
    spline = interpolate.CubicSpline(np.arange(n) * r, sig.samples, bc_type="natural")
    out = spline(np.arange(n * r))
    return AudioSignal(out, sig.sample_rate_hz * r)


def extract_patches(lowres_upsampled, highres, length=8192, stride=None,
                    file_index=0, scale=0):
    """Cut aligned fixed-length windows; the trailing remainder is dropped."""
    if stride is None:
        stride = length
    if len(lowres_upsampled) != len(highres):
        raise ValueError(
            f"alignment error: low-res-upsampled length {len(lowres_upsampled)} "
            f"!= high-res length {len(highres)}")
    if lowres_upsampled.sample_rate_hz != highres.sample_rate_hz:
        raise ValueError(
            f"alignment error: sample rates differ "
            f"({lowres_upsampled.sample_rate_hz} vs {highres.sample_rate_hz})")
    if length < 1 or stride < 1:
        raise ValueError("patch length and stride must be positive")
    n = len(highres)
    offsets = list(range(0, n - length + 1, stride))
    lo = np.stack([lowres_upsampled.samples[o:o + length] for o in offsets]) \
        if offsets else np.zeros((0, length))
    hi = np.stack([highres.samples[o:o + length] for o in offsets]) \
        if offsets else np.zeros((0, length))
    return PatchSet(
        lo=lo.astype(np.float32),
        hi=hi.astype(np.float32),
        file_index=np.full(len(offsets), file_index, dtype=np.int64),
        offset=np.asarray(offsets, dtype=np.int64),
        patch_length=length,
        sample_rate_hz=highres.sample_rate_hz,
        scale=scale,
    )


def merge_patch_sets(sets):
    """Concatenate per-file patch sets in (file index, offset) order."""
    sets = [s for s in sets if len(s) > 0]
    if not sets:
        raise ValueError("no patches to merge")
    first = sets[0]
    for s in sets[1:]:
        if s.patch_length != first.patch_length or s.sample_rate_hz != first.sample_rate_hz:
            raise ValueError("patch sets disagree on length or rate")
    return PatchSet(
        lo=np.concatenate([s.lo for s in sets]),
        hi=np.concatenate([s.hi for s in sets]),
        file_index=np.concatenate([s.file_index for s in sets]),
        offset=np.concatenate([s.offset for s in sets]),
        patch_length=first.patch_length,
        sample_rate_hz=first.sample_rate_hz,
        scale=first.scale,
    )


def hann_window(frame):
    """Periodic Hann window."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)


def stft_log_power(samples, frame=2048, hop=512):
    """Log power spectrogram, rows = frames, columns = frequency bins.

    X[t, k] = log(|S[t, k]|^2 + floor) with a small floor so silence maps to
    a finite value instead of -inf.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if frame > len(samples):
        raise ValueError(
            f"frame length {frame} exceeds signal length {len(samples)}")
    if hop < 1:
        raise ValueError(f"hop must be positive, got {hop}")
    win = hann_window(frame)
    n_frames = 1 + (len(samples) - frame) // hop
    out = np.empty((n_frames, frame // 2 + 1))
    for t in range(n_frames):
        seg = samples[t * hop:t * hop + frame] * win
        spec = np.fft.rfft(seg)
        out[t] = np.log(np.abs(spec) ** 2 + STFT_FLOOR)
    return out
