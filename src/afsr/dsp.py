"""Signal pipeline: decimation filter, resampling, patching, spectrograms.

Produces the aligned (low-resolution-upsampled, high-resolution) training
pairs and the log-power spectra consumed by the metrics and the CLI.
scipy is imported inside the three functions that call it, so importing
this module (and the CLI) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    """Design a Chebyshev type-I low-pass; cutoff in (0, 1) of Nyquist.
    Returns scipy's transfer-function coefficients (b, a)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not 0.0 < cutoff_normalized < 1.0:
        raise ValueError(
            f"cutoff must lie in (0, 1) of Nyquist, got {cutoff_normalized}")
    from scipy import signal
    return signal.cheby1(order, ripple_db, cutoff_normalized, btype="low")


def downsample(sig, r):
    """Low-pass at 0.8/r of Nyquist, then keep every r-th sample.

    Output length is floor(len / r); output rate is rate / r.
    """
    if r < 2:
        raise ValueError(f"downsampling factor must be >= 2, got {r}")
    from scipy import signal
    b, a = design_cheby1_lowpass(8, DEFAULT_RIPPLE_DB, 0.8 / r)
    # forward-backward (zero-phase) filtering: the IIR's phase distortion
    # would otherwise wreck waveform-domain SNR after resampling
    filtered = signal.filtfilt(b, a, sig.samples)
    n = (len(filtered) // r) * r
    return AudioSignal(filtered[:n:r], sig.sample_rate_hz // r)


def cubic_upsample(sig, r):
    """Interpolate by an integer factor with a natural cubic spline."""
    n = len(sig)
    if n < 4:
        raise ValueError(f"need at least 4 samples to fit a cubic spline, got {n}")
    if r < 1:
        raise ValueError(f"upsampling factor must be >= 1, got {r}")
    from scipy import interpolate
    spline = interpolate.CubicSpline(np.arange(n) * r, sig.samples, bc_type="natural")
    out = spline(np.arange(n * r))
    return AudioSignal(out, sig.sample_rate_hz * r)


def degrade(sig, r):
    """The full-signal protocol of Kuleshov et al. 2017: downsample by r,
    cubic-upsample back, and trim the source to the same length.

    Returns (lo_up, hi), sample-aligned and both at the source rate.
    """
    lo_up = cubic_upsample(downsample(sig, r), r).samples
    return (AudioSignal(lo_up, sig.sample_rate_hz),
            AudioSignal(sig.samples[:len(lo_up)], sig.sample_rate_hz))


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
    offsets = np.arange(0, n - length + 1, stride, dtype=np.int64)

    def windows(x):
        # a strided view cast straight to float32: no float64 copy of the windows
        view = sliding_window_view(x, length) if n >= length else np.empty((0, length))
        return view[::stride].astype(np.float32)

    return PatchSet(
        lo=windows(lowres_upsampled.samples),
        hi=windows(highres.samples),
        file_index=np.full(len(offsets), file_index, dtype=np.int64),
        offset=offsets,
        patch_length=length,
        sample_rate_hz=highres.sample_rate_hz,
        scale=scale,
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
    frames = sliding_window_view(samples, frame)[::hop] * hann_window(frame)
    return np.log(np.abs(np.fft.rfft(frames, axis=-1)) ** 2 + STFT_FLOOR)
