import numpy as np
import pytest
from scipy import signal as sps

from afsr import dsp
from afsr.dsp import (AudioSignal, IIRFilter, cubic_upsample,
                      design_cheby1_lowpass, downsample, extract_patches,
                      hann_window, stft_log_power)
from afsr.metrics import snr


def cheby1_analytic_mag_db(freqs, order, ripple_db, cutoff):
    """Analytic type-I magnitude (bilinear-mapped prototype):
    |H|^2 = 1 / (1 + eps^2 * T_n(W/Wc)^2), W = tan(pi f / 2)."""
    eps2 = 10 ** (ripple_db / 10.0) - 1.0
    wc = np.tan(np.pi * cutoff / 2.0)
    x = np.tan(np.pi * np.asarray(freqs) / 2.0) / wc
    tn = np.where(np.abs(x) <= 1, np.cos(order * np.arccos(np.clip(x, -1, 1))),
                  np.cosh(order * np.arccosh(np.maximum(np.abs(x), 1.0))))
    return -10.0 * np.log10(1.0 + eps2 * tn ** 2)


class TestChebyshevDesign:
    def test_dc_gain_within_ripple(self):
        filt = design_cheby1_lowpass(8, 0.05, 0.4)
        w, h = sps.freqz(filt.b, filt.a, worN=[1e-9])
        gain_db = 20 * np.log10(np.abs(h[0]))
        assert -0.0501 <= gain_db <= 1e-6

    def test_deep_stopband(self):
        filt = design_cheby1_lowpass(8, 0.05, 0.4)
        w, h = sps.freqz(filt.b, filt.a, worN=[0.9 * np.pi])
        assert 20 * np.log10(np.abs(h[0])) < -60

    def test_poles_inside_unit_circle(self):
        for cutoff in (0.1, 0.4, 0.8):
            filt = design_cheby1_lowpass(8, 0.05, cutoff)
            assert np.all(np.abs(np.roots(filt.a)) < 1.0)

    def test_matches_analytic_response(self):
        filt = design_cheby1_lowpass(8, 0.05, 0.4)
        freqs = np.linspace(0.02, 0.95, 100)
        w, h = sps.freqz(filt.b, filt.a, worN=freqs * np.pi)
        got_db = 20 * np.log10(np.abs(h))
        want_db = cheby1_analytic_mag_db(freqs, 8, 0.05, 0.4)
        assert np.max(np.abs(got_db - want_db)) < 0.1

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            design_cheby1_lowpass(8, 0.05, 0.0)
        with pytest.raises(ValueError):
            design_cheby1_lowpass(8, 0.05, 1.5)
        with pytest.raises(ValueError):
            design_cheby1_lowpass(0, 0.05, 0.4)

    def test_unstable_filter_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            IIRFilter(b=[1.0], a=[1.0, -1.5])


class TestDownsample:
    def test_length_and_rate(self):
        sig = AudioSignal(np.zeros(16000), 16000)
        out = downsample(sig, 2)
        assert len(out) == 8000
        assert out.sample_rate_hz == 8000

    def test_tone_below_cutoff_preserved(self):
        rate = 16000
        t = np.arange(rate * 2) / rate
        freq = 1000.0
        sig = AudioSignal(0.5 * np.sin(2 * np.pi * freq * t), rate)
        out = downsample(sig, 2)
        # least-squares sinusoid fit at the tone frequency
        td = np.arange(len(out)) / out.sample_rate_hz
        basis = np.stack([np.sin(2 * np.pi * freq * td),
                          np.cos(2 * np.pi * freq * td)], axis=1)
        coef, *_ = np.linalg.lstsq(basis, out.samples, rcond=None)
        amp = np.hypot(*coef)
        # zero-phase filtering applies the ripple twice
        assert abs(20 * np.log10(amp / 0.5)) < 0.12

    def test_tone_above_cutoff_suppressed(self):
        rate = 16000
        t = np.arange(rate) / rate
        sig = AudioSignal(0.5 * np.sin(2 * np.pi * 7000.0 * t), rate)
        out = downsample(sig, 2)
        in_power = 0.5 * 0.5 ** 2
        out_power = np.mean(out.samples ** 2)
        assert 10 * np.log10(out_power / in_power) < -50

    def test_small_factor_rejected(self):
        with pytest.raises(ValueError):
            downsample(AudioSignal(np.zeros(100), 16000), 1)


def natural_spline_oracle(y, r, n_eval):
    """Independent tridiagonal solve for natural-spline second derivatives,
    then piecewise cubic evaluation on the integer grid."""
    n = len(y)
    h = float(r)
    m = np.zeros(n)
    if n > 2:
        A = np.zeros((n - 2, n - 2))
        rhs = np.zeros(n - 2)
        for i in range(1, n - 1):
            row = i - 1
            if row > 0:
                A[row, row - 1] = h / 6.0
            A[row, row] = 2.0 * h / 3.0
            if row < n - 3:
                A[row, row + 1] = h / 6.0
            rhs[row] = (y[i + 1] - y[i]) / h - (y[i] - y[i - 1]) / h
        m[1:-1] = np.linalg.solve(A, rhs)
    out = np.zeros(n_eval)
    for j in range(n_eval):
        i = min(int(j // r), n - 2)
        t0 = i * h
        d = j - t0
        out[j] = (m[i] * (h - d) ** 3 + m[i + 1] * d ** 3) / (6 * h) \
            + (y[i] / h - m[i] * h / 6) * (h - d) \
            + (y[i + 1] / h - m[i + 1] * h / 6) * d
    return out


class TestCubicUpsample:
    def test_constant(self):
        out = cubic_upsample(AudioSignal(np.full(10, 0.3), 8000), 2)
        assert np.allclose(out.samples, 0.3, atol=1e-12)
        assert out.sample_rate_hz == 16000
        assert len(out) == 20

    def test_linear_ramp(self):
        y = np.linspace(0.0, 1.0, 16)
        out = cubic_upsample(AudioSignal(y, 8000), 2)
        want = np.linspace(0.0, 1.0, 31)
        assert np.allclose(out.samples[:31], want, atol=1e-9)

    def test_matches_tridiagonal_oracle(self, rng):
        y = rng.normal(size=16)
        out = cubic_upsample(AudioSignal(y, 8000), 2)
        want = natural_spline_oracle(y, 2, 30)  # interior, no extrapolation
        assert np.allclose(out.samples[:30], want, atol=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            cubic_upsample(AudioSignal(np.zeros(3), 8000), 2)


class TestExtractPatches:
    def test_exact_fit_single_patch(self, rng):
        x = AudioSignal(rng.normal(size=8192) * 0.1, 16000)
        ps = extract_patches(x, x, length=8192, stride=8192)
        assert len(ps) == 1

    def test_window_count(self, rng):
        x = AudioSignal(rng.normal(size=16384) * 0.1, 16000)
        ps = extract_patches(x, x, length=8192, stride=4096)
        assert len(ps) == 3
        assert list(ps.offset) == [0, 4096, 8192]

    def test_partition_reconstruction(self, rng):
        data = rng.normal(size=1000) * 0.1
        x = AudioSignal(data, 16000)
        ps = extract_patches(x, x, length=256, stride=256)
        rebuilt = np.concatenate([ps.hi[i] for i in range(len(ps))])
        assert np.allclose(rebuilt, data[:len(rebuilt)].astype(np.float32))

    def test_alignment_checks(self, rng):
        a = AudioSignal(rng.normal(size=100), 16000)
        b = AudioSignal(rng.normal(size=99), 16000)
        with pytest.raises(ValueError, match="alignment"):
            extract_patches(a, b, length=10, stride=10)
        c = AudioSignal(rng.normal(size=100), 8000)
        with pytest.raises(ValueError, match="alignment"):
            extract_patches(a, c, length=10, stride=10)

    def test_pairs_identical_for_identical_inputs(self, rng):
        x = AudioSignal(rng.normal(size=512) * 0.1, 16000)
        ps = extract_patches(x, x, length=128, stride=64)
        assert np.array_equal(ps.lo, ps.hi)


class TestStft:
    def test_zero_signal_at_floor(self):
        out = stft_log_power(np.zeros(1024), frame=256, hop=128)
        assert np.allclose(out, np.log(dsp.STFT_FLOOR))

    def test_sinusoid_concentration(self):
        frame = 256
        k = 16
        n = 2048
        x = np.sin(2 * np.pi * k * np.arange(n) / frame)
        out = stft_log_power(x, frame=frame, hop=128)
        power = np.exp(out)
        for row in power:
            near = row[k - 1:k + 2].sum()
            assert near / row.sum() >= 0.9

    def test_matches_direct_dft(self, rng):
        frame = 32
        x = rng.normal(size=frame)
        out = stft_log_power(x, frame=frame, hop=frame)
        win = hann_window(frame)
        xw = x * win
        for k in range(frame // 2 + 1):
            acc = sum(xw[n] * np.exp(-2j * np.pi * k * n / frame)
                      for n in range(frame))
            assert abs(np.exp(out[0, k]) - (abs(acc) ** 2 + dsp.STFT_FLOOR)) < 1e-8

    def test_silence_padding_invariant(self, rng):
        x = rng.normal(size=1000)
        base = stft_log_power(x, frame=256, hop=128)
        # extra samples short of one more full frame do not add frames
        padded = stft_log_power(np.concatenate([x, np.zeros(20)]),
                                frame=256, hop=128)
        assert base.shape == padded.shape
        assert np.allclose(base, padded)

    def test_frame_longer_than_signal_rejected(self):
        with pytest.raises(ValueError):
            stft_log_power(np.zeros(100), frame=256, hop=64)


class TestRoundTrip:
    def test_band_limited_snr(self, rng):
        rate = 16000
        r = 2
        t = np.arange(rate) / rate
        # all energy below 0.8 * (Nyquist / r) = 3200 Hz, decaying spectrum
        sig = np.zeros_like(t)
        for f, a in [(200, 1.0), (650, 0.8), (1200, 0.5), (2100, 0.3), (2900, 0.15)]:
            sig += a * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
        sig *= 0.5 / np.max(np.abs(sig))
        x = AudioSignal(sig, rate)
        lo = downsample(x, r)
        up = cubic_upsample(lo, r)
        assert snr(up.samples, sig[:len(up)]) >= 20.0
