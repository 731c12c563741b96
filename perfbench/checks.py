"""Correctness checks run by every benchmark workload.

Each check raises `CheckFailed` with a message naming what disagreed. None
compares against a stored copy of earlier output: each compares against the
float64 reference in `reference.py`, a recomputation with scipy, or a
property the result must have.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from . import inputs


class CheckFailed(AssertionError):
    """A program output disagreed with its reference or property."""


def check_close(what, got, want, atol, rtol=0.0):
    """Elementwise |got - want| <= atol + rtol * |want|."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != reference {want.shape}")
    err = np.abs(got - want)
    bad = err > atol + rtol * np.abs(want)
    if bad.any():
        i = int(np.argmax(err - (atol + rtol * np.abs(want))))
        raise CheckFailed(
            f"{what}: {int(bad.sum())} of {got.size} values differ; worst at "
            f"{i}: {got.flat[i]!r} vs {want.flat[i]!r}")


def forward_tolerance(reference_out, patch):
    """float32 engine against the float64 reference. The network adds its
    correction to the input, so the error is the rounding of the input (a
    few float32 ulps) plus that of the correction branch, held to 1e-3 of
    the correction's peak."""
    patch = np.asarray(patch, dtype=np.float64)
    peak_in = np.float32(np.max(np.abs(patch)))
    return 1e-3 * float(np.max(np.abs(reference_out - patch))) + 4 * float(np.spacing(peak_in))


def check_forward(got, reference_out, patch):
    """`Model.forward` on one patch matches the float64 reference."""
    check_close("Model.forward vs float64 reference", got, reference_out,
                atol=forward_tolerance(reference_out, patch))


def check_wav(written, reference_out, patch):
    """A written PCM-16 patch matches the reference to within half a
    quantisation step plus the float32 forward tolerance."""
    check_close("written WAV vs float64 reference", written, reference_out,
                atol=0.5 / 32768 + forward_tolerance(reference_out, patch))


def check_adam_first_step(before, after, grads, lr, eps):
    """After a first bias-corrected Adam step, each parameter element with
    |g| >> eps has moved by lr against the sign of g, and each element with
    g == 0 has not moved. Arguments map parameter names to arrays."""
    moved = 0
    for name, g in grads.items():
        g = np.asarray(g, dtype=np.float64)
        p0 = np.asarray(before[name], dtype=np.float64)
        step = np.asarray(after[name], dtype=np.float64) - p0
        big = np.abs(g) > 1e3 * eps
        # float32 rounding of p - lr*u is at most one ulp of the larger of the two
        slack = 2 * np.spacing(np.maximum(np.abs(p0), lr).astype(np.float32)) + 2e-3 * lr
        bad = big & (np.abs(step + lr * np.sign(g)) > slack)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise CheckFailed(
                f"Adam step of '{name}'[{i}] is {step.flat[i]!r} for gradient "
                f"{g.flat[i]!r}; expected {-lr * np.sign(g.flat[i])!r}")
        still = (g == 0) & (step != 0)
        if still.any():
            raise CheckFailed(f"Adam moved {int(still.sum())} elements of '{name}' with zero gradient")
        moved += int(big.sum())
    if moved == 0:
        raise CheckFailed("no gradient element exceeds 1e3 * eps; the Adam check saw nothing")


def check_directional_derivative(central_difference, grad_dot_d, rtol=1e-4):
    """A float64 central difference along d matches <grad, d>."""
    scale = max(abs(central_difference), abs(grad_dot_d))
    if not (scale > 0 and abs(central_difference - grad_dot_d) <= rtol * scale):
        raise CheckFailed(
            f"central difference {central_difference!r} != <grad, d> {grad_dot_d!r} "
            f"(rtol {rtol})")


def check_prepared_patches(patches, sources, length, stride, scale):
    """`afsr prepare` cut floor((n - L)/stride) + 1 windows per file, at
    offsets 0, stride, 2*stride, ..., and each `hi` window equals the source
    samples at its recorded offset. `sources` lists each file's samples in
    the order `prepare` indexes them; n is the length after the
    downsample/upsample round trip."""
    file_index = np.asarray(patches.file_index)
    offset = np.asarray(patches.offset)
    for i, src in enumerate(sources):
        n = (len(src) // scale) * scale
        rows = np.flatnonzero(file_index == i)
        want = (n - length) // stride + 1 if n >= length else 0
        if len(rows) != want:
            raise CheckFailed(f"file {i}: {len(rows)} patches, expected {want}")
        if not np.array_equal(offset[rows], np.arange(want) * stride):
            raise CheckFailed(f"file {i}: patch offsets {offset[rows][:4]}... are not multiples of {stride}")
        for row in rows:
            o = int(offset[row])
            if not np.array_equal(patches.hi[row], src[o:o + length].astype(np.float32)):
                raise CheckFailed(f"file {i}: hi window at offset {o} differs from the source")


def parse_eval_csv(text):
    """Rows of the eval CSV keyed by (method, file); mean rows excluded."""
    rows = {}
    for rec in csv.DictReader(io.StringIO(text)):
        if not rec["file"].startswith("mean["):
            rows[(rec["method"], rec["file"])] = (float(rec["snr_db"]), float(rec["lsd"]))
    return rows


def stft_log_power(x, frame, hop):
    """Vectorised periodic-Hann STFT, log(|S|^2 + 1e-10)."""
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(frame) / frame)
    frames = np.lib.stride_tricks.sliding_window_view(x, frame)[::hop]
    return np.log(np.abs(np.fft.rfft(frames * win, axis=1)) ** 2 + 1e-10)


def bicubic_scores(samples, frame, hop, scale=inputs.SCALE):
    """(SNR dB, LSD) of cubic-spline upsampling against the original,
    recomputed with scipy and a vectorised STFT."""
    up = inputs.cubic_upsample(inputs.downsample(samples, scale), scale)
    ref = samples[:len(up)]
    snr = 10 * math.log10(float(np.sum(ref * ref)) / float(np.sum((up - ref) ** 2)))
    diff = stft_log_power(ref, frame, hop) - stft_log_power(up, frame, hop)
    return snr, float(np.mean(np.sqrt(np.mean(diff * diff, axis=1))))


def check_bicubic_rows(rows, recomputed, tol=2e-6):
    """The eval CSV has a model and a bicubic row per file, and the bicubic
    rows (printed to 6 decimals) match the recomputation; `recomputed` maps
    file names to (snr, lsd)."""
    for name, (snr, lsd) in recomputed.items():
        got = rows.get(("bicubic", name))
        if got is None or ("model", name) not in rows:
            raise CheckFailed(f"eval CSV lacks the model or the bicubic row for {name}")
        if abs(got[0] - snr) > tol + 1e-9 * abs(snr) or abs(got[1] - lsd) > tol:
            raise CheckFailed(f"bicubic row for {name} is {got}, recomputed ({snr}, {lsd})")


def check_model_rows_equal_bicubic(rows, snr_tol=1e-4, lsd_rtol=1e-3):
    """With `final.conv` zeroed the model is the identity on its cubic input,
    so each model row equals the bicubic row up to the float32 rounding of
    that input: below 1e-4 dB in SNR, and below 1e-3 of the LSD, which
    feels the rounding noise in the near-empty band above the cut-off
    (about 3e-5 of it on the corpus-cli inputs)."""
    files = sorted(f for m, f in rows if m == "bicubic")
    if not files or sorted(f for m, f in rows if m == "model") != files:
        raise CheckFailed("eval CSV does not have one model and one bicubic row per file")
    for f in files:
        m, b = rows[("model", f)], rows[("bicubic", f)]
        if abs(m[0] - b[0]) > snr_tol or abs(m[1] - b[1]) > lsd_rtol * abs(b[1]):
            raise CheckFailed(f"zeroed-final model row {m} != bicubic row {b} for {f}")
