"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in
failure output). The slow learning check (criterion 7) and the end-to-end
determinism check (criterion 8) run real training; the whole file stays
within a desk-scale time budget.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy import signal as sps

from afsr import archive, dsp, wavio
from afsr.cli import main as cli_main
from afsr.metrics import lsd, snr
from afsr.model import (Model, ModelConfig, afilm_modulate, count_parameters,
                        multi_head_attention, run_patched, subpixel_shuffle_1d)
from afsr.tensor import Tensor, conv1d, layer_norm, max_pool_blocks, no_grad
from afsr.trainer import TrainConfig, batch_loss, train
from conftest import check_gradients, finite_difference, max_rel_err


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {status}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# --- 1. parameter count ---------------------------------------------------


def test_criterion_1_parameter_count():
    model = Model(ModelConfig(), seed=0)
    n = count_parameters(model)
    target = 1.34e8
    ratio = n / target
    report(1, 0.8 <= ratio <= 1.2,
           f"default config has {n} parameters, {ratio:.3f}x the 1.34e8 target "
           f"(required within +/-20%)")


# --- 2. gradient suite ----------------------------------------------------


class TestCriterion2Gradients:
    SEEDS = range(10)

    def test_conv1d(self):
        x = np.zeros((12, 2))
        w = np.zeros((3, 5, 2))
        b = np.zeros(3)

        def loss(ts):
            return (conv1d(ts[0], ts[1], ts[2], stride=2) ** 2).mean()

        check_gradients(loss, [x, w, b], seeds=self.SEEDS)

    def test_subpixel_shuffle(self):
        x = np.zeros((6, 4))

        def loss(ts):
            t = Tensor(np.linspace(0.5, 1.5, 24).reshape(12, 2))
            return ((subpixel_shuffle_1d(ts[0], 2) * t) ** 2).mean()

        check_gradients(loss, [x], seeds=self.SEEDS)

    def test_multi_head_attention(self):
        C = 4
        arrays = [np.zeros(s) for s in
                  [(5, C), (C, C), (C,), (C, C), (C, C), (C,), (C, C), (C,)]]

        def loss(ts):
            return (multi_head_attention(*ts, heads=2) ** 2).mean()

        check_gradients(loss, arrays, seeds=self.SEEDS)

    def test_layer_norm(self):
        arrays = [np.zeros((6, 5)), np.zeros(5), np.zeros(5)]

        def loss(ts):
            return (layer_norm(ts[0], ts[1] + 1.0, ts[2]) ** 2).mean()

        check_gradients(loss, arrays, seeds=self.SEEDS)

    def test_ffn(self):
        arrays = [np.zeros((4, 3)), np.zeros((3, 6)), np.zeros(6),
                  np.zeros((6, 3)), np.zeros(3)]

        def loss(ts):
            x, w1, b1, w2, b2 = ts
            return (((x @ w1 + b1).relu() @ w2 + b2) ** 2).mean()

        check_gradients(loss, arrays, seeds=self.SEEDS)

    def test_afilm_modulation(self):
        arrays = [np.zeros((8, 3)), np.zeros((4, 3)), np.zeros((4, 3))]

        def loss(ts):
            pooled = max_pool_blocks(ts[0], 4)
            return ((afilm_modulate(ts[0], ts[1] + pooled, ts[2]) ** 2)).mean()

        check_gradients(loss, arrays, seeds=self.SEEDS)

    def test_full_model(self):
        """Full network at T0=512, B=8 in float64: analytic gradients against
        central differences at sampled coordinates of every tensor."""
        start = time.time()
        cfg = ModelConfig(depth=4, blocks=8, transformer_layers=1, heads=2,
                          ffn_hidden=4, dropout_rate=0.0, patch_length=512,
                          width_mult=1.0 / 64.0)
        model = Model(cfg, seed=0, dtype=np.float64)
        names = sorted(model.params)
        coords_per_tensor = 3
        worst = 0.0
        for seed in self.SEEDS:
            rng = np.random.default_rng((1234, seed))
            for n in names:
                a = model.params[n].data
                if n.endswith("head_b"):
                    C = a.size // 2
                    a[...] = np.concatenate([np.ones(C), np.zeros(C)]) \
                        + rng.normal(size=a.shape) * 0.05
                else:
                    a[...] = rng.normal(size=a.shape) * 0.1
            x_in = rng.normal(size=(512, 1))
            target = rng.normal(size=(512, 1))

            def scalar_loss():
                with no_grad():
                    out = model.forward(Tensor(x_in))
                    d = out.data - target
                return float(np.mean(d * d))

            loss = ((model.forward(Tensor(x_in)) - Tensor(target)) ** 2).mean()
            model.zero_grad()
            loss.backward()

            for n in names:
                p = model.params[n]
                flat = p.data.reshape(-1)
                gflat = p.grad.reshape(-1)
                idx = rng.choice(flat.size,
                                 size=min(coords_per_tensor, flat.size),
                                 replace=False)
                for i in idx:
                    err = None
                    for h in (1e-5, 1e-6):
                        orig = flat[i]
                        flat[i] = orig + h
                        fp = scalar_loss()
                        flat[i] = orig - h
                        fm = scalar_loss()
                        flat[i] = orig
                        fd = (fp - fm) / (2 * h)
                        denom = max(abs(fd), abs(gflat[i]), 1e-3)
                        err = abs(fd - gflat[i]) / denom
                        if err < 1e-4:
                            break
                    assert err < 1e-4, \
                        f"seed {seed}, tensor {n}, coord {i}: rel err {err:.3e}"
                    worst = max(worst, err)
        elapsed = time.time() - start
        report(2, worst < 1e-4 and elapsed < 300,
               f"full-model FD check worst rel err {worst:.2e} < 1e-4 over 10 "
               f"seeds ({elapsed:.0f}s < 300s); per-layer checks in same class")


# --- 3. modulation oracle -------------------------------------------------


def test_criterion_3_modulation_oracle():
    f = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
    gamma = Tensor(np.array([[2.0], [3.0]]))
    beta = Tensor(np.array([[10.0], [20.0]]))
    out = afilm_modulate(f, gamma, beta).data.reshape(-1)
    hand_ok = np.array_equal(out, [12.0, 14.0, 29.0, 32.0])

    rng = np.random.default_rng(42)
    random_ok = True
    for _ in range(1000):
        B = int(rng.integers(1, 6))
        L = int(rng.integers(1, 6))
        C = int(rng.integers(1, 5))
        fv = rng.normal(size=(B * L, C))
        g = rng.normal(size=(B, C))
        b = rng.normal(size=(B, C))
        got = afilm_modulate(Tensor(fv), Tensor(g), Tensor(b)).data
        for t in range(B * L):
            if not np.array_equal(got[t], g[t // L] * fv[t] + b[t // L]):
                random_ok = False
    report(3, hand_ok and random_ok,
           "hand example [1,2,3,4] -> [12,14,29,32] exact; 1000 randomized "
           "brute-force cases bit-exact at 64-bit")


# --- 4. identity reduction ------------------------------------------------


def test_criterion_4_identity_reduction():
    cfg = ModelConfig(depth=2, blocks=4, transformer_layers=1, heads=2,
                      ffn_hidden=8, dropout_rate=0.0, patch_length=256,
                      width_mult=1.0 / 32.0)
    model = Model(cfg, seed=11)
    model.force_identity_heads()
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        x = Tensor(rng.normal(size=(256, 1)).astype(np.float32))
        with no_grad():
            a = model.forward(x, use_afilm=True).data
            b = model.forward(x, use_afilm=False).data
        if not np.array_equal(a, b):
            ok = False
            break
    report(4, ok, "identity-forcing head output bit-equal to the "
                  "modulation-free model on 100 random patches")


# --- 5. metric correctness ------------------------------------------------


def test_criterion_5_metrics():
    y0 = np.array([1.0, 0.0, 0.0, 0.0])
    x0 = np.array([1.0, 1.0, 0.0, 0.0])
    zero_ok = abs(snr(x0, y0)) < 1e-12

    y10 = np.zeros(10)
    y10[0] = math.sqrt(10.0)
    x10 = y10.copy()
    x10[1] = 1.0
    ten_ok = abs(snr(x10, y10) - 10.0) < 1e-12

    rng = np.random.default_rng(5)
    sig = rng.normal(size=8192)
    lsd_zero_ok = lsd(sig, sig.copy()) == 0.0
    s = 3.0
    c = 2.0 * math.log(s)
    lsd_offset = lsd(s * sig, sig)
    offset_ok = abs(lsd_offset - abs(c)) < 1e-3 * abs(c)

    oracle_ok = True
    for seed in range(5):
        r2 = np.random.default_rng(seed)
        a = r2.normal(size=300)
        b = r2.normal(size=300)
        num = sum(v * v for v in b)
        den = sum((u - v) ** 2 for u, v in zip(a, b))
        if abs(snr(a, b) - 10 * math.log10(num / den)) >= 1e-8:
            oracle_ok = False
        frame, hop = 64, 32
        X = dsp.stft_log_power(b, frame=frame, hop=hop)
        Xh = dsp.stft_log_power(a, frame=frame, hop=hop)
        total = 0.0
        for l in range(X.shape[0]):
            acc = sum((X[l, k] - Xh[l, k]) ** 2 for k in range(X.shape[1]))
            total += math.sqrt(acc / X.shape[1])
        if abs(lsd(a, b, frame=frame, hop=hop) - total / X.shape[0]) >= 1e-8:
            oracle_ok = False

    report(5, zero_ok and ten_ok and lsd_zero_ok and offset_ok and oracle_ok,
           f"SNR exact at 0 dB and 10 dB; LSD 0 on identical signals and "
           f"{lsd_offset:.6f} vs |c|={abs(c):.6f} on a uniform offset; "
           f"double-loop oracles agree to 1e-8")


# --- 6. DSP round trip ----------------------------------------------------


def test_criterion_6_dsp_roundtrip():
    rate = 16000
    r = 2
    rng = np.random.default_rng(3)
    worst_snr = math.inf
    for _ in range(5):
        t = np.arange(rate) / rate
        sig = np.zeros_like(t)
        # energy strictly below 0.8 * (Nyquist / r) = 3200 Hz
        for _ in range(6):
            f = rng.uniform(100, 2800)
            sig += rng.uniform(0.2, 1.0) * np.sin(2 * np.pi * f * t
                                                  + rng.uniform(0, 2 * np.pi))
        sig *= 0.5 / np.max(np.abs(sig))
        lo = dsp.downsample(dsp.AudioSignal(sig, rate), r)
        up = dsp.cubic_upsample(lo, r)
        worst_snr = min(worst_snr, snr(up.samples, sig[:len(up)]))

    b, a = dsp.design_cheby1_lowpass(8, 0.05, 0.4)
    freqs = np.linspace(0.02, 0.95, 100)
    _, h = sps.freqz(b, a, worN=freqs * np.pi)
    got_db = 20 * np.log10(np.abs(h))
    eps2 = 10 ** (0.05 / 10.0) - 1.0
    xw = np.tan(np.pi * freqs / 2.0) / np.tan(np.pi * 0.4 / 2.0)
    tn = np.where(np.abs(xw) <= 1,
                  np.cos(8 * np.arccos(np.clip(xw, -1, 1))),
                  np.cosh(8 * np.arccosh(np.maximum(np.abs(xw), 1.0))))
    want_db = -10.0 * np.log10(1.0 + eps2 * tn ** 2)
    max_dev = float(np.max(np.abs(got_db - want_db)))
    report(6, worst_snr >= 20.0 and max_dev < 0.1,
           f"band-limited round trip SNR >= {worst_snr:.1f} dB (need 20); "
           f"filter magnitude within {max_dev:.4f} dB of the analytic "
           f"Chebyshev response at 100 points (need 0.1)")


# --- 7. desk-scale learning -----------------------------------------------


def make_harmonic_corpus(directory, n_clips=50, rate=16000, seed=42):
    rng = np.random.default_rng(seed)
    t = np.arange(rate) / rate
    for i in range(n_clips):
        f0 = rng.uniform(600.0, 1400.0)
        n = int(rng.integers(3, 7))
        sig = np.zeros_like(t)
        for m in range(1, n + 1):
            if m * f0 > 7000.0:
                continue
            amp = rng.uniform(0.3, 1.0) / math.sqrt(m)
            sig += amp * np.sin(2 * np.pi * m * f0 * t
                                + rng.uniform(0, 2 * np.pi))
        sig *= 0.5 / np.max(np.abs(sig))
        wavio.write_wav(os.path.join(directory, f"clip{i:02d}.wav"), sig, rate)


@pytest.mark.slow
def test_criterion_7_learning(tmp_path):
    start = time.time()
    rate, r, T0 = 16000, 2, 2048
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    make_harmonic_corpus(str(wav_dir))

    sets = []
    refs = []
    ups = []
    for i, name in enumerate(sorted(os.listdir(wav_dir))):
        samples, _ = wavio.read_wav(str(wav_dir / name))
        sig = dsp.AudioSignal(samples, rate)
        lo = dsp.downsample(sig, r)
        lo_up = dsp.cubic_upsample(lo, r)
        hi = dsp.AudioSignal(sig.samples[:len(lo_up)], rate)
        refs.append(hi.samples)
        ups.append(lo_up.samples)
        sets.append(dsp.extract_patches(lo_up, hi, length=T0, stride=T0,
                                        file_index=i, scale=r))
    patches = dsp.PatchSet(
        lo=np.concatenate([s.lo for s in sets]), hi=np.concatenate([s.hi for s in sets]),
        file_index=np.concatenate([s.file_index for s in sets]),
        offset=np.concatenate([s.offset for s in sets]),
        patch_length=T0, sample_rate_hz=rate, scale=r)

    cfg = ModelConfig(depth=2, blocks=16, transformer_layers=1, heads=2,
                      ffn_hidden=64, dropout_rate=0.0, upscale=2,
                      patch_length=T0, width_mult=0.25)
    model = Model(cfg, seed=1)
    tcfg = TrainConfig(epochs=100, batch_size=16, learning_rate=1e-3,
                       seed=3, max_steps=200)

    with no_grad():
        init = float(batch_loss(model, patches.lo, patches.hi).data)
    result = train(model, patches, tcfg)
    final = result.epoch_losses[-1]
    reduction = init / final

    model_snrs = []
    base_snrs = []
    for up, ref in zip(ups, refs):
        recon = run_patched(model, up)
        model_snrs.append(snr(recon, ref))
        base_snrs.append(snr(up, ref))
    delta = float(np.mean(model_snrs) - np.mean(base_snrs))
    elapsed = time.time() - start
    report(7, reduction >= 2.0 and delta >= 1.0 and elapsed < 1800,
           f"200 steps: loss {init:.4f} -> {final:.4f} "
           f"({reduction:.2f}x >= 2x); model SNR {np.mean(model_snrs):.2f} dB "
           f"vs bicubic {np.mean(base_snrs):.2f} dB (+{delta:.2f} >= 1 dB); "
           f"{elapsed:.0f}s < 1800s")


# --- 8. end-to-end determinism --------------------------------------------


TINY_CFG_TEXT = """\
depth = 2
blocks = 4
transformer_layers = 1
heads = 2
ffn_hidden = 8
dropout_rate = 0.0
width_mult = 0.03125
learning_rate = 0.001
batch_size = 4
"""


def run_pipeline(root, wav_dir, cfg_path):
    data = os.path.join(root, "data")
    run = os.path.join(root, "run")
    scores = os.path.join(root, "scores.csv")
    assert cli_main(["prepare", "--in", wav_dir, "--out", data,
                     "--scale", "2", "--patch", "2048", "--stride", "2048"]) == 0
    assert cli_main(["train", "--data", os.path.join(data, "patches.afsp"),
                     "--out", run, "--config", cfg_path,
                     "--epochs", "2", "--seed", "5"]) == 0
    assert cli_main(["eval", "--ckpt", os.path.join(run, "checkpoint.afsr"),
                     "--data", wav_dir, "--scale", "2", "--out", scores,
                     "--frame", "512", "--hop", "256"]) == 0
    return {
        "data/patches.afsp": os.path.join(data, "patches.afsp"),
        "data/manifest.json": os.path.join(data, "manifest.json"),
        "run/checkpoint.afsr": os.path.join(run, "checkpoint.afsr"),
        "run/loss.txt": os.path.join(run, "loss.txt"),
        "run/manifest.json": os.path.join(run, "manifest.json"),
        "scores.csv": scores,
    }


def test_criterion_8_determinism(tmp_path, capsys):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    rng = np.random.default_rng(0)
    t = np.arange(16000) / 16000
    for i in range(3):
        f = rng.uniform(400, 1500)
        wavio.write_wav(str(wav_dir / f"tone{i}.wav"),
                        0.4 * np.sin(2 * np.pi * f * t), 16000)
    cfg_path = str(tmp_path / "model.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(TINY_CFG_TEXT)

    arts1 = run_pipeline(str(tmp_path / "run1"), str(wav_dir), cfg_path)
    arts2 = run_pipeline(str(tmp_path / "run2"), str(wav_dir), cfg_path)
    capsys.readouterr()

    mismatched = []
    for key in arts1:
        b1 = open(arts1[key], "rb").read()
        b2 = open(arts2[key], "rb").read()
        if b1 != b2:
            mismatched.append(key)
    report(8, not mismatched,
           f"two seeded prepare->train->eval runs byte-identical across "
           f"{len(arts1)} artifacts" +
           (f"; mismatches: {mismatched}" if mismatched else ""))
