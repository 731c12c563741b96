import math
import os

import numpy as np
import pytest

from afsr import wavio
from afsr.metrics import (EvalItem, EvalReport, bicubic_baseline,
                          evaluate_corpus, lsd, report_csv, score_pair, snr)
from afsr.model import Model, ModelConfig


class TestSnr:
    def test_zero_db(self):
        # error energy equal to reference energy
        y = np.array([1.0, 0.0, 0.0, 0.0])
        x = np.array([1.0, 1.0, 0.0, 0.0])
        assert snr(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_ten_db(self):
        # ||y||^2 = 10, ||x - y||^2 = 1
        y = np.zeros(10)
        y[0] = math.sqrt(10.0)
        x = y.copy()
        x[1] = 1.0
        assert snr(x, y) == pytest.approx(10.0, abs=1e-12)

    def test_exact_match_is_inf(self, rng):
        y = rng.normal(size=50)
        assert snr(y.copy(), y) == math.inf

    def test_double_loop_oracle(self, rng):
        x = rng.normal(size=64)
        y = rng.normal(size=64)
        num = 0.0
        den = 0.0
        for i in range(64):
            num += y[i] * y[i]
        for i in range(64):
            den += (x[i] - y[i]) ** 2
        assert abs(snr(x, y) - 10 * math.log10(num / den)) < 1e-8

    def test_scaling_both_signals_invariant(self, rng):
        x = rng.normal(size=32)
        y = rng.normal(size=32)
        assert snr(3.7 * x, 3.7 * y) == pytest.approx(snr(x, y), abs=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError):
            snr(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="all-zero"):
            snr(np.ones(4), np.zeros(4))


class TestLsd:
    def test_identical_signals_zero(self, rng):
        x = rng.normal(size=4096)
        assert lsd(x, x.copy()) == 0.0

    def test_constant_scale_gives_abs_log(self, rng):
        # scaling by s shifts every log-power bin by 2 ln s, so the distance
        # is |2 ln s| for any signal with energy in every frame
        x = rng.normal(size=4096) + 0.01
        s = 2.5
        want = abs(2.0 * math.log(s))
        assert lsd(s * x, x) == pytest.approx(want, rel=1e-4)

    def test_symmetry(self, rng):
        x = rng.normal(size=4096)
        y = rng.normal(size=4096)
        assert lsd(x, y) == pytest.approx(lsd(y, x), abs=1e-12)

    def test_monotone_in_noise(self, rng):
        y = np.sin(2 * np.pi * 440 * np.arange(8192) / 16000)
        noise = rng.normal(size=8192)
        prev = 0.0
        for amp in (0.01, 0.1, 1.0):
            cur = lsd(y + amp * noise, y)
            assert cur > prev
            prev = cur

    def test_double_loop_oracle(self, rng):
        from afsr.dsp import stft_log_power
        x = rng.normal(size=300)
        y = rng.normal(size=300)
        frame, hop = 64, 32
        X = stft_log_power(y, frame=frame, hop=hop)
        Xh = stft_log_power(x, frame=frame, hop=hop)
        frames, bins = X.shape
        total = 0.0
        for l in range(frames):
            acc = 0.0
            for k in range(bins):
                acc += (X[l, k] - Xh[l, k]) ** 2
            total += math.sqrt(acc / bins)
        assert abs(lsd(x, y, frame=frame, hop=hop) - total / frames) < 1e-8

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lsd(np.zeros(3000), np.zeros(3001))


def tiny_model():
    cfg = ModelConfig(depth=2, blocks=4, transformer_layers=1, heads=2,
                      ffn_hidden=8, dropout_rate=0.0, patch_length=2048,
                      width_mult=1.0 / 32.0)
    model = Model(cfg, seed=0)
    for p in model.params.values():
        p.data[:] = 0
    model.force_identity_heads()
    return model


def write_tone(path, freq, seconds=0.5, rate=16000):
    t = np.arange(int(seconds * rate)) / rate
    wavio.write_wav(path, 0.4 * np.sin(2 * np.pi * freq * t), rate)


class TestCorpusEvaluation:
    def test_identity_model_matches_bicubic(self, tmp_path, rng):
        files = []
        for i, f in enumerate((500, 900)):
            p = str(tmp_path / f"tone{i}.wav")
            write_tone(p, f)
            files.append(p)
        model = tiny_model()
        rep_model, rep_base = evaluate_corpus(model, files, 2)
        assert (rep_model.method, rep_base.method) == ("model", "bicubic")
        assert len(rep_model.items) == 2
        for a, b in zip(rep_model.items, rep_base.items):
            assert a.file_id == b.file_id
            # the zeroed model is the exact identity up to float32 rounding
            assert a.snr_db == pytest.approx(b.snr_db, abs=1e-2)
            assert a.lsd == pytest.approx(b.lsd, abs=1e-2)

    def test_unreadable_file_recorded_as_skipped(self, tmp_path):
        good = str(tmp_path / "good.wav")
        write_tone(good, 700)
        bad = str(tmp_path / "bad.wav")
        with open(bad, "wb") as fh:
            fh.write(b"not a wav file")
        for rep in evaluate_corpus(tiny_model(), [good, bad], 2):
            assert len(rep.items) == 1
            assert len(rep.skipped) == 1
            assert rep.skipped[0][0].endswith("bad.wav")

    def test_empty_file_list(self):
        for rep in evaluate_corpus(tiny_model(), [], 2):
            assert rep.items == []
            assert rep.aggregate() == {"count": 0, "snr_db": None, "lsd": None}

    def test_sorted_order_and_basename_ids(self, tmp_path):
        pb = str(tmp_path / "b.wav")
        pa = str(tmp_path / "a.wav")
        write_tone(pb, 600)
        write_tone(pa, 800)
        rep = bicubic_baseline([pb, pa], 2)
        assert [it.file_id for it in rep.items] == ["a.wav", "b.wav"]


class TestReport:
    def test_aggregate_excludes_infinite_snr(self):
        rep = EvalReport(method="m", scale=2, dataset="d")
        rep.items = [EvalItem("a", 10.0, 1.0),
                     EvalItem("b", math.inf, 3.0)]
        agg = rep.aggregate()
        assert agg["count"] == 2
        assert agg["snr_db"] == pytest.approx(10.0)
        assert agg["lsd"] == pytest.approx(2.0)

    def test_csv_layout(self):
        rep = EvalReport(method="m", scale=2, dataset="d")
        rep.items = [EvalItem("a.wav", 10.0, 1.0),
                     EvalItem("b.wav", math.inf, 3.0)]
        text = report_csv([rep])
        lines = text.strip().split("\n")
        assert lines[0] == "method,scale,dataset,file,snr_db,lsd"
        assert lines[1] == "m,2,d,a.wav,10.000000,1.000000"
        assert lines[2] == "m,2,d,b.wav,inf,3.000000"
        assert lines[3] == "m,2,d,mean[2],10.000000,2.000000"

    def test_score_pair_fields(self, rng):
        y = rng.normal(size=4096)
        item = score_pair(y + 0.01, y, "x.wav")
        assert item.file_id == "x.wav"
        assert math.isfinite(item.snr_db)
        assert item.lsd >= 0.0
