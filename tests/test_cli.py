import os

import numpy as np
import pytest

from afsr import archive, wavio
from afsr.cli import main, parse_config_file
from afsr.trainer import load_checkpoint, restore_model


def write_tone(path, freq=440.0, seconds=1.0, rate=16000, amp=0.4):
    t = np.arange(int(seconds * rate)) / rate
    wavio.write_wav(path, amp * np.sin(2 * np.pi * freq * t), rate)


TINY_CONFIG = """\
# desk-scale model
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


@pytest.fixture
def corpus(tmp_path):
    d = tmp_path / "wavs"
    d.mkdir()
    for i, f in enumerate((440.0, 880.0, 1320.0)):
        write_tone(str(d / f"tone{i}.wav"), f)
    return str(d)


def prepare(corpus, out, patch=2048, stride=2048):
    return main(["prepare", "--in", corpus, "--out", out, "--scale", "2",
                 "--patch", str(patch), "--stride", str(stride)])


class TestParseConfig:
    def test_values_comments_and_types(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("depth = 3  # comment\n\n# full line comment\nlearning_rate=0.01\n")
        values = parse_config_file(str(p))
        assert values == {"depth": 3, "learning_rate": 0.01}

    def test_unknown_key_names_location(self, tmp_path):
        from afsr.cli import ConfigError
        p = tmp_path / "c.cfg"
        p.write_text("depth = 3\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2.*bogus"):
            parse_config_file(str(p))

    def test_bad_value(self, tmp_path):
        from afsr.cli import ConfigError
        p = tmp_path / "c.cfg"
        p.write_text("depth = banana\n")
        with pytest.raises(ConfigError, match="depth"):
            parse_config_file(str(p))


class TestPrepare:
    def test_one_second_clip_one_patch(self, tmp_path):
        d = tmp_path / "one"
        d.mkdir()
        write_tone(str(d / "clip.wav"), 500.0, seconds=1.0)
        out = str(tmp_path / "out")
        assert main(["prepare", "--in", str(d), "--out", out,
                     "--scale", "2", "--patch", "8192", "--stride", "8192"]) == 0
        patches = archive.read_patch_archive(os.path.join(out, "patches.afsp"))
        assert len(patches) == 1
        assert patches.patch_length == 8192
        assert patches.scale == 2

    def test_empty_directory_warns_but_succeeds(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        out = str(tmp_path / "out")
        assert prepare(str(d), out) == 0
        assert "no patches" in capsys.readouterr().err
        patches = archive.read_patch_archive(os.path.join(out, "patches.afsp"))
        assert len(patches) == 0

    def test_missing_directory_exits_2(self, tmp_path):
        assert prepare(str(tmp_path / "nope"), str(tmp_path / "out")) == 2

    def test_rerun_byte_identical(self, tmp_path, corpus):
        out1 = str(tmp_path / "o1")
        out2 = str(tmp_path / "o2")
        assert prepare(corpus, out1) == 0
        assert prepare(corpus, out2) == 0
        for name in ("patches.afsp", "manifest.json"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, name

    def test_manifest_lists_inputs(self, tmp_path, corpus):
        import json
        out = str(tmp_path / "out")
        prepare(corpus, out)
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["command"] == "prepare"
        assert manifest["inputs"] == ["tone0.wav", "tone1.wav", "tone2.wav"]
        assert manifest["outputs"] == ["patches.afsp"]


class TestTrainCommand:
    def _prepare(self, tmp_path, corpus):
        data = str(tmp_path / "data")
        assert prepare(corpus, data) == 0
        return os.path.join(data, "patches.afsp")

    def test_zero_epochs_checkpoint_equals_init(self, tmp_path, corpus):
        from afsr.model import Model, ModelConfig
        arch = self._prepare(tmp_path, corpus)
        cfgp = tmp_path / "m.cfg"
        cfgp.write_text(TINY_CONFIG)
        out = str(tmp_path / "run")
        assert main(["train", "--data", arch, "--out", out,
                     "--config", str(cfgp), "--epochs", "0", "--seed", "9"]) == 0
        ckpt = load_checkpoint(os.path.join(out, "checkpoint.afsr"))
        trained = restore_model(ckpt)
        fresh = Model(ckpt.config, seed=9)
        for k in fresh.params:
            assert np.array_equal(trained.params[k].data, fresh.params[k].data)

    def test_short_training_writes_losses(self, tmp_path, corpus):
        arch = self._prepare(tmp_path, corpus)
        cfgp = tmp_path / "m.cfg"
        cfgp.write_text(TINY_CONFIG)
        out = str(tmp_path / "run")
        assert main(["train", "--data", arch, "--out", out,
                     "--config", str(cfgp), "--epochs", "2", "--seed", "1"]) == 0
        lines = open(os.path.join(out, "loss.txt")).read().strip().split("\n")
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 3

    def test_missing_archive_exits_2(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "no.afsp"),
                     "--out", str(tmp_path / "run")]) == 2

    def test_unknown_config_key_exits_1(self, tmp_path, corpus):
        arch = self._prepare(tmp_path, corpus)
        cfgp = tmp_path / "bad.cfg"
        # the archive sets upscale and patch_length; lsd_* are eval options
        for key in ("not_a_key", "lsd_frame", "lsd_hop", "upscale", "patch_length"):
            cfgp.write_text(TINY_CONFIG + f"{key} = 7\n")
            assert main(["train", "--data", arch, "--out", str(tmp_path / "run"),
                         "--config", str(cfgp), "--epochs", "0"]) == 1, key

    @pytest.mark.parametrize("key,value", [
        ("depth", "0"), ("heads", "0"), ("blocks", "0"), ("ffn_hidden", "0"),
        ("transformer_layers", "-1"), ("width_mult", "0"), ("width_mult", "-1"),
        ("dropout_rate", "1.5"), ("dropout_rate", "1.0"), ("dropout_rate", "-0.1")])
    def test_out_of_range_model_key_exits_2(self, tmp_path, corpus, capsys, key, value):
        arch = self._prepare(tmp_path, corpus)
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text(TINY_CONFIG + f"{key} = {value}\n")
        assert main(["train", "--data", arch, "--out", str(tmp_path / "run"),
                     "--config", str(cfgp), "--epochs", "0"]) == 2
        assert key in capsys.readouterr().err

    def test_model_keys_round_trip_through_checkpoint(self, tmp_path, corpus):
        from dataclasses import fields
        from afsr.cli import ARCHIVE_KEYS
        from afsr.model import ModelConfig
        arch = self._prepare(tmp_path, corpus)
        cfgp = tmp_path / "m.cfg"
        cfgp.write_text(TINY_CONFIG)
        values = parse_config_file(str(cfgp))
        default = ModelConfig()
        for f in fields(ModelConfig):
            if f.name not in ARCHIVE_KEYS:
                assert values[f.name] != getattr(default, f.name), f.name
        out = str(tmp_path / "run")
        assert main(["train", "--data", arch, "--out", out,
                     "--config", str(cfgp), "--steps", "1"]) == 0
        config = load_checkpoint(os.path.join(out, "checkpoint.afsr")).config
        want = dict(values, upscale=2, patch_length=2048)
        for f in fields(ModelConfig):
            assert getattr(config, f.name) == want[f.name], f.name

    def test_seed_env_override(self, tmp_path, corpus, monkeypatch):
        import json
        arch = self._prepare(tmp_path, corpus)
        cfgp = tmp_path / "m.cfg"
        cfgp.write_text(TINY_CONFIG)
        out = str(tmp_path / "run")
        monkeypatch.setenv("AFSR_SEED", "77")
        assert main(["train", "--data", arch, "--out", out,
                     "--config", str(cfgp), "--epochs", "0"]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["seed"] == 77


@pytest.fixture
def trained_run(tmp_path, corpus):
    data = str(tmp_path / "data")
    assert prepare(corpus, data) == 0
    cfgp = tmp_path / "m.cfg"
    cfgp.write_text(TINY_CONFIG)
    out = str(tmp_path / "run")
    assert main(["train", "--data", os.path.join(data, "patches.afsp"),
                 "--out", out, "--config", str(cfgp),
                 "--epochs", "1", "--seed", "1"]) == 0
    return os.path.join(out, "checkpoint.afsr")


class TestEvalCommand:
    def test_rows_per_file_plus_mean(self, tmp_path, corpus, trained_run, capsys):
        out_csv = str(tmp_path / "scores.csv")
        assert main(["eval", "--ckpt", trained_run, "--data", corpus,
                     "--scale", "2", "--out", out_csv,
                     "--frame", "512", "--hop", "256"]) == 0
        capsys.readouterr()
        lines = open(out_csv).read().strip().split("\n")
        # header + (3 files + mean) for the model and again for the baseline
        assert len(lines) == 1 + 4 + 4
        assert lines[0] == "method,scale,dataset,file,snr_db,lsd"
        assert lines[4].startswith("model,2,wavs,mean[3],")
        assert lines[8].startswith("bicubic,2,wavs,mean[3],")

    def test_scale_mismatch_exits_2(self, tmp_path, corpus, trained_run):
        assert main(["eval", "--ckpt", trained_run, "--data", corpus,
                     "--scale", "4"]) == 2

    def test_missing_checkpoint_exits_2(self, tmp_path, corpus):
        assert main(["eval", "--ckpt", str(tmp_path / "no.afsr"),
                     "--data", corpus, "--scale", "2"]) == 2


class TestInferCommand:
    def test_silence_stays_near_silent(self, tmp_path, trained_run):
        src = str(tmp_path / "sil.wav")
        wavio.write_wav(src, np.zeros(8000), 8000)
        dst = str(tmp_path / "sil_hi.wav")
        assert main(["infer", "--ckpt", trained_run, "--in", src,
                     "--out", dst, "--scale", "2"]) == 0
        samples, rate = wavio.read_wav(dst)
        assert rate == 16000
        assert len(samples) == 16000
        assert np.max(np.abs(samples)) < 1e-3

    def test_output_sample_count(self, tmp_path, trained_run, rng):
        src = str(tmp_path / "in.wav")
        wavio.write_wav(src, rng.normal(size=5000) * 0.1, 8000)
        dst = str(tmp_path / "out.wav")
        assert main(["infer", "--ckpt", trained_run, "--in", src,
                     "--out", dst, "--scale", "2"]) == 0
        samples, rate = wavio.read_wav(dst)
        assert (len(samples), rate) == (10000, 16000)

    def test_missing_input_exits_2(self, tmp_path, trained_run):
        assert main(["infer", "--ckpt", trained_run,
                     "--in", str(tmp_path / "no.wav"),
                     "--out", str(tmp_path / "o.wav"), "--scale", "2"]) == 2


class TestSpectrogramCommand:
    def test_csv_dominant_bin(self, tmp_path):
        src = str(tmp_path / "tone.wav")
        write_tone(src, 440.0)
        dst = str(tmp_path / "spec.csv")
        assert main(["spectrogram", "--in", src, "--out", dst,
                     "--frame", "1024", "--hop", "512"]) == 0
        rows = [list(map(float, line.split(",")))
                for line in open(dst).read().strip().split("\n")]
        # 440 Hz at 16 kHz with a 1024-point frame peaks at bin 28
        want_bin = round(440.0 * 1024 / 16000)
        for row in rows:
            assert abs(int(np.argmax(row)) - want_bin) <= 1

    def test_pgm_header(self, tmp_path):
        src = str(tmp_path / "tone.wav")
        write_tone(src, 440.0)
        dst = str(tmp_path / "spec.pgm")
        assert main(["spectrogram", "--in", src, "--out", dst]) == 0
        data = open(dst, "rb").read()
        assert data.startswith(b"P5\n1025 ")

    def test_frame_too_long_exits_2(self, tmp_path):
        src = str(tmp_path / "short.wav")
        wavio.write_wav(src, np.zeros(100), 16000)
        assert main(["spectrogram", "--in", src,
                     "--out", str(tmp_path / "s.csv"), "--frame", "256"]) == 2


class TestExitCodes:
    def test_unknown_subcommand_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument_exits_1(self):
        assert main(["prepare", "--in", "x"]) == 1

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
        from afsr import __version__
        assert __version__ in capsys.readouterr().out
