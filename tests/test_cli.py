import os
import tracemalloc

import numpy as np
import pytest

from afsr import archive, dsp, tensorio, trainer, wavio
from afsr.cli import main, parse_config_file
from afsr.dsp import PatchSet
from afsr.model import Model, ModelConfig
from afsr.optim import AdamState
from afsr.trainer import load_checkpoint, restore_model, save_checkpoint
from conftest import write_concatenated_archive


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


def write_truncated_wav(path):
    """A WAV cut off inside its header."""
    write_tone(path)
    with open(path, "rb") as fh:
        head = fh.read(20)
    with open(path, "wb") as fh:
        fh.write(head)


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

    def test_truncated_wav_is_skipped(self, tmp_path, capsys):
        d = tmp_path / "wavs"
        d.mkdir()
        write_tone(str(d / "good.wav"), 500.0)
        write_truncated_wav(str(d / "cut.wav"))
        out = str(tmp_path / "out")
        assert prepare(str(d), out) == 0
        assert "skipping cut.wav" in capsys.readouterr().err
        patches = archive.read_patch_archive(os.path.join(out, "patches.afsp"))
        assert len(patches) == 7  # good.wav alone: (16000 - 2048) // 2048 + 1

    def test_scale_3_keeps_16khz_clip(self, tmp_path):
        d = tmp_path / "one"
        d.mkdir()
        write_tone(str(d / "clip.wav"), 500.0, seconds=1.0)
        out = str(tmp_path / "out")
        assert main(["prepare", "--in", str(d), "--out", out,
                     "--scale", "3", "--patch", "2048", "--stride", "2048"]) == 0
        patches = archive.read_patch_archive(os.path.join(out, "patches.afsp"))
        assert len(patches) > 0
        assert (patches.sample_rate_hz, patches.scale) == (16000, 3)

    def test_rerun_byte_identical(self, tmp_path, corpus):
        out1 = str(tmp_path / "o1")
        out2 = str(tmp_path / "o2")
        assert prepare(corpus, out1) == 0
        assert prepare(corpus, out2) == 0
        for name in ("patches.afsp", "manifest.json"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, name

    def test_archive_equals_one_write_of_the_concatenated_arrays(self, tmp_path):
        d = tmp_path / "wavs"
        d.mkdir()
        for name, freq, seconds in (("a.wav", 440.0, 1.0), ("c.wav", 660.0, 0.1),
                                    ("d.wav", 880.0, 2.5)):
            write_tone(str(d / name), freq, seconds=seconds)
        write_truncated_wav(str(d / "b.wav"))  # skipped; c.wav is too short for a patch
        empty = tmp_path / "empty"
        empty.mkdir()
        for corpus, readable in ((d, {0: "a.wav", 2: "c.wav", 3: "d.wav"}), (empty, {})):
            sets = [dsp.extract_patches(
                        *dsp.degrade(dsp.AudioSignal(*wavio.read_wav(str(corpus / name))), 2),
                        length=2048, stride=1024, file_index=i, scale=2)
                    for i, name in readable.items()]
            want = str(tmp_path / "want.afsp")
            write_concatenated_archive(want, sets, 2048, 16000, 2)
            out = tmp_path / f"out-{corpus.name}"
            assert prepare(str(corpus), str(out), stride=1024) == 0
            assert (out / "patches.afsp").read_bytes() == open(want, "rb").read()
            assert sorted(os.listdir(out)) == ["manifest.json", "patches.afsp"]

    def test_mixed_rates_refused_naming_the_file_and_writing_nothing(self, tmp_path, capsys):
        d = tmp_path / "wavs"
        d.mkdir()
        write_tone(str(d / "a.wav"))
        write_tone(str(d / "b.wav"), rate=8000)
        write_tone(str(d / "c.wav"))
        out = tmp_path / "out"
        assert prepare(str(d), str(out)) == 2
        assert "b.wav is at 8000 Hz but a.wav is at 16000 Hz" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_peak_memory_does_not_grow_with_the_file_count(self, tmp_path):
        peaks = []
        for count in (2, 2, 6):  # the first run loads scipy
            d = tmp_path / f"wavs{len(peaks)}"
            d.mkdir()
            for i in range(count):
                write_tone(str(d / f"t{i}.wav"), 300.0 + 100 * i, seconds=3.0)
            tracemalloc.start()
            try:
                assert prepare(str(d), str(tmp_path / f"out{len(peaks)}"), stride=1024) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] < 1.1 * peaks[1], peaks

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
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key,value", [
        ("max_steps", "-1"), ("checkpoint_every", "-1"), ("eps", "0"),
        ("eps", "-1"), ("beta1", "1.0"), ("beta2", "-3"), ("seed", "-1")])
    def test_out_of_range_train_key_exits_2(self, tmp_path, corpus, capsys, key, value):
        arch = self._prepare(tmp_path, corpus)
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text(TINY_CONFIG + f"{key} = {value}\n")
        assert main(["train", "--data", arch, "--out", str(tmp_path / "run"),
                     "--config", str(cfgp), "--epochs", "2"]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_checkpoint_records_epochs_completed(self, tmp_path, corpus):
        arch = self._prepare(tmp_path, corpus)
        cfgp = tmp_path / "m.cfg"
        # one batch holds the whole archive, so one epoch is one step
        cfgp.write_text(TINY_CONFIG + "batch_size = 64\n")
        out = str(tmp_path / "run")
        assert main(["train", "--data", arch, "--out", out, "--config", str(cfgp),
                     "--epochs", "5", "--steps", "2"]) == 0
        ckpt = load_checkpoint(os.path.join(out, "checkpoint.afsr"))
        assert ckpt.meta["t"] == 2
        assert ckpt.meta["epoch"] == 2

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

    def test_unparsable_seed_env_exits_1_naming_it(self, tmp_path, corpus, monkeypatch,
                                                   capsys):
        arch = self._prepare(tmp_path, corpus)
        monkeypatch.setenv("AFSR_SEED", "abc")
        assert main(["train", "--data", arch, "--out", str(tmp_path / "run"),
                     "--epochs", "0"]) == 1
        assert "AFSR_SEED" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @staticmethod
    def _train_on_edited_archive(tmp_path, rng, capsys, key, edit):
        """`afsr train` on an 8-patch archive whose tensor `key` is replaced
        by `edit(tensors)`: exit 2, the tensor named, no run directory."""
        good = PatchSet(lo=rng.normal(size=(8, 256)).astype(np.float32),
                        hi=rng.normal(size=(8, 256)).astype(np.float32),
                        file_index=np.zeros(8, dtype=np.int64),
                        offset=np.arange(8) * 256, patch_length=256,
                        sample_rate_hz=16000, scale=2)
        arch = str(tmp_path / "p.afsp")
        archive.write_patch_archive(arch, [good], 256, 2)
        tensors = tensorio.read_tensors(arch, magic=tensorio.PATCH_MAGIC)
        tensors[key] = edit(tensors)
        tensorio.write_tensors(arch, tensors, magic=tensorio.PATCH_MAGIC)
        cfgp = tmp_path / "m.cfg"
        cfgp.write_text(TINY_CONFIG)
        assert main(["train", "--data", arch, "--out", str(tmp_path / "run"),
                     "--config", str(cfgp), "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert not (tmp_path / "run").exists()
        return arch, err

    @pytest.mark.parametrize("key", ["hi", "lo", "offset", "meta.scale"])
    def test_misshapen_archive_tensor_exits_2(self, tmp_path, rng, capsys, key):
        self._train_on_edited_archive(
            tmp_path, rng, capsys, key,
            lambda t: {"hi": t["hi"][:3], "lo": t["lo"].reshape(-1),
                       "offset": t["offset"][:, None], "meta.scale": np.full(2, 2.0)}[key])

    @pytest.mark.parametrize("key,value", [("meta.scale", 2.5), ("meta.scale", 0.0),
                                           ("meta.sample_rate_hz", -5.0),
                                           ("meta.sample_rate_hz", np.nan),
                                           ("meta.patch_length", 256.5)])
    def test_meta_entry_out_of_range_exits_2(self, tmp_path, rng, capsys, key, value):
        self._train_on_edited_archive(tmp_path, rng, capsys, key, lambda t: np.float32(value))

    @pytest.mark.parametrize("key", ["file_index", "offset"])
    @pytest.mark.parametrize("value", [2.5, -1.0, np.nan])
    def test_non_integer_patch_position_exits_2(self, tmp_path, rng, capsys, key, value):
        def edit(tensors):
            bad = tensors[key].copy()
            bad[3] = value
            return bad

        arch, _ = self._train_on_edited_archive(tmp_path, rng, capsys, key, edit)
        with pytest.raises(tensorio.ContainerFormatError, match=f"'{key}' is {value} at index 3"):
            archive.read_patch_archive(arch)

    def test_format_error_names_the_archive(self, tmp_path, rng, capsys):
        arch, err = self._train_on_edited_archive(tmp_path, rng, capsys, "meta.scale",
                                                  lambda t: np.float32(2.5))
        assert f"{arch}: entry 'meta.scale' is 2.5" in err


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

    def test_truncated_wav_skipped_once(self, tmp_path, corpus, trained_run, capsys):
        write_truncated_wav(os.path.join(corpus, "cut.wav"))
        out_csv = str(tmp_path / "scores.csv")
        assert main(["eval", "--ckpt", trained_run, "--data", corpus,
                     "--scale", "2", "--out", out_csv,
                     "--frame", "512", "--hop", "256"]) == 0
        skipped = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith("eval: skipped")]
        assert len(skipped) == 1 and "cut.wav" in skipped[0]
        lines = open(out_csv).read().strip().split("\n")
        assert lines[4].startswith("model,2,wavs,mean[3],")
        assert lines[8].startswith("bicubic,2,wavs,mean[3],")

    def test_each_file_read_and_degraded_once(self, corpus, trained_run,
                                              monkeypatch, capsys):
        from afsr import dsp
        calls = {}

        def counting(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counting(wavio, "read_wav")
        counting(dsp, "downsample")
        counting(dsp, "cubic_upsample")
        assert main(["eval", "--ckpt", trained_run, "--data", corpus,
                     "--scale", "2", "--frame", "512", "--hop", "256"]) == 0
        capsys.readouterr()
        assert calls == {"read_wav": 3, "downsample": 3, "cubic_upsample": 3}

    def test_non_finite_output_exits_2_and_writes_nothing(self, tmp_path, corpus,
                                                          trained_run, monkeypatch, capsys):
        def diverged(model, samples):
            out = np.zeros(len(samples))
            out[:3] = (np.nan, np.inf, -np.inf)
            return out

        monkeypatch.setattr("afsr.model.run_patched", diverged)
        out_csv = tmp_path / "scores.csv"
        assert main(["eval", "--ckpt", trained_run, "--data", corpus, "--scale", "2",
                     "--out", str(out_csv), "--frame", "512", "--hop", "256"]) == 2
        out, err = capsys.readouterr()
        assert "tone0.wav: model output holds 3 non-finite samples" in err
        assert "skipped" not in err
        assert out == ""
        assert not out_csv.exists()

    @pytest.mark.parametrize("key, value", [
        ("__meta__.t", 2.5), ("__meta__.t", -1.0),
        ("__meta__.epoch", 2.5), ("__meta__.epoch", -1.0),
        ("__cfg__.heads", np.full(2, 2.0))],
        ids=["t-2.5", "t-neg", "epoch-2.5", "epoch-neg", "cfg-not-0d"])
    def test_malformed_checkpoint_entry_exits_2(self, tmp_path, corpus, trained_run,
                                                capsys, key, value):
        tensors = tensorio.read_tensors(trained_run)
        tensors[key] = value
        ckpt = str(tmp_path / "bad.afsr")
        tensorio.write_tensors(ckpt, tensors)
        with pytest.raises(tensorio.ContainerFormatError, match=f"'{key}'"):
            load_checkpoint(ckpt)
        out_csv = tmp_path / "scores.csv"
        assert main(["eval", "--ckpt", ckpt, "--data", corpus, "--scale", "2",
                     "--out", str(out_csv)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out_csv.exists()

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

    def test_non_finite_output_exits_2_and_writes_nothing(self, tmp_path, trained_run,
                                                          monkeypatch, capsys):
        def diverged(model, samples):
            out = np.zeros(len(samples))
            out[:3] = (np.nan, np.inf, -np.inf)
            return out

        monkeypatch.setattr("afsr.cli.run_patched", diverged)
        src = str(tmp_path / "in.wav")
        wavio.write_wav(src, np.zeros(8000), 8000)
        dst = tmp_path / "out.wav"
        assert main(["infer", "--ckpt", trained_run, "--in", src,
                     "--out", str(dst), "--scale", "2"]) == 2
        assert "3 non-finite samples" in capsys.readouterr().err
        assert not dst.exists()

    def test_missing_input_exits_2(self, tmp_path, trained_run):
        assert main(["infer", "--ckpt", trained_run,
                     "--in", str(tmp_path / "no.wav"),
                     "--out", str(tmp_path / "o.wav"), "--scale", "2"]) == 2

    def test_not_a_wav_exits_2(self, tmp_path, trained_run):
        src = tmp_path / "text.wav"
        src.write_bytes(b"not a wav file")
        assert main(["infer", "--ckpt", trained_run, "--in", str(src),
                     "--out", str(tmp_path / "o.wav"), "--scale", "2"]) == 2

    def test_checkpoint_missing_a_tensor_exits_2(self, tmp_path, trained_run, capsys):
        tensors = tensorio.read_tensors(trained_run)
        del tensors["final.conv.b"]
        ckpt = str(tmp_path / "cut.afsr")
        tensorio.write_tensors(ckpt, tensors)
        src = str(tmp_path / "in.wav")
        wavio.write_wav(src, np.zeros(8000), 8000)
        assert main(["infer", "--ckpt", ckpt, "--in", src,
                     "--out", str(tmp_path / "o.wav"), "--scale", "2"]) == 2
        assert "final.conv.b" in capsys.readouterr().err

    def test_truncated_checkpoint_exits_2_naming_it(self, tmp_path, trained_run, capsys):
        ckpt = tmp_path / "cut.afsr"
        with open(trained_run, "rb") as fh:
            ckpt.write_bytes(fh.read(os.path.getsize(trained_run) // 2))
        src = str(tmp_path / "in.wav")
        wavio.write_wav(src, np.zeros(8000), 8000)
        dst = tmp_path / "o.wav"
        assert main(["infer", "--ckpt", str(ckpt), "--in", src,
                     "--out", str(dst), "--scale", "2"]) == 2
        assert f"{ckpt}: truncated file" in capsys.readouterr().err
        assert not dst.exists()

    @pytest.mark.parametrize("key, value", [
        ("__cfg__.depth", np.full(2, 2.0)), ("__cfg__.depth", np.float32(2.5)),
        ("__cfg__.blocks", np.float32(np.nan)), ("__meta__.t", np.zeros((1, 1)))],
        ids=["cfg-not-0d", "cfg-int-2.5", "cfg-int-nan", "meta-not-0d"])
    def test_malformed_checkpoint_entry_exits_2(self, tmp_path, trained_run, capsys,
                                                key, value):
        tensors = tensorio.read_tensors(trained_run)
        tensors[key] = value
        ckpt = str(tmp_path / "bad.afsr")
        tensorio.write_tensors(ckpt, tensors)
        src = str(tmp_path / "in.wav")
        wavio.write_wav(src, np.zeros(8000), 8000)
        dst = tmp_path / "o.wav"
        assert main(["infer", "--ckpt", ckpt, "--in", src,
                     "--out", str(dst), "--scale", "2"]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not dst.exists()


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

    def test_not_a_wav_exits_2(self, tmp_path):
        src = tmp_path / "text.wav"
        src.write_bytes(b"not a wav file")
        assert main(["spectrogram", "--in", str(src),
                     "--out", str(tmp_path / "s.csv")]) == 2


class TestExitCodes:
    def test_unknown_subcommand_exits_1(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("command, input_flag", [("infer", "--in"), ("eval", "--data")])
    def test_missing_input_exits_2_before_the_checkpoint_is_read(
            self, tmp_path, monkeypatch, command, input_flag):
        def load_checkpoint(path):
            raise AssertionError("checkpoint read before the input was checked")
        monkeypatch.setattr(trainer, "load_checkpoint", load_checkpoint)
        ckpt = tmp_path / "ck.afsr"
        ckpt.write_bytes(b"")
        args = [command, "--ckpt", str(ckpt), input_flag, str(tmp_path / "absent"),
                "--scale", "2"]
        if command == "infer":
            args += ["--out", str(tmp_path / "o.wav")]
        assert main(args) == 2

    @pytest.mark.parametrize("command", ["infer", "eval"])
    @pytest.mark.parametrize("value, message", [
        (None, "checkpoint is missing tensor 'final.conv.b'"),
        (np.zeros(7), "tensor 'final.conv.b' has shape (7,) in the checkpoint")],
        ids=["missing", "misshapen"])
    def test_bad_parameter_names_the_checkpoint(self, tmp_path, corpus, trained_run, capsys,
                                                command, value, message):
        tensors = tensorio.read_tensors(trained_run)
        if value is None:
            del tensors["final.conv.b"]
        else:
            tensors["final.conv.b"] = value
        ckpt = str(tmp_path / "bad.afsr")
        tensorio.write_tensors(ckpt, tensors)
        if command == "infer":
            src = str(tmp_path / "in.wav")
            wavio.write_wav(src, np.zeros(8000), 8000)
            args = ["infer", "--in", src, "--out", str(tmp_path / "o.wav")]
        else:
            args = ["eval", "--data", corpus]
        assert main(args + ["--ckpt", ckpt, "--scale", "2"]) == 2
        assert f"{ckpt}: {message}" in capsys.readouterr().err

    def test_missing_required_argument_exits_1(self):
        assert main(["prepare", "--in", "x"]) == 1

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
        from afsr import __version__
        assert __version__ in capsys.readouterr().out

    @pytest.mark.parametrize("command, flag, value", [
        ("prepare", "--scale", "1"), ("prepare", "--scale", "0"),
        ("prepare", "--patch", "0"), ("prepare", "--stride", "-5"),
        ("eval", "--hop", "0"), ("eval", "--frame", "0"), ("eval", "--frame", "-4"),
        ("spectrogram", "--hop", "0"), ("spectrogram", "--frame", "0"),
        ("spectrogram", "--frame", "-4")])
    def test_out_of_range_flag_exits_2(self, tmp_path, corpus, capsys, command, flag, value):
        out = str(tmp_path / "out")
        if command == "prepare":
            args = ["prepare", "--in", corpus, "--out", out, "--scale", "2"]
        elif command == "spectrogram":
            args = ["spectrogram", "--in", os.path.join(corpus, "tone0.wav"), "--out", out]
        else:
            ckpt = str(tmp_path / "ck.afsr")
            cfg = ModelConfig(depth=2, blocks=4, transformer_layers=1, heads=2,
                              ffn_hidden=8, dropout_rate=0.0, patch_length=2048,
                              width_mult=1.0 / 32.0)
            save_checkpoint(ckpt, Model(cfg), AdamState(), 0, 0)
            args = ["eval", "--ckpt", ckpt, "--data", corpus, "--scale", "2", "--out", out]
        assert main(args + [flag, value]) == 2
        assert f"{flag} must be" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestReadmeTables:
    """README's config-key and flag tables agree with the code."""

    @staticmethod
    def table(header):
        lines = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        rows = lines.split(header + "\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
        return [[cell.strip() for cell in row.strip("|").split("|")]
                for row in rows.splitlines()]

    def test_config_keys_and_defaults(self):
        from dataclasses import fields
        from afsr.cli import ARCHIVE_KEYS, CONFIG_TYPES
        documented = {}
        for keys, defaults, _ in self.table("| key | default | valid range |"):
            for key, default in zip(keys.split(", "), defaults.split(", "), strict=True):
                key = key.strip("`")
                assert key in CONFIG_TYPES, key
                documented[key] = CONFIG_TYPES[key](default)
        want = {f.name: f.default for cls in (ModelConfig, trainer.TrainConfig)
                for f in fields(cls) if f.name not in ARCHIVE_KEYS}
        assert documented == want

    def test_flag_defaults(self):
        from afsr.cli import build_parser
        commands = build_parser()._subparsers._group_actions[0].choices
        rows = self.table("| flag | default | valid range |")
        assert rows
        for flag, default, _ in rows:
            command, option = flag.strip("`").split()
            action, = [a for a in commands[command]._actions if option in a.option_strings]
            assert default == ("(required)" if action.required else str(action.default)), flag
