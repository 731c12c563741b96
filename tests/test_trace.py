"""The benchmark's tracer still attaches to the program: every name it wraps
exists, uninstalling puts each original back, and a traced training step
still reaches Adam and every conv backward."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402

import afsr.trainer  # noqa: E402
from afsr.dsp import PatchSet  # noqa: E402
from afsr.model import Model, ModelConfig  # noqa: E402
from afsr.optim import AdamState  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def test_install_then_uninstall_restores_every_attribute():
    tracer = Tracer(16000)
    tracer.install()
    try:
        patched = list(tracer._saved)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr


def test_restored_model_parameters_have_levels(tmp_path):
    cfg = ModelConfig(depth=2, blocks=4, transformer_layers=1, heads=2, ffn_hidden=8,
                      dropout_rate=0.0, patch_length=256, width_mult=1.0 / 32.0)
    path = str(tmp_path / "ck.afsr")
    afsr.trainer.save_checkpoint(path, Model(cfg), AdamState(), 0, 0)
    tracer = Tracer(16000)
    tracer.install()
    try:
        model = afsr.trainer.restore_model(afsr.trainer.load_checkpoint(path))
    finally:
        tracer.uninstall()
    assert {name: tracer.level_of.get(id(p)) for name, p in model.params.items()} == \
        {name: name.split(".", 1)[0] for name in model.params}


def test_traced_training_times_adam_and_every_conv_backward():
    cfg = ModelConfig(depth=2, blocks=4, transformer_layers=1, heads=2, ffn_hidden=8,
                      dropout_rate=0.0, patch_length=256, width_mult=1.0 / 32.0)
    rng = np.random.default_rng(0)
    hi = rng.normal(size=(4, 256)).astype(np.float32)
    patches = PatchSet(lo=hi + 0.1, hi=hi, file_index=np.zeros(4, dtype=np.int64),
                       offset=np.zeros(4, dtype=np.int64), patch_length=256,
                       sample_rate_hz=16000, scale=2)
    tracer = Tracer(16000)
    tracer.install()
    try:
        model = Model(cfg)
        afsr.trainer.train(model, patches,
                           afsr.trainer.TrainConfig(batch_size=2, epochs=1, max_steps=2))
    finally:
        tracer.uninstall()
    assert tracer.get("optim.adam_step", ("setup",))[0] == 2
    levels = [name.split(".", 1)[0] for name in model.params if name.endswith(".conv.w")]
    assert len(levels) == 6
    assert {level: tracer.get(f"tensor.conv1d.{level}.bwd", ("setup",))[1] > 0
            for level in levels} == dict.fromkeys(levels, True)
