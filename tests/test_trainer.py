import tracemalloc

import numpy as np
import pytest

from afsr import tensorio
from afsr.dsp import PatchSet
from afsr.model import Model, ModelConfig, param_shapes
from afsr.optim import AdamState
from afsr.tensor import ShapeError, Tensor
from afsr.trainer import (Checkpoint, TrainConfig, TrainingDiverged,
                          batch_loss, load_checkpoint, mse_loss, restore_model,
                          restore_state, save_checkpoint, train)
from conftest import graph_nodes


def small_config(**overrides):
    base = dict(depth=2, blocks=4, transformer_layers=1, heads=2,
                ffn_hidden=8, dropout_rate=0.0, patch_length=64,
                width_mult=1.0 / 32.0)
    base.update(overrides)
    return ModelConfig(**base)


def make_patches(rng, n=8, length=64):
    hi = rng.normal(size=(n, length)).astype(np.float32) * 0.3
    lo = hi + rng.normal(size=(n, length)).astype(np.float32) * 0.05
    return PatchSet(lo=lo, hi=hi,
                    file_index=np.zeros(n, dtype=np.int64),
                    offset=(np.arange(n) * length).astype(np.int64),
                    patch_length=length, sample_rate_hz=16000, scale=2)


class TestMseLoss:
    def test_zero_for_equal(self, rng):
        x = Tensor(rng.normal(size=(5, 2)))
        assert float(mse_loss(x, x).data) == 0.0

    def test_hand_value(self):
        a = Tensor(np.array([[1.0], [2.0]]))
        b = Tensor(np.array([[0.0], [4.0]]))
        got = float(mse_loss(a, b).data)
        assert got == pytest.approx(2.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor(np.zeros((3, 1))), Tensor(np.zeros((4, 1))))


class TestBatchLoss:
    def test_float32_model_gets_float32_gradients(self, rng):
        # the benchmark's desk model: its AFiLM max-pools and wide convs are
        # where a float64 gradient used to appear
        cfg = ModelConfig(depth=2, blocks=16, transformer_layers=1, heads=2,
                          ffn_hidden=64, dropout_rate=0.0, patch_length=2048,
                          width_mult=0.25)
        model = Model(cfg, seed=0)
        patches = make_patches(rng, n=2, length=2048)
        batch_loss(model, patches.lo, patches.hi).backward()
        wrong = {name: p.grad.dtype for name, p in model.params.items()
                 if p.grad.dtype != np.float32}
        assert not wrong

    def test_graph_does_not_grow_with_batch(self, rng):
        model = Model(small_config(), seed=0)
        patches = make_patches(rng, n=4)
        counts = [graph_nodes(batch_loss(model, patches.lo[:n], patches.hi[:n]))
                  for n in (1, 4)]
        assert counts[0] == counts[1]

    def test_dropout_masks_match_per_patch_draws(self, rng):
        # the batch draws one (N, ...) mask from the stream that N per-patch
        # forwards would draw from in turn
        model = Model(small_config(dropout_rate=0.5), seed=0, dtype=np.float64)
        patches = make_patches(rng, n=4)
        got = float(batch_loss(model, patches.lo, patches.hi,
                               dropout_rng=np.random.default_rng(5)).data)
        per_patch_rng = np.random.default_rng(5)
        losses = [float(mse_loss(model.forward(Tensor(lo.reshape(-1, 1), dtype=np.float64),
                                               dropout_rng=per_patch_rng),
                                 Tensor(hi.reshape(-1, 1), dtype=np.float64)).data)
                  for lo, hi in zip(patches.lo, patches.hi)]
        assert got == pytest.approx(float(np.mean(losses)), rel=1e-12, abs=0)


class TestTrainLoop:
    def test_last_step_gradients_stay_on_parameters(self, rng):
        patches = make_patches(rng)
        model = Model(small_config(), seed=0)
        train(model, patches, TrainConfig(epochs=2, batch_size=8, seed=3))
        # replay: the first step, then the gradient of the second by hand
        ref = Model(small_config(), seed=0)
        train(ref, patches, TrainConfig(epochs=1, batch_size=8, seed=3))
        order = np.random.default_rng((3, 1)).permutation(len(patches))
        ref.zero_grad()
        batch_loss(ref, patches.lo[order], patches.hi[order],
                   dropout_rng=np.random.default_rng((3, 1, 0))).backward()
        for name, p in model.params.items():
            assert p.grad is not None, name
            assert np.array_equal(p.grad, ref.params[name].grad), name

    def test_loss_decreases(self, rng):
        model = Model(small_config(), seed=0)
        patches = make_patches(rng)
        cfg = TrainConfig(epochs=8, batch_size=4, learning_rate=1e-3, seed=1)
        result = train(model, patches, cfg)
        assert len(result.epoch_losses) == 8
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_zero_epochs_is_noop(self, rng):
        model = Model(small_config(), seed=0)
        before = {k: v.data.copy() for k, v in model.params.items()}
        result = train(model, make_patches(rng), TrainConfig(epochs=0))
        assert result.state.t == 0
        for k, v in model.params.items():
            assert np.array_equal(v.data, before[k])

    def test_max_steps_cap(self, rng):
        model = Model(small_config(), seed=0)
        cfg = TrainConfig(epochs=100, batch_size=4, seed=1, max_steps=3)
        result = train(model, make_patches(rng), cfg)
        assert result.state.t == 3
        assert len(result.step_losses) == 3

    def test_empty_patch_set_rejected(self):
        from afsr.archive import empty_patch_set
        model = Model(small_config(), seed=0)
        with pytest.raises(ValueError, match="empty"):
            train(model, empty_patch_set(64, 16000, 2), TrainConfig(epochs=1))

    def test_patch_length_mismatch(self, rng):
        model = Model(small_config(), seed=0)
        with pytest.raises(ShapeError):
            train(model, make_patches(rng, length=32), TrainConfig(epochs=1))

    def test_divergence_raises_with_location(self, rng):
        model = Model(small_config(), seed=0)
        model.params["final.conv.b"].data[:] = np.inf
        with pytest.raises(TrainingDiverged, match="epoch 0, batch 0"):
            train(model, make_patches(rng), TrainConfig(epochs=1, batch_size=4))

    def test_seeded_runs_identical(self, rng):
        patches = make_patches(rng)
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3, seed=5)
        m1 = Model(small_config(), seed=2)
        r1 = train(m1, patches, cfg)
        m2 = Model(small_config(), seed=2)
        r2 = train(m2, patches, cfg)
        assert r1.step_losses == r2.step_losses
        for k in m1.params:
            assert np.array_equal(m1.params[k].data, m2.params[k].data)

    def test_different_seed_differs(self, rng):
        patches = make_patches(rng)
        m1 = Model(small_config(), seed=2)
        r1 = train(m1, patches, TrainConfig(epochs=2, batch_size=4, seed=5))
        m2 = Model(small_config(), seed=2)
        r2 = train(m2, patches, TrainConfig(epochs=2, batch_size=4, seed=6))
        assert r1.step_losses != r2.step_losses


class TestCheckpointing:
    def test_roundtrip_bit_equal(self, tmp_path, rng):
        model = Model(small_config(), seed=0)
        patches = make_patches(rng)
        result = train(model, patches, TrainConfig(epochs=2, batch_size=4, seed=1))
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, model, result.state, epoch=2, seed=1)
        ckpt = load_checkpoint(path)
        assert ckpt.config == model.config
        assert {k: (type(v), v) for k, v in ckpt.meta.items()} == \
            {"t": (int, result.state.t), "epoch": (int, 2), "seed": (int, 1)}
        restored = restore_model(ckpt)
        for k in model.params:
            assert np.array_equal(restored.params[k].data, model.params[k].data)
        state = restore_state(ckpt)
        assert state.t == result.state.t
        for k in result.state.m:
            assert np.array_equal(state.m[k], result.state.m[k])
            assert np.array_equal(state.v[k], result.state.v[k])

    def test_restored_state_takes_over_the_moments(self, tmp_path, rng):
        model = Model(small_config(), seed=0)
        result = train(model, make_patches(rng), TrainConfig(epochs=1, batch_size=4, seed=1))
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, model, result.state, epoch=1, seed=1)
        ckpt = load_checkpoint(path)
        state = restore_state(ckpt)
        assert set(state.m) == set(ckpt.opt_m) == set(model.params)
        for k in model.params:
            assert np.shares_memory(state.m[k], ckpt.opt_m[k]), k
            assert np.shares_memory(state.v[k], ckpt.opt_v[k]), k

    def test_corrupt_magic_rejected(self, tmp_path, rng):
        model = Model(small_config(), seed=0)
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, model, AdamState(), epoch=0, seed=0)
        data = bytearray(open(path, "rb").read())
        data[:4] = b"XXXX"
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(tensorio.ContainerFormatError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = Model(small_config(), seed=0)
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, model, AdamState(), epoch=0, seed=0)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:len(data) // 2])
        with pytest.raises(tensorio.ContainerFormatError):
            load_checkpoint(path)

    def test_missing_config_entries_rejected(self, tmp_path):
        tensorio.write_tensors(str(tmp_path / "ck.bin"),
                               {"a": np.zeros(3, dtype=np.float32)},
                               magic=tensorio.CHECKPOINT_MAGIC)
        with pytest.raises(tensorio.ContainerFormatError, match="config"):
            load_checkpoint(str(tmp_path / "ck.bin"))

    def test_failed_overwrite_keeps_old_file(self, tmp_path):
        model = Model(small_config(), seed=0)
        path = tmp_path / "ck.bin"
        save_checkpoint(str(path), model, AdamState(), epoch=0, seed=0)
        before = path.read_bytes()
        bad = {"a": np.zeros(3), "x" * 0x10000: np.zeros(1)}
        with pytest.raises(ValueError, match="name too long"):
            tensorio.write_tensors(str(path), bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]

    def test_shape_mismatch_names_tensor(self, tmp_path):
        model = Model(small_config(), seed=0)
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, model, AdamState(), epoch=0, seed=0)
        ckpt = load_checkpoint(path)
        ckpt.params["final.conv.b"] = np.zeros(7, dtype=np.float32)
        with pytest.raises(ShapeError, match="final.conv.b"):
            restore_model(ckpt)

    def test_parameter_table_matches_model_and_checkpoint(self, tmp_path):
        cfg = small_config()
        model = Model(cfg, seed=0)
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, model, AdamState(), epoch=0, seed=0)
        ckpt = load_checkpoint(path)
        shapes = param_shapes(cfg)
        assert list(shapes) == list(model.params) == list(ckpt.params)
        assert shapes == {k: p.data.shape for k, p in model.params.items()}
        restored = restore_model(ckpt)
        for k, p in restored.params.items():
            assert np.shares_memory(p.data, ckpt.params[k]), k

    def test_restore_allocates_no_parameter_arrays(self, tmp_path):
        # criterion-7 desk config
        cfg = ModelConfig(depth=2, blocks=16, transformer_layers=1, heads=2,
                          ffn_hidden=64, dropout_rate=0.0, patch_length=2048,
                          width_mult=0.25)
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, Model(cfg, seed=0), AdamState(), epoch=0, seed=0)
        ckpt = load_checkpoint(path)
        param_bytes = sum(arr.nbytes for arr in ckpt.params.values())
        tracemalloc.start()
        try:
            restore_model(ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * param_bytes, (peak, param_bytes)

    def test_resume_matches_uninterrupted_run(self, tmp_path, rng):
        patches = make_patches(rng)
        # one uninterrupted 4-epoch run
        m_full = Model(small_config(), seed=3)
        cfg = TrainConfig(epochs=4, batch_size=4, learning_rate=1e-3, seed=7)
        r_full = train(m_full, patches, cfg)

        # same run split at epoch 2 through a checkpoint on disk
        m_a = Model(small_config(), seed=3)
        cfg_a = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3, seed=7)
        r_a = train(m_a, patches, cfg_a)
        path = str(tmp_path / "mid.bin")
        save_checkpoint(path, m_a, r_a.state, epoch=2, seed=7)

        ckpt = load_checkpoint(path)
        m_b = restore_model(ckpt)
        state_b = restore_state(ckpt)
        r_b = train(m_b, patches, cfg, state=state_b,
                    start_epoch=int(ckpt.meta["epoch"]))

        assert r_a.step_losses + r_b.step_losses == r_full.step_losses
        for k in m_full.params:
            assert np.array_equal(m_b.params[k].data, m_full.params[k].data)

    def test_resume_from_checkpoint_with_old_hyperparameter_entries(self, tmp_path, rng):
        # checkpoints written before the Adam hyperparameters were dropped
        # from __meta__ still load, and train() takes them from its config
        patches = make_patches(rng)
        cfg = TrainConfig(epochs=4, batch_size=4, learning_rate=1e-3, seed=7)
        m_full = Model(small_config(), seed=3)
        r_full = train(m_full, patches, cfg)

        m_a = Model(small_config(), seed=3)
        r_a = train(m_a, patches, TrainConfig(epochs=2, batch_size=4,
                                              learning_rate=1e-3, seed=7))
        path = str(tmp_path / "old.bin")
        save_checkpoint(path, m_a, r_a.state, epoch=2, seed=7)
        tensors = tensorio.read_tensors(path)
        tensors.update({"__meta__.lr": np.float32(1e-3), "__meta__.beta1": np.float32(0.9),
                        "__meta__.beta2": np.float32(0.999),
                        "__meta__.eps": np.float32(1e-8)})
        tensorio.write_tensors(path, tensors)

        ckpt = load_checkpoint(path)
        assert ckpt.meta["lr"] == np.float32(1e-3)
        m_b = restore_model(ckpt)
        r_b = train(m_b, patches, cfg, state=restore_state(ckpt),
                    start_epoch=int(ckpt.meta["epoch"]))
        assert r_a.step_losses + r_b.step_losses == r_full.step_losses
        for k in m_full.params:
            assert np.array_equal(m_b.params[k].data, m_full.params[k].data)

    def test_periodic_checkpoint_written(self, tmp_path, rng):
        model = Model(small_config(), seed=0)
        path = str(tmp_path / "period.bin")
        cfg = TrainConfig(epochs=3, batch_size=4, seed=1, checkpoint_every=2)
        train(model, make_patches(rng), cfg, checkpoint_path=path)
        ckpt = load_checkpoint(path)
        assert ckpt.meta["epoch"] == 2.0

    def test_step_cap_mid_epoch_counts_completed_epochs(self, tmp_path, rng):
        model = Model(small_config(), seed=0)
        path = str(tmp_path / "period.bin")
        # two batches per epoch; the third step stops inside epoch 1
        cfg = TrainConfig(epochs=3, batch_size=4, seed=1, checkpoint_every=1,
                          max_steps=3)
        result = train(model, make_patches(rng), cfg, checkpoint_path=path)
        assert result.state.t == 3
        assert result.epochs_completed == 1
        ckpt = load_checkpoint(path)
        assert ckpt.meta["epoch"] == 1.0
        assert ckpt.meta["t"] == 2.0
