import numpy as np
import pytest

from afsr.model import (AfilmParams, Model, ModelConfig, afilm_layer,
                        afilm_modulate, count_parameters, multi_head_attention,
                        run_patched, subpixel_shuffle_1d, transformer_block)
from afsr.tensor import (DivisibilityError, ShapeError, Tensor,
                         max_pool_blocks, softmax)
from conftest import check_gradients


def tiny_config(**overrides):
    base = dict(depth=2, blocks=4, transformer_layers=1, heads=2,
                ffn_hidden=8, dropout_rate=0.0, upscale=2,
                patch_length=64, width_mult=1.0 / 32.0)
    base.update(overrides)
    return ModelConfig(**base)


def filter_table(cfg):
    """(out channels, filter length) per level of the layer table."""
    return {name: (cout, width) for name, cout, width, _, _ in cfg.layer_table()}


class TestBlockSpecs:
    """Rows of `ModelConfig.layer_table`, the single architecture table."""

    def test_down_table(self):
        table = filter_table(ModelConfig())
        want = [(128, 65), (256, 33), (512, 17), (512, 9)]
        assert [table[f"down{k}"] for k in range(1, 5)] == want
        assert table["bottleneck"] == (512, 9)

    def test_up_table_mirrors_down(self):
        table = filter_table(ModelConfig())
        want = [(1024, 9), (1024, 17), (512, 33), (256, 65)]
        assert [table[f"up{k}"] for k in range(1, 5)] == want
        for k in range(1, 5):
            cout, width = table[f"down{4 - k + 1}"]
            assert table[f"up{k}"] == (2 * cout, width)
        assert table["final"] == (2, 9)

    def test_filter_count_saturates(self):
        table = filter_table(ModelConfig(depth=8))
        assert table["down6"][0] == 512
        assert table["down8"][1] == 9
        assert table["bottleneck"] == (512, 9)

    def test_build_order_and_channels_chain(self):
        rows = ModelConfig().layer_table()
        assert [r[0] for r in rows] == ["down1", "down2", "down3", "down4", "bottleneck",
                                        "up1", "up2", "up3", "up4", "final"]
        # in channels: 1 at the input, then the previous level's out channels
        # (in the up path the shuffle halves them and the skip doubles them)
        assert [r[3] for r in rows] == [1] + [r[1] for r in rows[:-1]]
        assert [r[4] for r in rows] == [128, 256, 512, 512, 512, 512, 512, 256, 128, None]


class TestConfig:
    def test_default_validates(self):
        ModelConfig().validate()

    def test_patch_divisibility(self):
        with pytest.raises(DivisibilityError):
            ModelConfig(patch_length=8190).validate()

    def test_block_divisibility(self):
        with pytest.raises(DivisibilityError):
            tiny_config(blocks=3).validate()

    def test_depth_bound(self):
        with pytest.raises(ValueError):
            ModelConfig(depth=0).validate()

    def test_odd_heads_still_divide_channels(self):
        # channel rounding keeps counts a multiple of the head count
        cfg = ModelConfig(heads=7)
        cfg.validate()
        assert all(cfg.channels(k) % 7 == 0 for k in range(1, 6))

    def test_channels_full_width(self):
        cfg = ModelConfig()
        assert [cfg.channels(k) for k in range(1, 6)] == [128, 256, 512, 512, 512]

    def test_channels_scaled_multiple_of_heads(self):
        cfg = tiny_config()
        for k in range(1, 4):
            assert cfg.channels(k) % cfg.heads == 0
            assert cfg.channels(k) >= cfg.heads


class TestSubpixelShuffle:
    def test_small_example(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0],
                             [5.0, 6.0, 7.0, 8.0]]))
        out = subpixel_shuffle_1d(x, 2)
        want = np.array([[1.0, 3.0], [2.0, 4.0], [5.0, 7.0], [6.0, 8.0]])
        assert np.array_equal(out.data, want)

    def test_inverse_via_index_formula(self, rng):
        x = rng.normal(size=(6, 8))
        out = subpixel_shuffle_1d(Tensor(x), 4).data
        for t in range(6):
            for c in range(2):
                for p in range(4):
                    assert out[t * 4 + p, c] == x[t, c * 4 + p]

    def test_factor_one_is_identity(self, rng):
        x = Tensor(rng.normal(size=(5, 3)))
        assert subpixel_shuffle_1d(x, 1) is x

    def test_divisibility_error(self):
        with pytest.raises(DivisibilityError):
            subpixel_shuffle_1d(Tensor(np.zeros((4, 6))), 4)


def mha_oracle(x, wq, bq, wk, wv, bv, wo, bo, heads):
    """Per-head python-loop attention with explicit softmax."""
    B, C = x.shape
    d = C // heads
    q = x @ wq + bq
    k = x @ wk
    v = x @ wv + bv
    out = np.zeros((B, C))
    for h in range(heads):
        sl = slice(h * d, (h + 1) * d)
        s = q[:, sl] @ k[:, sl].T / np.sqrt(d)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        out[:, sl] = a @ v[:, sl]
    return out @ wo + bo


class TestMultiHeadAttention:
    def _params(self, rng, C):
        return [rng.normal(size=s) * 0.3 for s in
                [(C, C), (C,), (C, C), (C, C), (C,), (C, C), (C,)]]

    def test_matches_loop_oracle(self, rng):
        B, C, heads = 5, 8, 4
        x = rng.normal(size=(B, C))
        wq, bq, wk, wv, bv, wo, bo = self._params(rng, C)
        got = multi_head_attention(
            Tensor(x), Tensor(wq), Tensor(bq), Tensor(wk), Tensor(wv),
            Tensor(bv), Tensor(wo), Tensor(bo), heads).data
        want = mha_oracle(x, wq, bq, wk, wv, bv, wo, bo, heads)
        assert np.allclose(got, want, atol=1e-6)

    def test_single_position_sequence(self, rng):
        # with one position the attention matrix is [[1]], so the layer is
        # just the value and output projections
        C = 4
        x = rng.normal(size=(1, C))
        wq, bq, wk, wv, bv, wo, bo = self._params(rng, C)
        got = multi_head_attention(
            Tensor(x), Tensor(wq), Tensor(bq), Tensor(wk), Tensor(wv),
            Tensor(bv), Tensor(wo), Tensor(bo), 2).data
        want = (x @ wv + bv) @ wo + bo
        assert np.allclose(got, want, atol=1e-10)

    def test_identical_rows_average(self, rng):
        # every query attends uniformly when all keys coincide
        C = 6
        row = rng.normal(size=C)
        x = np.tile(row, (4, 1))
        wq, bq, wk, wv, bv, wo, bo = self._params(rng, C)
        got = multi_head_attention(
            Tensor(x), Tensor(wq), Tensor(bq), Tensor(wk), Tensor(wv),
            Tensor(bv), Tensor(wo), Tensor(bo), 3).data
        want = (row @ wv + bv) @ wo + bo
        assert np.allclose(got - want, 0, atol=1e-8)

    def test_head_divisibility(self, rng):
        C = 6
        wq, bq, wk, wv, bv, wo, bo = self._params(rng, C)
        with pytest.raises(ValueError):
            multi_head_attention(
                Tensor(np.zeros((2, C))), Tensor(wq), Tensor(bq), Tensor(wk),
                Tensor(wv), Tensor(bv), Tensor(wo), Tensor(bo), 4)


def make_afilm_params(rng, C, heads=2, ffn=8, layers=1, scale=0.3):
    lps = []
    for _ in range(layers):
        lps.append({
            "ln1_g": Tensor(np.ones(C)), "ln1_b": Tensor(np.zeros(C)),
            "wq": Tensor(rng.normal(size=(C, C)) * scale),
            "bq": Tensor(np.zeros(C)),
            "wk": Tensor(rng.normal(size=(C, C)) * scale),
            "wv": Tensor(rng.normal(size=(C, C)) * scale),
            "bv": Tensor(np.zeros(C)),
            "wo": Tensor(rng.normal(size=(C, C)) * scale),
            "bo": Tensor(np.zeros(C)),
            "ln2_g": Tensor(np.ones(C)), "ln2_b": Tensor(np.zeros(C)),
            "w1": Tensor(rng.normal(size=(C, ffn)) * scale),
            "b1": Tensor(np.zeros(ffn)),
            "w2": Tensor(rng.normal(size=(ffn, C)) * scale),
            "b2": Tensor(np.zeros(C)),
        })
    head_w = Tensor(rng.normal(size=(C, 2 * C)) * scale)
    head_b = Tensor(np.zeros(2 * C))
    return AfilmParams(layers=lps, head_w=head_w, head_b=head_b, heads=heads)


class TestTransformerBlock:
    def test_output_shapes(self, rng):
        C = 6
        params = make_afilm_params(rng, C)
        gamma, beta = transformer_block(Tensor(rng.normal(size=(4, C))), params)
        assert gamma.data.shape == (4, C)
        assert beta.data.shape == (4, C)

    def test_zero_head_gives_constant_heads(self, rng):
        C = 4
        params = make_afilm_params(rng, C)
        params.head_w.data[:] = 0
        params.head_b.data[:] = np.concatenate([np.ones(C), np.zeros(C)])
        gamma, beta = transformer_block(Tensor(rng.normal(size=(3, C))), params)
        assert np.array_equal(gamma.data, np.ones((3, C)))
        assert np.array_equal(beta.data, np.zeros((3, C)))

    def test_permutation_equivariance(self, rng):
        # no positional encoding: permuting the pooled blocks permutes the
        # emitted modulation rows the same way
        C = 6
        params = make_afilm_params(rng, C)
        x = rng.normal(size=(5, C))
        perm = np.array([3, 0, 4, 1, 2])
        g1, b1 = transformer_block(Tensor(x), params)
        g2, b2 = transformer_block(Tensor(x[perm]), params)
        assert np.allclose(g2.data, g1.data[perm], atol=1e-10)
        assert np.allclose(b2.data, b1.data[perm], atol=1e-10)


class TestAfilmModulate:
    def test_worked_example(self):
        f = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        gamma = Tensor(np.array([[2.0], [3.0]]))
        beta = Tensor(np.array([[10.0], [20.0]]))
        out = afilm_modulate(f, gamma, beta)
        assert np.array_equal(out.data.reshape(-1), [12.0, 14.0, 29.0, 32.0])

    def test_random_against_loop(self, rng):
        for _ in range(50):
            B, L, C = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
            f = rng.normal(size=(B * L, C))
            g = rng.normal(size=(B, C))
            b = rng.normal(size=(B, C))
            out = afilm_modulate(Tensor(f), Tensor(g), Tensor(b)).data
            for t in range(B * L):
                blk = t // L
                assert np.array_equal(out[t], g[blk] * f[t] + b[blk])

    def test_identity_modulation(self, rng):
        f = rng.normal(size=(8, 3))
        out = afilm_modulate(Tensor(f), Tensor(np.ones((4, 3))),
                             Tensor(np.zeros((4, 3))))
        assert np.array_equal(out.data, f)

    def test_shape_errors(self):
        f = Tensor(np.zeros((4, 2)))
        with pytest.raises(DivisibilityError):
            afilm_modulate(f, Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))))
        with pytest.raises(ShapeError):
            afilm_modulate(f, Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


class TestAfilmLayer:
    def test_is_pool_transform_modulate(self, rng):
        C, B = 4, 2
        params = make_afilm_params(rng, C)
        f = Tensor(rng.normal(size=(8, C)))
        got = afilm_layer(f, params, B).data
        pooled = max_pool_blocks(f, B)
        g, b = transformer_block(pooled, params)
        want = afilm_modulate(f, g, b).data
        assert np.array_equal(got, want)

    def test_identity_heads_leave_input_unchanged(self, rng):
        C = 4
        params = make_afilm_params(rng, C)
        params.head_w.data[:] = 0
        params.head_b.data[:] = np.concatenate([np.ones(C), np.zeros(C)])
        f = rng.normal(size=(8, C))
        out = afilm_layer(Tensor(f), params, 2)
        assert np.array_equal(out.data, f)


class TestModelForward:
    def test_output_shape_and_dtype(self, rng):
        cfg = tiny_config()
        model = Model(cfg, seed=0)
        x = Tensor(rng.normal(size=(64, 1)).astype(np.float32))
        y = model.forward(x)
        assert y.data.shape == (64, 1)
        assert y.data.dtype == np.float32

    def test_full_patch_length_shape(self):
        cfg = ModelConfig(depth=4, blocks=32, transformer_layers=1, heads=2,
                          ffn_hidden=8, dropout_rate=0.0, width_mult=1.0 / 64.0)
        model = Model(cfg, seed=0)
        x = Tensor(np.zeros((8192, 1), dtype=np.float32))
        assert model.forward(x).data.shape == (8192, 1)

    def test_wrong_input_shape(self):
        model = Model(tiny_config(), seed=0)
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.zeros((32, 1), dtype=np.float32)))

    def test_zero_weights_give_identity(self, rng):
        model = Model(tiny_config(), seed=0)
        for name, p in model.params.items():
            p.data[:] = 0
        model.force_identity_heads()
        x = rng.normal(size=(64, 1)).astype(np.float32)
        y = model.forward(Tensor(x))
        assert np.array_equal(y.data, x)

    def test_identity_heads_match_afilm_free_path(self, rng):
        model = Model(tiny_config(), seed=7)
        model.force_identity_heads()
        x = Tensor(rng.normal(size=(64, 1)).astype(np.float32))
        with_film = model.forward(x, use_afilm=True).data
        without = model.forward(x, use_afilm=False).data
        assert np.array_equal(with_film, without)

    def test_deterministic_construction_and_forward(self, rng):
        x = rng.normal(size=(64, 1)).astype(np.float32)
        a = Model(tiny_config(), seed=3).forward(Tensor(x)).data
        b = Model(tiny_config(), seed=3).forward(Tensor(x)).data
        assert np.array_equal(a, b)

    def test_dropout_requires_rng(self):
        model = Model(tiny_config(dropout_rate=0.5), seed=0)
        with pytest.raises(ValueError):
            model.forward(Tensor(np.zeros((64, 1), dtype=np.float32)), train=True)

    def test_gradient_reaches_nearly_all_tensors(self, rng):
        model = Model(tiny_config(), seed=0)
        x = Tensor(rng.normal(size=(64, 1)).astype(np.float32))
        loss = (model.forward(x) ** 2).mean()
        loss.backward()
        n_total = 0
        n_dead = 0
        for name, p in model.params.items():
            n_total += 1
            assert p.grad is not None, name
            assert np.all(np.isfinite(p.grad)), name
            if not np.any(p.grad):
                n_dead += 1
        assert n_dead / n_total <= 0.01

    def test_run_patched_length_and_value(self, rng):
        model = Model(tiny_config(), seed=0)
        model.force_identity_heads()
        for p in model.params.values():
            p.data[:] = 0
        sig = rng.normal(size=100) * 0.1
        out = run_patched(model, sig)
        assert out.shape == (100,)
        assert np.allclose(out, sig.astype(np.float32), atol=1e-7)


class TestParameterCount:
    def test_single_conv_block_count(self):
        # one conv of 128 filters, length 65, 1 input channel, plus bias
        model = Model(tiny_config(), seed=0)
        w = model.params["down1.conv.w"]
        b = model.params["down1.conv.b"]
        cout = w.data.shape[0]
        assert w.data.size + b.data.size == cout * 65 * 1 + cout

    def test_count_is_sum_of_sizes(self):
        model = Model(tiny_config(), seed=0)
        assert count_parameters(model) == sum(p.data.size
                                              for p in model.params.values())

    def test_default_config_magnitude(self):
        # the full-size network sits near 1.37e8 weights; guarded here
        # loosely, pinned tightly in the acceptance suite
        model = Model(ModelConfig(), seed=0)
        assert 1.0e8 < count_parameters(model) < 1.8e8


class TestModelGradients:
    def test_full_model_finite_difference(self):
        cfg = tiny_config(patch_length=32, blocks=2)
        model = Model(cfg, seed=0, dtype=np.float64)
        target = np.random.default_rng(9).normal(size=(32, 1))

        names = sorted(model.params)
        arrays = [model.params[n].data.copy() for n in names]
        x_in = np.random.default_rng(10).normal(size=(32, 1))

        def build_loss(tensors):
            for n, t in zip(names, tensors):
                model.params[n] = t
            out = model.forward(Tensor(x_in))
            return ((out - Tensor(target)) ** 2).mean()

        def rng_fill(rng, arrs):
            for n, a in zip(names, arrs):
                if n.endswith("head_b"):
                    C = a.size // 2
                    a[...] = np.concatenate([np.ones(C), np.zeros(C)]) \
                        + rng.normal(size=a.shape) * 0.05
                else:
                    a[...] = rng.normal(size=a.shape) * 0.1

        check_gradients(build_loss, arrays, seeds=range(3), rng_fill=rng_fill)
