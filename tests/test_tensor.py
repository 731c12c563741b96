import math
import tracemalloc
from functools import reduce
from operator import iadd

import numpy as np
import pytest

from conftest import check_gradients, finite_difference, graph_nodes, max_rel_err

from afsr.optim import CHUNK, AdamState, adam_step
from afsr.tensor import (DivisibilityError, ShapeError, Tensor, _windows, concat,
                         conv1d, dropout, layer_norm,
                         max_pool_blocks, no_grad, softmax)
from afsr.trainer import mse_loss


def conv1d_oracle(x, k, b, stride):
    """Direct summation straight from the definition, element by element."""
    T, cin = x.shape
    cout, width, _ = k.shape
    pad = width // 2
    xp = np.zeros((T + 2 * pad, cin))
    xp[pad:pad + T] = x
    t_out = -(-T // stride)
    out = np.zeros((t_out, cout))
    for t in range(t_out):
        for co in range(cout):
            acc = b[co]
            for w in range(width):
                for ci in range(cin):
                    acc += k[co, w, ci] * xp[t * stride + w, ci]
            out[t, co] = acc
    return out


class TestConv1d:
    def test_zero_input_gives_bias(self):
        x = Tensor(np.zeros((6, 3)))
        k = Tensor(np.random.default_rng(0).normal(size=(4, 5, 3)))
        b = Tensor(np.array([1.0, -2.0, 0.5, 3.0]))
        out = conv1d(x, k, b, stride=1)
        assert np.allclose(out.data, np.broadcast_to(b.data, (6, 4)))

    def test_identity_kernel(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        k = Tensor(np.array([[[0.0], [1.0], [0.0]]]))
        b = Tensor(np.zeros(1))
        out = conv1d(x, k, b, stride=1)
        assert np.allclose(out.data, x.data)

    def test_matches_direct_summation(self, rng):
        x = rng.normal(size=(8, 2))
        k = rng.normal(size=(3, 3, 2))
        b = rng.normal(size=3)
        out = conv1d(Tensor(x, dtype=np.float64), Tensor(k, dtype=np.float64),
                     Tensor(b, dtype=np.float64), stride=2)
        assert out.data.shape == (4, 3)
        assert np.allclose(out.data, conv1d_oracle(x, k, b, 2), atol=1e-12)

    def test_linearity(self, rng):
        k = Tensor(rng.normal(size=(2, 5, 3)), dtype=np.float64)
        b = Tensor(np.zeros(2), dtype=np.float64)
        x = rng.normal(size=(10, 3))
        y = rng.normal(size=(10, 3))
        a1, a2 = 1.7, -0.3
        lhs = conv1d(Tensor(a1 * x + a2 * y, dtype=np.float64), k, b, stride=2).data
        rhs = a1 * conv1d(Tensor(x, dtype=np.float64), k, b, stride=2).data \
            + a2 * conv1d(Tensor(y, dtype=np.float64), k, b, stride=2).data
        assert np.allclose(lhs, rhs, atol=1e-5)

    def test_shape_errors_name_the_axis(self):
        x = Tensor(np.zeros((4, 2)))
        k = Tensor(np.zeros((3, 3, 5)))
        b = Tensor(np.zeros(3))
        with pytest.raises(ShapeError, match="Cin"):
            conv1d(x, k, b)
        with pytest.raises(ShapeError, match="odd"):
            conv1d(x, Tensor(np.zeros((3, 4, 2))), b)
        with pytest.raises(ShapeError, match="bias"):
            conv1d(x, Tensor(np.zeros((3, 3, 2))), Tensor(np.zeros(5)))


class TestConv1dKernelGradient:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_equals_transposed_product_bytewise(self, rng, stride, dtype):
        self.check(rng, stride, dtype, cin=24, width=9)

    # Cin 512 and W 17: taps in groups of 4 with a 1-tap remainder
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_grouped_taps_equal_transposed_product_bytewise(self, rng, stride, dtype):
        self.check(rng, stride, dtype, cin=512, width=17)

    @staticmethod
    def check(rng, stride, dtype, cin, width):
        # the kernel gradient as (im2col.T @ g).T, summed over the batch
        x = rng.normal(size=(3, 200, cin)).astype(dtype)
        k = Tensor(rng.normal(size=(12, width, cin)), requires_grad=True, dtype=dtype)
        out = conv1d(Tensor(x, dtype=dtype), k, Tensor(np.zeros(12), dtype=dtype), stride=stride)
        g = rng.normal(size=out.data.shape).astype(dtype)
        (out * Tensor(g, dtype=dtype)).sum().backward()
        gk = reduce(iadd, (_windows(xn, width, stride, width).T @ gn for xn, gn in zip(x, g)))
        want = gk.T.reshape(12, width, cin)
        assert k.grad.dtype == want.dtype and k.grad.shape == want.shape
        assert k.grad.tobytes() == want.tobytes()


def direct_sum_float64(x, k, b, stride):
    """(N, T, Cin) conv (Cout, W, Cin) in float64, one tap at a time, and the
    same sum over |x| and |k|, which bounds its rounding error."""
    x, k = x.astype(np.float64), k.astype(np.float64)
    n, T, cin = x.shape
    cout, width, _ = k.shape
    pad = width // 2
    xp = np.zeros((n, T + 2 * pad, cin))
    xp[:, pad:pad + T] = x
    t_out = -(-T // stride)
    out = np.zeros((n, t_out, cout)) + b
    mag = np.zeros((n, t_out, cout)) + np.abs(b)
    for w in range(width):
        rows = xp[:, w:w + (t_out - 1) * stride + 1:stride]
        out += rows @ k[:, w].T
        mag += np.abs(rows) @ np.abs(k[:, w]).T
    return out, mag


def input_grad_oracle(g, k, T, stride):
    """The input gradient as one (T', W * Cin) product per sample,
    scattered back tap by tap."""
    cout, width, cin = k.shape
    pad = width // 2
    kmat = k.reshape(cout, width * cin).T
    gxp = np.zeros((len(g), T + 2 * pad, cin), dtype=g.dtype)
    for gn, gxn in zip(g, gxp):
        gcols = (gn @ kmat.T).reshape(-1, width, cin)
        for w in range(width):
            gxn[w:w + (len(gn) - 1) * stride + 1:stride] += gcols[:, w, :]
    return gxp[:, pad:pad + T]


# (T, Cin, W, Cout), batch 3: one tap group; groups of 4 (stride 1 and 2)
# with a 1-tap remainder; Cin 300 with odd T, groups of 7 + 2 (stride 1) or
# 8 + 1 (stride 2); and T < W
CONV_SHAPES = [(9, 24, 9, 4), (200, 512, 17, 12), (37, 300, 9, 5), (5, 512, 17, 6)]


class TestConv1dTapGroups:
    @pytest.mark.parametrize("shape", CONV_SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_forward_within_rounding_of_float64_sum(self, rng, shape, dtype, stride):
        T, cin, width, cout = shape
        x = rng.normal(size=(3, T, cin)).astype(dtype)
        k = rng.normal(size=(cout, width, cin)).astype(dtype)
        b = rng.normal(size=cout).astype(dtype)
        out = conv1d(Tensor(x, dtype=dtype), Tensor(k, dtype=dtype), Tensor(b, dtype=dtype),
                     stride=stride).data
        want, mag = direct_sum_float64(x, k, b, stride)
        assert out.dtype == dtype and out.shape == want.shape
        # probabilistic rounding bound of a length-n sum: a small multiple
        # of sqrt(n) units in the last place of the sum of magnitudes
        n = width * cin + 1
        assert np.all(np.abs(out - want) <= 4 * math.sqrt(n) * np.finfo(dtype).eps * mag)

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_input_gradient_equals_full_product_bytewise(self, rng, shape, dtype, stride):
        T, cin, width, cout = shape
        x = Tensor(rng.normal(size=(3, T, cin)), requires_grad=True, dtype=dtype)
        k = rng.normal(size=(cout, width, cin)).astype(dtype)
        out = conv1d(x, Tensor(k, dtype=dtype), Tensor(np.zeros(cout), dtype=dtype), stride=stride)
        g = rng.normal(size=out.data.shape).astype(dtype)
        (out * Tensor(g, dtype=dtype)).sum().backward()
        want = input_grad_oracle(g, k, T, stride)
        assert x.grad.dtype == want.dtype and x.grad.shape == want.shape
        assert x.grad.tobytes() == want.tobytes()

    def test_finite_difference_at_a_grouped_shape(self):
        # Cin 128, W 17: taps in groups of 16 plus a 1-tap remainder
        arrays = [np.zeros((2, 7, 128)), np.zeros((2, 17, 128)), np.zeros(2)]
        check_gradients(lambda ts: (conv1d(ts[0], ts[1], ts[2], stride=2) ** 2).mean(),
                        arrays, seeds=range(2))

    def test_no_grad_peak_memory_at_the_up4_shape(self):
        # the paper config's up4 level: an im2col buffer would be
        # 2048 x (65 * 512) float32, 260 MiB
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 2048, 512)), dtype=np.float32)
        k = Tensor(rng.normal(size=(256, 65, 512)) * 0.01, dtype=np.float32)
        b = Tensor(np.zeros(256), dtype=np.float32)
        tracemalloc.start()
        try:
            with no_grad():
                out = conv1d(x, k, b, stride=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.shape == (1, 2048, 256)
        assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


class TestSoftmax:
    def test_uniform(self):
        out = softmax(Tensor(np.zeros(3)), axis=-1)
        assert np.allclose(out.data, [1 / 3] * 3)

    def test_large_values_stable(self):
        out = softmax(Tensor(np.array([1000.0, 0.0])), axis=-1)
        assert np.all(np.isfinite(out.data))
        assert out.data[0] > 1 - 1e-9 and out.data[1] < 1e-9

    def test_matches_direct_formula(self, rng):
        x = rng.normal(size=4)
        out = softmax(Tensor(x, dtype=np.float64), axis=-1)
        ref = np.exp(x) / np.exp(x).sum()
        assert np.allclose(out.data, ref, atol=1e-12)

    def test_distribution_property(self, rng):
        x = rng.normal(size=(5, 7)) * 10
        out = softmax(Tensor(x, dtype=np.float64), axis=1).data
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        x = Tensor(np.full((2, 4), 3.0))
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.allclose(out.data, 0.0, atol=1e-4)

    def test_already_normalized(self):
        x = Tensor(np.array([[1.0, -1.0]]), dtype=np.float64)
        out = layer_norm(x, Tensor(np.ones(2), dtype=np.float64),
                         Tensor(np.zeros(2), dtype=np.float64), eps=1e-12)
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-5)

    def test_matches_independent_oracle(self, rng):
        x = rng.normal(size=(3, 8))
        eps = 1e-5
        out = layer_norm(Tensor(x, dtype=np.float64),
                         Tensor(np.ones(8), dtype=np.float64),
                         Tensor(np.zeros(8), dtype=np.float64), eps=eps).data
        for i in range(3):
            mu = sum(x[i]) / 8
            var = sum((v - mu) ** 2 for v in x[i]) / 8
            ref = [(v - mu) / np.sqrt(var + eps) for v in x[i]]
            assert np.allclose(out[i], ref, atol=1e-6)

    def test_row_statistics(self, rng):
        x = rng.normal(size=(6, 16)) * 5 + 2
        out = layer_norm(Tensor(x, dtype=np.float64),
                         Tensor(np.ones(16), dtype=np.float64),
                         Tensor(np.zeros(16), dtype=np.float64)).data
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-5)
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-3)


class TestMaxPoolBlocks:
    def test_max_of_halves(self):
        f = Tensor(np.arange(1.0, 9.0).reshape(8, 1))
        out = max_pool_blocks(f, 2)
        assert np.allclose(out.data, [[4.0], [8.0]])

    def test_singleton_blocks(self, rng):
        x = rng.normal(size=(5, 3))
        out = max_pool_blocks(Tensor(x), 5)
        assert np.allclose(out.data, x)

    def test_matches_scan_oracle(self, rng):
        x = rng.normal(size=(16, 3))
        out = max_pool_blocks(Tensor(x), 4).data
        for b in range(4):
            for c in range(3):
                best = max(x[b * 4 + t, c] for t in range(4))
                assert out[b, c] == best

    def test_permutation_within_block_invariant(self, rng):
        x = rng.normal(size=(12, 2))
        out1 = max_pool_blocks(Tensor(x), 3).data
        shuffled = x.reshape(3, 4, 2)[:, rng.permutation(4), :].reshape(12, 2)
        out2 = max_pool_blocks(Tensor(shuffled), 3).data
        assert np.array_equal(out1, out2)

    def test_block_permutation_equivariant(self, rng):
        x = rng.normal(size=(12, 2))
        perm = rng.permutation(3)
        out1 = max_pool_blocks(Tensor(x), 3).data
        permuted = x.reshape(3, 4, 2)[perm].reshape(12, 2)
        out2 = max_pool_blocks(Tensor(permuted), 3).data
        assert np.array_equal(out1[perm], out2)

    def test_divisibility_error(self):
        with pytest.raises(DivisibilityError):
            max_pool_blocks(Tensor(np.zeros((10, 2))), 3)

    def test_float32_gradient_stays_float32(self, rng):
        x = Tensor(rng.normal(size=(12, 3)), requires_grad=True, dtype=np.float32)
        max_pool_blocks(x, 3).sum().backward()
        assert x.grad.dtype == np.float32


class TestFusedOps:
    def test_softmax_is_one_node(self, rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        assert graph_nodes(softmax(x, axis=-1)) == 1

    def test_layer_norm_is_one_node(self, rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        g = Tensor(np.ones(5), requires_grad=True)
        b = Tensor(np.zeros(5), requires_grad=True)
        assert graph_nodes(layer_norm(x, g, b)) == 1


class TestGradOf:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x.sum().backward()
        assert np.allclose(x.grad, 1.0)

    def test_quadratic_gives_x(self, rng):
        data = rng.normal(size=5)
        x = Tensor(data, requires_grad=True, dtype=np.float64)
        ((x * x) * 0.5).sum().backward()
        assert np.allclose(x.grad, data, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2).backward()

    def test_backward_uses_up_the_graph(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True, dtype=np.float64)
        h = (x @ w).relu()
        loss = (h * h).sum()
        loss.backward()
        for node in (h, loss):
            assert node.grad is None
            assert node._backward is None
            assert node._prev == ()
        # the leaves keep their gradients: d/dw sum(relu(xw)^2) = x^T 2 relu(xw)
        assert np.allclose(w.grad, x.data.T @ (2 * h.data))
        assert np.allclose(x.grad, (2 * h.data) @ w.data.T)


class TestScalars:
    def test_scalar_tensor_is_0d(self):
        assert Tensor(2.0).data.shape == ()

    def test_loss_is_0d(self, rng):
        a = Tensor(rng.normal(size=(2, 5, 1)), dtype=np.float64)
        b = Tensor(rng.normal(size=(2, 5, 1)), dtype=np.float64)
        loss = mse_loss(a, b)
        assert loss.data.shape == ()
        assert float(loss.data) == pytest.approx(np.mean((a.data - b.data) ** 2), rel=1e-12)


class TestGradientChecks:
    """Central finite differences at 64-bit, 10 seeds per op."""

    def test_conv1d(self):
        # a single (T, Cin) input, then a leading batch axis of 2
        for x_shape, stride in (((8, 2), 2), ((2, 8, 2), 1), ((2, 8, 2), 2)):
            x = np.zeros(x_shape)
            k = np.zeros((3, 3, 2))
            b = np.zeros(3)

            def build(ts):
                tx, tk, tb = ts
                out = conv1d(tx, tk, tb, stride=stride)
                return (out * out).sum()

            check_gradients(build, [x, k, b])

    def test_matmul_softmax_chain(self):
        a = np.zeros((4, 5))
        w = np.zeros((5, 3))

        def build(ts):
            ta, tw = ts
            return (softmax(ta @ tw, axis=-1) * np.arange(3.0)).sum()

        check_gradients(build, [a, w])

    def test_layer_norm(self):
        x = np.zeros((4, 6))
        g = np.zeros(6)
        s = np.zeros(6)

        def build(ts):
            tx, tg, tsh = ts
            out = layer_norm(tx, tg, tsh)
            return (out * out).sum()

        check_gradients(build, [x, g, s])

    def test_max_pool(self):
        x = np.zeros((12, 3))

        def build(ts):
            out = max_pool_blocks(ts[0], 4)
            return (out * out).sum()

        check_gradients(build, [x])

    def test_relu_mean_reshape(self):
        x = np.zeros((6, 4))

        def build(ts):
            return (ts[0].relu().reshape(3, 8).mean(axis=1) ** 2).sum()

        check_gradients(build, [x])

    def test_softmax_axis0_3d(self):
        x = np.zeros((3, 2, 4))
        w = np.arange(24.0).reshape(3, 2, 4)

        def build(ts):
            return (softmax(ts[0], axis=0) * w).sum()

        check_gradients(build, [x])

    def test_concat_slice(self):
        a = np.zeros((3, 2))
        b = np.zeros((3, 4))

        def build(ts):
            joined = concat(ts, axis=1)
            return (joined[:, 1:5] * joined[:, 1:5]).sum()

        check_gradients(build, [a, b])


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        before = p.data.copy()
        state = AdamState()
        adam_step({"p": p}, {"p": np.zeros(2)}, state)
        assert state.t == 1
        assert np.array_equal(p.data, before)

    def test_descends_against_constant_gradient(self):
        p = Tensor(np.array([0.0, 0.0]), requires_grad=True, dtype=np.float64)
        state = AdamState(learning_rate=0.01)
        g = np.array([1.0, -2.0])
        for _ in range(50):
            adam_step({"p": p}, {"p": g}, state)
        assert p.data[0] < 0 and p.data[1] > 0

    @staticmethod
    def hand_rolled(data, grads):
        """The textbook update at lr 0.1, transcribed in float64."""
        ref = np.array(data, dtype=np.float64)
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t, g in enumerate(grads, start=1):
            g = np.asarray(g, dtype=np.float64)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9 ** t)
            vh = v / (1 - 0.999 ** t)
            ref -= 0.1 * mh / (np.sqrt(vh) + 1e-8)
        return ref

    def test_matches_hand_rolled_oracle(self, rng):
        data = rng.normal(size=2)
        p = Tensor(data.copy(), requires_grad=True, dtype=np.float64)
        state = AdamState(learning_rate=0.1)
        grads = [rng.normal(size=2) for _ in range(3)]
        ref = self.hand_rolled(data, grads)

        for g in grads:
            adam_step({"p": p}, {"p": g}, state)
        assert np.allclose(p.data, ref, atol=1e-10)

    def test_float32_matches_hand_rolled_oracle(self, rng):
        data = rng.normal(size=64).astype(np.float32)
        p = Tensor(data.copy(), requires_grad=True)
        state = AdamState(learning_rate=0.1)
        grads = [rng.normal(size=64).astype(np.float32) for _ in range(3)]
        ref = self.hand_rolled(data, grads)

        for g in grads:
            adam_step({"p": p}, {"p": g}, state)
        assert p.data.dtype == state.m["p"].dtype == state.v["p"].dtype == np.float32
        # a few float32 ulps of the larger of the parameter and the step size
        ulp = np.spacing(np.maximum(np.abs(ref), 0.1).astype(np.float32)).astype(np.float64)
        assert np.all(np.abs(p.data - ref) <= 4 * ulp)


    @staticmethod
    def one_buffer_oracle(params, grads, state):
        """The update with one full-size scratch array per parameter, on plain
        arrays: the same ops in the same order as adam_step."""
        state.t += 1
        b1, b2 = state.beta1, state.beta2
        step = state.learning_rate / (1.0 - b1 ** state.t)
        inv_sqrt_c2 = 1.0 / math.sqrt(1.0 - b2 ** state.t)
        for name, p in params.items():
            g = grads[name]
            if g is None:
                continue
            g = g.astype(p.dtype, copy=False)
            if name not in state.m:
                state.m[name] = np.zeros_like(p)
                state.v[name] = np.zeros_like(p)
            m, v = state.m[name], state.v[name]
            buf = np.multiply(g, 1.0 - b1)
            m *= b1
            m += buf
            np.multiply(g, g, out=buf)
            buf *= 1.0 - b2
            v *= b2
            v += buf
            np.sqrt(v, out=buf)
            buf *= inv_sqrt_c2
            buf += state.eps
            np.divide(m, buf, out=buf)
            buf *= step
            p -= buf

    def test_slices_equal_one_buffer_oracle_bytewise(self, rng):
        shapes = {}
        for n in (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5):
            shapes[f"f32.{n}"] = (np.float32, (n,))
            shapes[f"f64.{n}"] = (np.float64, (n,))
        shapes["f32.2d"] = (np.float32, (5, CHUNK // 4 + 3))
        shapes["frozen"] = (np.float32, (7,))
        shapes["f32.f64grad"] = (np.float32, (CHUNK + 9,))
        params = {name: Tensor(rng.normal(size=shape), requires_grad=True, dtype=dtype)
                  for name, (dtype, shape) in shapes.items()}
        ref = {name: p.data.copy() for name, p in params.items()}
        state, ref_state = AdamState(learning_rate=0.01), AdamState(learning_rate=0.01)
        for _ in range(3):
            grads = {name: rng.normal(size=shape).astype(
                         np.float64 if name == "f32.f64grad" else dtype)
                     for name, (dtype, shape) in shapes.items()}
            grads["frozen"] = None
            adam_step(params, grads, state)
            self.one_buffer_oracle(ref, grads, ref_state)
        assert state.t == ref_state.t == 3
        assert "frozen" not in state.m and "frozen" not in state.v
        assert np.array_equal(params["frozen"].data, ref["frozen"])
        assert state.m.keys() == ref_state.m.keys() == state.v.keys()
        for name, p in params.items():
            assert p.data.dtype == ref[name].dtype == shapes[name][0]
            assert p.data.tobytes() == ref[name].tobytes(), name
            if name != "frozen":
                assert state.m[name].tobytes() == ref_state.m[name].tobytes(), name
                assert state.v[name].tobytes() == ref_state.v[name].tobytes(), name

    def test_rejected_step_changes_nothing(self, rng):
        params = {"a": Tensor(rng.normal(size=3), requires_grad=True),
                  "b": Tensor(rng.normal(size=2), requires_grad=True)}
        state = AdamState()
        with pytest.raises(ValueError, match="'b'"):
            adam_step(params, {"a": np.ones(3, np.float32), "b": np.ones(5, np.float32)}, state)
        assert state.t == 0 and state.m == {} and state.v == {}
        # the same after a step that did apply: no moment or parameter moves
        adam_step(params, {"a": np.ones(3, np.float32), "b": np.ones(2, np.float32)}, state)
        before = [{k: a.copy() for k, a in d.items()}
                  for d in ({k: p.data for k, p in params.items()}, state.m, state.v)]
        with pytest.raises(ValueError, match="'b'"):
            adam_step(params, {"a": np.ones(3, np.float32), "b": np.ones(5, np.float32)}, state)
        assert state.t == 1
        after = ({k: p.data for k, p in params.items()}, state.m, state.v)
        for old, new in zip(before, after):
            assert old.keys() == new.keys()
            assert all(np.array_equal(old[k], new[k]) for k in old)

    def test_worker_exception_reaches_the_caller(self):
        # slices 0 and 1 go to different workers; the second one fails
        params = {"a": Tensor(np.zeros(CHUNK), requires_grad=True),
                  "b": Tensor(np.zeros(CHUNK), requires_grad=True)}
        params["b"].data.flags.writeable = False
        grads = {name: np.ones(CHUNK, np.float32) for name in params}
        with pytest.raises(ValueError, match="read-only"):
            adam_step(params, grads, AdamState())


class TestDeterminism:
    def test_identical_replay(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.normal(size=(16, 4)), requires_grad=True)
            k = Tensor(rng.normal(size=(4, 3, 4)))
            out = conv1d(x, k, Tensor(np.zeros(4)), stride=2)
            out = layer_norm(out, Tensor(np.ones(4)), Tensor(np.zeros(4)))
            loss = (softmax(out, axis=-1) ** 2).sum()
            loss.backward()
            return loss.data.copy(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2)
        assert np.array_equal(g1, g2)


def test_dropout_train_scaling(rng):
    x = Tensor(np.ones((1000, 1)))
    out = dropout(x, 0.5, np.random.default_rng(7))
    kept = out.data[out.data != 0]
    assert np.allclose(kept, 2.0)
    assert abs((out.data != 0).mean() - 0.5) < 0.1


def test_no_grad_blocks_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2).sum()
    assert not y.requires_grad


def test_tensor_invariants(rng):
    t = Tensor(rng.normal(size=(2, 3, 4)))
    assert t.data.size == 24
    assert t.grad is None
