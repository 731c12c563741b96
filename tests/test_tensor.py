import numpy as np
import pytest

from conftest import check_gradients, finite_difference, max_rel_err

from afsr.optim import AdamState, adam_step
from afsr.tensor import (DivisibilityError, ShapeError, Tensor, concat,
                         conv1d, dropout, layer_norm,
                         max_pool_blocks, no_grad, softmax)


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


class TestGradientChecks:
    """Central finite differences at 64-bit, 10 seeds per op."""

    def test_conv1d(self):
        x = np.zeros((8, 2))
        k = np.zeros((3, 3, 2))
        b = np.zeros(3)

        def build(ts):
            tx, tk, tb = ts
            out = conv1d(tx, tk, tb, stride=2)
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

    def test_matches_hand_rolled_oracle(self, rng):
        data = rng.normal(size=2)
        p = Tensor(data.copy(), requires_grad=True, dtype=np.float64)
        state = AdamState(learning_rate=0.1)
        grads = [rng.normal(size=2) for _ in range(3)]

        # transcribed update, element by element
        ref = data.copy()
        m = np.zeros(2)
        v = np.zeros(2)
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9 ** t)
            vh = v / (1 - 0.999 ** t)
            ref -= 0.1 * mh / (np.sqrt(vh) + 1e-8)

        for g in grads:
            adam_step({"p": p}, {"p": g}, state)
        assert np.allclose(p.data, ref, atol=1e-10)


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
