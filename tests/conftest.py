import numpy as np
import pytest

from afsr.tensor import Tensor


def finite_difference(f, arrays, h=1e-5):
    """Central finite differences of scalar f w.r.t. a list of float64 arrays."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric, floor=1e-3):
    """Worst-case relative error, guarded against near-zero denominators."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def graph_nodes(out):
    """Recorded nodes reachable from `out` (leaves record none)."""
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen and t._backward is not None:
            seen.add(id(t))
            stack.extend(t._prev)
    return len(seen)


def check_gradients(build_loss, arrays, seeds=range(10), h=1e-5, tol=1e-4, rng_fill=None):
    """Run an FD gradient check across several random seeds.

    `build_loss(tensors)` must return a scalar Tensor given Tensors wrapping
    `arrays`; `rng_fill(rng, arrays)` refreshes the arrays in place.
    """
    for seed in seeds:
        rng = np.random.default_rng(seed)
        if rng_fill is None:
            for a in arrays:
                a[...] = rng.normal(size=a.shape)
        else:
            rng_fill(rng, arrays)
        tensors = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
        # tensors share no storage with arrays; FD perturbs arrays directly
        loss = build_loss(tensors)
        loss.backward()
        analytic = [t.grad for t in tensors]

        def f():
            frozen = [Tensor(a, dtype=np.float64) for a in arrays]
            return float(build_loss(frozen).data)

        numeric = finite_difference(f, arrays, h=h)
        err = max_rel_err(analytic, numeric)
        assert err < tol, f"seed {seed}: max relative error {err:.3e} >= {tol}"


@pytest.fixture
def rng():
    return np.random.default_rng(0)
