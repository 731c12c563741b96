"""Dense tensors with reverse-mode automatic differentiation.

numpy-backed and define-by-run: every operation records a backward closure
on its output, and backward() replays the recorded graph in reverse
topological order. float32 is the working precision for training and
inference; float64 is used for gradient checking, where finite differences
are otherwise unreliable.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are inconsistent for the requested operation."""


class DivisibilityError(ValueError):
    """A blocking/shuffling factor does not divide the relevant axis."""


_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._saved
        return False


def _as_array(data, dtype):
    arr = np.asarray(data)
    if dtype is not None:
        return np.ascontiguousarray(arr, dtype=dtype)
    if arr.dtype == np.float64 or arr.dtype == np.float32:
        return np.ascontiguousarray(arr)
    return np.ascontiguousarray(arr, dtype=np.float32)


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._prev = ()
        self._backward = None

    # ---- construction helpers -------------------------------------------

    @staticmethod
    def _result(data, prev, backward):
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        if _grad_enabled and any(p.requires_grad for p in prev):
            out.requires_grad = True
            out._prev = tuple(prev)
            out._backward = backward
        else:
            out.requires_grad = False
            out._prev = ()
            out._backward = None
        return out

    def _coerce(self, other):
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # ---- backward pass ---------------------------------------------------

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = g.copy() if g.base is not None or not g.flags.owndata else g
        else:
            self.grad = self.grad + g

    def backward(self):
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        # iterative topological sort; recursion would overflow on deep graphs
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other
        out_data = a.data + b.data

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.data.shape))

        return Tensor._result(out_data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def backward(g):
            a._accumulate(-g)

        return Tensor._result(-a.data, (a,), backward)

    def __sub__(self, other):
        other = self._coerce(other)
        a, b = self, other
        out_data = a.data - b.data

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g, b.data.shape))

        return Tensor._result(out_data, (a, b), backward)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        out_data = a.data * b.data

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._result(out_data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self, other
        out_data = a.data / b.data

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        return Tensor._result(out_data, (a, b), backward)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self
        out_data = a.data ** p

        def backward(g):
            a._accumulate(g * p * a.data ** (p - 1))

        return Tensor._result(out_data, (a,), backward)

    def __matmul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise ShapeError("matmul operands must be at least 2-D")
        if a.data.shape[-1] != b.data.shape[-2]:
            raise ShapeError(
                f"matmul inner axes disagree: {a.data.shape} @ {b.data.shape}")
        out_data = np.matmul(a.data, b.data)

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)),
                                           a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g),
                                           b.data.shape))

        return Tensor._result(out_data, (a, b), backward)

    # ---- pointwise nonlinearities ---------------------------------------

    def relu(self):
        a = self
        out_data = np.maximum(a.data, 0)

        def backward(g):
            a._accumulate(g * (a.data > 0))

        return Tensor._result(out_data, (a,), backward)

    def exp(self):
        a = self
        out_data = np.exp(a.data)

        def backward(g):
            a._accumulate(g * out_data)

        return Tensor._result(out_data, (a,), backward)

    def log(self):
        a = self
        out_data = np.log(a.data)

        def backward(g):
            a._accumulate(g / a.data)

        return Tensor._result(out_data, (a,), backward)

    def sqrt(self):
        a = self
        out_data = np.sqrt(a.data)

        def backward(g):
            a._accumulate(g * 0.5 / out_data)

        return Tensor._result(out_data, (a,), backward)

    # ---- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.data.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(gg, a.data.shape).copy())

        return Tensor._result(out_data, (a,), backward)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max(self, axis, keepdims=False):
        a = self
        out_data = a.data.max(axis=axis, keepdims=keepdims)

        def backward(g):
            expanded = out_data if keepdims else np.expand_dims(out_data, axis)
            mask = (a.data == expanded)
            counts = mask.sum(axis=axis, keepdims=True)
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(mask * (gg / counts))

        return Tensor._result(out_data, (a,), backward)

    # ---- shape manipulation ---------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out_data = a.data.reshape(shape)

        def backward(g):
            a._accumulate(g.reshape(a.data.shape))

        return Tensor._result(out_data, (a,), backward)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inv = np.argsort(axes)
        out_data = a.data.transpose(axes)

        def backward(g):
            a._accumulate(np.ascontiguousarray(g.transpose(inv)))

        return Tensor._result(out_data, (a,), backward)

    def __getitem__(self, idx):
        a = self
        out_data = a.data[idx]
        if isinstance(out_data, np.ndarray) and out_data.base is not None:
            out_data = out_data.copy()

        def backward(g):
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            a._accumulate(full)

        return Tensor._result(out_data, (a,), backward)


# ---- free functions ------------------------------------------------------


def concat(tensors, axis):
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(np.ascontiguousarray(g[tuple(sl)]))

    return Tensor._result(out_data, tensors, backward)


def softmax(x, axis=-1):
    """Numerically stable softmax: slices along `axis` sum to one."""
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    e = (x - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def layer_norm(x, gain, shift, eps=1e-5):
    """Normalize each row over the last axis to zero mean / unit variance,
    then apply the learned per-channel affine."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered / (var + eps).sqrt()
    return normed * gain + shift


def dropout(x, rate, rng):
    """Inverted-scaling dropout; identity when rate == 0."""
    if rate <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    mask = Tensor(keep / np.asarray(1.0 - rate, dtype=x.data.dtype))
    return x * mask


def conv1d(x, kernels, bias, stride=1):
    """1-D convolution over (T, Cin) with kernels (Cout, W, Cin).

    Zero padding keeps "same" length before striding, so the output is
    (ceil(T / stride), Cout). Kernel width must be odd.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"conv1d input must be (T, Cin), got {x.data.shape}")
    if kernels.data.ndim != 3:
        raise ShapeError(f"conv1d kernels must be (Cout, W, Cin), got {kernels.data.shape}")
    T, cin = x.data.shape
    cout, width, kcin = kernels.data.shape
    if width % 2 == 0:
        raise ShapeError(f"kernel width must be odd, got {width}")
    if kcin != cin:
        raise ShapeError(
            f"channel axis mismatch: input has Cin={cin}, kernels have Cin={kcin}")
    if bias.data.shape != (cout,):
        raise ShapeError(
            f"bias axis mismatch: expected ({cout},), got {bias.data.shape}")
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")

    pad = width // 2
    xp = np.zeros((T + 2 * pad, cin), dtype=x.data.dtype)
    xp[pad:pad + T] = x.data
    windows = np.lib.stride_tricks.sliding_window_view(xp, width, axis=0)  # (T, Cin, W)
    windows = windows[::stride]
    t_out = windows.shape[0]
    cols = np.ascontiguousarray(windows.transpose(0, 2, 1)).reshape(t_out, width * cin)
    kmat = kernels.data.reshape(cout, width * cin).T
    out_data = cols @ kmat + bias.data

    def backward(g):
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0))
        if kernels.requires_grad:
            gk = (cols.T @ g).T.reshape(cout, width, cin)
            kernels._accumulate(gk)
        if x.requires_grad:
            gcols = (g @ kmat.T).reshape(t_out, width, cin)
            gxp = np.zeros_like(xp)
            for w in range(width):
                gxp[w:w + (t_out - 1) * stride + 1:stride] += gcols[:, w, :]
            x._accumulate(gxp[pad:pad + T])

    return Tensor._result(out_data, (x, kernels, bias), backward)


def max_pool_blocks(x, n_blocks):
    """Split the time axis of (T, C) into `n_blocks` contiguous blocks and
    take the per-channel maximum inside each, yielding (n_blocks, C)."""
    if x.data.ndim != 2:
        raise ShapeError(f"max_pool_blocks input must be (T, C), got {x.data.shape}")
    T, C = x.data.shape
    if n_blocks < 1 or T % n_blocks != 0:
        raise DivisibilityError(
            f"block count {n_blocks} does not divide time axis {T}")
    return x.reshape(n_blocks, T // n_blocks, C).max(axis=1)
