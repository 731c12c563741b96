"""Dense tensors with reverse-mode automatic differentiation.

numpy-backed and define-by-run: every operation records a backward closure
on its output, and backward() replays the recorded graph in reverse
topological order. float32 is the working precision for training and
inference; float64 is used for gradient checking, where finite differences
are otherwise unreliable. A node's gradient always has its data's dtype, so
a float32 graph runs its backward in float32 too.

`layer_norm` and `softmax` are single graph nodes with closed-form
backward, not compositions of the elementwise ops. Ops on the model path
take (..., T, C) arrays whose leading axes are a batch. `conv1d` builds
one small matrix of tap-group windows per sample, and reads each group of
taps from it as a row slice, so its buffers do not grow with the batch and
are about GROUP_COLS columns wide, not W * Cin.
Scalars and full reductions, such as a loss, are 0-d: `float(loss.data)`.
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
    # not np.ascontiguousarray: it makes a 0-d scalar (1,)
    arr = np.asarray(data)
    if dtype is None and arr.dtype != np.float64:
        dtype = np.float32
    return np.asarray(arr, dtype=dtype, order="C")


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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # ---- backward pass ---------------------------------------------------

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = g.copy() if g.base is not None or not g.flags.owndata else g
        else:
            self.grad = self.grad + g

    def backward(self):
        """Accumulate d(self)/d(leaf) into the `grad` of every leaf that
        requires it. This uses the graph up: each interior node drops its
        gradient, closure and inputs once it has passed its gradient on, so
        a second backward() through the same graph has nothing to replay."""
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
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = None
            node._prev = ()

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
            if b.requires_grad and b.data.ndim == 2:
                # a batch times one matrix: every leading axis folds into one GEMM
                b._accumulate(a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
            elif b.requires_grad:
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

    # ---- reductions ------------------------------------------------------

    def sum(self, axis=None):
        a = self
        out_data = a.data.sum(axis=axis)

        def backward(g):
            gg = g if axis is None else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(gg, a.data.shape).copy())

        return Tensor._result(out_data, (a,), backward)

    def mean(self, axis=None):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    def max(self, axis):
        a = self
        out_data = a.data.max(axis=axis)

        def backward(g):
            mask = (a.data == np.expand_dims(out_data, axis))
            counts = mask.sum(axis=axis, keepdims=True, dtype=a.data.dtype)
            a._accumulate(mask * (np.expand_dims(g, axis) / counts))

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

    def swapaxes(self, a1, a2):
        a = self
        out_data = a.data.swapaxes(a1, a2)

        def backward(g):
            a._accumulate(g.swapaxes(a1, a2))

        return Tensor._result(out_data, (a,), backward)

    def __getitem__(self, idx):
        a = self
        out_data = a.data[idx]
        if isinstance(out_data, np.ndarray) and out_data.base is not None:
            out_data = out_data.copy()

        def backward(g):
            full = np.zeros_like(a.data)
            full[idx] = g
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
    e = np.exp(x.data - x.data.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        x._accumulate(y * (g - (g * y).sum(axis=axis, keepdims=True)))

    return Tensor._result(y, (x,), backward)


def layer_norm(x, gain, shift, eps=1e-5):
    """Normalize each row over the last axis to zero mean / unit variance,
    then apply the learned per-channel affine."""
    inv_n = np.asarray(1.0 / x.data.shape[-1], dtype=x.data.dtype)
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    normed = centered / std

    def backward(g):
        if x.requires_grad:
            gn = g * gain.data
            x._accumulate((gn - gn.sum(axis=-1, keepdims=True) * inv_n
                           - normed * ((gn * normed).sum(axis=-1, keepdims=True) * inv_n))
                          / std)
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * normed, gain.data.shape))
        if shift.requires_grad:
            shift._accumulate(_unbroadcast(g, shift.data.shape))

    return Tensor._result(normed * gain.data + shift.data, (x, gain, shift), backward)


def dropout(x, rate, rng):
    """Inverted-scaling dropout; identity when rate == 0."""
    if rate <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    mask = Tensor(keep / np.asarray(1.0 - rate, dtype=x.data.dtype))
    return x * mask


# Fewest GEMM columns (taps x Cin) in one tap group of `conv1d`. Fewer
# columns shrink the window matrix but add groups, each one more GEMM call
# and one more pass over the output. Full-size levels, one sample, float32 on
# 2 vCPUs, forward/backward summed: 382/841 ms at 1024, 382/864 at 2048,
# 397/904 at 4096; 2048 halves 1024's groups at the same speed.
GROUP_COLS = 2048


def _windows(x, width, stride, group):
    """The zero-padded `group`-tap windows of (T, Cin) for a "same" conv of
    odd `width`, tap-major within each row. Row r starts at padded input
    sample r * stride, so taps j..j+group-1 of output t are row t + j / stride
    for any j that `stride` divides. There are ceil(T / stride) rows, plus
    (last group start) / stride more for the later groups to read."""
    T, cin = x.shape
    pad = width // 2
    last = (width - 1) // group * group
    xp = np.zeros((T + 2 * pad + last + group - width, cin), dtype=x.dtype)
    xp[pad:pad + T] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, group, axis=0)[::stride]  # (R, Cin, g)
    return np.ascontiguousarray(windows.transpose(0, 2, 1)).reshape(windows.shape[0], group * cin)


def _gemm(out, a, b, accumulate):
    """out = a @ b, written in place, or out += a @ b."""
    if accumulate:
        out += a @ b
    else:
        np.matmul(a, b, out=out)


def conv1d(x, kernels, bias, stride=1):
    """1-D convolution over (..., T, Cin), whose leading axes are a batch,
    with kernels (Cout, W, Cin) of odd width W. Zero padding keeps "same"
    length before striding, so the output is (..., ceil(T / stride), Cout).

    Taps run in groups of g, the fewest (a multiple of the stride, at most
    W) that give a GEMM at least GROUP_COLS columns. Per sample, forward and
    backward build one matrix of g-tap windows (`_windows`); each tap group
    is a row slice of it, so the buffer is about W / g times smaller than
    im2col's, and a level with W * Cin <= GROUP_COLS runs one group, which
    is im2col."""
    if x.data.ndim < 2:
        raise ShapeError(f"conv1d input must be (..., T, Cin), got {x.data.shape}")
    if kernels.data.ndim != 3:
        raise ShapeError(f"conv1d kernels must be (Cout, W, Cin), got {kernels.data.shape}")
    *lead, T, cin = x.data.shape
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

    xs = x.data.reshape(-1, T, cin)
    kflat = kernels.data.reshape(cout, width * cin)
    t_out = -(-T // stride)
    group = min(width, -(-GROUP_COLS // (cin * stride)) * stride)
    # (first tap, taps, kernel columns) of each group; the last may be short
    taps = [(j, min(group, width - j), slice(j * cin, min(j + group, width) * cin))
            for j in range(0, width, group)]

    def rows(win, j, w):
        return win[j // stride:j // stride + t_out, :w * cin]

    out_data = np.empty((len(xs), t_out, cout),
                        dtype=np.result_type(x.data, kernels.data, bias.data))
    for xn, on in zip(xs, out_data):
        win = _windows(xn, width, stride, group)
        for j, w, cols in taps:
            _gemm(on, rows(win, j, w), kflat[:, cols].T, accumulate=j > 0)
    out_data += bias.data

    def backward(g):
        gs = g.reshape(out_data.shape)
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, cout).sum(axis=0))
        if kernels.requires_grad:
            # windows rebuilt rather than kept from forward: only this
            # product needs them
            gk = np.empty(kernels.data.shape, dtype=np.result_type(g, x.data))
            gflat = gk.reshape(cout, width * cin)
            for n, (xn, gn) in enumerate(zip(xs, gs)):
                win = _windows(xn, width, stride, group)
                for j, w, cols in taps:
                    _gemm(gflat[:, cols], gn.T, rows(win, j, w), accumulate=n > 0)
            kernels._accumulate(gk)
        if x.requires_grad:
            pad = width // 2
            gxp = np.zeros((len(xs), T + 2 * pad, cin), dtype=x.data.dtype)
            for gn, gxn in zip(gs, gxp):
                for j, w, cols in taps:
                    gcols = (gn @ kflat[:, cols]).reshape(-1, w, cin)
                    for tap in range(w):
                        gxn[j + tap:j + tap + (len(gn) - 1) * stride + 1:stride] += gcols[:, tap, :]
            x._accumulate(gxp[:, pad:pad + T].reshape(x.data.shape))

    return Tensor._result(out_data.reshape(*lead, -1, cout), (x, kernels, bias), backward)


def max_pool_blocks(x, n_blocks):
    """Split the time axis of (..., T, C) into `n_blocks` contiguous blocks
    and take the per-channel maximum inside each, yielding (..., n_blocks, C)."""
    if x.data.ndim < 2:
        raise ShapeError(f"max_pool_blocks input must be (..., T, C), got {x.data.shape}")
    *lead, T, C = x.data.shape
    if n_blocks < 1 or T % n_blocks != 0:
        raise DivisibilityError(
            f"block count {n_blocks} does not divide time axis {T}")
    return x.reshape(*lead, n_blocks, T // n_blocks, C).max(axis=-2)
