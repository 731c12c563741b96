"""Adam optimizer with bias correction."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamState:
    """Per-parameter moment estimates plus the shared step counter."""

    learning_rate: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, grads, state):
    """Apply one bias-corrected Adam update in place.

    `params` maps names to Tensors, `grads` maps the same names to gradient
    arrays. Moment buffers are created lazily on first use. Each parameter
    needs one scratch array of its own size, and the arithmetic stays in
    the parameter's dtype.
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    # the bias corrections fold into two scalars:
    # p -= (lr / c1) * m / (sqrt(v) / sqrt(c2) + eps)
    step = state.learning_rate / (1.0 - b1 ** state.t)
    inv_sqrt_c2 = 1.0 / math.sqrt(1.0 - b2 ** state.t)
    for name, p in params.items():
        g = grads[name]
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} disagrees with parameter "
                f"'{name}' shape {p.data.shape}")
        g = g.astype(p.data.dtype, copy=False)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
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
        p.data -= buf
    return params, state
