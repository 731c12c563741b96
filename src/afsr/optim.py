"""Adam optimizer with bias correction."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

# elements per slice of the update: 2^16 float32 values are 256 KiB, so one
# slice of g, m, v and p plus its scratch stays in a core's L2 cache
CHUNK = 1 << 16


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
    arrays (None leaves a parameter as it is). Every shape is checked before
    anything changes, and moment buffers are created lazily on first use.
    The update runs in CHUNK-element slices dealt across one thread per
    usable CPU; the arithmetic stays in the parameter's dtype and is the
    same, element for element, whatever the slicing.
    """
    todo = []
    for name, p in params.items():
        g = grads[name]
        if g is None:
            continue
        for what, arr in (("gradient", g), ("first moment", state.m.get(name)),
                          ("second moment", state.v.get(name))):
            if arr is not None and arr.shape != p.data.shape:
                raise ValueError(
                    f"{what} shape {arr.shape} disagrees with parameter "
                    f"'{name}' shape {p.data.shape}")
        todo.append((name, p.data, g.astype(p.data.dtype, copy=False)))
    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    # the bias corrections fold into two scalars:
    # p -= (lr / c1) * m / (sqrt(v) / sqrt(c2) + eps)
    step = state.learning_rate / (1.0 - b1 ** state.t)
    inv_sqrt_c2 = 1.0 / math.sqrt(1.0 - b2 ** state.t)
    slices = []
    for name, p, g in todo:
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        # flat views of the arrays updated in place (copy=False refuses a
        # copy); the gradient is only read, so it may be copied
        flat = [np.reshape(a, -1, copy=False) for a in (p, state.m[name], state.v[name])]
        flat.append(g.reshape(-1))
        slices += [[a[i:i + CHUNK] for a in flat] for i in range(0, p.size, CHUNK)]

    def update(part):
        scratch = {}
        for p, m, v, g in part:
            if p.dtype not in scratch:
                scratch[p.dtype] = np.empty(CHUNK, dtype=p.dtype)
            buf = scratch[p.dtype][:p.size]
            np.multiply(g, 1.0 - b1, out=buf)
            m *= b1
            m += buf
            np.multiply(g, g, out=buf)
            buf *= 1.0 - b2
            v *= b2
            v += buf
            np.sqrt(v, out=buf)
            buf *= inv_sqrt_c2
            buf += eps
            np.divide(m, buf, out=buf)
            buf *= step
            p -= buf

    # numpy releases the GIL inside these loops, so the workers run in parallel;
    # a worker's exception is raised here, once every worker has finished
    workers = len(os.sched_getaffinity(0))
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(update, [slices[k::workers] for k in range(workers)]))
    return params, state
