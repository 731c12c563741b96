"""Independent float64 numpy forward pass of the AFiLM U-Net.

Written from the layer description in `afsr.model`'s module docstring and
reading weights only by parameter name, so it shares no code with the
program's tensor engine: K strided down blocks, a strided bottleneck and K
up blocks that trade channels for time by subpixel shuffling, each ending
in attention-based feature-wise modulation, with the mirrored skip
concatenated after each up block and the input added to the output.
"""

from __future__ import annotations

import numpy as np


def conv(x, w, b, stride):
    """'Same'-padded 1-D convolution of (T, Cin) by kernels (Cout, W, Cin),
    sampled every `stride` steps: a sum over taps of shifted products."""
    T = x.shape[0]
    width = w.shape[1]
    pad = width // 2
    xp = np.zeros((T + 2 * pad, x.shape[1]))
    xp[pad:pad + T] = x
    t_out = -(-T // stride)
    out = np.tile(np.asarray(b, dtype=np.float64), (t_out, 1))
    for k in range(width):
        out += xp[k:k + (t_out - 1) * stride + 1:stride] @ np.asarray(w[:, k, :], dtype=np.float64).T
    return out


def layer_norm(x, g, b, eps=1e-5):
    c = x - x.mean(axis=-1, keepdims=True)
    return c / np.sqrt((c * c).mean(axis=-1, keepdims=True) + eps) * g + b


def attention(x, p, heads):
    B, C = x.shape
    d = C // heads
    q = (x @ p["wq"] + p["bq"]).reshape(B, heads, d).transpose(1, 0, 2)
    k = (x @ p["wk"]).reshape(B, heads, d).transpose(1, 0, 2)
    v = (x @ p["wv"] + p["bv"]).reshape(B, heads, d).transpose(1, 0, 2)
    s = q @ k.transpose(0, 2, 1) / np.sqrt(d)
    a = np.exp(s - s.max(axis=-1, keepdims=True))
    a /= a.sum(axis=-1, keepdims=True)
    return (a @ v).transpose(1, 0, 2).reshape(B, C) @ p["wo"] + p["bo"]


def afilm(f, weights, prefix, config):
    """Max-pool into B blocks, run the pre-norm Transformer stack and its
    affine head, then remap each block as gamma * F + beta."""
    T, C = f.shape
    B = config.blocks
    x = f.reshape(B, T // B, C).max(axis=1)
    for i in range(config.transformer_layers):
        p = {k[len(f"{prefix}.l{i}."):]: np.asarray(v, dtype=np.float64)
             for k, v in weights.items() if k.startswith(f"{prefix}.l{i}.")}
        x = x + attention(layer_norm(x, p["ln1_g"], p["ln1_b"]), p, config.heads)
        h = layer_norm(x, p["ln2_g"], p["ln2_b"])
        x = x + np.maximum(h @ p["w1"] + p["b1"], 0.0) @ p["w2"] + p["b2"]
    out = x @ np.asarray(weights[f"{prefix}.head_w"], dtype=np.float64) \
        + np.asarray(weights[f"{prefix}.head_b"], dtype=np.float64)
    gamma, beta = out[:, :C], out[:, C:]
    return (f.reshape(B, T // B, C) * gamma[:, None, :] + beta[:, None, :]).reshape(T, C)


def shuffle(x, r):
    """(T, C) -> (T*r, C/r) with out[t*r + p, c] = x[t, c*r + p]."""
    T, C = x.shape
    return x.reshape(T, C // r, r).transpose(0, 2, 1).reshape(T * r, C // r)


def forward(weights, config, patch):
    """Enhance one (T0,) patch; `weights` maps parameter names to arrays."""
    K = config.depth
    x = np.asarray(patch, dtype=np.float64).reshape(-1, 1)

    def block(name, h, stride):
        return np.maximum(conv(h, weights[f"{name}.conv.w"], weights[f"{name}.conv.b"], stride), 0.0)

    skips = []
    h = x
    for k in range(1, K + 1):
        h = afilm(block(f"down{k}", h, 2), weights, f"down{k}.film", config)
        skips.append(h)
    h = afilm(block("bottleneck", h, 2), weights, "bottleneck.film", config)
    for k in range(1, K + 1):
        h = afilm(shuffle(block(f"up{k}", h, 1), 2), weights, f"up{k}.film", config)
        h = np.concatenate([h, skips[K - k]], axis=1)
    h = shuffle(conv(h, weights["final.conv.w"], weights["final.conv.b"], 1), 2)
    return (h + x).reshape(-1)
