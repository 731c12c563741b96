"""Audio super-resolution network.

A 1-D convolutional U-Net: K strided downsampling blocks, a bottleneck,
and K upsampling blocks that trade channels for time through subpixel
shuffling, with channel-concatenated skip connections and a global
additive skip from input to output. Every block ends with an
attention-modulated feature-wise affine layer: activations are max-pooled
into B blocks along time, a small Transformer maps the pooled sequence to
per-block (gamma, beta), and each block of activations is remapped as
gamma * F + beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (DivisibilityError, ShapeError, Tensor, concat, conv1d,
                     dropout, layer_norm, max_pool_blocks, no_grad, softmax)


def check_ranges(obj, rows, prefix=""):
    """Raise ValueError for the first (name, ok, bound) row whose check fails."""
    for name, ok, bound in rows:
        if not ok:
            raise ValueError(f"{prefix}{name} must be {bound}, got {getattr(obj, name)}")


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    `width_mult` scales every channel count (rounded to a multiple of
    `heads`); 1.0 is the full-size architecture, small values give
    desk-scale models with identical topology.
    """

    depth: int = 4                # K: number of down/up block pairs
    blocks: int = 32              # B: modulation blocks along time
    transformer_layers: int = 4
    heads: int = 8
    ffn_hidden: int = 2048
    dropout_rate: float = 0.5     # bottleneck only
    upscale: int = 2              # r
    patch_length: int = 8192      # T0
    width_mult: float = 1.0

    def validate(self):
        check_ranges(self, (("depth", self.depth >= 1, ">= 1"),
                            ("blocks", self.blocks >= 1, ">= 1"),
                            ("transformer_layers", self.transformer_layers >= 0, ">= 0"),
                            ("heads", self.heads >= 1, ">= 1"),
                            ("ffn_hidden", self.ffn_hidden >= 1, ">= 1"),
                            ("dropout_rate", 0.0 <= self.dropout_rate < 1.0, "in [0, 1)"),
                            ("width_mult", self.width_mult > 0.0, "> 0")))
        if self.patch_length % (2 ** (self.depth + 1)) != 0:
            raise DivisibilityError(
                f"patch length {self.patch_length} is not divisible by "
                f"2^{self.depth + 1} (depth {self.depth} plus bottleneck)")
        for k in range(1, self.depth + 2):
            level_len = self.patch_length // (2 ** k)
            if level_len % self.blocks != 0:
                raise DivisibilityError(
                    f"block count {self.blocks} does not divide the time axis "
                    f"{level_len} at level {k}")

    def channels(self, k):
        """Scaled filter count for downsampling level k (bottleneck at K+1);
        always a multiple of `heads`."""
        base = min(2 ** (6 + k), 512)
        scaled = int(round(base * self.width_mult / self.heads)) * self.heads
        return max(self.heads, scaled)

    def layer_table(self):
        """One row per conv level in build order:
        (name, out channels, filter length, in channels, AFiLM channels).

        Level k of K down blocks (the bottleneck is k = K+1) has filter
        length max(2^(7-k)+1, 9), after Kuleshov et al. 2017. Up block k
        mirrors level K-k+1 with twice its filters, which the subpixel
        shuffle halves back before the skip concatenation doubles them
        again. `final` has no AFiLM (None).
        """
        def length(k):
            return max(2 ** (7 - k) + 1, 9)

        K = self.depth
        rows = []
        cin = 1
        for k in range(1, K + 2):
            c = self.channels(k)
            rows.append((f"down{k}" if k <= K else "bottleneck", c, length(k), cin, c))
            cin = c
        for k in range(1, K + 1):
            c = self.channels(K - k + 1)
            rows.append((f"up{k}", 2 * c, length(K - k + 1), cin, c))
            cin = 2 * c
        rows.append(("final", 2, 9, cin, None))
        return rows


def subpixel_shuffle_1d(x, factor):
    """Rearrange (..., T, C) into (..., T*f, C/f): out[t*f + p, c] = x[t, c*f + p]."""
    *lead, T, C = x.data.shape
    if factor < 1 or C % factor != 0:
        raise DivisibilityError(
            f"shuffle factor {factor} does not divide channel count {C}")
    if factor == 1:
        return x
    return (x.reshape(*lead, T, C // factor, factor).swapaxes(-1, -2)
            .reshape(*lead, T * factor, C // factor))


def multi_head_attention(x, wq, bq, wk, wv, bv, wo, bo, heads):
    """Scaled dot-product self-attention over a (..., B, C) sequence.

    The key projection carries no bias: softmax is invariant to a shift
    that is common to every key, so such a bias would be a dead parameter.
    """
    *lead, B, C = x.data.shape
    if heads < 1 or C % heads != 0:
        raise ValueError(f"head count {heads} does not divide channels {C}")
    head_dim = C // heads
    q = (x @ wq + bq).reshape(*lead, B, heads, head_dim).swapaxes(-3, -2)
    k = (x @ wk).reshape(*lead, B, heads, head_dim).swapaxes(-3, -2)
    v = (x @ wv + bv).reshape(*lead, B, heads, head_dim).swapaxes(-3, -2)
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(head_dim))
    attn = softmax(scores, axis=-1)
    mixed = (attn @ v).swapaxes(-3, -2).reshape(*lead, B, C)
    return mixed @ wo + bo


# Per-layer tensors of a modulation generator, in creation order.
AFILM_LAYER_PARAMS = ("ln1_g", "ln1_b", "wq", "bq", "wk", "wv", "bv", "wo",
                      "bo", "ln2_g", "ln2_b", "w1", "b1", "w2", "b2")


@dataclass
class AfilmParams:
    """Weights of one modulation generator: a Transformer stack plus the
    affine head that emits (gamma, beta)."""

    layers: list      # one dict of Tensors per Transformer layer
    head_w: Tensor    # (C, 2C)
    head_b: Tensor    # (2C,)
    heads: int


def transformer_block(f_pool, params):
    """Run the generator over the pooled block sequence.

    Pre-norm sub-blocks: LN -> self-attention -> residual, then
    LN -> ReLU feed-forward -> residual; finally the C -> 2C affine head,
    split into (gamma, beta).
    """
    x = f_pool
    for lp in params.layers:
        h = layer_norm(x, lp["ln1_g"], lp["ln1_b"])
        x = x + multi_head_attention(h, lp["wq"], lp["bq"], lp["wk"],
                                     lp["wv"], lp["bv"], lp["wo"], lp["bo"],
                                     params.heads)
        h = layer_norm(x, lp["ln2_g"], lp["ln2_b"])
        x = x + ((h @ lp["w1"] + lp["b1"]).relu() @ lp["w2"] + lp["b2"])
    out = x @ params.head_w + params.head_b
    C = f_pool.data.shape[-1]
    return out[..., :C], out[..., C:]


def afilm_modulate(f, gamma, beta):
    """Per-block affine remap: block b of (..., T, C) F becomes gamma[b] * F + beta[b]."""
    *lead, T, C = f.data.shape
    B = gamma.data.shape[-2]
    if B < 1 or T % B != 0:
        raise DivisibilityError(f"block count {B} does not divide time axis {T}")
    if gamma.data.shape != (*lead, B, C) or beta.data.shape != (*lead, B, C):
        raise ShapeError(
            f"modulation shapes {gamma.data.shape}/{beta.data.shape} do not "
            f"match (..., B, C) = {(*lead, B, C)}")
    fb = f.reshape(*lead, B, T // B, C)
    out = fb * gamma.reshape(*lead, B, 1, C) + beta.reshape(*lead, B, 1, C)
    return out.reshape(*lead, T, C)


def afilm_layer(f, params, n_blocks):
    """Pool -> Transformer generator -> modulate."""
    pooled = max_pool_blocks(f, n_blocks)
    gamma, beta = transformer_block(pooled, params)
    return afilm_modulate(f, gamma, beta)


def param_shapes(config):
    """Every parameter's name and shape in creation order: per `layer_table`
    row, its conv, then its generator's layers and (gamma, beta) head."""
    d = config.ffn_hidden
    shapes = {}
    for name, cout, width, cin, C in config.layer_table():
        shapes[f"{name}.conv.w"] = (cout, width, cin)
        shapes[f"{name}.conv.b"] = (cout,)
        if C is not None:
            sizes = {"w1": (C, d), "b1": (d,), "w2": (d, C)}
            for i in range(config.transformer_layers):
                for key in AFILM_LAYER_PARAMS:
                    default = (C, C) if key[0] == "w" else (C,)
                    shapes[f"{name}.film.l{i}.{key}"] = sizes.get(key, default)
            shapes[f"{name}.film.head_w"] = (C, 2 * C)
            shapes[f"{name}.film.head_b"] = (2 * C,)
    return shapes


def _initial_value(rng, name, shape, dtype):
    """Glorot-uniform weights, drawn in float64 and cast; ones for layer-norm
    gains and the gamma half of each head bias; zeros for the rest."""
    key = name.rsplit(".", 1)[-1]
    if key[0] == "w" or key == "head_w":
        # fan_in + fan_out of (C_in, C_out) matrices and (C_out, width, C_in) kernels
        limit = np.sqrt(6.0 / ((shape[0] + shape[-1]) * math.prod(shape[1:-1])))
        value = rng.uniform(-limit, limit, size=shape).astype(dtype)
        # small heads start near identity modulation but pass gradient to the
        # generator stack; a small final conv makes the initial model near identity
        return 0.01 * value if key == "head_w" or name == "final.conv.w" else value
    value = np.zeros(shape, dtype=dtype)
    if key.endswith("_g"):
        value[:] = 1
    elif key == "head_b":
        value[:shape[0] // 2] = 1
    return value


class MissingTensorError(ValueError):
    """A checkpoint lacks one of the model's parameters."""


class Model:
    """Parameter container plus the forward pass.

    Each parameter, in `param_shapes` order, comes from one of two sources:
    the seeded initialisation, or `state[name]`, whose array is taken over
    without a copy when it has `dtype`. `state` gets the one check that
    `load_state` uses: a MissingTensorError or ShapeError naming the tensor.
    """

    def __init__(self, config, seed=0, dtype=np.float32, state=None):
        config.validate()
        self.config = config
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        self.params = {}
        for name, shape in param_shapes(config).items():
            value = (_initial_value(rng, name, shape, self.dtype) if state is None
                     else self._checked(state, name, shape))
            self.params[name] = Tensor(value, requires_grad=True)
        p = self.params
        self.films = {                # level name -> AfilmParams
            level: AfilmParams(
                layers=[{key: p[f"{level}.film.l{i}.{key}"] for key in AFILM_LAYER_PARAMS}
                        for i in range(config.transformer_layers)],
                head_w=p[f"{level}.film.head_w"], head_b=p[f"{level}.film.head_b"],
                heads=config.heads)
            for level, *_, C in config.layer_table() if C is not None}

    # ---- parameter access ------------------------------------------------

    def _checked(self, tensors, name, shape):
        if name not in tensors:
            raise MissingTensorError(f"checkpoint is missing tensor '{name}'")
        if tuple(tensors[name].shape) != tuple(shape):
            raise ShapeError(f"tensor '{name}' has shape {tuple(tensors[name].shape)} in the "
                             f"checkpoint but {tuple(shape)} in the model")
        return np.ascontiguousarray(tensors[name], dtype=self.dtype)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def state(self):
        return {name: p.data for name, p in self.params.items()}

    def load_state(self, tensors):
        for name, p in self.params.items():
            p.data = self._checked(tensors, name, p.data.shape)

    def force_identity_heads(self):
        """Pin every modulation head to gamma == 1, beta == 0 exactly, which
        reduces the network to the plain convolutional U-Net."""
        for film in self.films.values():
            film.head_w.data[:] = 0
            film.head_b.data[:] = np.repeat([1.0, 0.0], film.head_w.data.shape[0])

    # ---- forward ---------------------------------------------------------

    def forward(self, x, dropout_rng=None, use_afilm=True):
        """Map (..., T0, 1) cubic-upsampled patches, whose leading axes are
        a batch, to their enhanced versions. Passing `dropout_rng` turns on
        the bottleneck dropout, whose masks it draws."""
        cfg = self.config
        K = cfg.depth
        if x.data.shape[-2:] != (cfg.patch_length, 1):
            raise ShapeError(
                f"expected input shape (..., {cfg.patch_length}, 1), got {x.data.shape}")
        B = cfg.blocks

        def conv(level, h, stride):
            return conv1d(h, self.params[f"{level}.conv.w"], self.params[f"{level}.conv.b"], stride)

        skips = []
        h = x
        for k in range(1, K + 1):
            h = conv(f"down{k}", h, 2).relu()
            if use_afilm:
                h = afilm_layer(h, self.films[f"down{k}"], B)
            skips.append(h)

        h = conv("bottleneck", h, 2)
        if dropout_rng is not None:
            h = dropout(h, cfg.dropout_rate, dropout_rng)
        h = h.relu()
        if use_afilm:
            h = afilm_layer(h, self.films["bottleneck"], B)

        for k in range(1, K + 1):
            h = conv(f"up{k}", h, 1).relu()
            h = subpixel_shuffle_1d(h, 2)
            if use_afilm:
                h = afilm_layer(h, self.films[f"up{k}"], B)
            h = concat([h, skips[K - k]], axis=-1)

        h = conv("final", h, 1)
        h = subpixel_shuffle_1d(h, 2)
        return h + x


def count_parameters(model):
    """Total element count over all trainable tensors."""
    return sum(int(p.data.size) for p in model.params.values())


# Windows per `Model.forward` call in `run_patched`: a full-size window holds
# about 8-13 MiB of activations, so a call stays near 100 MiB at any length.
WINDOWS_PER_FORWARD = 8


def run_patched(model, samples):
    """Enhance a signal in back-to-back, zero-padded T0 windows, WINDOWS_PER_FORWARD
    per batch; each window edge stays a seam. Returns float64 of the input's length."""
    T0, n = model.config.patch_length, len(samples)
    windows = np.pad(np.asarray(samples, dtype=model.dtype), (0, -n % T0)).reshape(-1, T0, 1)
    out = np.empty(windows.shape, dtype=np.float64)
    with no_grad():
        for i in range(0, len(windows), WINDOWS_PER_FORWARD):
            group = slice(i, i + WINDOWS_PER_FORWARD)
            out[group] = model.forward(Tensor(windows[group])).data
    return out.reshape(-1)[:n]
