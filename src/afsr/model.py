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

from dataclasses import dataclass, field

import numpy as np

from .tensor import (DivisibilityError, ShapeError, Tensor, concat, conv1d,
                     dropout, layer_norm, max_pool_blocks, no_grad, softmax)


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
        ranges = (("depth", self.depth >= 1, ">= 1"),
                  ("blocks", self.blocks >= 1, ">= 1"),
                  ("transformer_layers", self.transformer_layers >= 0, ">= 0"),
                  ("heads", self.heads >= 1, ">= 1"),
                  ("ffn_hidden", self.ffn_hidden >= 1, ">= 1"),
                  ("dropout_rate", 0.0 <= self.dropout_rate < 1.0, "in [0, 1)"),
                  ("width_mult", self.width_mult > 0.0, "> 0"))
        for name, ok, bound in ranges:
            if not ok:
                raise ValueError(f"{name} must be {bound}, got {getattr(self, name)}")
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
    """Rearrange (T, C) into (T*factor, C/factor): out[t*f + p, c] = x[t, c*f + p]."""
    T, C = x.data.shape
    if factor < 1 or C % factor != 0:
        raise DivisibilityError(
            f"shuffle factor {factor} does not divide channel count {C}")
    if factor == 1:
        return x
    return x.reshape(T, C // factor, factor).transpose(0, 2, 1).reshape(T * factor, C // factor)


def multi_head_attention(x, wq, bq, wk, wv, bv, wo, bo, heads):
    """Scaled dot-product self-attention over a (B, C) sequence.

    The key projection carries no bias: softmax is invariant to a shift
    that is common to every key, so such a bias would be a dead parameter.
    """
    B, C = x.data.shape
    if heads < 1 or C % heads != 0:
        raise ValueError(f"head count {heads} does not divide channels {C}")
    head_dim = C // heads
    q = (x @ wq + bq).reshape(B, heads, head_dim).transpose(1, 0, 2)
    k = (x @ wk).reshape(B, heads, head_dim).transpose(1, 0, 2)
    v = (x @ wv + bv).reshape(B, heads, head_dim).transpose(1, 0, 2)
    scores = (q @ k.transpose(0, 2, 1)) * (1.0 / np.sqrt(head_dim))
    attn = softmax(scores, axis=-1)
    mixed = (attn @ v).transpose(1, 0, 2).reshape(B, C)
    return mixed @ wo + bo


# Per-layer tensors of a modulation generator, in creation order: weights
# (w*) are Glorot-initialised, layer-norm gains (*_g) ones, the rest zeros.
AFILM_LAYER_PARAMS = ("ln1_g", "ln1_b", "wq", "bq", "wk", "wv", "bv", "wo",
                      "bo", "ln2_g", "ln2_b", "w1", "b1", "w2", "b2")


@dataclass
class AfilmParams:
    """Weights of one modulation generator: a Transformer stack plus the
    affine head that emits (gamma, beta)."""

    layers: list = field(default_factory=list)  # list of dicts of Tensors
    head_w: Tensor = None                       # (C, 2C)
    head_b: Tensor = None                       # (2C,)
    heads: int = 1


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
    C = f_pool.data.shape[1]
    return out[:, :C], out[:, C:]


def afilm_modulate(f, gamma, beta):
    """Per-block affine remap: block b of F becomes gamma[b] * F + beta[b]."""
    T, C = f.data.shape
    B = gamma.data.shape[0]
    if B < 1 or T % B != 0:
        raise DivisibilityError(f"block count {B} does not divide time axis {T}")
    if gamma.data.shape != (B, C) or beta.data.shape != (B, C):
        raise ShapeError(
            f"modulation shapes {gamma.data.shape}/{beta.data.shape} do not "
            f"match (B, C) = ({B}, {C})")
    fb = f.reshape(B, T // B, C)
    out = fb * gamma.reshape(B, 1, C) + beta.reshape(B, 1, C)
    return out.reshape(T, C)


def afilm_layer(f, params, n_blocks):
    """Pool -> Transformer generator -> modulate."""
    pooled = max_pool_blocks(f, n_blocks)
    gamma, beta = transformer_block(pooled, params)
    return afilm_modulate(f, gamma, beta)


def _glorot(rng, shape, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Model:
    """Parameter container plus the forward pass."""

    def __init__(self, config, seed=0, dtype=np.float32):
        config.validate()
        self.config = config
        self.dtype = np.dtype(dtype)
        self.params = {}
        self._build(np.random.default_rng(seed))

    # ---- construction ----------------------------------------------------

    def _param(self, name, value):
        t = Tensor(np.asarray(value, dtype=self.dtype), requires_grad=True)
        self.params[name] = t
        return t

    def _add_conv(self, rng, name, cout, width, cin):
        self._param(f"{name}.w", _glorot(rng, (cout, width, cin),
                                         width * cin, width * cout, self.dtype))
        self._param(f"{name}.b", np.zeros(cout, dtype=self.dtype))

    def _add_afilm(self, rng, prefix, C):
        d = self.config.ffn_hidden
        shapes = {"w1": (C, d), "b1": (d,), "w2": (d, C)}
        for i in range(self.config.transformer_layers):
            for key in AFILM_LAYER_PARAMS:
                if key[0] == "w":
                    shape = shapes.get(key, (C, C))
                    value = _glorot(rng, shape, *shape, self.dtype)
                else:
                    value = np.full(shapes.get(key, (C,)), float(key.endswith("_g")))
                self._param(f"{prefix}.l{i}.{key}", value)
        # small weights + (1...1, 0...0) bias start near identity modulation
        # while still letting gradient reach the generator stack
        self._param(f"{prefix}.head_w",
                    0.01 * _glorot(rng, (C, 2 * C), C, 2 * C, self.dtype))
        self._param(f"{prefix}.head_b",
                    np.concatenate([np.ones(C), np.zeros(C)]).astype(self.dtype))

    def _build(self, rng):
        for name, cout, width, cin, film_channels in self.config.layer_table():
            self._add_conv(rng, f"{name}.conv", cout, width, cin)
            if film_channels is not None:
                self._add_afilm(rng, f"{name}.film", film_channels)
        # start the correction branch near zero so the initial model is
        # approximately the identity on its (already upsampled) input
        self.params["final.conv.w"].data *= 0.01

    # ---- parameter access ------------------------------------------------

    def parameters(self):
        return self.params

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def state(self):
        return {name: p.data for name, p in self.params.items()}

    def load_state(self, tensors):
        for name, p in self.params.items():
            if name not in tensors:
                raise KeyError(f"checkpoint is missing tensor '{name}'")
            arr = tensors[name]
            if tuple(arr.shape) != tuple(p.data.shape):
                raise ShapeError(
                    f"tensor '{name}' has shape {tuple(arr.shape)} in the "
                    f"checkpoint but {tuple(p.data.shape)} in the model")
            p.data = np.ascontiguousarray(arr, dtype=self.dtype)

    def force_identity_heads(self):
        """Pin every modulation head to gamma == 1, beta == 0 exactly, which
        reduces the network to the plain convolutional U-Net."""
        C_by_prefix = {name.rsplit(".head_w", 1)[0]: p.data.shape[0]
                       for name, p in self.params.items() if name.endswith(".head_w")}
        for prefix, C in C_by_prefix.items():
            self.params[f"{prefix}.head_w"].data[:] = 0
            self.params[f"{prefix}.head_b"].data[:] = np.concatenate(
                [np.ones(C), np.zeros(C)]).astype(self.dtype)

    def _film(self, prefix):
        layers = [{key: self.params[f"{prefix}.l{i}.{key}"] for key in AFILM_LAYER_PARAMS}
                  for i in range(self.config.transformer_layers)]
        return AfilmParams(layers=layers,
                           head_w=self.params[f"{prefix}.head_w"],
                           head_b=self.params[f"{prefix}.head_b"],
                           heads=self.config.heads)

    # ---- forward ---------------------------------------------------------

    def forward(self, x, train=False, dropout_rng=None, use_afilm=True):
        """Map a (T0, 1) cubic-upsampled patch to its enhanced version."""
        cfg = self.config
        K = cfg.depth
        if x.data.shape != (cfg.patch_length, 1):
            raise ShapeError(
                f"expected input shape ({cfg.patch_length}, 1), got {x.data.shape}")
        B = cfg.blocks

        skips = []
        h = x
        for k in range(1, K + 1):
            h = conv1d(h, self.params[f"down{k}.conv.w"],
                       self.params[f"down{k}.conv.b"], stride=2).relu()
            if use_afilm:
                h = afilm_layer(h, self._film(f"down{k}.film"), B)
            skips.append(h)

        h = conv1d(h, self.params["bottleneck.conv.w"],
                   self.params["bottleneck.conv.b"], stride=2)
        if train and cfg.dropout_rate > 0.0:
            if dropout_rng is None:
                raise ValueError("training forward pass needs a dropout RNG")
            h = dropout(h, cfg.dropout_rate, dropout_rng)
        h = h.relu()
        if use_afilm:
            h = afilm_layer(h, self._film("bottleneck.film"), B)

        for k in range(1, K + 1):
            h = conv1d(h, self.params[f"up{k}.conv.w"],
                       self.params[f"up{k}.conv.b"], stride=1).relu()
            h = subpixel_shuffle_1d(h, 2)
            if use_afilm:
                h = afilm_layer(h, self._film(f"up{k}.film"), B)
            h = concat([h, skips[K - k]], axis=1)

        h = conv1d(h, self.params["final.conv.w"], self.params["final.conv.b"],
                   stride=1)
        h = subpixel_shuffle_1d(h, 2)
        return h + x


def count_parameters(model):
    """Total element count over all trainable tensors."""
    params = model.parameters() if hasattr(model, "parameters") else model
    return sum(int(p.data.size) for p in params.values())


def run_patched(model, samples):
    """Enhance an arbitrary-length signal patch by patch.

    The signal is cut into back-to-back, non-overlapping windows of T0
    samples; the last one is zero-padded to T0 and its output trimmed, so
    the result has the input's length. Every window edge is a seam: the
    model sees no context across it.
    """
    T0 = model.config.patch_length
    samples = np.asarray(samples)
    n = len(samples)
    out = np.empty(n, dtype=np.float64)
    with no_grad():
        for start in range(0, n, T0):
            chunk = samples[start:start + T0]
            if len(chunk) < T0:
                chunk = np.concatenate([chunk, np.zeros(T0 - len(chunk))])
            x = Tensor(np.asarray(chunk, dtype=model.dtype).reshape(T0, 1))
            y = model.forward(x).data.reshape(-1)
            out[start:start + T0] = y[:n - start]
    return out
