"""Training loop: waveform MSE, Adam, checkpointing, seeded shuffling.

All randomness (patch order, dropout masks) is derived from
(seed, epoch, batch index), so an interrupted run resumed from a
checkpoint replays the exact same step sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import tensorio
from .model import Model, ModelConfig, count_parameters
from .optim import AdamState, adam_step
from .tensor import ShapeError, Tensor

OPT_M_PREFIX = "__opt_m__."
OPT_V_PREFIX = "__opt_v__."
META_PREFIX = "__meta__."
CFG_PREFIX = "__cfg__."


class TrainingDiverged(RuntimeError):
    """The loss became non-finite; carries the offending batch index."""


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 16
    learning_rate: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    max_steps: int = 0            # 0 = no cap
    checkpoint_every: int = 0     # epochs between checkpoints; 0 = only final

    def validate(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be > 0, got {self.learning_rate}")


def mse_loss(pred, target):
    """Mean squared difference of two equally shaped tensors."""
    if pred.data.shape != target.data.shape:
        raise ShapeError(
            f"prediction shape {pred.data.shape} != target shape {target.data.shape}")
    diff = pred - target
    return (diff * diff).mean()


@dataclass
class TrainResult:
    epoch_losses: list = field(default_factory=list)
    step_losses: list = field(default_factory=list)
    steps: int = 0
    state: AdamState = None


def batch_loss(model, lo_batch, hi_batch, train=False, dropout_rng=None):
    """Mean patch MSE over one batch; builds one graph across the batch."""
    total = None
    for lo, hi in zip(lo_batch, hi_batch):
        x = Tensor(np.asarray(lo, dtype=model.dtype).reshape(-1, 1))
        y = Tensor(np.asarray(hi, dtype=model.dtype).reshape(-1, 1))
        pred = model.forward(x, train=train, dropout_rng=dropout_rng)
        loss = mse_loss(pred, y)
        total = loss if total is None else total + loss
    return total * (1.0 / len(lo_batch))


def train(model, patches, cfg, state=None, start_epoch=0,
          checkpoint_path=None, log=None):
    """Optimize `model` on a PatchSet; returns the loss curve and state.

    Deterministic given cfg.seed: patch order and dropout masks depend only
    on (seed, epoch, batch index).
    """
    cfg.validate()
    n = len(patches)
    if n == 0:
        raise ValueError("empty patch set")
    if patches.patch_length != model.config.patch_length:
        raise ShapeError(
            f"patch length {patches.patch_length} != model patch length "
            f"{model.config.patch_length}")
    if state is None:
        state = AdamState()
    # hyperparameters always come from the config, not the checkpoint, so a
    # resumed run replays arithmetic bit-exactly (the checkpoint stores them
    # only as float32 documentation)
    state.learning_rate = cfg.learning_rate
    state.beta1 = cfg.beta1
    state.beta2 = cfg.beta2
    state.eps = cfg.eps
    result = TrainResult(state=state)
    result.steps = state.t
    bs = cfg.batch_size
    for epoch in range(start_epoch, cfg.epochs):
        rng = np.random.default_rng((cfg.seed, epoch))
        order = rng.permutation(n)
        epoch_losses = []
        stop = False
        for bi, start in enumerate(range(0, n, bs)):
            if cfg.max_steps and result.steps >= cfg.max_steps:
                stop = True
                break
            idx = order[start:start + bs]
            drop_rng = np.random.default_rng((cfg.seed, epoch, bi))
            loss = batch_loss(model, patches.lo[idx], patches.hi[idx],
                              train=True, dropout_rng=drop_rng)
            value = float(loss.data.reshape(-1)[0])
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {bi}")
            model.zero_grad()
            loss.backward()
            grads = {name: p.grad for name, p in model.params.items()}
            adam_step(model.params, grads, state)
            epoch_losses.append(value)
            result.step_losses.append(value)
            result.steps += 1
        if epoch_losses:
            result.epoch_losses.append(float(np.mean(epoch_losses)))
            if log is not None:
                log(epoch, result.epoch_losses[-1])
        if checkpoint_path is not None and cfg.checkpoint_every and \
                (epoch + 1) % cfg.checkpoint_every == 0:
            save_checkpoint(checkpoint_path, model, state, epoch + 1, cfg.seed)
        if stop:
            break
    return result


# ---- checkpointing -------------------------------------------------------


@dataclass
class Checkpoint:
    version: int
    config: ModelConfig
    params: dict
    opt_m: dict
    opt_v: dict
    meta: dict


def save_checkpoint(path, model, state, epoch, seed):
    """Persist parameters, optimizer state, and run counters."""
    tensors = dict(model.state())
    for name in model.state():
        if name in state.m:
            tensors[OPT_M_PREFIX + name] = state.m[name]
            tensors[OPT_V_PREFIX + name] = state.v[name]
    tensors.update({CFG_PREFIX + f.name: np.float32(getattr(model.config, f.name))
                    for f in fields(ModelConfig)})
    tensors[META_PREFIX + "t"] = np.float32(state.t)
    tensors[META_PREFIX + "epoch"] = np.float32(epoch)
    tensors[META_PREFIX + "seed"] = np.float32(seed)
    tensors[META_PREFIX + "lr"] = np.float32(state.learning_rate)
    tensors[META_PREFIX + "beta1"] = np.float32(state.beta1)
    tensors[META_PREFIX + "beta2"] = np.float32(state.beta2)
    tensors[META_PREFIX + "eps"] = np.float32(state.eps)
    tensorio.write_tensors(path, tensors, magic=tensorio.CHECKPOINT_MAGIC)


def load_checkpoint(path):
    """Read a checkpoint file into a Checkpoint record."""
    version, tensors = tensorio.read_tensors(path, magic=tensorio.CHECKPOINT_MAGIC)
    params, opt_m, opt_v, meta, cfg_vals = {}, {}, {}, {}, {}
    for name, arr in tensors.items():
        if name.startswith(OPT_M_PREFIX):
            opt_m[name[len(OPT_M_PREFIX):]] = arr
        elif name.startswith(OPT_V_PREFIX):
            opt_v[name[len(OPT_V_PREFIX):]] = arr
        elif name.startswith(META_PREFIX):
            meta[name[len(META_PREFIX):]] = float(arr)
        elif name.startswith(CFG_PREFIX):
            cfg_vals[name[len(CFG_PREFIX):]] = float(arr)
        else:
            params[name] = arr
    model_fields = fields(ModelConfig)
    missing = [f.name for f in model_fields if f.name not in cfg_vals]
    if missing:
        raise tensorio.ContainerFormatError(
            f"checkpoint lacks config entries: {missing}")
    # every value is stored as float32; each field's default gives its type
    config = ModelConfig(**{f.name: type(f.default)(cfg_vals[f.name])
                            for f in model_fields})
    return Checkpoint(version=version, config=config, params=params,
                      opt_m=opt_m, opt_v=opt_v, meta=meta)


def restore_model(ckpt, dtype=np.float32):
    """Build a Model from a checkpoint; shape disagreements are reported
    with the tensor name."""
    model = Model(ckpt.config, seed=0, dtype=dtype)
    model.load_state(ckpt.params)
    return model


def restore_state(ckpt):
    """Rebuild the optimizer state saved alongside the parameters."""
    state = AdamState(learning_rate=ckpt.meta.get("lr", 3e-4),
                      beta1=ckpt.meta.get("beta1", 0.9),
                      beta2=ckpt.meta.get("beta2", 0.999),
                      eps=ckpt.meta.get("eps", 1e-8),
                      t=int(ckpt.meta.get("t", 0)))
    state.m = {k: v.copy() for k, v in ckpt.opt_m.items()}
    state.v = {k: v.copy() for k, v in ckpt.opt_v.items()}
    return state
