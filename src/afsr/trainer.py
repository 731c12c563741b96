"""Training loop: waveform MSE, Adam, checkpointing, seeded shuffling.

All randomness (patch order, dropout masks) is derived from
(seed, epoch, batch index), so an interrupted run resumed from a
checkpoint replays the exact same step sequence.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tensorio
from .model import Model, ModelConfig, check_ranges
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
        check_ranges(self, (("epochs", self.epochs >= 0, ">= 0"),
                            ("batch_size", self.batch_size >= 1, ">= 1"),
                            ("learning_rate", self.learning_rate > 0, "> 0"),
                            ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
                            ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
                            ("eps", self.eps > 0, "> 0"),
                            ("seed", self.seed >= 0, ">= 0"),
                            ("max_steps", self.max_steps >= 0, ">= 0"),
                            ("checkpoint_every", self.checkpoint_every >= 0, ">= 0")))


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
    epochs_completed: int = 0
    state: AdamState = None


def batch_loss(model, lo_batch, hi_batch, train=False, dropout_rng=None):
    """Mean patch MSE over one (N, T0) batch, from one forward pass over
    the stacked (N, T0, 1) input."""
    x = Tensor(np.asarray(lo_batch, dtype=model.dtype)[..., None])
    y = Tensor(np.asarray(hi_batch, dtype=model.dtype)[..., None])
    return mse_loss(model.forward(x, train=train, dropout_rng=dropout_rng), y)


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
    # hyperparameters always come from the config, so a resumed run replays
    # arithmetic bit-exactly; checkpoints do not store them
    state.learning_rate = cfg.learning_rate
    state.beta1 = cfg.beta1
    state.beta2 = cfg.beta2
    state.eps = cfg.eps
    result = TrainResult(steps=state.t, epochs_completed=start_epoch, state=state)
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
            # free the last step's gradients before the new graph is built;
            # after the final step they stay on the parameters
            model.zero_grad()
            loss = batch_loss(model, patches.lo[idx], patches.hi[idx],
                              train=True, dropout_rng=drop_rng)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {bi}")
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
        if stop:
            break
        result.epochs_completed = epoch + 1
        if checkpoint_path is not None and cfg.checkpoint_every and \
                (epoch + 1) % cfg.checkpoint_every == 0:
            save_checkpoint(checkpoint_path, model, state, epoch + 1, cfg.seed)
    return result


# ---- checkpointing -------------------------------------------------------


@dataclass
class Checkpoint:
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
    tensors.update({CFG_PREFIX + k: v for k, v in asdict(model.config).items()})
    tensors.update({META_PREFIX + "t": state.t, META_PREFIX + "epoch": epoch,
                    META_PREFIX + "seed": seed})
    tensorio.write_tensors(path, tensors, magic=tensorio.CHECKPOINT_MAGIC)


def load_checkpoint(path):
    """Read a checkpoint file into a Checkpoint record. `meta` holds the
    counters `t`, `epoch` and `seed` as ints and any other `__meta__` entry,
    such as an older file's Adam hyperparameters, as a float."""
    tensors = tensorio.read_tensors(path, magic=tensorio.CHECKPOINT_MAGIC)
    try:  # each field's default gives its type
        config = ModelConfig(**{
            f.name: tensorio.integer(tensors, CFG_PREFIX + f.name, 0) if type(f.default) is int
            else float(tensorio.entry(tensors, CFG_PREFIX + f.name, ()))
            for f in fields(ModelConfig)})
    except tensorio.ContainerFormatError as exc:
        raise tensorio.ContainerFormatError(f"checkpoint model config: {exc}") from None
    meta = {name[len(META_PREFIX):]: float(tensorio.entry(tensors, name, ()))
            for name in tensors if name.startswith(META_PREFIX)}
    meta.update({key: tensorio.integer(tensors, META_PREFIX + key, 0)
                 for key in ("t", "epoch", "seed")})
    params, opt_m, opt_v = {}, {}, {}
    for name, arr in tensors.items():
        if name.startswith(OPT_M_PREFIX):
            opt_m[name[len(OPT_M_PREFIX):]] = arr
        elif name.startswith(OPT_V_PREFIX):
            opt_v[name[len(OPT_V_PREFIX):]] = arr
        elif not name.startswith((META_PREFIX, CFG_PREFIX)):
            params[name] = arr
    return Checkpoint(config=config, params=params,
                      opt_m=opt_m, opt_v=opt_v, meta=meta)


def restore_model(ckpt):
    """The checkpoint's Model: it takes over the parameter arrays, drawing and
    allocating none, and names any missing or misshapen tensor."""
    return Model(ckpt.config, state=ckpt.params)


def restore_state(ckpt):
    """Rebuild the optimizer's step count and moments; `train` takes the
    hyperparameters from its TrainConfig. The state takes over the
    checkpoint's moment arrays, without a copy, and updates them in place."""
    return AdamState(t=ckpt.meta["t"], m=dict(ckpt.opt_m), v=dict(ckpt.opt_v))
