"""The four benchmark workloads.

Each workload makes its inputs from the seed, sets the program up (import,
model build or checkpoint load, warm-up), runs whole operations for the
requested seconds, reads its peak RSS, and only then runs its correctness
checks. The program is driven through its public functions and the `afsr`
CLI entry point only; functions are looked up on their modules at call
time so that a traced run sees them through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import afsr.archive
import afsr.cli
import afsr.dsp
import afsr.model
import afsr.optim
import afsr.trainer
import afsr.wavio
from afsr.model import Model, ModelConfig
from afsr.tensor import Tensor, no_grad

from . import checks, inputs, reference

# criterion-7 config of the acceptance gate: the desk-scale training run
DESK = dict(depth=2, blocks=16, transformer_layers=1, heads=2, ffn_hidden=64,
            dropout_rate=0.0, upscale=2, patch_length=2048, width_mult=0.25)
# criterion-8 config: the tiny model of the byte-identical pipeline rerun
TINY = dict(depth=2, blocks=4, transformer_layers=1, heads=2, ffn_hidden=8,
            dropout_rate=0.0, upscale=2, patch_length=2048, width_mult=1 / 32)


@dataclass
class Context:
    seed: int
    seconds: float
    work: str                     # scratch directory inside the checkout
    import_s: float
    tracer: object = None         # trace.Tracer in a traced run


@dataclass
class Outcome:
    attempted: int
    failed: int
    audio_per_op: float           # seconds of audio through one timed operation
    op_s: list                    # wall seconds of each timed operation
    setup_s: float
    peak_rss_mb: float
    errors: list = field(default_factory=list)

    @property
    def audio_s_per_s(self):
        """Median over operations, so that a short stall of the machine
        moves one sample instead of the run's figure."""
        return self.audio_per_op / float(np.median(self.op_s))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_for(seconds, op):
    """Call `op` until `seconds` have passed; returns each call's duration."""
    durations = []
    while sum(durations) < seconds:
        t0 = time.perf_counter()
        op()
        durations.append(time.perf_counter() - t0)
    return durations


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def median_setup(repeats, make):
    """Run `make` `repeats` times, keeping only the last result alive, and
    return (median seconds, last result)."""
    times, out = [], None
    for _ in range(repeats):
        out = None
        dt, out = timed(make)
        times.append(dt)
    return float(np.median(times)), out


def run_check(errors, fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        errors.append(str(exc))


def begin_setup(ctx):
    """Inputs are made; from here on the program's work is measured."""
    if ctx.tracer is not None:
        ctx.tracer.install()


def begin_timed(ctx):
    if ctx.tracer is not None:
        ctx.tracer.phase = "timed"


def end_timed(ctx):
    """Read the peak RSS and take the tracer out before any check runs."""
    rss = peak_rss_mb()
    if ctx.tracer is not None:
        ctx.tracer.uninstall()
    return rss


def forward_patch(model, patch):
    with no_grad():
        x = Tensor(np.asarray(patch, dtype=model.dtype).reshape(-1, 1))
        return model.forward(x).data.reshape(-1)


# ---- training -------------------------------------------------------------


def train_workload(ctx, cfg_kwargs, n_patches, batch, lr, warmup, builds):
    cfg = ModelConfig(**cfg_kwargs)
    T0 = cfg.patch_length
    lo, hi = inputs.training_patches(ctx.seed, n_patches, T0)
    patches = afsr.dsp.PatchSet(lo=lo, hi=hi, file_index=np.arange(n_patches),
                                offset=np.zeros(n_patches, dtype=np.int64),
                                patch_length=T0, sample_rate_hz=inputs.RATE, scale=inputs.SCALE)
    tcfg = afsr.trainer.TrainConfig(batch_size=batch, learning_rate=lr, seed=ctx.seed)
    state = afsr.optim.AdamState()
    begin_setup(ctx)

    def step():
        # one call per step, so the loop can stop on the clock; epoch t
        # draws its batch from its own seeded permutation
        tcfg.epochs = tcfg.max_steps = state.t + 1
        afsr.trainer.train(model, patches, tcfg, state=state, start_epoch=state.t)

    build_s, model = median_setup(builds, lambda: Model(cfg, seed=ctx.seed))
    warm_s, _ = timed(lambda: [step() for _ in range(warmup)])
    begin_timed(ctx)
    op_s = run_for(ctx.seconds, step)
    out = Outcome(attempted=len(op_s), failed=0, audio_per_op=batch * T0 / inputs.RATE,
                  op_s=op_s, setup_s=ctx.import_s + build_s + warm_s,
                  peak_rss_mb=end_timed(ctx))
    # the optimizer's moments are not checked; freeing them keeps the
    # checks' float64 and Adam copies below the measured peak
    state = None

    probe = lo[ctx.seed % n_patches]
    run_check(out.errors, checks.check_forward, forward_patch(model, probe),
              reference.forward(model.state(), cfg, probe), probe)
    grads = {name: p.grad for name, p in model.params.items()}
    before = {name: p.data.copy() for name, p in model.params.items()}
    afsr.optim.adam_step(model.params, grads, afsr.optim.AdamState(learning_rate=lr))
    run_check(out.errors, checks.check_adam_first_step, before, model.state(), grads,
              lr, tcfg.eps)
    return out, model, (lo, hi)


def directional_derivative(model, lo, hi, seed, h=1e-6):
    """(central difference, <grad, d>) of the float64 batch loss of `model`'s
    weights along a seeded random unit direction d."""
    m64 = Model(model.config, seed=0, dtype=np.float64)
    m64.load_state({k: v.astype(np.float64) for k, v in model.state().items()})
    loss = afsr.trainer.batch_loss(m64, lo, hi)
    m64.zero_grad()
    loss.backward()
    rng = np.random.default_rng((seed, 5))
    d = {k: rng.standard_normal(p.data.shape) for k, p in m64.params.items()}
    norm = np.sqrt(sum(float(np.sum(v * v)) for v in d.values()))
    grad_dot_d = sum(float(np.sum(p.grad * d[k])) for k, p in m64.params.items()) / norm
    base = {k: p.data.copy() for k, p in m64.params.items()}

    def loss_at(t):
        for k, p in m64.params.items():
            p.data = base[k] + (t / norm) * d[k]
        with no_grad():
            return float(afsr.trainer.batch_loss(m64, lo, hi).data.reshape(-1)[0])

    return (loss_at(h) - loss_at(-h)) / (2 * h), grad_dot_d


def train_desk(ctx):
    out, model, (lo, hi) = train_workload(ctx, DESK, n_patches=64, batch=16, lr=1e-3,
                                          warmup=3, builds=3)
    fd, gd = directional_derivative(model, lo[:2], hi[:2], ctx.seed)
    run_check(out.errors, checks.check_directional_derivative, fd, gd)
    return out


def train_full(ctx):
    out, _, _ = train_workload(ctx, {}, n_patches=4, batch=1, lr=3e-4, warmup=1, builds=2)
    return out


# ---- inference ------------------------------------------------------------

INFER_PATCHES = 2            # output patches per enhanced WAV


def infer_full(ctx):
    cfg = inputs.full_config()
    T0 = cfg.patch_length
    ckpt = os.path.join(ctx.work, "full.afsr")
    lo_wav = os.path.join(ctx.work, "lo.wav")
    hi_wav = os.path.join(ctx.work, "hi.wav")
    writer = subprocess.run([sys.executable, os.path.join(os.path.dirname(__file__), "inputs.py"),
                             "full-checkpoint", ckpt, str(ctx.seed)])
    if writer.returncode != 0:
        free_mb = shutil.disk_usage(ctx.work).free / 2**20
        raise RuntimeError(f"the checkpoint writer exited with code {writer.returncode} "
                           f"({free_mb:.0f} MiB free in {ctx.work})")
    inputs.write_low_rate_wav(lo_wav, ctx.seed, INFER_PATCHES * T0 // inputs.SCALE)
    begin_setup(ctx)

    def load():
        return afsr.trainer.restore_model(afsr.trainer.load_checkpoint(ckpt))

    load_s, model = median_setup(2, load)
    warm_s, _ = timed(lambda: afsr.model.run_patched(model, np.zeros(T0)))

    def enhance():
        # the steps of `afsr infer` after the checkpoint is loaded
        samples, rate = afsr.wavio.read_wav(lo_wav)
        up = afsr.dsp.cubic_upsample(afsr.dsp.AudioSignal(samples, rate), inputs.SCALE)
        recon = afsr.model.run_patched(model, up.samples)
        afsr.wavio.write_wav(hi_wav, recon, rate * inputs.SCALE)

    begin_timed(ctx)
    op_s = run_for(ctx.seconds, enhance)
    out = Outcome(attempted=len(op_s) * INFER_PATCHES, failed=0,
                  audio_per_op=INFER_PATCHES * T0 / inputs.RATE, op_s=op_s,
                  setup_s=ctx.import_s + load_s + warm_s, peak_rss_mb=end_timed(ctx))

    written, rate = inputs.read_wav(hi_wav)
    up = inputs.cubic_upsample(inputs.read_wav(lo_wav)[0])
    if rate != inputs.RATE or len(written) != len(up):
        out.errors.append(f"infer wrote {len(written)} samples at {rate} Hz, "
                          f"expected {len(up)} at {inputs.RATE}")
        return out
    k = ctx.seed % INFER_PATCHES
    patch = up[k * T0:(k + 1) * T0]
    ref = reference.forward(model.state(), cfg, patch)
    run_check(out.errors, checks.check_forward, forward_patch(model, patch), ref, patch)
    run_check(out.errors, checks.check_wav, written[k * T0:(k + 1) * T0], ref, patch)
    return out


# ---- corpus through the CLI -----------------------------------------------

CORPUS_FILES = 6
CORPUS_SECONDS = 20.0
PATCH, STRIDE = 2048, 1024
FRAME, HOP = 2048, 512


def cli(*argv):
    """`afsr` in-process, with its standard output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return afsr.cli.main([str(a) for a in argv])


def prepare_and_eval(corpus, ckpt, out_dir):
    """Returns the number of the two commands that failed."""
    rc1 = cli("prepare", "--in", corpus, "--out", os.path.join(out_dir, "data"), "--scale",
              inputs.SCALE, "--patch", PATCH, "--stride", STRIDE)
    rc2 = cli("eval", "--ckpt", ckpt, "--data", corpus, "--scale", inputs.SCALE,
              "--out", os.path.join(out_dir, "scores.csv"), "--frame", FRAME, "--hop", HOP)
    return (rc1 != 0) + (rc2 != 0)


def corpus_cli(ctx):
    corpus = os.path.join(ctx.work, "corpus")
    warm = os.path.join(ctx.work, "warm")
    paths = inputs.write_corpus(corpus, ctx.seed, CORPUS_FILES, CORPUS_SECONDS)
    inputs.write_corpus(warm, ctx.seed + 1, 2, 2.0)
    ckpt = os.path.join(ctx.work, "tiny.afsr")
    inputs.write_checkpoint(ckpt, ModelConfig(**TINY), ctx.seed)
    out_dir = os.path.join(ctx.work, "out")
    begin_setup(ctx)

    warm_s, _ = median_setup(3, lambda: prepare_and_eval(warm, ckpt, out_dir))
    failed = 0

    def one_round():
        nonlocal failed
        failed += CORPUS_FILES * prepare_and_eval(corpus, ckpt, out_dir)

    begin_timed(ctx)
    op_s = run_for(ctx.seconds, one_round)
    out = Outcome(attempted=len(op_s) * 2 * CORPUS_FILES, failed=failed,
                  audio_per_op=CORPUS_FILES * CORPUS_SECONDS, op_s=op_s,
                  setup_s=ctx.import_s + warm_s, peak_rss_mb=end_timed(ctx))

    sources = [inputs.read_wav(p)[0] for p in paths]
    patches = afsr.archive.read_patch_archive(os.path.join(out_dir, "data", "patches.afsp"))
    run_check(out.errors, checks.check_prepared_patches, patches, sources, PATCH, STRIDE,
              inputs.SCALE)
    with open(os.path.join(out_dir, "scores.csv")) as fh:
        rows = checks.parse_eval_csv(fh.read())
    recomputed = {os.path.basename(p): checks.bicubic_scores(s, FRAME, HOP)
                  for p, s in zip(paths, sources)}
    run_check(out.errors, checks.check_bicubic_rows, rows, recomputed)

    model = afsr.trainer.restore_model(afsr.trainer.load_checkpoint(ckpt))
    model.params["final.conv.w"].data[:] = 0
    model.params["final.conv.b"].data[:] = 0
    zero = os.path.join(ctx.work, "zero.afsr")
    afsr.trainer.save_checkpoint(zero, model, afsr.optim.AdamState(), 0, ctx.seed)
    zero_out = os.path.join(ctx.work, "zero-out")
    if prepare_and_eval(warm, zero, zero_out):
        out.errors.append("eval with the zeroed checkpoint failed")
    else:
        with open(os.path.join(zero_out, "scores.csv")) as fh:
            run_check(out.errors, checks.check_model_rows_equal_bicubic,
                      checks.parse_eval_csv(fh.read()))
    return out


WORKLOADS = {
    "train-desk": train_desk,
    "train-full": train_full,
    "infer-full": infer_full,
    "corpus-cli": corpus_cli,
}


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
