"""Command-line entry point: prepare / train / eval / infer / spectrogram.

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 numeric
abort. The environment variable AFSR_SEED overrides the configured seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__, archive, dsp, metrics, tensorio, trainer, wavio
from .model import Model, ModelConfig, count_parameters, run_patched
from .tensor import DivisibilityError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    """Bad key or unparsable value in a config file."""


class DataError(ValueError):
    """Input files missing, malformed, or inconsistent with the request."""


# Config-file keys are exactly the ModelConfig and TrainConfig fields, typed
# by their defaults; the patch archive sets upscale and patch_length.
ARCHIVE_KEYS = ("upscale", "patch_length")
CONFIG_TYPES = {f.name: type(f.default)
                for cls in (ModelConfig, trainer.TrainConfig)
                for f in dataclasses.fields(cls) if f.name not in ARCHIVE_KEYS}


def parse_config_file(path):
    """Flat `key = value` lines with # comments; unknown keys are errors."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in CONFIG_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            try:
                values[key] = CONFIG_TYPES[key](val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {exc}")
    return values


def resolve_configs(file_values, patch_length, scale):
    model_names = {f.name for f in dataclasses.fields(ModelConfig)}
    model_cfg = ModelConfig(patch_length=patch_length, upscale=scale,
                            **{k: v for k, v in file_values.items() if k in model_names})
    train_cfg = trainer.TrainConfig(
        **{k: v for k, v in file_values.items() if k not in model_names})
    if "AFSR_SEED" in os.environ:
        train_cfg.seed = int(os.environ["AFSR_SEED"])
    return model_cfg, train_cfg


def write_manifest(out_dir, command, seed, config, inputs, outputs):
    """Record the resolved run before any long work starts; paths are kept
    relative so reruns in different roots produce identical bytes."""
    manifest = {
        "tool": "afsr",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": sorted(inputs),
        "outputs": sorted(outputs),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _list_wavs(directory):
    if not os.path.isdir(directory):
        raise DataError(f"input directory does not exist: {directory}")
    return sorted(f for f in os.listdir(directory) if f.lower().endswith(".wav"))


# ---- commands ------------------------------------------------------------


def cmd_prepare(args):
    names = _list_wavs(args.input)
    stride = args.stride if args.stride else args.patch // 2
    os.makedirs(args.output, exist_ok=True)
    write_manifest(args.output, "prepare", 0,
                   {"scale": args.scale, "patch": args.patch, "stride": stride},
                   names, ["patches.afsp"])
    sets = []
    for i, name in enumerate(names):
        path = os.path.join(args.input, name)
        try:
            samples, rate = wavio.read_wav(path)
            sig = dsp.AudioSignal(samples, rate)
            lo = dsp.downsample(sig, args.scale)
            lo_up = dsp.cubic_upsample(lo, args.scale)
            hi = dsp.AudioSignal(sig.samples[:len(lo_up)], rate)
            sets.append(dsp.extract_patches(lo_up, hi, length=args.patch,
                                            stride=stride, file_index=i,
                                            scale=args.scale))
        except (ValueError, OSError, wavio.wave.Error) as exc:
            print(f"prepare: skipping {name}: {exc}", file=sys.stderr)
    if not any(len(s) for s in sets):
        print("prepare: no patches produced (empty or unusable input)",
              file=sys.stderr)
        rate = 16000
        patches = archive.empty_patch_set(args.patch, rate, args.scale)
    else:
        patches = dsp.merge_patch_sets(sets)
    out_path = os.path.join(args.output, "patches.afsp")
    archive.write_patch_archive(out_path, patches)
    print(f"prepare: wrote {len(patches)} patch pairs to {out_path}")
    return EXIT_OK


def cmd_train(args):
    if not os.path.exists(args.data):
        raise DataError(f"patch archive not found: {args.data}")
    patches = archive.read_patch_archive(args.data)
    if len(patches) == 0:
        raise DataError(f"patch archive is empty: {args.data}")
    file_values = parse_config_file(args.config) if args.config else {}
    model_cfg, train_cfg = resolve_configs(file_values, patches.patch_length,
                                           patches.scale)
    if args.epochs is not None:
        train_cfg.epochs = args.epochs
    if args.steps is not None:
        train_cfg.max_steps = args.steps
    if args.seed is not None:
        train_cfg.seed = args.seed
    os.makedirs(args.output, exist_ok=True)
    write_manifest(args.output, "train", train_cfg.seed,
                   {"model": dataclasses.asdict(model_cfg),
                    "train": dataclasses.asdict(train_cfg)},
                   [os.path.basename(args.data)],
                   ["checkpoint.afsr", "loss.txt"])
    model = Model(model_cfg, seed=train_cfg.seed)
    print(f"train: model has {count_parameters(model)} parameters")
    loss_lines = []

    def log(epoch, loss):
        loss_lines.append(f"{epoch},{loss:.8e}")
        print(f"train: epoch {epoch} mean loss {loss:.6e}")

    ckpt_path = os.path.join(args.output, "checkpoint.afsr")
    result = trainer.train(model, patches, train_cfg,
                           checkpoint_path=ckpt_path, log=log)
    trainer.save_checkpoint(ckpt_path, model, result.state,
                            train_cfg.epochs, train_cfg.seed)
    with open(os.path.join(args.output, "loss.txt"), "w") as fh:
        fh.write("epoch,mean_loss\n")
        for line in loss_lines:
            fh.write(line + "\n")
    print(f"train: wrote {ckpt_path}")
    return EXIT_OK


def _load_model(path):
    if not os.path.exists(path):
        raise DataError(f"checkpoint not found: {path}")
    ckpt = trainer.load_checkpoint(path)
    return trainer.restore_model(ckpt), ckpt


def cmd_eval(args):
    model, ckpt = _load_model(args.ckpt)
    if model.config.upscale != args.scale:
        raise DataError(
            f"checkpoint was trained for scale {model.config.upscale}, "
            f"refusing to evaluate at scale {args.scale}")
    names = _list_wavs(args.data)
    files = [os.path.join(args.data, n) for n in names]
    dataset = os.path.basename(os.path.normpath(args.data))
    frame, hop = args.frame, args.hop
    model_rep = metrics.evaluate_corpus(model, files, args.scale,
                                        dataset=dataset, frame=frame, hop=hop)
    base_rep = metrics.bicubic_baseline(files, args.scale, dataset=dataset,
                                        frame=frame, hop=hop)
    for path, reason in model_rep.skipped:
        print(f"eval: skipped {path}: {reason}", file=sys.stderr)
    csv = metrics.report_csv([model_rep, base_rep])
    sys.stdout.write(csv)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
        print(f"eval: wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_infer(args):
    model, ckpt = _load_model(args.ckpt)
    if model.config.upscale != args.scale:
        raise DataError(
            f"checkpoint was trained for scale {model.config.upscale}, "
            f"refusing to infer at scale {args.scale}")
    if not os.path.exists(args.input):
        raise DataError(f"input WAV not found: {args.input}")
    samples, rate = wavio.read_wav(args.input)
    sig = dsp.AudioSignal(samples, rate)
    lo_up = dsp.cubic_upsample(sig, args.scale)
    recon = run_patched(model, lo_up.samples)
    clipped = wavio.write_wav(args.output, recon, rate * args.scale)
    if clipped:
        print(f"infer: hard-limited {clipped} samples to [-1, 1)", file=sys.stderr)
    print(f"infer: wrote {len(recon)} samples at {rate * args.scale} Hz "
          f"to {args.output}")
    return EXIT_OK


def write_pgm(path, matrix):
    """8-bit grayscale PGM, rows top-to-bottom = frames, min..max scaled."""
    lo = float(matrix.min())
    hi = float(matrix.max())
    span = hi - lo if hi > lo else 1.0
    img = np.round((matrix - lo) / span * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def cmd_spectrogram(args):
    if not os.path.exists(args.input):
        raise DataError(f"input WAV not found: {args.input}")
    samples, rate = wavio.read_wav(args.input)
    try:
        mat = dsp.stft_log_power(samples, frame=args.frame, hop=args.hop)
    except ValueError as exc:
        raise DataError(str(exc))
    if args.output.lower().endswith(".pgm"):
        write_pgm(args.output, mat)
    else:
        with open(args.output, "w") as fh:
            for row in mat:
                fh.write(",".join(f"{v:.6f}" for v in row) + "\n")
    print(f"spectrogram: wrote {mat.shape[0]} frames x {mat.shape[1]} bins "
          f"to {args.output}")
    return EXIT_OK


# ---- argument parsing ----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser():
    parser = _Parser(prog="afsr", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build a training patch archive")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--patch", type=int, default=8192)
    p.add_argument("--stride", type=int, default=0,
                   help="window stride (default: half the patch length)")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model on a patch archive")
    p.add_argument("--data", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a WAV directory")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--frame", type=int, default=2048)
    p.add_argument("--hop", type=int, default=512)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="enhance a low-resolution WAV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--scale", type=int, required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("spectrogram", help="export a log-power spectrogram")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--frame", type=int, default=2048)
    p.add_argument("--hop", type=int, default=512)
    p.set_defaults(func=cmd_spectrogram)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    except ConfigError as exc:
        print(f"afsr: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except trainer.TrainingDiverged as exc:
        print(f"afsr: numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, tensorio.ContainerFormatError,
            tensorio.ContainerVersionError, DivisibilityError,
            ValueError, OSError) as exc:
        print(f"afsr: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
