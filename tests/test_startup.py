"""What the `afsr` CLI loads at start-up, checked in a fresh interpreter.

The other test modules import scipy into the pytest process, so each check
here runs `afsr.cli.main` in its own `python` and reports the scipy modules
that process ended up holding.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from afsr import archive, wavio
from afsr.dsp import PatchSet
from afsr.model import Model, ModelConfig
from afsr.optim import AdamState
from afsr.trainer import save_checkpoint

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# argv[1] is "import" (import the CLI, run nothing) or a JSON list for main()
PROBE = """\
import json, sys
from afsr.cli import main
code = main(json.loads(sys.argv[1])) if sys.argv[1] != "import" else None
print(json.dumps({"exit": code,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

TINY = ModelConfig(depth=2, blocks=4, transformer_layers=1, heads=2, ffn_hidden=8,
                   dropout_rate=0.0, patch_length=256, width_mult=1.0 / 32.0)


def run_fresh(argv):
    """Run the CLI with `argv` (None: import only) in a new interpreter; returns
    (exit code, set of loaded scipy module names)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    arg = "import" if argv is None else json.dumps(argv)
    proc = subprocess.run([sys.executable, "-c", PROBE, arg], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["exit"], set(report["scipy"])


@pytest.fixture
def wav(tmp_path):
    path = str(tmp_path / "in.wav")
    t = np.arange(8000) / 8000
    wavio.write_wav(path, 0.4 * np.sin(2 * np.pi * 440 * t), 8000)
    return path


def test_importing_the_cli_loads_no_scipy():
    assert run_fresh(None) == (None, set())


def test_version_loads_no_scipy():
    assert run_fresh(["--version"]) == (0, set())


def test_train_loads_no_scipy(tmp_path, rng):
    patches = PatchSet(lo=rng.normal(size=(4, 256)).astype(np.float32),
                       hi=rng.normal(size=(4, 256)).astype(np.float32),
                       file_index=np.zeros(4, dtype=np.int64),
                       offset=np.arange(4) * 256, patch_length=256,
                       sample_rate_hz=16000, scale=2)
    arch = str(tmp_path / "p.afsp")
    archive.write_patch_archive(arch, [patches], 256, 2)
    cfg = tmp_path / "m.cfg"
    cfg.write_text("depth = 2\nblocks = 4\ntransformer_layers = 1\nheads = 2\n"
                   "ffn_hidden = 8\nwidth_mult = 0.03125\nbatch_size = 2\n")
    out = tmp_path / "run"
    assert run_fresh(["train", "--data", arch, "--out", str(out), "--config", str(cfg),
                      "--steps", "1", "--seed", "1"]) == (0, set())
    assert (out / "checkpoint.afsr").exists()


def test_spectrogram_loads_no_scipy(tmp_path, wav):
    assert run_fresh(["spectrogram", "--in", wav, "--out", str(tmp_path / "s.csv"),
                      "--frame", "256", "--hop", "128"]) == (0, set())


def test_infer_loads_the_spline_but_not_the_filters(tmp_path, wav):
    ckpt = str(tmp_path / "ck.afsr")
    save_checkpoint(ckpt, Model(TINY), AdamState(), 0, 0)
    code, loaded = run_fresh(["infer", "--ckpt", ckpt, "--in", wav,
                              "--out", str(tmp_path / "o.wav"), "--scale", "2"])
    assert code == 0
    assert "scipy.interpolate" in loaded
    assert "scipy.signal" not in loaded
