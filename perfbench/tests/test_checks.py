"""Each benchmark check passes on the program's real output and fails on a
deliberately corrupted copy of it.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import afsr.archive  # noqa: E402
import afsr.optim  # noqa: E402
import afsr.trainer  # noqa: E402
from afsr.model import Model, ModelConfig  # noqa: E402

from perfbench import checks, inputs, reference, workloads  # noqa: E402
from perfbench.checks import CheckFailed  # noqa: E402

TINY = ModelConfig(**workloads.TINY)


@pytest.fixture(scope="module")
def tiny():
    model = Model(TINY, seed=3)
    # a trained-looking correction branch, so the check sees more than x + 0
    model.params["final.conv.w"].data *= 100
    lo, hi = inputs.training_patches(7, 2, TINY.patch_length)
    return model, lo, hi


def test_forward_matches_reference_and_catches_a_flipped_sample(tiny):
    model, lo, _ = tiny
    got = workloads.forward_patch(model, lo[0])
    ref = reference.forward(model.state(), TINY, lo[0])
    checks.check_forward(got, ref, lo[0])
    bad = got.copy()
    bad[100] = -bad[100]
    with pytest.raises(CheckFailed):
        checks.check_forward(bad, ref, lo[0])


def test_reference_catches_a_changed_weight(tiny):
    model, lo, _ = tiny
    weights = dict(model.state())
    weights["up1.film.head_b"] = weights["up1.film.head_b"] * 1.01
    with pytest.raises(CheckFailed):
        checks.check_forward(workloads.forward_patch(model, lo[0]),
                             reference.forward(weights, TINY, lo[0]), lo[0])


def test_wav_check_allows_pcm16_rounding_only(tiny):
    model, lo, _ = tiny
    ref = reference.forward(model.state(), TINY, lo[0])
    written = inputs.pcm16(workloads.forward_patch(model, lo[0]))
    checks.check_wav(written, ref, lo[0])
    written[5] = -written[5]
    with pytest.raises(CheckFailed):
        checks.check_wav(written, ref, lo[0])


def test_adam_first_step_and_a_scaled_update(tiny):
    _, lo, hi = tiny
    model = Model(TINY, seed=3)
    loss = afsr.trainer.batch_loss(model, lo, hi)
    loss.backward()
    grads = {k: p.grad for k, p in model.params.items()}
    before = {k: p.data.copy() for k, p in model.params.items()}
    afsr.optim.adam_step(model.params, grads, afsr.optim.AdamState(learning_rate=1e-3))
    after = model.state()
    checks.check_adam_first_step(before, after, grads, 1e-3, 1e-8)
    name = max(grads, key=lambda k: np.max(np.abs(grads[k])))
    i = int(np.argmax(np.abs(grads[name])))
    scaled = dict(after)
    scaled[name] = after[name].copy()
    scaled[name].flat[i] = before[name].flat[i] + 2 * (after[name].flat[i] - before[name].flat[i])
    with pytest.raises(CheckFailed):
        checks.check_adam_first_step(before, scaled, grads, 1e-3, 1e-8)


def test_directional_derivative_and_a_scaled_gradient(tiny):
    model, lo, hi = tiny
    fd, gd = workloads.directional_derivative(model, lo, hi, seed=1)
    checks.check_directional_derivative(fd, gd)
    with pytest.raises(CheckFailed):
        checks.check_directional_derivative(fd, 1.001 * gd)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Two short WAVs through `afsr prepare` and `afsr eval`, with the tiny
    checkpoint and with its `final.conv` zeroed."""
    work = tmp_path_factory.mktemp("corpus")
    wavs = str(work / "wavs")
    paths = inputs.write_corpus(wavs, seed=4, n_files=2, seconds=1.5)
    ckpt, zero = str(work / "tiny.afsr"), str(work / "zero.afsr")
    inputs.write_checkpoint(ckpt, TINY, seed=2)
    model = afsr.trainer.restore_model(afsr.trainer.load_checkpoint(ckpt))
    model.params["final.conv.w"].data *= 100  # make the model rows differ from bicubic
    afsr.trainer.save_checkpoint(ckpt, model, afsr.optim.AdamState(), 0, 2)
    model.params["final.conv.w"].data[:] = 0
    model.params["final.conv.b"].data[:] = 0
    afsr.trainer.save_checkpoint(zero, model, afsr.optim.AdamState(), 0, 2)
    assert workloads.prepare_and_eval(wavs, ckpt, str(work / "out")) == 0
    assert workloads.prepare_and_eval(wavs, zero, str(work / "zero-out")) == 0

    def rows(name):
        with open(work / name / "scores.csv") as fh:
            return checks.parse_eval_csv(fh.read())
    patches = afsr.archive.read_patch_archive(str(work / "out" / "data" / "patches.afsp"))
    sources = [inputs.read_wav(p)[0] for p in paths]
    return paths, sources, patches, rows("out"), rows("zero-out")


def test_prepared_patches_and_a_shifted_offset(corpus):
    _, sources, patches, _, _ = corpus
    args = (sources, workloads.PATCH, workloads.STRIDE, inputs.SCALE)
    checks.check_prepared_patches(patches, *args)
    patches.offset[1] += 1
    try:
        with pytest.raises(CheckFailed):
            checks.check_prepared_patches(patches, *args)
    finally:
        patches.offset[1] -= 1
    hi = patches.hi.copy()
    patches.hi[1] = np.roll(patches.hi[1], 1)
    try:
        with pytest.raises(CheckFailed):
            checks.check_prepared_patches(patches, *args)
    finally:
        patches.hi[:] = hi


def test_bicubic_rows_match_scipy_and_a_changed_value(corpus):
    paths, sources, _, rows, _ = corpus
    recomputed = {os.path.basename(p): checks.bicubic_scores(s, workloads.FRAME, workloads.HOP)
                  for p, s in zip(paths, sources)}
    checks.check_bicubic_rows(rows, recomputed)
    key = ("bicubic", os.path.basename(paths[0]))
    bad = dict(rows)
    bad[key] = (rows[key][0], rows[key][1] + 1e-5)
    with pytest.raises(CheckFailed):
        checks.check_bicubic_rows(bad, recomputed)


def test_zeroed_final_conv_gives_bicubic_rows(corpus):
    _, _, _, rows, zero_rows = corpus
    checks.check_model_rows_equal_bicubic(zero_rows)
    with pytest.raises(CheckFailed):
        checks.check_model_rows_equal_bicubic(rows)
