"""Per-layer tracing from outside the program.

The tracer replaces functions of the `afsr` modules with timed wrappers for
the length of a traced run and puts the originals back afterwards, so an
untraced run executes the program unchanged. Backward work is attributed by
wrapping the backward closure of each graph node created inside a traced
layer. Totals are kept in memory, per phase: "setup" (loading, building,
warm-up) and "timed" (the measured region).
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

import afsr.cli
import afsr.dsp
import afsr.metrics
import afsr.model
import afsr.tensor
import afsr.tensorio
import afsr.trainer
import afsr.wavio

Tensor = afsr.tensor.Tensor
LEVELS = (["down1", "down2", "down3", "down4", "bottleneck"]
          + ["up1", "up2", "up3", "up4", "final"])
ADAM_ARRAYS = 7  # Adam reads p, g, m, v and writes p, m, v


class Tracer:
    def __init__(self, rate):
        self.rate = rate             # sample rate of the audio the layers see
        self.phase = "setup"
        self.stats = {"setup": defaultdict(lambda: [0, 0.0, 0.0]),
                      "timed": defaultdict(lambda: [0, 0.0, 0.0])}
        self.level_of = {}           # id(parameter Tensor) -> level name
        self.node_tag = None         # span that owns newly created graph nodes
        self.step_arrays = {}        # id -> nbytes of buffers the graph holds
        self.param_data = set()      # ids of parameter buffers, not graph memory
        self.conv_gemm = {}          # level -> (m, k, n) of its im2col GEMM
        self._saved = []

    # ---- recording ------------------------------------------------------

    def add(self, name, seconds, work=0.0):
        s = self.stats[self.phase][name]
        s[0] += 1
        s[1] += seconds
        s[2] += work

    def get(self, name, phases=("timed",)):
        calls = sum(self.stats[p][name][0] for p in phases if name in self.stats[p])
        secs = sum(self.stats[p][name][1] for p in phases if name in self.stats[p])
        work = sum(self.stats[p][name][2] for p in phases if name in self.stats[p])
        return calls, secs, work

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def timed(self, name, work=None):
        """Decorator factory: time each call of `fn` under `name`; `work`
        maps (args, result) to the work done by that call."""
        def deco(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                self.add(name, time.perf_counter() - t0, work(args, out) if work else 0.0)
                return out
            return wrapper
        return deco

    def _wrap_backward(self, node, name, work):
        inner = node._backward

        def backward(g):
            t0 = time.perf_counter()
            inner(g)
            self.add(name, time.perf_counter() - t0, work)
        node._backward = backward

    # ---- installation ---------------------------------------------------

    def install(self):
        tr = self
        m = afsr.model

        orig_init = afsr.model.Model.__init__

        def model_init(model, *args, **kwargs):
            t0 = time.perf_counter()
            orig_init(model, *args, **kwargs)
            tr.add("model.build", time.perf_counter() - t0)
            for name, p in model.params.items():
                tr.level_of[id(p)] = name.split(".", 1)[0]
                tr.param_data.add(id(p.data))
        self._patch(afsr.model.Model, "__init__", model_init)

        orig_result = Tensor.__dict__["_result"].__func__

        def result(data, prev, backward):
            out = orig_result(data, prev, backward)
            if out._backward is not None:
                tr.add("tensor.graph_node", 0.0)
                held = [out.data] + [c.cell_contents for c in backward.__closure__ or ()]
                for a in held:
                    if not isinstance(a, np.ndarray):
                        continue
                    while isinstance(a.base, np.ndarray):  # count a view's buffer once
                        a = a.base
                    if id(a) not in tr.param_data:
                        tr.step_arrays[id(a)] = a.nbytes
                if tr.node_tag is not None:
                    tr._wrap_backward(out, tr.node_tag, 0.0)
            return out
        self._patch(Tensor, "_result", staticmethod(result))

        orig_backward = Tensor.backward

        def backward(loss):
            t0 = time.perf_counter()
            orig_backward(loss)
            tr.add("tensor.backward", time.perf_counter() - t0)
            tr.add("tensor.graph_bytes", 0.0, float(sum(tr.step_arrays.values())))
            tr.step_arrays.clear()
        self._patch(Tensor, "backward", backward)

        orig_conv = m.conv1d

        def conv1d(x, kernels, bias, stride=1):
            level = tr.level_of.get(id(kernels), "other")
            t0 = time.perf_counter()
            out = orig_conv(x, kernels, bias, stride)
            dt = time.perf_counter() - t0
            flops = 2.0 * out.data.shape[0] * kernels.data.size
            tr.conv_gemm[level] = (out.data.shape[0], kernels.data.size // kernels.data.shape[0],
                                   kernels.data.shape[0])
            tr.add(f"tensor.conv1d.{level}.fwd", dt, flops)
            if out._backward is not None:
                tr._wrap_backward(out, f"tensor.conv1d.{level}.bwd",
                                  flops * (kernels.requires_grad + x.requires_grad))
            return out
        self._patch(m, "conv1d", conv1d)

        orig_afilm = m.afilm_layer

        def afilm_layer(f, params, n_blocks):
            level = tr.level_of.get(id(params.head_w), "other")
            outer, tr.node_tag = tr.node_tag, f"model.afilm.{level}.bwd"
            t0 = time.perf_counter()
            try:
                out = orig_afilm(f, params, n_blocks)
            finally:
                tr.node_tag = outer
            tr.add(f"model.afilm.{level}.fwd", time.perf_counter() - t0)
            return out
        self._patch(m, "afilm_layer", afilm_layer)

        self._patch(m.Model, "forward", self.timed("model.forward")(m.Model.forward))
        patches = self.timed("model.run_patched",
                             lambda a, out: -(-len(a[1]) // a[0].config.patch_length))(m.run_patched)
        self._patch(m, "run_patched", patches)
        self._patch(afsr.cli, "run_patched", patches)
        self._patch(afsr.trainer, "batch_loss", self.timed("trainer.batch_loss")(afsr.trainer.batch_loss))
        self._patch(afsr.trainer, "adam_step", self.timed(
            "optim.adam_step",
            lambda a, out: ADAM_ARRAYS * float(sum(p.data.nbytes for p in a[0].values())))(afsr.trainer.adam_step))
        self._patch(afsr.trainer, "load_checkpoint",
                    self.timed("trainer.load_checkpoint")(afsr.trainer.load_checkpoint))
        self._patch(afsr.trainer, "restore_model",
                    self.timed("trainer.restore_model")(afsr.trainer.restore_model))
        file_bytes = lambda a, out: float(os.path.getsize(a[0]))  # noqa: E731
        self._patch(afsr.tensorio, "read_tensors",
                    self.timed("tensorio.read", file_bytes)(afsr.tensorio.read_tensors))
        self._patch(afsr.tensorio, "write_tensors",
                    self.timed("tensorio.write", file_bytes)(afsr.tensorio.write_tensors))

        signal_s = lambda a, out: len(a[0]) / a[0].sample_rate_hz  # noqa: E731
        self._patch(afsr.dsp, "downsample", self.timed("dsp.downsample", signal_s)(afsr.dsp.downsample))
        self._patch(afsr.dsp, "cubic_upsample",
                    self.timed("dsp.cubic_upsample", signal_s)(afsr.dsp.cubic_upsample))
        self._patch(afsr.dsp, "extract_patches",
                    self.timed("dsp.extract_patches", lambda a, out: len(a[1]) / a[1].sample_rate_hz)(
                        afsr.dsp.extract_patches))
        self._patch(afsr.metrics, "lsd",
                    self.timed("metrics.lsd", lambda a, out: len(a[1]) / tr.rate)(afsr.metrics.lsd))
        self._patch(afsr.metrics, "evaluate_corpus",
                    self.timed("metrics.evaluate_corpus")(afsr.metrics.evaluate_corpus))
        self._patch(afsr.metrics, "bicubic_baseline",
                    self.timed("metrics.bicubic_baseline")(afsr.metrics.bicubic_baseline))
        self._patch(afsr.wavio, "read_wav",
                    self.timed("wavio.read", lambda a, out: len(out[0]) / out[1])(afsr.wavio.read_wav))
        self._patch(afsr.wavio, "write_wav",
                    self.timed("wavio.write", lambda a, out: len(a[1]) / a[2])(afsr.wavio.write_wav))

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # ---- metrics --------------------------------------------------------

    def largest_conv_gemm(self):
        """(m, k, n) of the convolution with the most FLOPs per call."""
        return max(self.conv_gemm.values(), key=lambda s: s[0] * s[1] * s[2])

    def metrics(self, import_s, gemm_gflops):
        """Every per-layer metric; a layer the workload never called reads 0."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": float(value), "unit": unit}

        def ms_per_call(name, phases=("timed",)):
            calls, secs, _ = self.get(name, phases)
            return 1e3 * secs / calls if calls else 0.0

        def ratio(name, scale, phases=("timed",)):
            _, secs, work = self.get(name, phases)
            return scale * work / secs if secs else 0.0

        for level in LEVELS:
            fwd, bwd = f"tensor.conv1d.{level}.fwd", f"tensor.conv1d.{level}.bwd"
            put(f"{fwd}_ms", ms_per_call(fwd), "ms")
            put(f"{bwd}_ms", ms_per_call(bwd), "ms")
            _, fs, fw = self.get(fwd)
            _, bs, bw = self.get(bwd)
            put(f"tensor.conv1d.{level}.gflops", (fw + bw) / (fs + bs) / 1e9 if fs + bs else 0.0, "GFLOP/s")
        for level in LEVELS[:-1]:
            fwd, bwd = f"model.afilm.{level}.fwd", f"model.afilm.{level}.bwd"
            put(f"{fwd}_ms", ms_per_call(fwd), "ms")
            # many graph nodes per layer: backward time per forward call
            calls = self.get(fwd)[0]
            put(f"{bwd}_ms", 1e3 * self.get(bwd)[1] / calls if calls else 0.0, "ms")
        put("blas.gemm_gflops", gemm_gflops, "GFLOP/s")
        steps, _, _ = self.get("tensor.backward")
        put("tensor.backward_ms", ms_per_call("tensor.backward"), "ms")
        put("tensor.graph_nodes", self.get("tensor.graph_node")[0] / steps if steps else 0.0, "count")
        put("tensor.graph_mb", self.get("tensor.graph_bytes")[2] / 2**20 / steps if steps else 0.0, "MiB")
        put("trainer.batch_loss_ms", ms_per_call("trainer.batch_loss"), "ms")
        put("optim.adam_step_ms", ms_per_call("optim.adam_step"), "ms")
        put("optim.adam_gb_per_s", ratio("optim.adam_step", 1e-9), "GB/s")
        put("model.forward_ms", ms_per_call("model.forward"), "ms")
        _, secs, n_patches = self.get("model.run_patched")
        put("model.run_patched_ms_per_patch", 1e3 * secs / n_patches if n_patches else 0.0, "ms")
        both = ("setup", "timed")
        put("trainer.load_checkpoint_s", ms_per_call("trainer.load_checkpoint", both) / 1e3, "s")
        put("trainer.restore_model_s", ms_per_call("trainer.restore_model", both) / 1e3, "s")
        put("model.build_s", ms_per_call("model.build", both) / 1e3, "s")
        put("tensorio.read_mb_per_s", ratio("tensorio.read", 1 / 2**20, both), "MiB/s")
        put("tensorio.write_mb_per_s", ratio("tensorio.write", 1 / 2**20, both), "MiB/s")
        for name in ("dsp.downsample", "dsp.cubic_upsample", "dsp.extract_patches",
                     "metrics.lsd", "wavio.read", "wavio.write"):
            _, secs, audio = self.get(name)
            put(f"{name}_ms_per_audio_s", 1e3 * secs / audio if audio else 0.0, "ms/s")
        put("metrics.evaluate_corpus_s", ms_per_call("metrics.evaluate_corpus") / 1e3, "s")
        put("metrics.bicubic_baseline_s", ms_per_call("metrics.bicubic_baseline") / 1e3, "s")
        put("afsr.import_s", import_s, "s")
        return out

    def shares(self, wall_s):
        """(name, total seconds, share of the timed region) for every traced
        layer, largest first; nested layers overlap their parents."""
        rows = [(name, s[1], s[1] / wall_s) for name, s in self.stats["timed"].items() if s[1] > 0]
        return sorted(rows, key=lambda r: -r[1])


def gemm_gflops(m, k, n, min_seconds=0.3):
    """Median rate of a plain float32 (m, k) @ (k, n) GEMM, the FLOPs of
    the workload's largest convolution."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    a @ b
    times = []
    start = time.perf_counter()
    while len(times) < 3 or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * m * k * n / float(np.median(times)) / 1e9
