"""Benchmark of the afsr package: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload from the root of a checkout and prints, as its last line,
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
`--workload all` runs every workload, each in a fresh process, one at a
time. The program is imported from `src/` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NAMES = ("train-desk", "train-full", "infer-full", "corpus-cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args):
    """Each workload in its own process; prints each result line and a
    combined one with the metrics prefixed by workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 2
        for line in lines[:-1]:
            print(f"{name:11s} {line}")
        result = json.loads(lines[-1])
        for key in ("attempted", "failed"):
            combined[key] += result[key]
        combined["correct"] &= result["correct"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
            print(f"{name:11s} {metric:40s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "afsr", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    # the program is imported first, before numpy or scipy, so that its
    # import cost is measured in full
    t0 = time.perf_counter()
    import afsr.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    if not os.path.abspath(afsr.cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: afsr was imported from {afsr.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from perfbench import inputs, workloads
    tracer = None
    if args.trace:
        from perfbench import trace
        tracer = trace.Tracer(inputs.RATE)
    work = workloads.fresh_dir(os.path.join(ROOT, "perfbench", "_work", args.workload))
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds, work=work,
                            import_s=import_s, tracer=tracer)
    try:
        out = workloads.WORKLOADS[args.workload](ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    throughput = out.audio_s_per_s
    print("perfbench: seconds per operation: " + " ".join(f"{t:.3f}" for t in out.op_s),
          file=sys.stderr)
    if tracer is None:
        metrics = {
            "audio_s_per_s": {"value": throughput, "unit": "s/s"},
            "peak_rss_mb": {"value": out.peak_rss_mb, "unit": "MiB"},
            "setup_s": {"value": out.setup_s, "unit": "s"},
        }
    else:
        metrics = tracer.metrics(import_s, trace.gemm_gflops(*tracer.largest_conv_gemm()))
        metrics["bench.traced_audio_s_per_s"] = {"value": throughput, "unit": "s/s"}
        metrics["bench.traced_setup_s"] = {"value": out.setup_s, "unit": "s"}
        for name, secs, share in tracer.shares(sum(out.op_s)):
            print(f"# {name:36s} {secs:10.3f} s {100 * share:6.1f} %")
    for err in out.errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": not out.errors, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if not out.errors else 1


if __name__ == "__main__":
    sys.exit(main())
