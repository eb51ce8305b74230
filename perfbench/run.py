#!/usr/bin/env python3
"""qcorr benchmark: one workload per run, through qcorr's public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qcorr is imported from its `src/`.
With --trace 0 the run times one pass over the workload's seeded inputs,
then repeats them round robin for about S seconds, and reports the
end-to-end metrics of BENCHMARK.json.  With --trace 1 it runs the microbenchmarks,
then pairs of plain and traced passes, and reports the per-layer metrics.
Every pass goes through the correctness gate.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
SPEC_PATH = bootstrap.ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_version() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def manifest(qcorr, wl, args) -> dict:
    import numpy
    import scipy

    return {
        "backend": getattr(qcorr, "BACKEND", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version(),
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in bootstrap.THREAD_VARS},
        "commit": git_commit(),
        "seconds": args.seconds,
        "trace": args.trace,
        **wl.manifest(),
    }


def setup_seconds(name: str, seed: int, reference) -> list[float]:
    """Calibrated cold set-up times, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        reference.sample()
        index = len(reference.samples) - 1
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            cwd=bootstrap.ROOT, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True)
        reference.sample()
        raw = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append(reference.calibrate(raw, index))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, args, gate):
    """Timed units, round robin, for about args.seconds; (metrics, info)."""
    import calibration
    import workloads

    reference = calibration.Reference()
    setup = setup_seconds(wl.name, wl.seed, reference)
    t0 = time.perf_counter()
    first = workloads.run_pass(wl, gate, reference)
    # Per input: (seconds, reference index) of each repeat.
    runs = [[unit] for unit in zip(first.unit_s, first.ref_index)]
    done = len(runs)
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / done / 2 > args.seconds:  # stop nearest to S
            break
        k = done % len(runs)
        seconds, digest, _, ref_index = workloads.timed_unit(
            wl, wl.inputs[k], gate, reference)
        gate.check(digest == first.digests[k],
                   f"repeat {done}: {wl.inputs[k].state_id} digest changed")
        runs[k].append((seconds, ref_index))
        done += 1
    wall = time.perf_counter() - t0
    reference.sample()  # closes the last unit's bracket
    # Per input, the median of its calibrated repeats (see calibration.py).
    per_input = [statistics.median(reference.calibrate(t, i) for t, i in rs)
                 for rs in runs]
    raw = [statistics.median(t for t, _ in rs) for rs in runs]
    metrics = {
        "setup_s": statistics.median(setup),
        "unit_s.p50": statistics.median(per_input),
        "units_per_s": len(per_input) / sum(per_input),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"units": done, "wall_s": wall,
            "raw_unit_s.p50": statistics.median(raw),
            "raw_units_per_s": done / wall,
            "reference_s": statistics.median(reference.samples),
            "unit_s": per_input, "setup_samples": setup,
            "digest": first.digest, **wl.quality(first.outputs)}
    return metrics, info


def traced(wl, args, gate):
    """Microbench, then plain/traced pass pairs; returns (metrics, info)."""
    import calibration
    import microbench
    import tracing
    import workloads

    metrics = microbench.run()
    tracer = tracing.Tracer()
    reference = calibration.Reference()
    plains, traces, layers = [], [], []
    first = None
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.npz"
    t0 = time.perf_counter()
    while True:
        # Alternate which pass goes first, so host drift favours neither.
        plain_first = len(layers) % 2 == 0
        if plain_first:
            plain = workloads.run_pass(wl, gate, reference)
        tracer.install()
        try:
            seen = workloads.run_pass(wl, gate, reference)
        finally:
            tracer.uninstall()
        if not plain_first:
            plain = workloads.run_pass(wl, gate, reference)
        if first is None:
            first = plain
        else:
            workloads.check_repeat(first, plain, gate, f"pass {len(layers)}")
        workloads.check_repeat(plain, seen, gate, "traced pass")
        plains.append(plain)
        traces.append(seen)
        layers.append(tracing.layer_metrics(tracer.summary(), tracer.absent,
                                            tracer.restarts))
        if len(layers) == 1:
            tracer.save(spans_path)
        tracer.clear()
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(layers) / 2 > args.seconds:  # nearest to S
            break
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        metrics[name] = None if None in values else statistics.median(values)
    reference.sample()  # closes the last unit's bracket

    def calibrated_wall(passes):
        return statistics.median(
            sum(map(reference.calibrate, p.unit_s, p.ref_index)) for p in passes)

    plain_wall = calibrated_wall(plains)
    metrics["trace.overhead_ratio"] = calibrated_wall(traces) / plain_wall
    evals = metrics["optimize.maximize.evals"]
    metrics["evals_per_s"] = None if evals is None else evals / plain_wall
    quality = wl.quality(first.outputs)
    metrics["bound_bits"] = quality.get("bound_bits", 0.0)
    metrics["residual_sum"] = quality.get("residual_sum", 0.0)
    info = {"pairs": len(layers), "digest": first.digest,
            "traced_digest": seen.digest, "absent": sorted(tracer.absent),
            "spans": str(spans_path.relative_to(bootstrap.ROOT))}
    return metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.pin_threads()
    try:
        qcorr = bootstrap.import_qcorr()
        spec = json.loads(SPEC_PATH.read_text())
    except (bootstrap.CheckoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    print("manifest " + json.dumps(manifest(qcorr, wl, args), sort_keys=True))
    wl.warmup()

    gate = workloads.Gate()
    measure = traced if args.trace else end_to_end
    values, info = measure(wl, args, gate)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(values) != set(units):
        print(f"error: computed metrics {sorted(set(values) ^ set(units))} "
              f"disagree with {SPEC_PATH.name}", file=sys.stderr)
        return 2

    for key, value in info.items():
        print(f"info {key} {json.dumps(value)}")
    for name in units:
        shown = "absent" if values[name] is None else f"{values[name]:.6g}"
        print(f"metric {name} {shown} {units[name]}")
    print(f"gate attempted {gate.attempted} failed {gate.failed} "
          f"fail_ratio {gate.fail_ratio:.6g}")
    for failure in gate.failures:
        print(f"gate FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
