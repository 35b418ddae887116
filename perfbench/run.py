"""patchcount benchmark: one workload per invocation, result as a JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1`` times
half the run untraced and half with spans around the program's public
functions, and reports the per-layer metrics. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it name every metric, with its unit, under its per-workload name
(`step_ms_p50`, `image_ms_p50`, `ckpt_save_s`, `fail_frac`, ...). A fuller
record (machine, samples, checks) is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["toy-train", "paper-train", "paper-eval"]
# BLAS threads are pinned before numpy loads, at most the usable cores.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
# A run is flagged when other processes used more than this share of the
# machine's CPU time while it ran.
LOADED_FRAC = 0.10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "tiny"], default="full",
                   help="'tiny' shrinks the paper config, for the smoke test")
    p.add_argument("--out-dir", default=os.path.join(ROOT, ".perfbench_out"))
    # internal: the paper-eval fixture is written by a child process
    p.add_argument("--fixture", choices=WORKLOADS, help=argparse.SUPPRESS)
    p.add_argument("--work-dir", help=argparse.SUPPRESS)
    p.add_argument("--cache-dir", help=argparse.SUPPRESS)
    p.add_argument("--manifest", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.fixture is None and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def cpu_sample():
    """(machine busy seconds, cpus, own cpu seconds) or None without /proc/stat."""
    t = os.times()
    own = t.user + t.system + t.children_user + t.children_system
    try:
        with open("/proc/stat") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    fields = [int(x) for x in lines[0].split()[1:]]
    # user nice system idle iowait irq softirq steal ...
    busy = sum(fields[:3]) + sum(fields[5:8])
    cpus = sum(1 for line in lines if line.startswith("cpu") and line[3:4].isdigit())
    return busy / os.sysconf("SC_CLK_TCK"), cpus, own


def git_commit():
    import subprocess
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_info(workloads_mod):
    import platform
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "src_sha256": workloads_mod.source_digest(os.path.join(ROOT, "src", "patchcount")),
    }


def tail_percentile(samples):
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, or None."""
    import numpy as np
    for pct in (99.9, 99.0, 90.0):
        beyond = len(samples) * (1 - pct / 100)
        if beyond >= 10:
            return pct, float(np.percentile(samples, pct)), int(beyond)
    return None


def end_to_end(run):
    """Uniform metrics (BENCHMARK.json) and per-workload named ones."""
    wl = run.wl
    per_item = wl.batch_size if wl.kind == "train" else 1
    img_per_s = len(run.item_ms) * per_item / run.timed_wall_s
    p50 = statistics.median(run.item_ms)
    uniform = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "img_per_s": (img_per_s, "1/s"),
        "latency_ms_p50": (p50, "ms"),
        "peak_rss_mb": (run.extra["peak_rss_mb"], "MB"),
    }
    item = "step" if wl.kind == "train" else "image"
    named = {"setup_s": uniform["setup_s"],
             "setup_first_s": (run.setup_s[0], "s"),
             f"{wl.kind}_img_per_s": uniform["img_per_s"],
             f"{item}_ms_p50": uniform["latency_ms_p50"]}
    tail = tail_percentile(run.item_ms)
    if tail is not None:
        named[f"{item}_ms_tail"] = (tail[1], f"ms p{tail[0]:g} n={len(run.item_ms)} "
                                             f"beyond={tail[2]}")
    if "ckpt_save_s" in run.extra:
        named["ckpt_save_s"] = (run.extra["ckpt_save_s"], "s")
    named["peak_rss_mb"] = uniform["peak_rss_mb"]
    named["fail_frac"] = (run.failed / run.attempted, "ratio")
    return uniform, named, tail


def per_layer(run, workloads_mod, tracing_mod):
    root = "bench.step" if run.wl.kind == "train" else "bench.image"
    report, n_items = run.tracer.report(root)
    out = {}
    for mod, names in tracing_mod.TRACED.items():
        for fname in names:
            key = f"{mod}.{fname}"
            out[f"{key}.ms"] = (report.get(f"{key}.ms", 0.0), "ms")
            out[f"{key}.self_ms"] = (report.get(f"{key}.self_ms", 0.0), "ms")
            out[f"{key}.calls"] = (report.get(f"{key}.calls", 0.0), "count")
    for name, unit in workloads_mod.COUNTERS.items():
        out[name] = (report.get(name, 0.0), unit)
    out["trace_overhead_frac"] = (
        statistics.median(run.traced_ms) / statistics.median(run.item_ms) - 1.0, "ratio")
    residual = report.get(f"{root}.self_ms", 0.0)
    out["trace.residual_ms"] = (residual, "ms")
    out["trace.residual_frac"] = (residual / report[f"{root}.ms"], "ratio")
    return out, n_items


def main(argv=None):
    args = parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import tracing
        import workloads
    except ImportError as exc:
        print(f"error\tcannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2

    if args.fixture:
        wl = workloads.workloads(args.scale)[args.fixture]
        manifest = workloads.write_eval_fixture(wl, args.seed, args.work_dir, args.cache_dir)
        with open(args.manifest, "w") as fh:
            json.dump(manifest, fh)
        return 0

    wl = workloads.workloads(args.scale)[args.workload]
    os.makedirs(args.out_dir, exist_ok=True)
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch)
    run = workloads.Run(wl, args.seed, args.seconds, bool(args.trace), work_dir)
    if args.trace:
        run.tracer = tracing.Tracer()

    load_before = os.getloadavg()
    cpu0, t0 = cpu_sample(), time.perf_counter()
    try:
        if wl.kind == "train":
            workloads.run_train(run, args.out_dir)
        else:
            workloads.run_eval(run, os.path.abspath(__file__), args.scale,
                               os.path.join(scratch, "cache"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    wall = time.perf_counter() - t0
    cpu1, load_after = cpu_sample(), os.getloadavg()
    others = None
    if cpu0 is not None and cpu1 is not None:
        others = max(0.0, (cpu1[0] - cpu0[0]) - (cpu1[2] - cpu0[2])) / (wall * cpu1[1])

    if not run.item_ms or (args.trace and not run.traced_ms):
        print(f"error\tno {wl.name} item succeeded\n{run.first_error}", file=sys.stderr)
        return 1
    uniform, named, tail = end_to_end(run)
    correct = run.failed == 0 and all(ok for ok, _ in run.checks.values())
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "machine": machine_info(workloads),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "others_cpu_frac": others, "loaded": others is not None and others > LOADED_FRAC,
        "wall_s": wall, "attempted": run.attempted, "failed": run.failed,
        "first_error": run.first_error, "correct": correct,
        "checks": {k: {"passed": ok, "detail": d} for k, (ok, d) in run.checks.items()},
        "setup_s_samples": run.setup_s, "item_ms_samples": run.item_ms,
        "traced_item_ms_samples": run.traced_ms, "extra": run.extra,
        "end_to_end": {k: v for k, (v, _) in named.items()},
    }

    for name, (value, unit) in named.items():
        print(f"{name}\t{value:.6g}\t{unit}")
    if tail is None:
        print(f"{'step' if wl.kind == 'train' else 'image'}_ms_tail\tnot reported\t"
              f"{len(run.item_ms)} samples, fewer than ten beyond p90")
    m = record["machine"]
    print(f"machine\tnproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"blas={m['blas']} blas_threads={m['blas_threads']} commit={m['git_commit']}")
    print(f"load\tbefore={load_before[0]:.2f} after={load_after[0]:.2f} "
          f"others_cpu_frac={'n/a' if others is None else f'{others:.3f}'}")
    if record["loaded"]:
        print(f"WARNING\tloaded machine: other processes used {others:.1%} of the CPU "
              "during this run; its numbers do not count")
    for name, (ok, detail) in run.checks.items():
        print(f"check\t{name}\t{'ok' if ok else 'FAILED'}\t{detail}")

    metrics = uniform
    if args.trace:
        metrics, n_items = per_layer(run, workloads, tracing)
        record["per_layer"] = {k: v for k, (v, _) in metrics.items()}
        record["traced_items"] = n_items
    path = os.path.join(args.out_dir, f"{wl.name}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
