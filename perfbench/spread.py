"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads paper-eval --seeds 1 2 3 4 5

Runs ``run.py`` once per workload and seed, one run at a time, and prints
for each metric the median of its values and the distance between their
first and third quartiles as a share of the median (the spread that
BENCHMARK.json's bounds are set against). The summary is also written as
JSON to ``.perfbench_out/spread.json`` unless ``--out`` says otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description="run-to-run spread over seeds")
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out", "spread.json"))
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{wl} seed {seed}: incorrect result\n{out.stdout}")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(wl, seed, " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        summary[wl] = {"seeds": args.seeds, "runs": runs, "metrics": {}}
        for name in runs[0]:
            med, sp = spread([r[name] for r in runs])
            bound = bounds.get(name)
            summary[wl]["metrics"][name] = {"median": med, "spread": sp, "bound": bound}
            flag = "" if bound is None or sp < bound / 3 else "  <-- spread >= bound/3"
            print(f"{wl}\t{name}\tmedian={med:.6g}\tspread={sp:.4f}\tbound={bound}{flag}",
                  flush=True)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main()
