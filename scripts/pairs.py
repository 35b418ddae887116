"""Run perfbench in alternating parent/change pairs and summarise the runs
into BENCH_<label>.json.

    python3 scripts/pairs.py --parent ../parent --change . \\
        --workload paper-train --pairs 10 --seed 71 --label paper-train

Each pair runs ``perfbench/run.py --workload W --seed S`` once in each
tree, with the tree as the working directory, so each run builds from its
own source. The first pair runs the parent first, the next the change
first, and so on. A run that perfbench marks ``loaded`` (other processes
took CPU during it) does not count: it is discarded and run again. Each
run's sample holds its gated metrics, ``correct``, and the operations it
``attempted`` and that ``failed``, from perfbench's last line.

BENCH_<label>.json, written to the repository root, holds every sample,
each gated metric's median and quartiles for both trees, the parent's
interquartile range, the pairs the change won (ties count for neither),
and whether the change shows a gain: it won at least nine tenths of the
pairs and its median beats the parent's by more than the parent's
interquartile range. It also holds each tree's share of failed operations
over all its runs. The metrics, their units and which way is better come
from the change tree's BENCHMARK.json. The script prints one line per
metric and one for the failed shares.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("parent", "change")
LOADED_RETRIES = 5  # runs discarded as loaded before a pair gives up


def run_once(tree, workload, seed):
    """One perfbench run in ``tree``: (its sample, perfbench's record). The
    sample maps each gated metric's name to its value, and ``attempted`` and
    ``failed`` to the run's operation counts."""
    with tempfile.TemporaryDirectory(prefix="pairs-") as out_dir:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--out-dir", out_dir],
            cwd=tree, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"perfbench in {tree} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(os.path.join(out_dir, f"{workload}_seed{seed}_trace0.json")) as fh:
            record = json.load(fh)
    sample = {name: m["value"] for name, m in result["metrics"].items()}
    return dict(sample, attempted=result["attempted"], failed=result["failed"]), record


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, end_to_end):
    """Per metric of ``end_to_end`` (BENCHMARK.json's list): both trees'
    medians and quartiles, the parent's IQR, the change's wins over
    ``pairs`` (a list of {"parent": metrics, "change": metrics}) and
    whether that is a gain."""
    summary = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        side = {tree: [p[tree][name] for p in pairs] for tree in TREES}
        stats = {tree: dict(zip(("median", "q1", "q3"),
                                (statistics.median(v), *_quartiles(v))))
                 for tree, v in side.items()}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(side["parent"], side["change"]))
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        gap = stats["parent"]["median"] - stats["change"]["median"]
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], "pairs": len(pairs),
            **stats, "parent_iqr": iqr, "change_wins": wins,
            "relative": -gap / stats["parent"]["median"],
            "gain": 10 * wins >= 9 * len(pairs) and (gap if lower else -gap) > iqr,
        }
    return summary


def failed_shares(pairs):
    """Each tree's failed and attempted operations summed over ``pairs``,
    and the failed share."""
    shares = {}
    for tree in TREES:
        failed, attempted = (sum(p[tree][k] for p in pairs) for k in ("failed", "attempted"))
        shares[tree] = {"failed": failed, "attempted": attempted, "share": failed / attempted}
    return shares


def shares_line(workload, shares):
    """Both trees' failed shares as a CHANGES.md line fragment."""
    return f"{workload} failed share: " + " → ".join(
        f"{s['share']:.2%} ({s['failed']}/{s['attempted']})" for s in shares.values())


def line(workload, name, s):
    """One metric's summary as a CHANGES.md line fragment."""
    return (f"{workload} `{name}`: {s['parent']['median']:.6g} → {s['change']['median']:.6g} "
            f"{s['unit']} ({s['relative']:+.1%}, change better {s['change_wins']}/{s['pairs']}, "
            f"parent q1–q3 {s['parent']['q1']:.6g}–{s['parent']['q3']:.6g})"
            + (" gain" if s["gain"] else ""))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="the parent commit's tree")
    p.add_argument("--change", required=True, help="the change's tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)
    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(dirs["change"], "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]

    pairs, machine, discarded = [], {}, []
    for i in range(args.pairs):
        pair = {}
        for tree in TREES if i % 2 == 0 else TREES[::-1]:
            for _ in range(LOADED_RETRIES):
                metrics, record = run_once(dirs[tree], args.workload, args.seed)
                if not record["loaded"]:
                    break
                discarded.append({"pair": i, "tree": tree, "metrics": metrics,
                                  "others_cpu_frac": record["others_cpu_frac"]})
            else:
                raise RuntimeError(f"{tree} was loaded in {LOADED_RETRIES} runs in a row")
            pair[tree] = dict(metrics, correct=record["correct"])
            machine.setdefault(tree, record["machine"])
        pair["first"] = "parent" if i % 2 == 0 else "change"
        pairs.append(pair)
        print(f"pair {i}\t" + "\t".join(
            f"{tree} {m['name']}={pair[tree][m['name']]:.6g}"
            for tree in TREES for m in end_to_end), flush=True)

    summary = summarize(pairs, end_to_end)
    out = {"label": args.label, "workload": args.workload, "seed": args.seed,
           "machine": machine, "pairs": pairs, "discarded_loaded": discarded,
           "all_correct": all(pair[t]["correct"] for pair in pairs for t in TREES),
           "summary": summary, "failed_shares": failed_shares(pairs)}
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
    for name, s in summary.items():
        print(line(args.workload, name, s))
    print(shares_line(args.workload, out["failed_shares"]))
    print(f"wrote\t{path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
