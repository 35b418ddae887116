"""Print what one recorded forward's graph holds, by allocation site.

    python3 scripts/graph_bytes.py [--toy]

For each head (GAP, then Token) it builds the paper config's parameters
(init_params at seed 71000), runs one recorded forward of one 384x384
synthetic tile, and holds the prediction, so every array still alive is
one the graph keeps. ``tracemalloc`` snapshots taken around the forward
give those arrays by the line that allocated them and the first line
outside ndtensor that led there (which layer-level call made them). The
parameters and the input tile are made before tracing starts, so they do
not count. ``--toy`` runs the toy profile instead (64x64 tiles, D = 64,
two layers), in a second or so.

The paper config needs about 0.6 GB of memory and a few seconds of CPU
per head.
"""

import argparse
import linecache
import os
import sys
import tracemalloc
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from patchcount import model, patchio  # noqa: E402

PACKAGE = os.path.dirname(os.path.abspath(model.__file__))
TOY = dict(image_size=64, patch_size=8, dim=64, heads=4, layers=2, hidden_dim=64)
MIB = float(1 << 20)
SHOWN = 0.01  # MiB; smaller sites are summed into one line
SEED = 71000  # init_params seed


def _line(frame):
    """'file.py:N  source' for one traceback frame, the source cut at 72 characters."""
    text = linecache.getline(frame.filename, frame.lineno).strip()
    return f"{os.path.basename(frame.filename)}:{frame.lineno}  {text[:72]}"


def _site(traceback):
    """(allocating line, deepest caller outside ndtensor or ""), both the
    package's, of a traceback (oldest frame first); None when no frame is
    the package's."""
    ours = [f for f in traceback if os.path.dirname(os.path.abspath(f.filename)) == PACKAGE]
    if not ours:
        return None
    callers = [f for f in ours[:-1] if os.path.basename(f.filename) != "ndtensor.py"]
    return _line(ours[-1]), _line(callers[-1]) if callers else ""


def graph_sites(cfg):
    """(bytes by (site, caller), total bytes) of one recorded forward's graph."""
    params = model.init_params(cfg, SEED)
    spec = patchio.SynthSpec(side=cfg.image_size, dot_radius=cfg.image_size / 48, seed=71)
    tile = patchio.make_batch(patchio.synth_generate(spec, 1), cfg.patch_size).data
    tracemalloc.start(32)
    try:
        before = tracemalloc.take_snapshot()
        preds, _ = model.forward(params, cfg, tile)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    if preds._node is None:
        raise RuntimeError("the forward recorded no graph")
    sites = defaultdict(int)
    for stat in after.compare_to(before, "traceback"):
        sites[_site(stat.traceback)] += stat.size_diff
    return dict(sites), sum(sites.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--toy", action="store_true", help="the toy profile, not the paper's")
    args = parser.parse_args(argv)
    for head in (model.HEAD_GAP, model.HEAD_TOKEN):
        cfg = model.ModelConfig(**(TOY if args.toy else {}), head_variant=head)
        sites, total = graph_sites(cfg)
        print(f"{'toy' if args.toy else 'paper'}-{head}\tinit seed {SEED}\t"
              f"graph {total / MIB:.2f} MiB")
        rest = 0
        for key, size in sorted(sites.items(), key=lambda kv: -kv[1]):
            if key is None or size / MIB < SHOWN:
                rest += size
                continue
            site, caller = key
            print(f"{size / MIB:9.2f}  {site}" + (f"\t<- {caller}" if caller else ""))
        print(f"{rest / MIB:9.2f}  (the rest)", flush=True)


if __name__ == "__main__":
    main()
