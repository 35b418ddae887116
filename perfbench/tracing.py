"""Spans around the program's public functions, installed from outside it.

The program's modules import primitives by name (``encoder.matmul``,
``optim.backward``, ``evalviz.batch_predictions``), so a function is
patched under every name it is bound to in every loaded ``patchcount``
module, not only where it is defined. ``Tracer.uninstall`` puts every
original back.

Each span records its name, start, end and parent. A span's self time is
its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# Public functions that get a span, by the module whose name they carry in
# the metrics. ``encoder.layer_norm`` is ndtensor's, bound in encoder.
TRACED = {
    "patchio": ["load_ppm", "resize_bilinear", "split_tiles", "make_batch"],
    "embedder": ["linear_embed", "add_position", "prepend_reg_token"],
    "encoder": ["encoder_layer", "msa", "scaled_attention", "mlp_block",
                "layer_norm"],
    "heads": ["gap_pool", "token_pool", "regress", "l1_loss"],
    "model": ["forward", "init_params"],
    "ndtensor": ["backward", "matmul", "gelu", "softmax_rows"],
    "optim": ["train_step", "batch_predictions", "adam_step", "init_adam",
              "save_checkpoint", "load_checkpoint"],
    "evalviz": ["predict_image"],
}

# ndtensor functions that are not graph primitives.
NOT_PRIMITIVES = {"backward", "grad_check"}

NODES = "ndtensor.nodes_per_step"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[i], key=lambda s: s.start):
            lo, hi = max(c.start, span.start), min(c.end, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.end - span.start - covered)
    return out


def patch_everywhere(package, replacements):
    """Rebind each original function to its replacement under every name.

    ``replacements`` maps original function -> replacement. Every loaded
    module of ``package`` is searched, since callers look names up in their
    own module. Returns the list that ``unpatch`` takes to undo it.
    """
    by_id = {id(orig): (orig, new) for orig, new in replacements.items()}
    patched = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for key, value in list(vars(mod).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                patched.append((mod, key, value))
                setattr(mod, key, hit[1])
    return patched


def unpatch(patched):
    for mod, key, value in reversed(patched):
        setattr(mod, key, value)


class Tracer:
    """Collects spans and counters; patches the program while installed.

    Counters are kept per root span kind (the benchmark opens one root per
    set-up, step or image), so the report can give per-step figures.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)  # (root kind, counter) -> value
        self._stack = []
        self._patched = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    def root_kind(self):
        return self.spans[self._stack[0]].name if self._stack else ""

    def count(self, name, value=1.0):
        self.counts[(self.root_kind(), name)] += value

    def _wrap(self, name, fn, spanned, node, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # only work under a benchmark root span is traced
                return fn(*args, **kwargs)
            if node:
                self.count(NODES)
            if not spanned:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result
        return wrapper

    def install(self, package, hooks=None):
        """Wrap every traced function and every ndtensor primitive.

        ``hooks`` maps a metric name such as ``"ndtensor.matmul"`` to
        ``f(tracer, args, kwargs, result)``, called after the function
        returns; it records counters.
        """
        hooks = hooks or {}
        nd = importlib.import_module(f"{package}.ndtensor")
        primitives = {id(fn) for fname, fn in inspect.getmembers(nd, inspect.isfunction)
                      if fn.__module__ == nd.__name__ and not fname.startswith("_")
                      and fname not in NOT_PRIMITIVES}
        targets = {}  # id(original) -> (original, wrapper)
        for mod_name, names in TRACED.items():
            mod = importlib.import_module(f"{package}.{mod_name}")
            for fname in names:
                fn = getattr(mod, fname)
                name = f"{mod_name}.{fname}"
                targets[id(fn)] = (fn, self._wrap(name, fn, True, id(fn) in primitives,
                                                  hooks.get(name)))
        for fname, fn in inspect.getmembers(nd, inspect.isfunction):
            if id(fn) in primitives and id(fn) not in targets:
                targets[id(fn)] = (fn, self._wrap(fname, fn, False, True))
        self._patched = patch_everywhere(package, dict(targets.values()))

    def uninstall(self):
        unpatch(self._patched)
        self._patched = []

    def report(self, item_kind):
        """Per-function inclusive ms, self ms and calls, plus counters.

        Spans under roots of ``item_kind`` are averaged per item; spans
        under other roots (set-up, checkpoint save) are summed, since
        each of those runs once in a traced run.
        """
        n_items = sum(1 for s in self.spans if s.parent < 0 and s.name == item_kind)
        selfs = self_times(self.spans)
        root_of = []
        for s in self.spans:
            root_of.append(len(root_of) if s.parent < 0 else root_of[s.parent])
        per_item = defaultdict(float)
        once = defaultdict(float)
        for i, s in enumerate(self.spans):
            out = per_item if self.spans[root_of[i]].name == item_kind else once
            out[f"{s.name}.ms"] += (s.end - s.start) * 1e3
            out[f"{s.name}.self_ms"] += selfs[i] * 1e3
            out[f"{s.name}.calls"] += 1
        for (kind, name), value in self.counts.items():
            (per_item if kind == item_kind else once)[name] += value
        out = dict(once)
        for name, value in per_item.items():
            out[name] = out.get(name, 0.0) + value / n_items
        return out, n_items
