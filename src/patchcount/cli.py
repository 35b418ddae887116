"""Command-line surface: synth, train, eval, infer, gradcheck, attnmap.

Configuration comes from a JSON file validated against a closed schema,
with command-line flags taking precedence. Seeds are mandatory inputs
(defaulted, never wall-clock) so identical invocations produce identical
outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import evalviz, patchio
from .model import ModelConfig, grad_check_model
from .ndtensor import GraphError, no_grad
from .optim import TrainConfig, load_checkpoint, train
from . import model as model_mod

# closed schema: JSON key -> (target section, config field, type)
_SCHEMA = {
    "image": ("model", "image_size", int), "patch": ("model", "patch_size", int),
    "dim": ("model", "dim", int), "heads": ("model", "heads", int),
    "layers": ("model", "layers", int), "head": ("model", "head_variant", str),
    "hidden_dim": ("model", "hidden_dim", int),
    "attn_denominator": ("model", "attn_denominator", str),
    "final_ln": ("model", "final_ln", bool),
    "batch_size": ("train", "batch_size", int), "epochs": ("train", "epochs", int),
    "seed": ("train", "seed", int), "lr": ("train", "lr", float),
    "weight_decay": ("train", "weight_decay", float), "augment": ("train", "augment", bool),
    "checkpoint_every": ("train", "checkpoint_every", int),
}

TOY_PROFILE = {"image": 64, "patch": 8, "dim": 64, "heads": 4, "layers": 2,
               "hidden_dim": 64, "batch_size": 8, "lr": 1e-2}


class ConfigError(ValueError):
    """Config file or override violates the schema."""


def parse_config(path=None, overrides=None):
    """Merge defaults <- JSON file <- overrides into model/train configs."""
    merged = {}
    if path is not None:
        with open(path, "rb") as fh:
            try:
                file_cfg = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise ConfigError(f"config file {path!r} is not valid JSON: {exc!r}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        merged.update(file_cfg)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    kwargs = {"model": {}, "train": {}}
    for key, value in merged.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        section, name, typ = _SCHEMA[key]
        if typ is float and isinstance(value, int) and not isinstance(value, bool):
            try:
                value = float(value)
            except OverflowError:
                raise ConfigError(f"config key {key!r} is out of float range") from None
        if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
            raise ConfigError(
                f"config key {key!r} expects {typ.__name__}, got {value!r}")
        kwargs[section][name] = value
    try:
        return ModelConfig(**kwargs["model"]), TrainConfig(**kwargs["train"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _overrides_from_args(args):
    out = {}
    if getattr(args, "profile", None) == "toy":
        out.update(TOY_PROFILE)
    for key in _SCHEMA:
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
    return out


def _add_config_flags(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--profile", choices=["toy"],
                   help="named preset applied before other overrides")
    p.add_argument("--image", type=int, help="tile side in pixels")
    p.add_argument("--patch", type=int, help="patch size K")
    p.add_argument("--dim", type=int, help="embedding dimension D")
    p.add_argument("--heads", type=int, help="attention heads m")
    p.add_argument("--layers", type=int, help="encoder layers L")
    p.add_argument("--head", choices=["token", "gap"], help="regression head")
    p.add_argument("--hidden-dim", dest="hidden_dim", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--no-augment", dest="augment", action="store_false",
                   default=None)


def cmd_synth(args):
    region = (0.0, 1.0, 0.0, 1.0)
    if args.quadrant is not None:
        half = {(0): (0.0, 0.5, 0.0, 0.5), 1: (0.0, 0.5, 0.5, 1.0),
                2: (0.5, 1.0, 0.0, 0.5), 3: (0.5, 1.0, 0.5, 1.0)}
        region = half[args.quadrant]
    spec = patchio.SynthSpec(side=args.side, count_min=args.count_min,
                             count_max=args.count_max, dot_radius=args.radius,
                             noise_amp=args.noise, seed=args.seed, region=region)
    patchio.write_dataset(patchio.synth_generate(spec, args.n), args.out)
    print(f"wrote\t{args.n} images to {args.out}")
    return 0


def cmd_train(args):
    cfg, tcfg = parse_config(args.config, _overrides_from_args(args))
    pairs = patchio.Dataset(args.data)
    # the eval set is only ever scored into the log
    eval_pairs = patchio.Dataset(args.eval_data) if args.eval_data and args.log else None
    log = evalviz.ConvergenceLog(args.log) if args.log else None

    def on_epoch(epoch, loss, params):
        if log is None:
            return
        mae = float("nan")
        if eval_pairs is not None:
            _, _, mae, _ = evalviz.evaluate(eval_pairs, params, cfg)
        log.record(epoch, loss, mae)

    try:
        train(pairs, cfg, tcfg, epoch_callback=on_epoch, checkpoint_path=args.out)
    finally:
        if log is not None:
            log.close()
    print(f"checkpoint\t{args.out}")
    return 0


def cmd_eval(args):
    params, _, cfg = load_checkpoint(args.checkpoint)
    data = patchio.Dataset(args.data)
    preds, gts, mae, mse = evalviz.evaluate(data, params, cfg)
    if args.out:
        evalviz.write_eval_report([name for name, _ in data.labels], preds, gts, args.out)
    print(f"MAE\t{mae:.4f}")
    print(f"MSE\t{mse:.4f}")
    return 0


def cmd_infer(args):
    params, _, cfg = load_checkpoint(args.checkpoint)
    img = patchio.load_ppm(args.image)
    count = evalviz.predict_image(img, params, cfg)
    print(f"count\t{count:.4f}")
    return 0


def cmd_gradcheck(args):
    cfg, tcfg = parse_config(args.config, _overrides_from_args(args))
    variants = [cfg.head_variant] if args.head else ["gap", "token"]
    errs = []
    for variant in variants:
        vcfg = dataclasses.replace(cfg, head_variant=variant)
        err = grad_check_model(vcfg, seed=tcfg.seed,
                               samples_per_param=args.samples, h=args.h)
        print(f"max_rel_err\t{variant}\t{err:.3e}")
        errs.append(err)
    worst = float(np.max(errs))  # a NaN error carries through to fail
    ok = worst < args.threshold
    print(f"gradcheck\t{'pass' if ok else 'fail'}\t{worst:.3e}")
    return 0 if ok else 1


def cmd_attnmap(args):
    params, _, cfg = load_checkpoint(args.checkpoint)
    img = patchio.load_ppm(args.image)
    # one whole-image tile, not fit_to_grid's six: attention_map reads tile 0 only
    img = patchio.resize_bilinear(img, cfg.image_size, cfg.image_size)
    batch = patchio.make_batch([(img, 0.0)], cfg.patch_size)
    last = {}
    with no_grad():  # the map is the last layer's; each layer's weights replace the one before
        model_mod.features(params, cfg, batch.data, lambda _, __, w: last.update(weights=w))
    patchio.save_pgm(evalviz.attention_map(last["weights"], cfg), args.out)
    print(f"attnmap\t{args.out}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="patchcount",
                                description="Weakly-supervised transformer crowd counting")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic dot-crowd dataset")
    s.add_argument("--out", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--side", type=int, default=64)
    s.add_argument("--count-min", dest="count_min", type=int, default=0)
    s.add_argument("--count-max", dest="count_max", type=int, default=30)
    s.add_argument("--radius", type=float, default=2.0)
    s.add_argument("--noise", type=float, default=0.1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--quadrant", type=int, choices=[0, 1, 2, 3],
                   help="confine dots to one quadrant")
    s.set_defaults(func=cmd_synth)

    t = sub.add_parser("train", help="train a model on a PPM + labels.tsv dataset")
    _add_config_flags(t)
    t.add_argument("--data", required=True)
    t.add_argument("--eval-data", dest="eval_data",
                   help="dataset scored after every epoch into --log; "
                        "read only when --log is given")
    t.add_argument("--out", required=True, help="checkpoint path")
    t.add_argument("--log", help="convergence TSV path")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", help="TSV report path")
    e.set_defaults(func=cmd_eval)

    i = sub.add_parser("infer", help="predict the count for one PPM image")
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--image", required=True)
    i.set_defaults(func=cmd_infer)

    g = sub.add_parser("gradcheck", help="finite-difference gradient check")
    _add_config_flags(g)
    g.add_argument("--samples", type=int, default=8,
                   help="coordinates checked per parameter tensor")
    g.add_argument("--h", type=float, default=1e-3)
    g.add_argument("--threshold", type=float, default=5e-3)
    g.set_defaults(func=cmd_gradcheck)

    a = sub.add_parser("attnmap", help="export an attention map as PGM")
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--image", required=True)
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_attnmap)

    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, GraphError, FloatingPointError) as exc:
        print(f"error\t{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
