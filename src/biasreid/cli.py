"""Command-line entry point wiring generation, training, embedding,
evaluation, probing, statistics, and sweeps into reproducible runs. It holds
the run recipes: `run_branch` trains, embeds, ranks and probes one branch,
and `lambda_sweep` runs one per bias-loss weight.

Every command is a deterministic function of (config, inputs, --seed) and
writes a RunManifest next to its outputs listing the resolved configuration,
the seed it used and every artifact file produced. Reports hold scores only:
a run's configuration is recorded in its manifest (and a branch's in its
checkpoint). Each ranking report comes from one `evaluate_embeddings` call,
which never probes: `eval` writes it whole, and `stats` writes one
channel's curves and nauc10 from it. Probing is `fit_probe` alone, through
`probe` and `run_branch`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import comma_list, from_kv, read_kv, spell, to_kv
from .dataset import (
    GEN_CONFIG_KEYS,
    GeneratorConfig,
    Table,
    load_dataset,
    make_dataset,
    save_dataset,
)
from .embedder import concat, embed_all, save_embeddings
from .errors import ConfigError, ToolkitError
from .evaluation import (
    PROBE_CONFIG_KEYS,
    PROTOCOLS,
    EvalReport,
    ProbeConfig,
    ProbeReport,
    curves_to_csv,
    evaluate_embeddings,
    fit_probe,
)
from .losses import MODES
from .presets import PRESETS, get_preset
from .trainer import (
    BRANCH_CONFIG_KEYS,
    BranchConfig,
    Trainer,
    TrainLog,
    checkpoint_load,
    checkpoint_save,
    train_branch,
)


def run_branch(ds: Table, cfg: BranchConfig,
               probe_cfg: ProbeConfig) -> tuple[TrainLog, Table, EvalReport, ProbeReport]:
    """Train one branch and embed every row; rank the embeddings under the
    standard protocol (every channel's curves) and probe `cfg.bias_channel`."""
    params, log = train_branch(ds, cfg)
    es = embed_all(params, ds)
    return log, es, evaluate_embeddings(es), fit_probe(es, cfg.bias_channel, probe_cfg)


def lambda_sweep(ds: Table, base_cfg: BranchConfig, lambdas,
                 probe_cfg: ProbeConfig = ProbeConfig()) -> list[tuple[EvalReport, ProbeReport]]:
    """One `run_branch` per bias-loss weight, each `base_cfg` with that lam_db,
    as its (ranking report, probe report); every config is built, and so
    checked, before the first branch trains."""
    if not lambdas:
        raise ConfigError("lambda sweep needs at least one value")
    cfgs = [replace(base_cfg, lam_db=float(lam)) for lam in lambdas]
    return [run_branch(ds, cfg, probe_cfg)[2:] for cfg in cfgs]


def sweep_to_csv(base_cfg: BranchConfig, lambdas,
                 runs: list[tuple[EvalReport, ProbeReport]]) -> str:
    """One row per `lambda_sweep` run: its lam_db and its scores on the base
    config's bias channel."""
    lines = ["lambda_db,rank1,map,probe_acc,nauc10_neg"]
    for lam, (r, probe) in zip(lambdas, runs):
        lines.append(
            f"{float(lam):.17g},{r.rank1:.17g},{r.map:.17g},"
            f"{probe.accuracy:.17g},{r.channels[base_cfg.bias_channel].nauc_neg:.17g}"
        )
    return "\n".join(lines) + "\n"


def _keys_epilog(title: str, keys: dict, defaults) -> str:
    """Each key's help, with its default read from the config class."""
    values = to_kv(defaults, keys)
    lines = [f"{title} keys (key = value file, unknown keys rejected):"]
    lines += [f"  {key:<22} {text} (default {values[key]})" for key, (_, _, text) in keys.items()]
    return "\n".join(lines)


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace, resolved: dict,
                    inputs: list, outputs: list, t0: float, seed: int | None = None) -> Path:
    """`seed` is the one the command used; commands that draw nothing give none."""
    manifest = {
        "command": command,
        "config_path": getattr(args, "config", None),
        "resolved_config": resolved,
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "toolkit_version": __version__,
        "duration_s": round(time.time() - t0, 3),
        # the process's memory high-water mark so far (ru_maxrss is in bytes
        # on macOS, in KiB elsewhere)
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / (1 << 20 if sys.platform == "darwin" else 1024), 1),
        "numpy": np.__version__,
        # the cores this process may run on; macOS has no affinity call
        "cores": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _file_config(args) -> dict[str, str]:
    return read_kv(args.config) if getattr(args, "config", None) else {}


def _seed(args, default: int = 0) -> int:
    """The --seed flag, or `default` when it is not given."""
    if args.seed is None:
        return default
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    return args.seed


def _branch_config(args):
    """Preset (or BranchConfig defaults) < config file < CLI flags."""
    base = get_preset(args.preset).branch if args.preset else BranchConfig()
    cfg = from_kv(base, _file_config(args), BRANCH_CONFIG_KEYS, what="branch config")
    if args.mode:
        cfg = replace(cfg, mode=args.mode)
    if args.channel:
        cfg = replace(cfg, bias_channel=args.channel)
    return replace(cfg, seed=_seed(args, cfg.seed))


def cmd_gen(args) -> int:
    t0 = time.time()
    out = _out_dir(args)
    base = get_preset(args.preset).generator if args.preset else GeneratorConfig()
    gen_cfg = from_kv(base, _file_config(args), GEN_CONFIG_KEYS, what="generator config")
    seed = _seed(args)
    ds = make_dataset(gen_cfg, seed)
    data_path = out / "dataset.csv"
    written = save_dataset(ds, data_path)
    resolved = dict(ds.meta["generator"], dropped_queries=ds.meta["dropped_queries"])
    _write_manifest(out, "gen", args, resolved, [], written, t0, seed)
    print(f"wrote {data_path} ({len(ds)} samples, {ds.meta['dropped_queries']} dropped queries)")
    return 0


def cmd_train(args) -> int:
    t0 = time.time()
    out = _out_dir(args)
    ds = load_dataset(args.data)
    cfg = _branch_config(args)
    trainer = Trainer(ds, cfg)
    trainer.run()
    ckpt = out / "checkpoint.npz"
    checkpoint_save(ckpt, trainer.params, trainer.adam, cfg, trainer.epoch)
    log_path = out / "trainlog.csv"
    log_path.write_text(trainer.log.to_csv())
    _write_manifest(out, "train", args, to_kv(cfg, BRANCH_CONFIG_KEYS), [args.data],
                    [ckpt, log_path], t0, cfg.seed)
    last = trainer.log.epochs[-1] if trainer.log.epochs else None
    tail = f", final loss_dr {last.loss_dr:.5f}" if last else ""
    print(f"trained {cfg.mode} branch for {trainer.epoch} epochs{tail}; wrote {ckpt}")
    return 0


def cmd_embed(args) -> int:
    t0 = time.time()
    out = _out_dir(args)
    ds = load_dataset(args.data)
    es = concat([embed_all(checkpoint_load(ckpt)[0], ds) for ckpt in args.checkpoints])
    emb_path = out / "embeddings.csv"
    written = save_embeddings(es, emb_path)
    resolved = {"checkpoints": [str(c) for c in args.checkpoints], "dim": es.dim}
    _write_manifest(out, "embed", args, resolved, [args.data, *args.checkpoints], written, t0)
    print(f"wrote {emb_path} ({len(es)} rows, dim {es.dim})")
    return 0


def cmd_eval(args) -> int:
    t0 = time.time()
    out = _out_dir(args)
    es = load_dataset(args.data)
    report = evaluate_embeddings(es, protocol=args.protocol, channel=args.channel)
    outputs = []
    report_path = out / "report.json"
    report_path.write_text(json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")
    outputs.append(report_path)
    metrics_path = out / "metrics.csv"
    flat = report.flat_metrics()
    metrics_path.write_text(
        ",".join(flat) + "\n" + ",".join(str(v) for v in flat.values()) + "\n"
    )
    outputs.append(metrics_path)
    for ch in report.channels:
        curve_path = out / f"curves_{ch}.csv"
        curve_path.write_text(curves_to_csv(report, ch))
        outputs.append(curve_path)
    resolved = {"protocol": args.protocol, "channel": args.channel}
    _write_manifest(out, "eval", args, resolved, [args.data], outputs, t0)
    print(
        f"rank1 {report.rank1:.4f} rank5 {report.rank5:.4f} map {report.map:.4f} "
        f"({report.n_queries} queries, {report.dropped_queries} dropped)"
    )
    return 0


def cmd_probe(args) -> int:
    t0 = time.time()
    out = _out_dir(args)
    es = load_dataset(args.data)
    cfg = from_kv(ProbeConfig(), _file_config(args), PROBE_CONFIG_KEYS, what="probe config")
    cfg = replace(cfg, seed=_seed(args, cfg.seed))
    report = fit_probe(es, args.channel, cfg)
    path = out / "probe.json"
    path.write_text(json.dumps(report.__dict__, indent=2, sort_keys=True) + "\n")
    resolved = dict(to_kv(cfg, PROBE_CONFIG_KEYS), channel=args.channel)
    _write_manifest(out, "probe", args, resolved, [args.data], [path], t0, cfg.seed)
    print(f"probe accuracy on {args.channel}: {report.accuracy:.4f} "
          f"({report.n_test} held-out rows)")
    return 0


def cmd_stats(args) -> int:
    t0 = time.time()
    out = _out_dir(args)
    es = load_dataset(args.data)
    report = evaluate_embeddings(es, channel=args.channel)
    st = report.channels[args.channel]
    curve_path = out / f"curves_{args.channel}.csv"
    curve_path.write_text(curves_to_csv(report, args.channel))
    nauc_path = out / "nauc.json"
    nauc_path.write_text(
        json.dumps(
            {"channel": args.channel, "nauc10_neg": st.nauc_neg, "nauc10_pos": st.nauc_pos},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    _write_manifest(out, "stats", args, {"channel": args.channel}, [args.data],
                    [curve_path, nauc_path], t0)
    print(f"nauc10 same-{args.channel}: negatives {st.nauc_neg:.4f}, positives {st.nauc_pos:.4f}")
    return 0


def cmd_sweep(args) -> int:
    t0 = time.time()
    out = _out_dir(args)
    ds = load_dataset(args.data)
    cfg = _branch_config(args)
    try:
        lambdas = comma_list(args.lambdas, float)
    except ValueError as exc:
        raise ConfigError(f"--lambdas expects comma-separated numbers: {exc}") from None
    table = sweep_to_csv(cfg, lambdas, lambda_sweep(ds, cfg, lambdas))
    sweep_path = out / "sweep.csv"
    sweep_path.write_text(table)
    resolved = dict(to_kv(cfg, BRANCH_CONFIG_KEYS), lambdas=spell(lambdas))
    _write_manifest(out, "sweep", args, resolved, [args.data], [sweep_path], t0, cfg.seed)
    print(table.strip())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biasreid",
        description="Bias-controlled adversarial metric learning and retrieval bias auditing.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)
    fmt = argparse.RawDescriptionHelpFormatter
    presets = ", ".join(PRESETS)

    p = sub.add_parser("gen", help="generate a synthetic dataset with query/gallery split",
                       epilog=_keys_epilog("generator", GEN_CONFIG_KEYS, GeneratorConfig()),
                       formatter_class=fmt)
    p.add_argument("--config", help="generator key=value file")
    p.add_argument("--preset", help=f"bundled preset: {presets}")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train one branch on a dataset CSV",
                       epilog=_keys_epilog("branch", BRANCH_CONFIG_KEYS, BranchConfig()),
                       formatter_class=fmt)
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--config", help="branch key=value file")
    p.add_argument("--preset", help=f"use a bundled preset's branch defaults: {presets}")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--channel", help="bias channel the loss pairs on")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("embed", help="apply trained branch checkpoints and concatenate")
    p.add_argument("checkpoints", nargs="+", help="one or more checkpoint files, in order")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("eval", help="rank the gallery and report CMC/mAP plus bias curves")
    p.add_argument("--data", required=True, help="embeddings CSV")
    p.add_argument("--protocol", choices=PROTOCOLS, default=PROTOCOLS[0])
    p.add_argument("--channel", help="bias channel (required for nobias)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("probe", help="train a frozen-feature bias probe and report accuracy",
                       epilog=_keys_epilog("probe", PROBE_CONFIG_KEYS, ProbeConfig()),
                       formatter_class=fmt)
    p.add_argument("--data", required=True, help="embeddings CSV")
    p.add_argument("--channel", required=True)
    p.add_argument("--config", help="probe key=value file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("stats", help="same-bias rank-position curves and nauc10")
    p.add_argument("--data", required=True, help="embeddings CSV")
    p.add_argument("--channel", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("sweep", help="train+evaluate one branch per lambda value",
                       epilog=_keys_epilog("branch", BRANCH_CONFIG_KEYS, BranchConfig()),
                       formatter_class=fmt)
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--lambdas", required=True, help="comma-separated bias-loss weights")
    p.add_argument("--config", help="branch key=value file")
    p.add_argument("--preset", help=f"use a bundled preset's branch defaults: {presets}")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--channel")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ToolkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: OSError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
