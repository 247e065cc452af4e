"""Command-line pipeline.

Subcommands: synth, train, difficulty, evaluate, prune-study. Train-family
commands read a key=value config file; most settings can be overridden from
the command line. Failures exit nonzero with a stage-tagged message, code 2
when a referenced path is missing or unusable.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from . import curriculum, ingest, metrics, trainer
from .cellgraph import save_edge_list
from .config import (
    RUN_TYPES,
    TRAIN_TYPES,
    ConfigError,
    RunConfig,
    parse_config,
    scalar_type,
    write_config,
)
from .trainer import CHOICES, PATH_ERRORS, StageError, TrainConfig, stage


def _add_run_command(sub, name: str, fn, help_text: str) -> None:
    """A subcommand that reads a config file, with a flag overriding each
    scalar TrainConfig field and the output directory."""
    parser = sub.add_parser(name, help=help_text)
    parser.add_argument("config", help="key=value config file")
    for f in fields(TrainConfig):
        kind = scalar_type(TRAIN_TYPES[f.name])
        if kind is None:  # tuple fields are set in the config file only
            continue
        flag = "--" + f.name.replace("_", "-")
        if f.default is MISSING:
            note = f"override {f.name} (required in the config)"
        else:
            note = f"override {f.name} (config default: {f.default})"
        parser.add_argument(flag, type=kind, default=None, choices=CHOICES.get(f.name), help=note)
    parser.add_argument("--outdir", default=None, help="override output directory")
    parser.set_defaults(fn=fn)


def _apply_overrides(run_cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    def given(names):
        return {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}

    try:
        train = replace(run_cfg.train, **given(TRAIN_TYPES))
        return replace(run_cfg, train=train, **given(RUN_TYPES))
    except ValueError as err:
        raise ConfigError(f"command line: {err}") from None


def _load_dataset(run_cfg: RunConfig) -> ingest.ExpressionMatrix:
    if run_cfg.input is None:
        raise ConfigError("config is missing 'input'")
    if not Path(run_cfg.input).exists():
        raise FileNotFoundError(f"input file not found: {run_cfg.input}")
    with stage("ingest"):
        data = ingest.load_matrix(run_cfg.input, run_cfg.input_format)
    if run_cfg.labels is not None:
        if not Path(run_cfg.labels).exists():
            raise FileNotFoundError(f"labels file not found: {run_cfg.labels}")
        with stage("ingest"):
            data = ingest.with_labels(data, ingest.load_labels(run_cfg.labels, data.cell_ids))
    return data


def _write_labels_csv(path, cell_ids, labels, pruned_mask) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_id", "predicted", "pruned_flag"])
        for cid, lab, flag in zip(cell_ids, labels, pruned_mask):
            writer.writerow([cid, int(lab), int(flag)])


def _write_training_log(path, history) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("epoch,rec,zinb,cls,total\n")
        for epoch, breakdown in enumerate(history):
            rec, zinb, cls, total = breakdown.as_row()
            fh.write(f"{epoch},{rec!r},{zinb!r},{cls!r},{total!r}\n")


def _write_metrics_json(path, true_labels, pred_labels) -> dict:
    payload = {
        "ari": metrics.ari(true_labels, pred_labels),
        "nmi": metrics.nmi(true_labels, pred_labels),
        "n_cells": int(len(pred_labels)),
        "n_clusters_true": int(np.unique(true_labels).size),
        "n_clusters_pred": int(np.unique(pred_labels).size),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


# -- subcommands ---------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = ingest.SynthesisSpec(
        n_cells=args.cells,
        n_genes=args.genes,
        n_clusters=args.clusters,
        dropout_rate=args.dropout_rate,
        dispersion=args.dispersion,
        mean_scale=args.mean_scale,
        seed=args.seed,
    )
    with stage("synth"):
        data = ingest.synthesize(spec)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ext = "csv" if args.format == "csv" else "mtx"
    counts_path = outdir / f"counts.{ext}"
    labels_path = outdir / "labels.csv"
    with stage("write"):
        ingest.save_matrix(data, counts_path, args.format)
        ingest.save_labels(data, labels_path)
    zeros = float(np.mean(data.counts == 0))
    print(
        f"wrote {counts_path} ({data.n_cells} cells x {data.n_genes} genes, "
        f"{data.labels.max() + 1} clusters, {zeros:.1%} zeros) and {labels_path}"
    )
    return 0


def _prepare_run(args) -> tuple[RunConfig, ingest.ExpressionMatrix, Path]:
    """Resolve the config, load the data and echo the effective config."""
    run_cfg = _apply_overrides(parse_config(args.config), args)
    data = _load_dataset(run_cfg)
    outdir = Path(run_cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_config(run_cfg, outdir / "effective_config.txt")
    return run_cfg, data, outdir


def cmd_train(args) -> int:
    run_cfg, data, outdir = _prepare_run(args)
    result = trainer.run_pipeline(data, run_cfg.train, checkpoint_dir=str(outdir))
    with stage("write"):
        save_edge_list(result.graph, outdir / "graph_edges.txt")
        curriculum.write_difficulty_csv(
            outdir / "difficulty.csv", result.state.report, result.state.prune
        )
        _write_training_log(outdir / "training_log.csv", result.state.loss_history)
        _write_labels_csv(
            outdir / "labels.csv", data.cell_ids, result.labels, result.pruned_mask
        )
    formal_epochs = result.state.epoch
    pretrain_epochs = len(result.state.loss_history) - formal_epochs
    summary = (
        f"trained {data.n_cells} cells for {pretrain_epochs} pretrain + "
        f"{formal_epochs} formal epochs, pruned {int(result.pruned_mask.sum())}"
    )
    if data.labels is not None:
        with stage("evaluate"):
            payload = _write_metrics_json(outdir / "metrics.json", data.labels, result.labels)
        summary += f", ARI={payload['ari']:.4f} NMI={payload['nmi']:.4f}"
    print(f"{summary}, stop_reason={result.state.stop_reason}")
    return 0


def cmd_difficulty(args) -> int:
    run_cfg, data, outdir = _prepare_run(args)
    cfg = run_cfg.train
    report = trainer.pretrain_and_score(data, cfg).state.report
    with stage("prune"):
        pruned = curriculum.prune(report, cfg.alpha, strategy=cfg.prune_strategy, seed=cfg.seed)
    path = outdir / "difficulty.csv"
    with stage("write"):
        curriculum.write_difficulty_csv(path, report, pruned)
    print(f"wrote {path} ({report.n} nodes, {pruned.dropped.size} marked dropped)")
    return 0


def cmd_evaluate(args) -> int:
    for path in (args.true_labels, args.pred_labels):
        if not Path(path).exists():
            raise FileNotFoundError(f"labels file not found: {path}")
    with stage("evaluate"):
        true_by_id = ingest.read_labels(args.true_labels)
        pred_by_id = ingest.read_labels(args.pred_labels)
        missing = [cid for cid in true_by_id if cid not in pred_by_id]
        if missing:
            raise ValueError(f"no prediction for cell id {missing[0]!r}")
        ids = list(true_by_id)
        true = np.array([true_by_id[i] for i in ids])
        pred = np.array([pred_by_id[i] for i in ids])
        payload = _write_metrics_json(args.out, true, pred)
    print(f"ARI={payload['ari']} NMI={payload['nmi']}")
    return 0


def _score_cell(
    prefix: trainer.Pretrained, strategy: str, alpha: float, truth: np.ndarray
) -> tuple[float, float]:
    """ARI and NMI of one grid cell's tail on `prefix`. Everything else the
    tail makes (its trained state, Adam moments and labels) is freed on
    return, so the grid holds one cell's trained state at a time."""
    cell_cfg = replace(prefix.cfg, alpha=alpha, prune_strategy=strategy)
    labels = trainer.prune_and_cluster(replace(prefix, cfg=cell_cfg)).labels
    return metrics.ari(truth, labels), metrics.nmi(truth, labels)


def cmd_prune_study(args) -> int:
    run_cfg, data, outdir = _prepare_run(args)
    if data.labels is None:
        raise StageError("prune-study", ValueError("prune-study needs ground-truth labels"))

    # Pretraining and difficulty depend on the seed only: each seed's prefix
    # runs once and serves (or fails) all of that seed's grid cells. A failed
    # seed keeps only its message, not the error's cause and frames.
    pretrained: dict[int, trainer.Pretrained | str] = {}
    report_path = outdir / "prune_study.csv"
    failures = 0
    with open(report_path, "w", newline="") as fh:
        fh.write("strategy,alpha,seed,ari,nmi\n")
        grid = itertools.product(run_cfg.strategies, run_cfg.alphas, run_cfg.seeds)
        for strategy, alpha, seed in grid:
            if seed not in pretrained:
                try:
                    pretrained[seed] = trainer.pretrain_and_score(
                        data, replace(run_cfg.train, seed=seed)
                    )
                except Exception as err:  # reported by every grid cell of this seed
                    pretrained[seed] = str(err)
            prefix = pretrained[seed]
            try:
                if isinstance(prefix, str):
                    raise RuntimeError(prefix)
                a, n = _score_cell(prefix, strategy, alpha, data.labels)
                fh.write(f"{strategy},{alpha!r},{seed},{a!r},{n!r}\n")
                fh.flush()
                print(f"{strategy} alpha={alpha} seed={seed}: ARI={a:.4f} NMI={n:.4f}")
            except Exception as err:  # keep the remaining grid cells running
                failures += 1
                print(
                    f"[prune-study] {strategy} alpha={alpha} seed={seed} failed: {err}",
                    file=sys.stderr,
                )
    print(f"wrote {report_path}" + (f" ({failures} cells failed)" if failures else ""))
    return 0 if failures == 0 else 1


# -- entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="celluster",
        description="Curriculum-paced graph-convolutional embedding clustering "
        "for single-cell count matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser(
        "synth",
        help="generate a synthetic count matrix with labels",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_synth.add_argument("--cells", type=int, default=300, help="number of cells")
    p_synth.add_argument("--genes", type=int, default=200, help="number of genes")
    p_synth.add_argument("--clusters", type=int, default=3, help="generating clusters")
    p_synth.add_argument("--dropout-rate", type=float, default=0.3, help="zero-inflation weight")
    p_synth.add_argument("--dispersion", type=float, default=2.0, help="count dispersion")
    p_synth.add_argument("--mean-scale", type=float, default=1.0, help="gene mean scale")
    p_synth.add_argument("--seed", type=int, default=0, help="generator seed")
    p_synth.add_argument("--format", choices=ingest.FORMATS, default="csv", help="output format")
    p_synth.add_argument("--outdir", default="synth_out", help="output directory")
    p_synth.set_defaults(fn=cmd_synth)

    _add_run_command(sub, "train", cmd_train, "run the full training pipeline from a config")
    _add_run_command(
        sub, "difficulty", cmd_difficulty,
        "pretrain, score node difficulty, and write the report CSV",
    )

    p_eval = sub.add_parser("evaluate", help="compare predicted labels against ground truth")
    p_eval.add_argument("--true-labels", required=True)
    p_eval.add_argument("--pred-labels", required=True)
    p_eval.add_argument("--out", default="metrics.json")
    p_eval.set_defaults(fn=cmd_evaluate)

    _add_run_command(
        sub, "prune-study", cmd_prune_study, "grid of (strategy, alpha, seed) pipeline runs"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PATH_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except StageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ConfigError, ingest.IngestError) as err:
        print(f"error: [config] {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
