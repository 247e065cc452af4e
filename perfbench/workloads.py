"""The benchmark's workloads: seeded inputs, the CLI call, and output checks.

Every workload draws 3 clusters with dropout_rate=0.5, dispersion=1.5 and
mean_scale=1.8 (the acceptance-criteria 6-8 settings) from synth seed
1000 + seed, and trains with config seed = seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SYNTH = dict(n_clusters=3, dropout_rate=0.5, dispersion=1.5, mean_scale=1.8)
TOY = dict(cells=60, genes=40, t1=2, t2=2)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "train" or "prune-study"
    cells: int
    genes: int
    input_format: str  # "csv" or "mtx-triplet"
    t1: int
    t2: int
    strategies: tuple[str, ...] = ("hard",)
    alphas: tuple[float, ...] = (0.11,)

    def toy(self) -> "Workload":
        """The same workload shrunk to a size that runs in seconds."""
        return Workload(
            self.name, self.command, TOY["cells"], TOY["genes"], self.input_format,
            TOY["t1"], TOY["t2"], self.strategies, self.alphas,
        )

    @property
    def grid_cells(self) -> int:
        return len(self.strategies) * len(self.alphas)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("accept-300", "train", 300, 200, "csv", t1=200, t2=100),
        Workload("scale-3000", "train", 3000, 500, "mtx-triplet", t1=3, t2=2),
        Workload(
            "study-grid", "prune-study", 300, 200, "csv", t1=40, t2=10,
            strategies=("hard", "easy"), alphas=(0.11, 0.21),
        ),
    )
}


@dataclass
class Inputs:
    config: Path
    truth: np.ndarray  # generating cluster per cell
    cell_ids: list[str]


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the counts, labels and config file the program will read."""
    from celluster.ingest import SynthesisSpec, save_labels, save_matrix, synthesize

    directory.mkdir(parents=True, exist_ok=True)
    data = synthesize(
        SynthesisSpec(n_cells=workload.cells, n_genes=workload.genes, seed=1000 + seed, **SYNTH)
    )
    counts = directory / ("counts.csv" if workload.input_format == "csv" else "counts.mtx")
    labels = directory / "labels.csv"
    save_matrix(data, counts, workload.input_format)
    save_labels(data, labels)
    keys = {
        "input": counts.resolve(),
        "input_format": workload.input_format,
        "labels": labels.resolve(),
        "n_clusters": SYNTH["n_clusters"],
        "t1": workload.t1,
        "t2": workload.t2,
        "n_hvg": workload.genes,
        "prune_strategy": "hard",
        "seed": seed,
        "strategies": ",".join(workload.strategies),
        "alphas": ",".join(repr(a) for a in workload.alphas),
        "seeds": seed,
    }
    config = directory / "config.txt"
    config.write_text("".join(f"{k}={v}\n" for k, v in keys.items()))
    return Inputs(config=config, truth=data.labels.copy(), cell_ids=list(data.cell_ids))


def cli_args(workload: Workload, inputs: Inputs, outdir: Path) -> list[str]:
    return [workload.command, str(inputs.config), "--outdir", str(outdir)]


# -- independent quality oracle --------------------------------------------------------


def _contingency(a, b) -> np.ndarray:
    _, ai = np.unique(np.asarray(a), return_inverse=True)
    _, bi = np.unique(np.asarray(b), return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1)
    return table


def _pairs(counts) -> float:
    return float((counts * (counts - 1) / 2).sum())


def ari(a, b) -> float:
    table = _contingency(a, b)
    n = table.sum()
    index = _pairs(table)
    rows, cols = _pairs(table.sum(axis=1)), _pairs(table.sum(axis=0))
    expected = rows * cols / (n * (n - 1) / 2)
    top = (rows + cols) / 2
    return 1.0 if top == expected else (index - expected) / (top - expected)


def nmi(a, b) -> float:
    table = _contingency(a, b) / len(a)
    pa, pb = table.sum(axis=1), table.sum(axis=0)
    ha = -float((pa * np.log(pa)).sum())
    hb = -float((pb * np.log(pb)).sum())
    if ha == 0.0 and hb == 0.0:
        return 1.0
    nz = table > 0
    mi = float((table[nz] * np.log(table[nz] / np.outer(pa, pb)[nz])).sum())
    return mi / (0.5 * (ha + hb))


# -- output checks -------------------------------------------------------------------------


class CheckError(Exception):
    pass


@dataclass
class Outcome:
    """What one command produced: quality, operations, and artifact digests."""

    ari: float
    nmi: float
    attempted: int
    failed: int
    digests: dict[str, str]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list[list[str]]:
    if not path.is_file():
        raise CheckError(f"{path.name} was not written")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckError(f"{path.name} is empty")
    return rows


def check_train(inputs: Inputs, outdir: Path, epochs: int) -> Outcome:
    rows = _rows(outdir / "labels.csv")
    if rows[0] != ["cell_id", "predicted", "pruned_flag"]:
        raise CheckError(f"labels.csv header is {rows[0]}")
    if [r[0] for r in rows[1:]] != inputs.cell_ids:
        raise CheckError("labels.csv does not label every input cell in order")
    predicted = np.array([int(r[1]) for r in rows[1:]])
    if predicted.min() < 0 or predicted.max() >= SYNTH["n_clusters"]:
        raise CheckError(f"labels.csv has labels outside 0..{SYNTH['n_clusters'] - 1}")
    log_rows = _rows(outdir / "training_log.csv")
    if len(log_rows) - 1 != epochs:
        raise CheckError(f"training_log.csv has {len(log_rows) - 1} rows for {epochs} epochs")
    if len(_rows(outdir / "difficulty.csv")) - 1 != len(inputs.cell_ids):
        raise CheckError("difficulty.csv does not score every cell")
    metrics_path = outdir / "metrics.json"
    if not metrics_path.is_file():
        raise CheckError("metrics.json was not written")
    reported = json.loads(metrics_path.read_text())
    quality = ari(inputs.truth, predicted), nmi(inputs.truth, predicted)
    for name, ours in zip(("ari", "nmi"), quality):
        if not abs(reported[name] - ours) <= 1e-9:
            raise CheckError(f"metrics.json {name}={reported[name]} but the labels give {ours}")
    digests = {
        name: _digest(outdir / name)
        for name in ("labels.csv", "training_log.csv", "difficulty.csv")
    }
    return Outcome(quality[0], quality[1], 1, 0, digests)


def check_study(workload: Workload, seed: int, outdir: Path) -> Outcome:
    """A grid cell counts as failed when its row is missing or malformed."""
    path = outdir / "prune_study.csv"
    rows = _rows(path)
    if rows[0] != ["strategy", "alpha", "seed", "ari", "nmi"]:
        raise CheckError(f"prune_study.csv header is {rows[0]}")
    expected = [(s, a, seed) for s in workload.strategies for a in workload.alphas]
    found = {}
    for row in rows[1:]:
        try:
            key = (row[0], float(row[1]), int(row[2]))
            scores = float(row[3]), float(row[4])
        except (IndexError, ValueError):
            continue
        if all(math.isfinite(v) and -1.0 <= v <= 1.0 for v in scores):
            found[key] = scores
    good = [found[key] for key in expected if key in found]
    if not good:
        raise CheckError("prune_study.csv has no valid grid cell")
    return Outcome(
        float(np.median([g[0] for g in good])),
        float(np.median([g[1] for g in good])),
        len(expected),
        len(expected) - len(good),
        {"prune_study.csv": _digest(path)},
    )
