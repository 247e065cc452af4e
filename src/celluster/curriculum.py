"""Node difficulty scoring, pruning, and the pacing schedule.

Difficulty combines two views: locally, the summed cosine similarity of a
node's embedding to its neighbors', one dot product per edge; globally, one
minus the node's share of total entropy variation, where a node's variation
is the drop in degree-distribution entropy when it and its edges are
removed. The removals are scored a block of nodes at a time, each
remainder's entropy by the one row-entropy formula graph_entropy uses, so
no subgraph is rebuilt and the result is bit-identical to rebuilding each.
Low-variation nodes contribute little structure and count as hard.
Components are min-max normalized before the beta-weighted combination,
since their raw scales are incommensurate.

Note the local measurer's polarity: summing similarities literally scores
homogeneous neighborhoods as *harder*. That is the formula as given and the
default; the `local_mode="dissimilarity"` setting (a TrainConfig field)
sums 1 - S instead, the degree minus the similarity sum, for callers who
want boundary nodes scored hard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cellgraph import CellGraph

LOCAL_MODES = ("literal", "dissimilarity")
PRUNE_STRATEGIES = ("hard", "easy", "random")
GLOBAL_ROW_BLOCK = 256  # node removals scored per dense (block, n) slab


@dataclass(frozen=True)
class DifficultyReport:
    local: np.ndarray  # (n,)
    global_: np.ndarray  # (n,)
    combined: np.ndarray  # (n,) = beta * local_norm + (1 - beta) * global_norm
    order: np.ndarray  # node indices, ascending difficulty, ties to lower index
    beta: float

    @property
    def n(self) -> int:
        return self.local.shape[0]


@dataclass(frozen=True)
class PruneResult:
    kept: np.ndarray  # ascending-difficulty order
    dropped: np.ndarray
    alpha: float


@dataclass(frozen=True)
class PacingConfig:
    lambda0: float  # initial fraction in (0, 1]
    t_hat: float  # ramp length in epochs, >= 1

    def __post_init__(self):
        if not 0.0 < self.lambda0 <= 1.0:
            raise ValueError(f"lambda0 must be in (0, 1], got {self.lambda0}")
        if self.t_hat < 1:
            raise ValueError(f"t_hat must be >= 1, got {self.t_hat}")


def local_difficulty(z, graph: CellGraph, mode: str = "literal") -> np.ndarray:
    """Per node, the summed cosine similarity to its neighbors' embeddings
    (`mode="dissimilarity"`: the degree minus that sum), in O(nnz * d).

    Isolated nodes score 0; zero-norm embedding rows contribute similarity 0.
    """
    if mode not in LOCAL_MODES:
        raise ValueError(f"unknown local mode {mode!r}, expected one of {LOCAL_MODES}")
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] != graph.n:
        raise ValueError(f"{z.shape[0]} embedding rows for a graph of {graph.n} nodes")
    norms = np.linalg.norm(z, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = z / safe[:, None]
    unit[norms == 0] = 0.0  # zero-norm rows contribute S = 0
    literal = np.einsum("ij,ij->i", unit, graph.adjacency @ unit)
    return literal if mode == "literal" else graph.degrees - literal


def graph_entropy(graph: CellGraph) -> float:
    """Natural-log entropy of the degree distribution; edgeless graphs have
    entropy 0 and degree-0 nodes contribute 0 through 0*log(0) := 0."""
    return float(_entropies(graph.degrees))


def _entropies(degrees) -> np.ndarray:
    """The entropy of each row of `degrees` as a distribution (its last
    axis): 0*log(0) := 0 in place, and an all-zero row has entropy 0."""
    degrees = np.asarray(degrees, dtype=np.float64)
    totals = degrees.sum(axis=-1, keepdims=True)
    p = degrees / np.where(totals > 0, totals, 1.0)
    return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=-1)


def global_difficulty(graph: CellGraph) -> np.ndarray:
    """One minus each node's share of total entropy variation.

    A node's variation is Ent(G) - Ent(G without the node and its edges).
    The remainder's degrees are d_u - A[v, u] over u != v, so
    `GLOBAL_ROW_BLOCK` removals are scored at once from the dense rows of A,
    each row's entropy by the same formula as graph_entropy on the rebuilt
    subgraph: the same values, summed in the same order, so the result is
    bit-identical to recomputing it. All-zero variation (e.g. an edgeless
    graph) maps to all-zero difficulty.
    """
    n = graph.n
    if n < 2:
        raise ValueError("global difficulty needs at least 2 nodes")
    base = graph_entropy(graph)
    degrees = graph.degrees.astype(np.float64)
    variation = np.empty(n)
    for start in range(0, n, GLOBAL_ROW_BLOCK):
        block = np.arange(start, min(start + GLOBAL_ROW_BLOCK, n))
        others = np.ones((block.size, n), dtype=bool)
        others[np.arange(block.size), block] = False
        remaining = (degrees - graph.adjacency[block].toarray())[others]
        variation[block] = base - _entropies(remaining.reshape(block.size, n - 1))
    total = variation.sum()
    if total == 0:
        return np.zeros(n)
    return 1.0 - variation / total


def _min_max(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.zeros_like(values)  # constant component carries no signal
    return (values - lo) / (hi - lo)


def combine_and_rank(local, global_, beta: float) -> DifficultyReport:
    local = np.asarray(local, dtype=np.float64)
    global_ = np.asarray(global_, dtype=np.float64)
    if local.shape != global_.shape:
        raise ValueError(f"component lengths differ: {local.shape} vs {global_.shape}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    combined = beta * _min_max(local) + (1.0 - beta) * _min_max(global_)
    order = np.argsort(combined, kind="stable")  # ties resolve to the lower index
    return DifficultyReport(
        local=local, global_=global_, combined=combined, order=order, beta=beta
    )


def measure_difficulty(
    z, graph: CellGraph, beta: float = 0.5, local_mode: str = "literal"
) -> DifficultyReport:
    return combine_and_rank(
        local_difficulty(z, graph, mode=local_mode), global_difficulty(graph), beta
    )


def prune(
    report: DifficultyReport, alpha: float, strategy: str = "hard", seed: int = 0
) -> PruneResult:
    """Drop floor(alpha * n) nodes: the hardest, the easiest, or a seeded
    uniform sample. `kept` preserves ascending-difficulty order."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if strategy not in PRUNE_STRATEGIES:
        raise ValueError(
            f"unknown prune strategy {strategy!r}, expected one of {PRUNE_STRATEGIES}"
        )
    n = report.n
    n_drop = int(np.floor(alpha * n))
    order = report.order
    if strategy == "hard":
        kept, dropped = order[:n - n_drop], order[n - n_drop:]
    elif strategy == "easy":
        kept, dropped = order[n_drop:], order[:n_drop]
    else:
        rng = np.random.default_rng(seed)
        positions = rng.choice(n, size=n_drop, replace=False)
        mask = np.zeros(n, dtype=bool)
        mask[positions] = True
        kept, dropped = order[~mask[order]], order[mask[order]]
    return PruneResult(kept=kept.copy(), dropped=dropped.copy(), alpha=alpha)


def pacing_fraction(t: float, cfg: PacingConfig, alpha: float) -> float:
    """min(1, 2^(log2(lambda0) * (1 - t/t_hat))), capped at 1 - alpha.

    Starts at lambda0, doubles smoothly, reaches the cap by t = t_hat, and
    never decreases. From t_hat on it returns the cap without the power,
    which would overflow once t >> t_hat.
    """
    if t < 0:
        raise ValueError(f"epoch must be >= 0, got {t}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if t >= cfg.t_hat:
        return 1.0 - alpha
    exponent = np.log2(cfg.lambda0) * (1.0 - t / cfg.t_hat)
    fraction = min(1.0, 2.0**exponent)
    return min(fraction, 1.0 - alpha)


def write_difficulty_csv(path, report: DifficultyReport, result: PruneResult | None = None) -> None:
    """CSV rows: node_id,local,global,combined,rank,dropped (rank 0 = easiest)."""
    rank = np.empty(report.n, dtype=np.int64)
    rank[report.order] = np.arange(report.n)
    dropped = np.zeros(report.n, dtype=bool)
    if result is not None:
        dropped[result.dropped] = True
    with open(path, "w") as fh:
        fh.write("node_id,local,global,combined,rank,dropped\n")
        for v in range(report.n):
            fh.write(
                f"{v},{float(report.local[v])!r},{float(report.global_[v])!r},"
                f"{float(report.combined[v])!r},{rank[v]},{int(dropped[v])}\n"
            )
