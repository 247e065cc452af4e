"""In-memory span tracer for one celluster CLI call, and the per-layer
metrics derived from its spans.

`Tracer.install()` wraps the public functions of each celluster module at
every name the pipeline looks them up by: every attribute of a loaded
`celluster.*` module that holds the same function object (so
`celluster.trainer.knn_graph`, `celluster.cli.encode`, ...), plus the
method `Tensor.backward`. No file of the program changes. Spans stay in
memory as (id, parent, name, start, end, run id, attributes) and are
written as JSON lines by `Tracer.write()` when the call has ended.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import sys
import time

# (layer, defining module, function). The span name is "<layer>.<function>".
TARGETS = (
    ("ingest", "celluster.ingest", "load_matrix"),
    ("preprocess", "celluster.preprocess", "preprocess"),
    ("cellgraph", "celluster.cellgraph", "knn_graph"),
    ("cellgraph", "celluster.cellgraph", "subgraph"),
    ("model", "celluster.model", "encode"),
    ("model", "celluster.model", "decode_zinb"),
    ("model", "celluster.model", "decode_adjacency"),
    ("model", "celluster.model", "soft_assign"),
    ("losses", "celluster.losses", "loss_zinb"),
    ("losses", "celluster.losses", "loss_rec"),
    ("losses", "celluster.losses", "loss_cls"),
    ("losses", "celluster.losses", "target_distribution"),
    ("numerics", "celluster.numerics.optim", "adam_step"),
    ("numerics", "celluster.numerics.checkpoint", "save_checkpoint"),
    ("curriculum", "celluster.curriculum", "measure_difficulty"),
    ("curriculum", "celluster.curriculum", "global_difficulty"),
    ("curriculum", "celluster.curriculum", "local_difficulty"),
    ("curriculum", "celluster.curriculum", "prune"),
    ("trainer", "celluster.trainer", "run_pipeline"),
    ("trainer", "celluster.trainer", "pretrain"),
    ("trainer", "celluster.trainer", "init_centers"),
    ("trainer", "celluster.trainer", "formal_train"),
    ("trainer", "celluster.trainer", "predict"),
)
BACKWARD = "numerics.backward"
ROOT = "cli.main"

# Pipeline stages: ru_maxrss is read when these spans exit.
STAGES = {
    "ingest.load_matrix": "ingest",
    "preprocess.preprocess": "preprocess",
    "cellgraph.knn_graph": "graph",
    "trainer.pretrain": "pretrain",
    "curriculum.measure_difficulty": "difficulty",
    "curriculum.prune": "prune",
    "trainer.init_centers": "centers",
    "trainer.formal_train": "formal",
    "trainer.predict": "predict",
}

# TrainConfig fields that pretraining reads; two pretrain calls with equal
# inputs and equal values here produce the same state.
PRETRAIN_FIELDS = (
    "t1", "lr_pretrain", "latent_dim", "hidden_dim", "cheb_order",
    "zinb_dims", "seed", "loss_weights",
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pretrain_key(args, kwargs) -> str:
    pre, graph, cfg = args[:3]
    digest = hashlib.sha256()
    digest.update(pre.normalized.tobytes())
    digest.update(pre.raw.counts.tobytes())
    digest.update(graph.adjacency.indptr.tobytes())
    digest.update(graph.adjacency.indices.tobytes())
    digest.update(graph.laplacian_kind.encode())
    digest.update(repr([getattr(cfg, f) for f in PRETRAIN_FIELDS]).encode())
    digest.update(repr(sorted((k, repr(v)) for k, v in kwargs.items())).encode())
    return digest.hexdigest()


def _attrs(name: str, args, kwargs, result) -> dict:
    """Counts recorded at the boundary where the work happens."""
    if name == "ingest.load_matrix":
        return {"bytes": os.path.getsize(args[0])}
    if name == "cellgraph.knn_graph":
        return {"edges": result.n_edges}
    if name == "cellgraph.subgraph":
        return {"isolated": int((result.degrees == 0).sum())}
    if name == "numerics.save_checkpoint":
        return {"bytes": os.path.getsize(args[0])}
    if name == "trainer.pretrain":
        return {"input_key": _pretrain_key(args, kwargs)}
    if name == "trainer.formal_train":
        return {"subset_last": result.subset_sizes[-1] if result.subset_sizes else 0}
    return {}


def replace_aliases(original, replacement) -> int:
    """Point every `celluster.*` module attribute holding `original` at
    `replacement`; returns how many names were replaced."""
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "celluster" and not mod_name.startswith("celluster."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, args=(), kwargs=None):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        kwargs = kwargs or {}
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "run": self.run_id,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        attrs = _attrs(name, args, kwargs, result)
        if name in STAGES:
            attrs["rss_mb"] = _rss_mb()
        if attrs:
            record["attrs"] = attrs
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        for layer, module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            if replace_aliases(original, self._wrap(f"{layer}.{attr}", original)) == 0:
                raise RuntimeError(f"no module refers to {module_name}.{attr}")
        tensor = sys.modules["celluster.numerics.autodiff"].Tensor
        tensor.backward = self._wrap(BACKWARD, tensor.backward)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


# -- per-layer metrics ----------------------------------------------------------------


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Counts and self times per span name, plus the derived layer figures.

    Self time is a span's duration minus its direct children's durations
    (spans of one process never overlap their siblings).
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    names = {f"{layer}.{attr}" for layer, _, attr in TARGETS} | {BACKWARD, ROOT}
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.s"] = 0.0
        out[f"{name}.calls"] = 0
    for s in spans:
        own = s["end"] - s["start"]
        for c in children.get(s["id"], ()):
            own -= c["end"] - c["start"]
        out[f"{s['name']}.s"] += own
        out[f"{s['name']}.calls"] += 1
    out["cli.self.s"] = out.pop(f"{ROOT}.s")

    def named(name):
        return [s for s in spans if s["name"] == name]

    def attr_values(name, key):
        return [s["attrs"][key] for s in named(name)]

    def last(values):
        return values[-1] if values else 0

    out["ingest.input_bytes"] = last(attr_values("ingest.load_matrix", "bytes"))
    out["cellgraph.edges"] = last(attr_values("cellgraph.knn_graph", "edges"))
    out["cellgraph.isolated_after_prune"] = last(attr_values("cellgraph.subgraph", "isolated"))
    out["numerics.save_checkpoint.bytes"] = sum(attr_values("numerics.save_checkpoint", "bytes"))
    out["trainer.formal.subset_last"] = last(attr_values("trainer.formal_train", "subset_last"))
    keys = attr_values("trainer.pretrain", "input_key")
    out["trainer.pretrain.distinct_ratio"] = len(set(keys)) / len(keys) if keys else 0.0

    for phase, label in (("trainer.pretrain", "pretrain"), ("trainer.formal_train", "formal")):
        epochs = 0
        intervals_ms = []
        for s in named(phase):
            ends = sorted(
                c["end"] for c in children.get(s["id"], ()) if c["name"] == "numerics.adam_step"
            )
            epochs += len(ends)
            intervals_ms += [1000.0 * (b - a) for a, b in zip(ends, ends[1:])]
        out[f"trainer.{label}.epochs"] = epochs
        out[f"trainer.{label}_epoch_ms.p50"] = percentile(intervals_ms, 50)
        out[f"trainer.{label}_epoch_ms.p95"] = percentile(intervals_ms, 95)
        out[f"trainer.{label}_epoch_ms.n"] = len(intervals_ms)

    for name, stage in STAGES.items():  # ru_maxrss never falls: the first exit shows the rise
        out[f"rss_mb.after_{stage}"] = next(iter(attr_values(name, "rss_mb")), 0.0)

    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1 or roots[0]["name"] != ROOT:
        raise ValueError(f"expected one {ROOT} root span, found {[r['name'] for r in roots]}")
    missing = [s["id"] for s in spans if s["parent"] is not None and s["parent"] not in by_id]
    if missing:
        raise ValueError(f"spans {missing[:5]} name a parent that is not in the file")
    out["trace.span_count"] = len(spans)
    return out
