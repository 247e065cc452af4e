"""Load, persist, and synthesize cell x gene count matrices.

Two on-disk formats:
  csv          header row: corner label then gene ids; one row per cell,
               first field the cell id, then integer counts.
  mtx-triplet  "rows cols nnz" header, then 1-indexed "row col value" lines;
               absent entries are zero, duplicate entries accumulate.
Ground-truth labels travel in a sidecar CSV with header "cell_id,label";
the same reader takes the "cell_id,predicted,..." labels a run writes.
Every file is read as UTF-8 (read_text), with or without a byte-order mark.
"""

from __future__ import annotations

import csv
import io
import itertools
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FORMATS = ("csv", "mtx-triplet")

_INT64_MAX = int(np.iinfo(np.int64).max)


class IngestError(ValueError):
    pass


class ParseError(IngestError):
    def __init__(self, path, line: int, message: str):
        self.line = line
        self.detail = message
        super().__init__(f"{path}:{line}: {message}")


class NegativeCountError(IngestError):
    pass


class DuplicateIdError(IngestError):
    pass


class LabelError(IngestError):
    pass


@dataclass(frozen=True)
class ExpressionMatrix:
    counts: np.ndarray  # (n_cells, n_genes) non-negative int64
    cell_ids: list[str]
    gene_ids: list[str]
    labels: np.ndarray | None = None  # (n_cells,) ints in 0..n_classes-1

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise IngestError(f"counts must be 2-d, got shape {counts.shape}")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(np.isfinite(counts)):
                raise IngestError("counts contain non-finite values")
            if not np.all(counts == np.floor(counts)):
                raise IngestError("counts must be integers")
        if np.any(counts < 0):
            bad = np.argwhere(counts < 0)[0]
            raise NegativeCountError(
                f"negative count at cell {bad[0]}, gene {bad[1]}"
            )
        object.__setattr__(self, "counts", np.asarray(counts, dtype=np.int64))  # int64 is shared
        if len(self.cell_ids) != counts.shape[0]:
            raise IngestError(
                f"{len(self.cell_ids)} cell ids for {counts.shape[0]} rows"
            )
        if len(self.gene_ids) != counts.shape[1]:
            raise IngestError(
                f"{len(self.gene_ids)} gene ids for {counts.shape[1]} columns"
            )
        for kind, ids in (("cell", self.cell_ids), ("gene", self.gene_ids)):
            if len(set(ids)) != len(ids):
                seen = set()
                dup = next(i for i in ids if i in seen or seen.add(i))
                raise DuplicateIdError(f"duplicate {kind} id {dup!r}")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (counts.shape[0],):
                raise LabelError(
                    f"labels shape {labels.shape} for {counts.shape[0]} cells"
                )
            present = np.unique(labels)
            expected = np.arange(present.size)
            if present.size == 0 or not np.array_equal(present, expected):
                raise LabelError(
                    "labels must cover 0..n_classes-1 with every class non-empty"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def n_cells(self) -> int:
        return self.counts.shape[0]

    @property
    def n_genes(self) -> int:
        return self.counts.shape[1]


@dataclass(frozen=True)
class SynthesisSpec:
    n_cells: int
    n_genes: int
    n_clusters: int
    dropout_rate: float = 0.3
    dispersion: float = 2.0
    mean_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 1:
            raise IngestError("n_clusters must be >= 1")
        if self.n_cells < self.n_clusters:
            raise IngestError("need at least one cell per cluster")
        if self.n_genes < 1:
            raise IngestError("n_genes must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise IngestError("dropout_rate must lie in [0, 1)")
        for name in ("dispersion", "mean_scale"):
            if not 0.0 < getattr(self, name) < np.inf:  # NaN fails both comparisons
                raise IngestError(f"{name} must be positive and finite")


# -- file I/O ------------------------------------------------------------------


def read_text(path) -> str:
    """The file at `path` as UTF-8 text, a leading byte-order mark dropped.
    A byte that is not UTF-8 raises ParseError naming its line and its
    offset in the file. The mark is dropped by hand: decoding "utf-8-sig"
    would count the offset from after the mark, naming the wrong byte."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        message = f"not UTF-8 text: byte {raw[err.start]:#04x} at offset {err.start}"
        raise ParseError(path, line, message) from None
    return text.removeprefix("\ufeff")


def _csv_rows(path) -> list[list[str]]:
    """The CSV rows of read_text(path), split as open(path, newline="")
    would split them."""
    return list(csv.reader(io.StringIO(read_text(path), newline="")))


def load_matrix(path, format: str) -> ExpressionMatrix:
    if format not in FORMATS:
        raise IngestError(f"unknown format {format!r}, expected one of {FORMATS}")
    if format == "csv":
        return _load_csv(path)
    return _load_mtx(path)


def save_matrix(data: ExpressionMatrix, path, format: str) -> None:
    if format not in FORMATS:
        raise IngestError(f"unknown format {format!r}, expected one of {FORMATS}")
    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cell_id"] + list(data.gene_ids))
            for cid, row in zip(data.cell_ids, data.counts):
                writer.writerow([cid] + [int(v) for v in row])
    else:
        rows, cols = np.nonzero(data.counts)
        with open(path, "w") as fh:
            fh.write(f"{data.n_cells} {data.n_genes} {len(rows)}\n")
            for r, c in zip(rows, cols):
                fh.write(f"{r + 1} {c + 1} {int(data.counts[r, c])}\n")


def _parse_count(field: str, path, line: int) -> int:
    try:
        value = int(field)
    except ValueError:
        raise ParseError(path, line, f"expected an integer count, got {field!r}") from None
    if value < 0:
        raise NegativeCountError(f"{path}:{line}: negative count {value}")
    if value > _INT64_MAX:  # counts are held as int64
        raise ParseError(path, line, f"count {field!r} exceeds the int64 range")
    return value


def _load_csv(path) -> ExpressionMatrix:
    rows = _csv_rows(path)
    if not rows:
        raise ParseError(path, 1, "empty file")
    header = rows[0]
    if len(header) < 2:
        raise ParseError(path, 1, "header needs a corner label and at least one gene id")
    gene_ids = [g.strip() for g in header[1:]]
    cell_ids, counts = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise ParseError(
                path, lineno, f"expected {len(header)} fields, got {len(row)}"
            )
        cell_ids.append(row[0].strip())
        counts.append([_parse_count(f.strip(), path, lineno) for f in row[1:]])
    if not cell_ids:
        raise ParseError(path, 2, "no data rows")
    return ExpressionMatrix(np.array(counts, dtype=np.int64), cell_ids, gene_ids)


def _parse_triplets(entries: list[str], n_rows: int, n_cols: int) -> np.ndarray | None:
    """The (len(entries), 3) triplets of a well-formed mtx body in one parse,
    or None for anything the line-by-line parse might reject."""
    if not entries:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy < 2 only warns on "1.0"
            triplets = np.loadtxt(entries, dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError, Warning):  # numpy < 2 may overflow
        return None
    if triplets.shape != (len(entries), 3):
        return None
    rows, cols, values = triplets.T
    valid = (
        1 <= rows.min() and rows.max() <= n_rows
        and 1 <= cols.min() and cols.max() <= n_cols
        and values.min() >= 0
        # then no sum of duplicates can leave the int64 range
        and values.max() <= _INT64_MAX // len(entries)
    )
    return triplets if valid else None


def _load_mtx(path) -> ExpressionMatrix:
    lines = read_text(path).splitlines()
    head_line = next((i for i, ln in enumerate(lines, start=1) if ln.strip()), None)
    if head_line is None:
        raise ParseError(path, 1, "empty file")
    head = lines[head_line - 1].strip()
    parts = head.split()
    if len(parts) != 3:
        raise ParseError(path, head_line, f"header must be 'rows cols nnz', got {head!r}")
    try:
        n_rows, n_cols, nnz = (int(p) for p in parts)
    except ValueError:
        raise ParseError(path, head_line, f"non-integer header field in {head!r}") from None
    if n_rows < 0 or n_cols < 0:
        raise ParseError(path, head_line, f"negative dimension in header {head!r}")
    entries = [e for e in map(str.strip, itertools.islice(lines, head_line, None)) if e]
    if len(entries) != nnz:
        raise ParseError(path, head_line, f"header promises {nnz} entries, file has {len(entries)}")
    counts = np.zeros((n_rows, n_cols), dtype=np.int64)
    triplets = _parse_triplets(entries, n_rows, n_cols)
    if triplets is not None:
        rows, cols, values = triplets.T
        np.add.at(counts, (rows - 1, cols - 1), values)  # duplicates accumulate
    else:
        # only this rare path numbers the lines, to name the one it rejects
        body = map(str.strip, itertools.islice(lines, head_line, None))
        for lineno, entry in enumerate(body, start=head_line + 1):
            if not entry:
                continue
            fields = entry.split()
            if len(fields) != 3:
                raise ParseError(path, lineno, f"expected 'row col value', got {entry!r}")
            try:
                r, c = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError(path, lineno, f"non-integer index in {entry!r}") from None
            if not (1 <= r <= n_rows and 1 <= c <= n_cols):
                raise ParseError(path, lineno, f"index ({r}, {c}) outside {n_rows}x{n_cols}")
            total = int(counts[r - 1, c - 1]) + _parse_count(fields[2], path, lineno)
            if total > _INT64_MAX:  # duplicates accumulate
                raise ParseError(
                    path, lineno, f"entries for ({r}, {c}) sum beyond the int64 range"
                )
            counts[r - 1, c - 1] = total
    cell_ids = [f"cell_{i}" for i in range(n_rows)]
    gene_ids = [f"gene_{j}" for j in range(n_cols)]
    return ExpressionMatrix(counts, cell_ids, gene_ids)


def save_labels(data: ExpressionMatrix, path) -> None:
    if data.labels is None:
        raise LabelError("matrix carries no labels to save")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_id", "label"])
        for cid, lab in zip(data.cell_ids, data.labels):
            writer.writerow([cid, int(lab)])


def read_labels(path) -> dict[str, int]:
    """Cell id -> integer label from a 'cell_id,label' sidecar or a
    'cell_id,predicted,...' prediction file; every row has the header's
    field count, and no cell id repeats."""
    rows = _csv_rows(path)
    header = [f.strip() for f in rows[0]] if rows else []
    if header[:2] not in (["cell_id", "label"], ["cell_id", "predicted"]):
        raise ParseError(path, 1, "expected a cell_id,label or cell_id,predicted header")
    by_id: dict[str, int] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        cid = row[0].strip()
        if cid in by_id:
            raise DuplicateIdError(f"{path}:{lineno}: duplicate cell id {cid!r}")
        try:
            label = int(row[1]) if len(row) == len(header) else None
        except ValueError:
            label = None
        if label is None:
            raise ParseError(path, lineno, f"expected a cell id and an integer label, got {row}")
        by_id[cid] = label
    return by_id


def load_labels(path, cell_ids: list[str]) -> np.ndarray:
    by_id = read_labels(path)
    missing = [cid for cid in cell_ids if cid not in by_id]
    if missing:
        raise LabelError(f"{path}: no label for cell id {missing[0]!r}")
    return np.array([by_id[cid] for cid in cell_ids], dtype=np.int64)


def with_labels(data: ExpressionMatrix, labels: np.ndarray) -> ExpressionMatrix:
    return ExpressionMatrix(data.counts, data.cell_ids, data.gene_ids, labels)


def restrict_genes(data: ExpressionMatrix, indices) -> ExpressionMatrix:
    """`data` on the genes at `indices`; `data` itself when that is every
    gene in order, so no second count matrix is made."""
    idx = np.asarray(indices, dtype=np.intp)
    if np.array_equal(idx, np.arange(data.n_genes)):
        return data
    return ExpressionMatrix(
        data.counts[:, idx],
        data.cell_ids,
        [data.gene_ids[i] for i in idx],
        data.labels,
    )


# -- synthesis ------------------------------------------------------------------


def synthesize(spec: SynthesisSpec) -> ExpressionMatrix:
    """Draw counts from per-cluster zero-inflated negative binomials.

    Per cluster, gene means are log-normal(0, 1) scaled by mean_scale; each
    entry is NB(mean, dispersion) zeroed with probability dropout_rate. The
    whole draw is a pure function of the seed.
    """
    rng = np.random.default_rng(spec.seed)
    means = spec.mean_scale * rng.lognormal(
        mean=0.0, sigma=1.0, size=(spec.n_clusters, spec.n_genes)
    )
    labels = np.arange(spec.n_cells, dtype=np.int64) % spec.n_clusters
    mu = means[labels]  # (n_cells, n_genes)
    lam = rng.gamma(shape=spec.dispersion, scale=mu / spec.dispersion)
    counts = rng.poisson(lam).astype(np.int64)
    dropped = rng.random(size=counts.shape) < spec.dropout_rate
    counts[dropped] = 0
    cell_ids = [f"cell_{i}" for i in range(spec.n_cells)]
    gene_ids = [f"gene_{j}" for j in range(spec.n_genes)]
    return ExpressionMatrix(counts, cell_ids, gene_ids, labels)
