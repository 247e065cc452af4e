"""Flat key=value run configuration.

UTF-8 text, one `key=value` per line, `#` starts a comment, keys match
TrainConfig field names (every training setting, the graph, difficulty and
pruning switches included) plus run-level settings (paths, the input
format and the prune-study grid). The effective config written next to a run's
outputs reloads to an identical run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .ingest import FORMATS, ParseError, read_text
from .trainer import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    train: TrainConfig
    input: str | None = None
    input_format: str = "csv"
    labels: str | None = None
    outdir: str = "out"
    # prune-study grid
    strategies: list[str] = field(default_factory=lambda: ["hard"])
    alphas: list[float] = field(default_factory=lambda: [0.11])
    seeds: list[int] = field(default_factory=lambda: [0])

    def __post_init__(self):
        if self.input_format not in FORMATS:
            raise ConfigError(f"input_format must be one of {FORMATS}, got {self.input_format!r}")
        for key in ("strategies", "alphas", "seeds"):
            entries = getattr(self, key)
            if not entries:
                raise ConfigError(f"{key!r} must list at least one entry")
            for i, value in enumerate(entries):
                if value in entries[:i]:
                    raise ConfigError(
                        f"duplicate entry {value!r} in {key!r} "
                        f"(first given as entry {entries.index(value) + 1})"
                    )
        try:  # TrainConfig checks each cell's strategy, alpha and seed
            self.cells()
        except ValueError as err:
            raise ConfigError(f"prune-study grid: {err}") from None

    def cells(self) -> list[TrainConfig]:
        """The prune-study grid: `train` with each (strategy, alpha, seed), in row order."""
        grid = itertools.product(self.strategies, self.alphas, self.seeds)
        return [replace(self.train, prune_strategy=s, alpha=a, seed=seed) for s, a, seed in grid]


def _field_types(cls) -> dict[str, object]:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


# The schema: every config key and the annotation its value parses as.
TRAIN_TYPES = _field_types(TrainConfig)
RUN_TYPES = {name: tp for name, tp in _field_types(RunConfig).items() if name != "train"}


def scalar_type(tp):
    """The type one value of annotation `tp` parses as (`int` for
    `int | None`); None for tuples and lists, which hold several."""
    if get_origin(tp) in (tuple, list):
        return None
    return next(a for a in get_args(tp) or (tp,) if a is not type(None))


def _parse_value(tp, raw: str):
    """Parse one config value against its field annotation: comma-separated
    for tuples (exact length; one or more for `tuple[X, ...]`) and lists,
    `none` or empty for optionals."""
    args = get_args(tp)
    if get_origin(tp) is tuple:
        parts = raw.split(",")
        if args[1:] == (Ellipsis,):
            args = args[:1] * len(parts)
        if len(parts) != len(args):
            raise ValueError(f"needs {len(args)} comma-separated values, got {raw!r}")
        return tuple(_parse_value(a, p.strip()) for a, p in zip(args, parts))
    if get_origin(tp) is list:
        return [_parse_value(args[0], p.strip()) for p in raw.split(",") if p.strip()]
    if type(None) in args and raw.lower() in ("", "none"):
        return None
    return scalar_type(tp)(raw)


def _format_value(value) -> str:
    """Inverse of _parse_value; floats use repr so they reload exactly."""
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def parse_config(path) -> RunConfig:
    try:
        text = read_text(path)
    except ParseError as err:
        raise ConfigError(f"{path}: {err.detail}") from None
    train_kwargs: dict = {}
    run_kwargs: dict = {}
    first_set: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in TRAIN_TYPES:
            kwargs, tp = train_kwargs, TRAIN_TYPES[key]
        elif key in RUN_TYPES:
            kwargs, tp = run_kwargs, RUN_TYPES[key]
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_set:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {key!r} (first set on line {first_set[key]})"
            )
        first_set[key] = lineno
        try:
            kwargs[key] = _parse_value(tp, raw)
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {err}") from None
    if "n_clusters" not in train_kwargs:
        raise ConfigError(f"{path}: n_clusters is required")
    try:
        train = TrainConfig(**train_kwargs)
        return RunConfig(train=train, **run_kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from None


def write_config(cfg: RunConfig, path) -> None:
    """Echo the fully resolved configuration, one key per line."""
    train = replace(cfg.train, t_hat=cfg.train.effective_t_hat)
    values = [(n, getattr(train, n)) for n in TRAIN_TYPES]
    values += [(n, getattr(cfg, n)) for n in RUN_TYPES]
    lines = [f"{name}={_format_value(v)}\n" for name, v in values if v is not None]
    Path(path).write_text("".join(lines), encoding="utf-8")
