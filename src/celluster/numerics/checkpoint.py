"""Checkpoint files: a text manifest of names and shapes, then raw float64.

Layout:
    tensors <count>\n
    <name> <rank> <dim0> ... <dim_{rank-1}>\n   (one line per tensor)
    end\n
    <little-endian float64 payload, manifest order>

Names may not contain whitespace. Scalars have rank 0. A file is written
whole or not at all: save_checkpoint writes a temporary file next to it,
syncs it and renames it over the target.
"""

from __future__ import annotations

import os
import re
from contextlib import suppress
from pathlib import Path

import numpy as np


class CheckpointFormatError(ValueError):
    pass


def save_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    lines = [f"tensors {len(arrays)}"]
    for name, arr in arrays.items():
        if any(ch.isspace() for ch in name) or not name:
            raise CheckpointFormatError(f"invalid tensor name {name!r}")
        arr = np.asarray(arr, dtype=np.float64)
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"{name} {arr.ndim}" + (f" {dims}" if dims else ""))
    lines.append("end")
    header = ("\n".join(lines) + "\n").encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for arr in arrays.values():
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


_MANIFEST_LINE = re.compile(rb"(\S+)((?: [0-9]+)+)")  # a word, then counts


def _manifest_line(path, lineno: int, line: bytes) -> tuple[str, list[int]]:
    match = _MANIFEST_LINE.fullmatch(line)
    if match is not None:
        with suppress(UnicodeDecodeError):
            return match[1].decode("utf-8"), [int(d) for d in match[2].split()]
    raise CheckpointFormatError(f"{path}: manifest line {lineno} {line!r} is malformed")


def load_checkpoint(path) -> dict[str, np.ndarray]:
    raw = Path(path).read_bytes()
    marker = b"end\n"
    split = raw.find(marker)
    if split < 0:
        raise CheckpointFormatError(f"{path}: manifest has no end marker")
    lines = raw[:split].splitlines()
    header = [_manifest_line(path, i, line) for i, line in enumerate(lines, start=1)]
    body = raw[split + len(marker):]

    if not header or header[0][0] != "tensors" or len(header[0][1]) != 1:
        raise CheckpointFormatError(f"{path}: manifest line 1 is not 'tensors <count>'")
    count = header[0][1][0]
    if len(header) - 1 != count:
        raise CheckpointFormatError(
            f"{path}: manifest lists {len(header) - 1} tensors, header says {count}"
        )

    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for lineno, (name, (rank, *shape)) in enumerate(header[1:], start=2):
        if len(shape) != rank:
            raise CheckpointFormatError(
                f"{path}: manifest line {lineno} {lines[lineno - 1]!r} has rank {rank} "
                f"but {len(shape)} dimensions"
            )
        nbytes = int(np.prod(shape)) * 8
        if offset + nbytes > len(body):
            raise CheckpointFormatError(f"{path}: payload truncated at tensor {name!r}")
        arrays[name] = np.frombuffer(body[offset : offset + nbytes], dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(body):
        raise CheckpointFormatError(f"{path}: {len(body) - offset} trailing payload bytes")
    return arrays
