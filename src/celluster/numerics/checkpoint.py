"""Checkpoint files: numpy's uncompressed .npz of little-endian float64 tensors.

np.load reads a checkpoint back, names in the order they were given. The
bytes depend only on the tensors: numpy stamps every zip member with the
same fixed time. A file is written whole or not at all: save_checkpoint
writes a temporary file next to it, syncs it and renames it over the target.
"""

from __future__ import annotations

import os
from contextlib import suppress
from pathlib import Path

import numpy as np


def save_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **{name: np.asarray(a, dtype="<f8") for name, a in arrays.items()})
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
