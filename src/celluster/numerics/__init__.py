from .autodiff import (
    NonScalarBackwardError,
    ShapeMismatchError,
    Tensor,
    as_tensor,
    closed_form,
    index_rows,
)
from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .optim import AdamState, adam_step

__all__ = [
    "AdamState",
    "CheckpointFormatError",
    "NonScalarBackwardError",
    "ShapeMismatchError",
    "Tensor",
    "adam_step",
    "as_tensor",
    "closed_form",
    "index_rows",
    "load_checkpoint",
    "save_checkpoint",
]
