"""The numeric core: closed-form backward results (autodiff), Adam and the
checkpoint format."""

from .autodiff import ShapeMismatchError, Tensor
from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .optim import AdamState, adam_step

__all__ = [
    "AdamState",
    "CheckpointFormatError",
    "ShapeMismatchError",
    "Tensor",
    "adam_step",
    "load_checkpoint",
    "save_checkpoint",
]
