"""The numeric core: closed-form backward results (autodiff), Adam and the
atomic .npz checkpoint writer."""

from .autodiff import ShapeMismatchError, Tensor
from .checkpoint import save_checkpoint
from .optim import AdamState, adam_step

__all__ = [
    "AdamState",
    "ShapeMismatchError",
    "Tensor",
    "adam_step",
    "save_checkpoint",
]
