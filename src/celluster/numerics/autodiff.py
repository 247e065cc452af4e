"""A forward result paired with its closed-form backward.

A Tensor is what encode, its one producer in the package, returns:
the output values and the function that maps an upstream gradient of
those values to the gradients in the computation's inputs. There is no
tape: the trainer writes the chain rule out itself, and calls backward
once per epoch, on the encoder's output. The backward closure captures
exactly the arrays its gradient reads, so it never reads `values`, and it
may run any number of times.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible; names both shapes."""


class Tensor:
    """Values plus the closed-form backward of the computation that made
    them."""

    __slots__ = ("values", "_vjp")

    def __init__(self, values: np.ndarray, vjp):
        self.values = values
        self._vjp = vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def backward(self, g: np.ndarray) -> list[np.ndarray]:
        """The gradients of sum(values * g) in the computation's inputs, in
        the order its producer documents."""
        if np.shape(g) != self.values.shape:
            raise ShapeMismatchError(
                f"backward: upstream gradient of shape {np.shape(g)} "
                f"for values of shape {self.values.shape}"
            )
        return self._vjp(g)
