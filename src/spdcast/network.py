"""SPD-to-SPD forecasting network.

A stack of bilinear compression layers ``X -> W X W^T`` with row-orthonormal
weights, eigenvalue rectification ``X -> U max(eps I, Lambda) U^T`` between
them, and identity-padded block expansion whenever a layer's output side
exceeds its input side.  The last layer is always bilinear (no trailing
rectification), so the output is symmetric and strictly positive definite
whenever the input is.  The layers run on ``(B, d, d)`` stacks, one
matrix per sample, for training and inference alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError
from .spd import EigPair, SpdMatrix, _eigh_desc, _recompose, _symmetrize
from .stiefel import StiefelParam, random_stiefel

__all__ = ["NetworkSpec", "Network", "ForwardTrace"]


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture: input side length and the output side of each bilinear layer."""

    input_dim: int
    layer_dims: tuple[int, ...]
    eps_rectify: float = 1e-4

    def __post_init__(self) -> None:
        object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be positive, got {self.input_dim}")
        if len(self.layer_dims) == 0:
            raise ValueError("layer_dims must be nonempty")
        if any(d < 1 for d in self.layer_dims):
            raise ValueError(f"layer dims must be positive, got {self.layer_dims}")
        if not (self.eps_rectify > 0.0):
            raise ValueError(f"eps_rectify must be positive, got {self.eps_rectify}")

    def weight_shapes(self) -> list[tuple[int, int]]:
        """(rows, cols) per bilinear layer; expansion pads cols up to rows."""
        shapes = []
        current = self.input_dim
        for out in self.layer_dims:
            shapes.append((out, max(current, out)))
            current = out
        return shapes

    @classmethod
    def default(
        cls, input_dim: int, output_dim: int, eps_rectify: float = 1e-4
    ) -> "NetworkSpec":
        """Three bilinear layers: compress to min(input, 2*output), then output side."""
        hidden = min(input_dim, 2 * output_dim)
        return cls(input_dim, (hidden, output_dim, output_dim), eps_rectify)


@dataclass
class ForwardTrace:
    """Activations recorded by a forward pass over a stack, for backpropagation.

    ``layer_inputs`` holds each bilinear layer's effective (post-expansion)
    input stack; ``rectify_eigs`` the stacked eigendecomposition of each
    rectified pre-activation (one entry per rectification layer, i.e. all
    but the last bilinear layer); ``output`` the stack of outputs.
    """

    layer_inputs: list[np.ndarray]
    rectify_eigs: list[EigPair]
    output: np.ndarray


def _expand(x: np.ndarray, dim: int) -> np.ndarray:
    """Each matrix in the top-left block of a ``dim x dim`` one, ones on the new diagonal."""
    side = x.shape[-1]
    z = np.zeros((*x.shape[:-2], dim, dim))
    z[..., :side, :side] = x
    pad = np.arange(side, dim)
    z[..., pad, pad] = 1.0
    return z


class Network:
    """Weights plus architecture; see the module docstring for the layer stack."""

    def __init__(self, spec: NetworkSpec, weights: list[StiefelParam]) -> None:
        shapes = spec.weight_shapes()
        if len(weights) != len(shapes):
            raise DimensionMismatchError(
                f"expected {len(shapes)} weights, got {len(weights)}"
            )
        for param, shape in zip(weights, shapes):
            if param.shape != shape:
                raise DimensionMismatchError(
                    f"weight shape {param.shape} does not match layer shape {shape}"
                )
        self.spec = spec
        self.weights = weights

    @classmethod
    def init_random(cls, spec: NetworkSpec, seed: int | np.random.Generator) -> "Network":
        rng = np.random.default_rng(seed)
        return cls(spec, [StiefelParam(random_stiefel(s, rng)) for s in spec.weight_shapes()])

    def forward_trace(self, x: np.ndarray) -> ForwardTrace:
        """Forward pass over a ``(B, d, d)`` stack, recording everything backprop needs.

        Every layer broadcasts over the leading axes, and NumPy decomposes
        and multiplies a stack one slice at a time, so each sample's output
        is bit for bit the one it would get alone.  A single ``(d, d)``
        matrix passes through the same kernels unstacked.
        """
        a = np.asarray(x, dtype=float)
        d = self.spec.input_dim
        if a.ndim < 2 or a.shape[-2:] != (d, d):
            raise DimensionMismatchError(
                f"input shape {a.shape} does not match input_dim {d}"
            )
        layer_inputs: list[np.ndarray] = []
        rectify_eigs: list[EigPair] = []
        n_layers = len(self.weights)
        for i, param in enumerate(self.weights):
            eff = param.shape[1]
            if a.shape[-1] < eff:
                a = _expand(a, eff)
            layer_inputs.append(a)
            y = _symmetrize(param.value @ a @ param.value.T)
            if i < n_layers - 1:
                values, vectors = _eigh_desc(y)
                rectify_eigs.append(EigPair(values, vectors))
                clipped = np.maximum(values, self.spec.eps_rectify)
                a = _recompose(clipped, vectors)
            else:
                a = y
        return ForwardTrace(layer_inputs, rectify_eigs, a)

    def forward(self, x: SpdMatrix | np.ndarray) -> SpdMatrix:
        """Map an SPD matrix or ``(d, d)`` array to the SPD forecast, as a stack of one."""
        return SpdMatrix(self.forward_trace(np.asarray(x)[None]).output[0])
