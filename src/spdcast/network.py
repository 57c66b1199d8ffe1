"""SPD-to-SPD forecasting network.

A stack of bilinear compression layers ``X -> W X W^T`` with row-orthonormal
weights, eigenvalue rectification ``X -> U max(eps I, Lambda) U^T`` between
them, and identity-padded block expansion whenever a layer's output side
exceeds its input side.  The last layer is always bilinear (no trailing
rectification), so the output is symmetric and strictly positive definite
whenever the input is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DimensionMismatchError
from .spd import EigPair, SpdMatrix, _eigh_desc, _symmetrize
from .stiefel import StiefelParam, random_stiefel

__all__ = [
    "NetworkSpec",
    "Network",
    "ForwardTrace",
    "bimap_forward",
    "reeig_forward",
    "expand_input",
    "save_network",
    "load_network",
]


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

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

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
    """Activations recorded by a forward pass, for backpropagation.

    ``layer_inputs`` holds each bilinear layer's effective (post-expansion)
    input; ``pre_dims`` the side length before expansion; ``rectify_eigs``
    the eigendecomposition of each rectified pre-activation (one entry per
    rectification layer, i.e. all but the last bilinear layer).
    """

    layer_inputs: list[np.ndarray]
    pre_dims: list[int]
    rectify_eigs: list[EigPair]
    output: np.ndarray


def _expand(x: np.ndarray, dim: int) -> np.ndarray:
    z = np.eye(dim)
    z[: x.shape[0], : x.shape[0]] = x
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
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        return cls(spec, [StiefelParam(random_stiefel(s, rng)) for s in spec.weight_shapes()])

    def forward_trace(self, x: np.ndarray) -> ForwardTrace:
        """Array-level forward pass recording everything backprop needs."""
        a = np.asarray(x, dtype=float)
        if a.shape != (self.spec.input_dim, self.spec.input_dim):
            raise DimensionMismatchError(
                f"input shape {a.shape} does not match input_dim {self.spec.input_dim}"
            )
        layer_inputs: list[np.ndarray] = []
        pre_dims: list[int] = []
        rectify_eigs: list[EigPair] = []
        n_layers = len(self.weights)
        for i, param in enumerate(self.weights):
            pre_dims.append(a.shape[0])
            eff = param.shape[1]
            if a.shape[0] < eff:
                a = _expand(a, eff)
            layer_inputs.append(a)
            y = _symmetrize(param.value @ a @ param.value.T)
            if i < n_layers - 1:
                values, vectors = _eigh_desc(y)
                rectify_eigs.append(EigPair(values, vectors))
                clipped = np.maximum(values, self.spec.eps_rectify)
                a = _symmetrize((vectors * clipped) @ vectors.T)
            else:
                a = y
        return ForwardTrace(layer_inputs, pre_dims, rectify_eigs, a)

    def forward(self, x: SpdMatrix) -> SpdMatrix:
        """Map an SPD input to the SPD forecast."""
        return SpdMatrix(self.forward_trace(x.data).output)


def bimap_forward(x: SpdMatrix, weight: StiefelParam | np.ndarray) -> SpdMatrix:
    """Bilinear layer ``W X W^T``; preserves positive (semi)definiteness."""
    w = np.asarray(getattr(weight, "value", weight), dtype=float)
    if w.ndim != 2 or w.shape[1] != x.dim:
        raise DimensionMismatchError(
            f"weight shape {w.shape} incompatible with input dim {x.dim}"
        )
    return SpdMatrix(w @ x.data @ w.T)


def reeig_forward(x: SpdMatrix, eps: float) -> SpdMatrix:
    """Eigenvalue rectification: clip the spectrum from below at ``eps``."""
    if not (eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps}")
    values, vectors = x.eig
    return SpdMatrix._from_eig(np.maximum(values, eps), vectors)


def expand_input(x: SpdMatrix, dim: int) -> SpdMatrix:
    """Embed ``x`` in the top-left block of a ``dim x dim`` matrix, ones on the new diagonal."""
    if dim < x.dim:
        raise DimensionMismatchError(f"cannot expand dim {x.dim} to smaller dim {dim}")
    if dim == x.dim:
        return x
    values, vectors = x.eig
    extra = dim - x.dim
    padded_vectors = np.zeros((dim, dim))
    padded_vectors[: x.dim, : x.dim] = vectors
    padded_vectors[x.dim :, x.dim :] = np.eye(extra)
    padded_values = np.concatenate([values, np.ones(extra)])
    return SpdMatrix._from_eig(padded_values, padded_vectors)


def save_network(net: Network, stem: str | Path) -> None:
    """Persist weights and architecture as ``<stem>.weights`` + ``<stem>.json``.

    Weights are rectangular, so each is embedded in the top-left block of a
    square record (side = the largest layer dimension) in the matrix-series
    binary container, keyed by layer index; the JSON manifest records exact
    shapes, layer dims, and the rectification floor.
    """
    from .data import _write_matrix_records

    stem = Path(stem)
    shapes = [list(p.shape) for p in net.weights]
    side = max(max(s) for s in shapes)
    records = np.zeros((len(net.weights), side, side))
    for i, param in enumerate(net.weights):
        rows, cols = param.shape
        records[i, :rows, :cols] = param.value
    _write_matrix_records(
        stem.with_suffix(".weights"), np.arange(len(net.weights), dtype=np.int64), records
    )
    manifest = {
        "input_dim": net.spec.input_dim,
        "layer_dims": list(net.spec.layer_dims),
        "eps_rectify": net.spec.eps_rectify,
        "weight_shapes": shapes,
    }
    stem.with_suffix(".json").write_text(json.dumps(manifest, indent=2))


def load_network(stem: str | Path) -> Network:
    """Inverse of :func:`save_network`; weights round-trip losslessly."""
    from .data import _read_matrix_records

    stem = Path(stem)
    manifest = json.loads(stem.with_suffix(".json").read_text())
    spec = NetworkSpec(
        int(manifest["input_dim"]),
        tuple(manifest["layer_dims"]),
        float(manifest["eps_rectify"]),
    )
    _, records = _read_matrix_records(stem.with_suffix(".weights"))
    weights = []
    for i, (rows, cols) in enumerate(manifest["weight_shapes"]):
        weights.append(StiefelParam(records[i, :rows, :cols]))
    return Network(spec, weights)
