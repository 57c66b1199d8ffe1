"""Riemannian SGD on Stiefel weights with structured spectral backpropagation.

Gradients flow through the eigendecomposition-based layers via the
divided-difference (Loewner) kernel: for a spectral map ``Y = U f(L) U^T``
the pullback of an upstream gradient ``dY`` is ``U (G * (U^T sym(dY) U)) U^T``
where ``G_ij = (f(l_i) - f(l_j)) / (l_i - l_j)`` off the diagonal and
``G_ii = f'(l_i)``.  The quotient is numerically unstable where two
eigenvalues nearly coincide, as where an expansion layer repeats its padded
unit eigenvalue, so a gap below a configurable floor takes the quotient's
limit ``(f'(l_i) + f'(l_j)) / 2`` instead, and is counted as a clamp.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import LOSS_LOG_EUCLIDEAN, LOSS_MSE, LOSSES
from .exceptions import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    TrainingDivergedError,
)
from .data import CovSeries
from .network import ForwardTrace, Network
from .spd import (SpdMatrix, _check_pair, _eigh_desc, _recompose, _sample_stacks, _symmetrize,
                  dist_frobenius, ensure_pd, ensure_pd_values, logm, logm_stack)
from .stiefel import stiefel_project, stiefel_retract

__all__ = [
    "LOSS_MSE",
    "LOSS_LOG_EUCLIDEAN",
    "TrainConfig",
    "TrainResult",
    "BackwardResult",
    "loss_mse",
    "loss_log_euclidean",
    "backward",
    "train",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    epochs: int = 30
    batch_size: int = 32
    loss: str = LOSS_LOG_EUCLIDEAN
    seed: int = 0
    eig_gap_floor: float = 1e-6
    lr_decay: float = 0.95

    def __post_init__(self) -> None:
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}, expected one of {LOSSES}")
        if not (self.eig_gap_floor > 0.0):
            raise ValueError("eig_gap_floor must be positive")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ValueError("lr_decay must be in (0, 1]")


@dataclass
class TrainResult:
    """Per-epoch training diagnostics plus the trained network."""

    network: Network
    epoch_losses: np.ndarray
    grad_norms: np.ndarray
    min_eig_gaps: np.ndarray
    gap_clamp_count: int
    floored_target_count: int


@dataclass
class BackwardResult:
    """Per-sample Euclidean gradients and gap diagnostics for one recorded
    forward pass: each field has the traced stack's leading axis ``B``."""

    weight_grads: list[np.ndarray]
    gap_clamps: np.ndarray
    min_gap: np.ndarray


def _loewner_kernel(
    values: np.ndarray, fvalues: np.ndarray, fprime: np.ndarray, gap_floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Divided-difference multipliers of each spectrum in a stack.  A gap below
    gap_floor takes the quotient's limit, the mean derivative
    ``(f'(l_i) + f'(l_j)) / 2``, which is ``f'(l_i)`` on the diagonal.  Per
    spectrum also the clamped gap count and the smallest off-diagonal gap
    (inf for a 1x1 matrix)."""
    gaps = values[..., :, None] - values[..., None, :]
    small = np.abs(gaps) < gap_floor
    quotient = (fvalues[..., :, None] - fvalues[..., None, :]) / np.where(small, 1.0, gaps)
    kernel = np.where(small, 0.5 * (fprime[..., :, None] + fprime[..., None, :]), quotient)
    n = values.shape[-1]
    clamped = small.sum(axis=(-2, -1)) - n  # the diagonal is always "small"
    min_gap = np.where(np.eye(n, dtype=bool), np.inf, np.abs(gaps)).min(axis=(-2, -1))
    return kernel, clamped, min_gap


def _spectral_backward(
    upstream: np.ndarray,
    values: np.ndarray,
    vectors: np.ndarray,
    fvalues: np.ndarray,
    fprime: np.ndarray,
    gap_floor: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    kernel, clamped, min_gap = _loewner_kernel(values, fvalues, fprime, gap_floor)
    vectors_t = np.swapaxes(vectors, -1, -2)
    inner = vectors_t @ _symmetrize(upstream) @ vectors
    return _symmetrize(vectors @ (kernel * inner) @ vectors_t), clamped, min_gap


def _sum_squares(a: np.ndarray) -> np.ndarray:
    """Sum of squared entries of each matrix, bit for bit ``np.sum(m ** 2)`` of each alone."""
    return (a**2).reshape(*a.shape[:-2], -1).sum(axis=-1)


def loss_mse(pred: SpdMatrix, target: SpdMatrix) -> float:
    """Mean squared entry error: ``||pred - target||_F^2 / n^2``."""
    return dist_frobenius(pred, target) / (pred.dim * pred.dim)


def loss_log_euclidean(pred: SpdMatrix, target: SpdMatrix) -> float:
    """Squared log-Euclidean loss ``||logm(pred) - logm(target)||_F^2``.

    Rank-deficient operands are floor-projected by :func:`ensure_pd` with a
    warning.
    """
    _check_pair(pred, target)
    logs = []
    for label, s in (("prediction", pred), ("target", target)):
        floored = ensure_pd(s)
        if floored is not s:
            warnings.warn(
                f"{label} is rank deficient; floor-projected at {floored.eig.values[-1]:.3e}",
                RuntimeWarning,
                stacklevel=2,
            )
        logs.append(logm(floored))
    return float(np.sum((logs[0] - logs[1]) ** 2))


def _grad_mse(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample mean squared entry error and its gradient."""
    n = pred.shape[-1]
    diff = pred - target
    with np.errstate(over="ignore"):  # an infinite loss is train's TrainingDivergedError
        return _sum_squares(diff) / (n * n), (2.0 / (n * n)) * diff


def _grad_log_euclidean(
    pred: np.ndarray, target_log: np.ndarray, gap_floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample squared log-Euclidean loss, its gradient, and the output kernel's clamps."""
    values, vectors = _eigh_desc(pred)
    if np.any(values[..., -1] <= 0.0):
        raise NotPositiveDefiniteError(
            "prediction lost strict positive definiteness during training"
        )
    log_values = np.log(values)
    diff = _recompose(log_values, vectors) - target_log
    grad, clamped, _ = _spectral_backward(
        2.0 * diff, values, vectors, log_values, 1.0 / values, gap_floor
    )
    return _sum_squares(diff), grad, clamped


def backward(
    net: Network,
    trace: ForwardTrace,
    output_grad: np.ndarray,
    gap_floor: float = 1e-6,
) -> BackwardResult:
    """Pull a stack of loss gradients at the output back to per-sample weight gradients.

    Bilinear layers contribute ``dW = 2 sym(g) W X`` and, above layer 0,
    propagate ``W^T sym(g) W``; expansion layers truncate to the original
    block; rectification layers apply the spectral kernel with
    ``f = max(eps, .)`` and subgradient 0 at the clip boundary.
    """
    eps = net.spec.eps_rectify
    g = _symmetrize(np.asarray(output_grad, dtype=float))
    grads: list[np.ndarray] = [np.empty(0)] * len(net.weights)
    clamps = np.zeros(g.shape[:-2], dtype=int)
    min_gap = np.full(g.shape[:-2], np.inf)
    for i in reversed(range(1, len(net.weights))):
        w = net.weights[i].value
        grads[i] = 2.0 * g @ w @ trace.layer_inputs[i]
        g = w.T @ g @ w
        pre = net.spec.layer_dims[i - 1]
        if pre < g.shape[-1]:
            g = _symmetrize(g[..., :pre, :pre])
        values, vectors = trace.rectify_eigs[i - 1]
        g, c, gap = _spectral_backward(g, values, vectors, np.maximum(values, eps),
                                       (values > eps).astype(float), gap_floor)
        clamps = clamps + c
        min_gap = np.minimum(min_gap, gap)
    grads[0] = 2.0 * g @ net.weights[0].value @ trace.layer_inputs[0]
    return BackwardResult(grads, clamps, min_gap)


def _prepare_targets(targets, loss: str) -> tuple[np.ndarray, int]:
    """The target stack; for the log-Euclidean loss, of target logarithms (floored if needed)."""
    data, values, vectors = ((targets.data, targets.values, targets.vectors)
                             if isinstance(targets, CovSeries) else _sample_stacks(targets))
    if loss == LOSS_MSE:
        return data, 0
    floored_values = ensure_pd_values(values)
    floored = int(np.count_nonzero(floored_values[:, -1] > values[:, -1]))
    if floored:
        log.warning("%d training targets were rank deficient and floor-projected", floored)
    return logm_stack(floored_values, vectors), floored


def train(
    net: Network,
    inputs: np.ndarray | Sequence[SpdMatrix],
    targets: CovSeries | Sequence[SpdMatrix],
    cfg: TrainConfig,
) -> TrainResult:
    """Minibatch Riemannian SGD.

    Each minibatch runs as one ``(B, d, d)`` stack through the forward pass,
    the loss gradient and the backward pass.  Per batch: average the
    per-sample Euclidean weight gradients (added in sample order), project
    each onto the tangent space at its weight, and retract ``W - lr * V``
    back onto the manifold.  The learning rate decays geometrically per
    epoch.  Run order is driven entirely by ``cfg.seed``, so training is
    reproducible given (seed, config, data order).  A non-finite loss
    aborts with diagnostics.
    """
    if len(inputs) != len(targets) or len(inputs) == 0:
        raise DimensionMismatchError("inputs and targets must be equal-length and nonempty")
    x_stack = np.asarray(inputs, dtype=float)
    target_stack, floored = _prepare_targets(targets, cfg.loss)

    rng = np.random.default_rng(cfg.seed)
    lr = cfg.learning_rate
    n_samples = len(x_stack)
    epoch_losses = np.zeros(cfg.epochs)
    grad_norms = np.zeros(cfg.epochs)
    min_gaps = np.full(cfg.epochs, np.inf)
    total_clamps = 0

    for epoch in range(cfg.epochs):
        order = rng.permutation(n_samples)
        batch_losses: list[float] = []
        batch_norms: list[float] = []
        for start in range(0, n_samples, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            trace = net.forward_trace(x_stack[batch])
            if cfg.loss == LOSS_MSE:
                losses, out_grad = _grad_mse(trace.output, target_stack[batch])
            else:
                losses, out_grad, c = _grad_log_euclidean(
                    trace.output, target_stack[batch], cfg.eig_gap_floor
                )
                total_clamps += int(c.sum())
            mean_loss = float(np.add.accumulate(losses)[-1]) / len(batch)
            if not np.isfinite(mean_loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch starting {start} "
                    f"(learning_rate={lr:.3e})"
                )
            back = backward(net, trace, out_grad, cfg.eig_gap_floor)
            total_clamps += int(back.gap_clamps.sum())
            min_gaps[epoch] = min(min_gaps[epoch], float(back.min_gap.min()))
            batch_losses.append(mean_loss)
            sq_norm = 0.0
            for param, sample_grads in zip(net.weights, back.weight_grads):
                g = np.add.accumulate(sample_grads)[-1] / len(batch)
                param.grad_euclidean = g
                v = stiefel_project(param.value, g)
                sq_norm += float(np.sum(v**2))
                if lr != 0.0:
                    param.value = stiefel_retract(param.value, -lr * v)
            batch_norms.append(np.sqrt(sq_norm))
        epoch_losses[epoch] = float(np.mean(batch_losses))
        grad_norms[epoch] = float(np.mean(batch_norms))
        lr *= cfg.lr_decay

    return TrainResult(
        net, epoch_losses, grad_norms, min_gaps, total_clamps, floored
    )
