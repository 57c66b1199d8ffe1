"""The stacked training engine against a per-sample reference trainer.

``reference_train`` is the minibatch loop as it ran one sample at a time:
a forward pass, a loss gradient and a backward pass per matrix, each
written out below for a single ``(d, d)`` array.  ``train`` runs every
minibatch as one ``(B, d, d)`` stack and adds the per-sample losses and
weight gradients in sample order, so both must agree bit for bit.
"""

import numpy as np
import pytest

from conftest import random_spd, spd_from_spectrum
from spdcast import (
    LOSS_LOG_EUCLIDEAN,
    LOSS_MSE,
    Network,
    NetworkSpec,
    SpdMatrix,
    TrainConfig,
    train,
)
from spdcast.spd import ensure_pd, logm
from spdcast.stiefel import stiefel_project, stiefel_retract


def sym(a):
    return 0.5 * (a + a.T)


def eigh_desc(a):
    values, vectors = np.linalg.eigh(a)
    return np.ascontiguousarray(values[::-1]), np.ascontiguousarray(vectors[:, ::-1])


def ref_forward(weights, eps, x):
    layer_inputs, pre_dims, eigs = [], [], []
    a = x
    for i, w in enumerate(weights):
        pre_dims.append(a.shape[0])
        if a.shape[0] < w.shape[1]:
            z = np.eye(w.shape[1])
            z[: a.shape[0], : a.shape[0]] = a
            a = z
        layer_inputs.append(a)
        y = sym(w @ a @ w.T)
        if i < len(weights) - 1:
            values, vectors = eigh_desc(y)
            eigs.append((values, vectors))
            a = sym((vectors * np.maximum(values, eps)) @ vectors.T)
        else:
            a = y
    return layer_inputs, pre_dims, eigs, a


def ref_spectral_backward(upstream, values, vectors, fvalues, fprime, floor):
    gaps = values[:, None] - values[None, :]
    small = np.abs(gaps) < floor
    safe = np.where(small, np.where(gaps >= 0.0, floor, -floor), gaps)
    kernel = (fvalues[:, None] - fvalues[None, :]) / safe
    np.fill_diagonal(kernel, fprime)
    n = len(values)
    min_gap = float(np.abs(gaps)[~np.eye(n, dtype=bool)].min()) if n > 1 else np.inf
    inner = vectors.T @ sym(upstream) @ vectors
    return sym(vectors @ (kernel * inner) @ vectors.T), int(small.sum()) - n, min_gap


def ref_loss_grad(pred, target, loss, floor):
    if loss == LOSS_MSE:
        n = pred.shape[0]
        diff = pred - target
        return float(np.sum(diff**2)) / (n * n), (2.0 / (n * n)) * diff, 0
    values, vectors = eigh_desc(pred)
    diff = sym((vectors * np.log(values)) @ vectors.T) - target
    grad, clamps, _ = ref_spectral_backward(
        2.0 * diff, values, vectors, np.log(values), 1.0 / values, floor
    )
    return float(np.sum(diff**2)), grad, clamps


def ref_backward(weights, eps, trace, out_grad, floor):
    layer_inputs, pre_dims, eigs, _ = trace
    g = sym(out_grad)
    grads = [None] * len(weights)
    clamps, min_gap = 0, np.inf
    for i in reversed(range(len(weights))):
        w = weights[i]
        grads[i] = 2.0 * g @ w @ layer_inputs[i]
        g = w.T @ g @ w
        if pre_dims[i] < g.shape[0]:
            g = sym(g[: pre_dims[i], : pre_dims[i]].copy())
        if i > 0:
            values, vectors = eigs[i - 1]
            g, c, gap = ref_spectral_backward(
                g, values, vectors, np.maximum(values, eps), (values > eps).astype(float), floor
            )
            clamps += c
            min_gap = min(min_gap, gap)
    return grads, clamps, min_gap


def reference_train(net, inputs, targets, cfg):
    """One sample at a time.

    Returns the final weights, the last batch's mean Euclidean gradients and
    every TrainResult field.
    """
    weights = [p.value.copy() for p in net.weights]
    eps = net.spec.eps_rectify
    if cfg.loss == LOSS_MSE:
        target_arrays, floored = [t.data for t in targets], 0
    else:
        pds = [ensure_pd(t) for t in targets]
        target_arrays = [logm(pd) for pd in pds]
        floored = sum(pd is not t for pd, t in zip(pds, targets))
    rng = np.random.default_rng(cfg.seed)
    lr = cfg.learning_rate
    epoch_losses = np.zeros(cfg.epochs)
    grad_norms = np.zeros(cfg.epochs)
    min_gaps = np.full(cfg.epochs, np.inf)
    clamps = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(inputs))
        batch_losses, batch_norms = [], []
        for start in range(0, len(inputs), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            acc = [np.zeros(w.shape) for w in weights]
            running = 0.0
            for idx in batch:
                trace = ref_forward(weights, eps, inputs[idx].data)
                loss, out_grad, c = ref_loss_grad(
                    trace[3], target_arrays[idx], cfg.loss, cfg.eig_gap_floor
                )
                grads, c_back, gap = ref_backward(weights, eps, trace, out_grad, cfg.eig_gap_floor)
                clamps += c + c_back
                min_gaps[epoch] = min(min_gaps[epoch], gap)
                running += loss
                for a, g in zip(acc, grads):
                    a += g
            batch_losses.append(running / len(batch))
            sq_norm = 0.0
            for i, g in enumerate(acc):
                g /= len(batch)
                v = stiefel_project(weights[i], g)
                sq_norm += float(np.sum(v**2))
                if lr != 0.0:
                    weights[i] = stiefel_retract(weights[i], -lr * v)
            batch_norms.append(np.sqrt(sq_norm))
        epoch_losses[epoch] = float(np.mean(batch_losses))
        grad_norms[epoch] = float(np.mean(batch_norms))
        lr *= cfg.lr_decay
    return weights, acc, epoch_losses, grad_norms, min_gaps, clamps, floored


def assert_bitwise_equal(net, inputs, targets, cfg):
    expected = reference_train(net, inputs, targets, cfg)
    result = train(net, inputs, targets, cfg)
    weights, grads, epoch_losses, grad_norms, min_gaps, clamps, floored = expected
    for want, grad, param in zip(weights, grads, result.network.weights):
        assert np.array_equal(param.value, want)
        assert np.array_equal(param.grad_euclidean, grad)
    assert np.array_equal(result.epoch_losses, epoch_losses)
    assert np.array_equal(result.grad_norms, grad_norms)
    assert np.array_equal(result.min_eig_gaps, min_gaps)
    assert result.gap_clamp_count == clamps
    assert result.floored_target_count == floored
    return result


LOSSES = [LOSS_MSE, LOSS_LOG_EUCLIDEAN]


@pytest.mark.parametrize("loss", LOSSES)
class TestStackedTrainMatchesReference:
    def test_compressing_network_with_partial_last_batch(self, rng, loss):
        # 23 samples in batches of 8: the last batch holds 7.
        inputs = [random_spd(rng, 6, lo=0.3, hi=3.0) for _ in range(23)]
        targets = [random_spd(rng, 3, lo=0.5, hi=2.0) for _ in range(23)]
        net = Network.init_random(NetworkSpec.default(6, 3), 1)
        cfg = TrainConfig(epochs=4, batch_size=8, learning_rate=5e-2, loss=loss, seed=1)
        assert_bitwise_equal(net, inputs, targets, cfg)

    def test_expansion_layer(self, rng, loss):
        # The hidden layer (5) is wider than the input (3): the stack is padded.
        inputs = [random_spd(rng, 3, lo=0.3, hi=3.0) for _ in range(12)]
        targets = [random_spd(rng, 3, lo=0.5, hi=2.0) for _ in range(12)]
        net = Network.init_random(NetworkSpec(3, (5, 4, 3)), 2)
        cfg = TrainConfig(epochs=3, batch_size=5, learning_rate=5e-2, loss=loss, seed=2)
        assert_bitwise_equal(net, inputs, targets, cfg)

    def test_active_rectification(self, rng, loss):
        # eps_rectify sits inside the hidden spectra, so ReEig clips and its
        # subgradient is zero on the clipped eigenvalues.
        inputs = [random_spd(rng, 6, lo=0.01, hi=2.0) for _ in range(10)]
        targets = [random_spd(rng, 3, lo=0.5, hi=2.0) for _ in range(10)]
        net = Network.init_random(NetworkSpec(6, (4, 3), eps_rectify=0.3), 3)
        clipped = net.forward_trace(np.stack([x.data for x in inputs])).rectify_eigs[0].values
        assert np.any(clipped < 0.3) and np.any(clipped > 0.3)
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=5e-2, loss=loss, seed=3)
        assert_bitwise_equal(net, inputs, targets, cfg)

    def test_repeated_eigenvalues_clamp_gaps(self, rng, loss):
        # Expanding a 2x2 input by two repeats the padded unit eigenvalue.
        inputs = [spd_from_spectrum(rng, rng.uniform(2.0, 3.0, 2)) for _ in range(9)]
        targets = [random_spd(rng, 2, lo=0.5, hi=2.0) for _ in range(9)]
        net = Network.init_random(NetworkSpec(2, (4, 2)), 4)
        cfg = TrainConfig(epochs=2, batch_size=4, loss=loss, seed=4)
        result = assert_bitwise_equal(net, inputs, targets, cfg)
        assert result.gap_clamp_count > 0

    def test_batch_size_one(self, rng, loss):
        inputs = [random_spd(rng, 4, lo=0.3, hi=3.0) for _ in range(6)]
        targets = [random_spd(rng, 2, lo=0.5, hi=2.0) for _ in range(6)]
        net = Network.init_random(NetworkSpec.default(4, 2), 5)
        cfg = TrainConfig(epochs=2, batch_size=1, learning_rate=5e-2, loss=loss, seed=5)
        assert_bitwise_equal(net, inputs, targets, cfg)

    def test_scalar_network_sums_a_long_batch_in_sample_order(self, rng, loss):
        # With 1x1 weights a stacked reduction over 20 samples would sum the
        # Euclidean gradients pairwise; train adds them one by one.
        inputs = [random_spd(rng, 1, lo=0.3, hi=3.0) for _ in range(40)]
        targets = [random_spd(rng, 1, lo=0.5, hi=2.0) for _ in range(40)]
        net = Network.init_random(NetworkSpec(1, (1, 1)), 7)
        cfg = TrainConfig(epochs=3, batch_size=20, learning_rate=5e-2, loss=loss, seed=7)
        assert_bitwise_equal(net, inputs, targets, cfg)


def test_floored_targets_counted_as_before(rng):
    # A rank-deficient target is floor-projected before its logarithm.
    inputs = [random_spd(rng, 4, lo=0.3, hi=3.0) for _ in range(8)]
    targets = [random_spd(rng, 2, lo=0.5, hi=2.0) for _ in range(7)]
    targets.append(SpdMatrix(np.array([[1.0, 1.0], [1.0, 1.0]])))
    net = Network.init_random(NetworkSpec.default(4, 2), 6)
    cfg = TrainConfig(epochs=2, batch_size=3, loss=LOSS_LOG_EUCLIDEAN, seed=6)
    with pytest.warns(RuntimeWarning, match="floor-projected"):
        result = assert_bitwise_equal(net, inputs, targets, cfg)
    assert result.floored_target_count == 1
