"""Losses, spectral backpropagation, and Riemannian SGD.

Gradient checks compare the analytic backward pass against central finite
differences of the full forward-plus-loss map.  Most fixtures keep
eigenvalue gaps well above the divided-difference clamp; networks that pad
a layer by two or more repeat eigenvalue 1, where the clamped gaps take the
quotient's derivative limit, and the clamp counts are checked separately.
"""

import warnings

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
    backward,
    logm,
    loss_log_euclidean,
    loss_mse,
    stiefel_error,
    stiefel_project,
    train,
)
from spdcast import optim
from spdcast.exceptions import DimensionMismatchError, TrainingDivergedError
from spdcast.optim import _grad_log_euclidean, _grad_mse, _loewner_kernel


def network_loss(net, x, target, loss):
    fn = loss_mse if loss == LOSS_MSE else loss_log_euclidean
    return fn(net.forward(x), target)


def fd_weight_grads(net, x, target, loss, h=1e-6):
    """Central finite differences through retraction-free perturbation.

    Weights are perturbed entrywise in the ambient space; the analytic
    Euclidean gradient is compared before tangent projection.
    """
    grads = []
    for param in net.weights:
        g = np.zeros_like(param.value)
        base = param.value.copy()
        for idx in np.ndindex(*base.shape):
            param.value = base.copy()
            param.value[idx] = base[idx] + h
            up = network_loss(net, x, target, loss)
            param.value = base.copy()
            param.value[idx] = base[idx] - h
            down = network_loss(net, x, target, loss)
            g[idx] = (up - down) / (2.0 * h)
        param.value = base
        grads.append(g)
    return grads


def analytic_weight_grads(net, x, target, loss):
    trace = net.forward_trace(x.data)
    if loss == LOSS_MSE:
        _, out_grad = _grad_mse(trace.output, target.data)
    else:
        _, out_grad, _ = _grad_log_euclidean(trace.output, logm(target), 1e-6)
    return backward(net, trace, out_grad)


def spread_input(rng, n, k=1):
    # eigenvalues spaced well apart so no rectification gap gets clamped
    values = np.linspace(0.5, 3.5, k * n) + rng.uniform(0.0, 0.05, k * n)
    return spd_from_spectrum(rng, values)


class TestLoewnerKernel:
    def test_off_diagonal_divided_differences(self):
        values = np.array([4.0, 1.0, 0.25])
        fvalues = np.log(values)
        fprime = 1.0 / values
        kernel, clamps, _ = _loewner_kernel(values, fvalues, fprime, 1e-6)
        assert clamps == 0
        for i in range(3):
            for j in range(3):
                if i == j:
                    assert np.isclose(kernel[i, j], fprime[i], rtol=1e-14)
                else:
                    expected = (fvalues[i] - fvalues[j]) / (values[i] - values[j])
                    assert np.isclose(kernel[i, j], expected, rtol=1e-14)

    def test_clamps_tiny_gaps_and_counts(self):
        values = np.array([2.0, 2.0 + 1e-9, 1.0])
        kernel, clamps, min_gap = _loewner_kernel(values, values, np.ones(3), 1e-6)
        assert clamps > 0
        assert min_gap <= 1.1e-9
        assert kernel[0, 1] == kernel[1, 0] == 1.0  # the derivative, not 1e-9 / 1e-6

    def test_min_gap_reported(self):
        values = np.array([3.0, 1.0, 0.5])
        _, _, min_gap = _loewner_kernel(values, values, np.ones(3), 1e-6)
        assert np.isclose(min_gap, 0.5)


class TestLosses:
    def test_mse_matches_direct_formula(self, rng):
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        expected = np.sum((a.data - b.data) ** 2) / 16.0
        assert np.isclose(loss_mse(a, b), expected, rtol=1e-14)

    def test_mse_zero_on_equal(self, rng):
        m = random_spd(rng, 3)
        assert loss_mse(m, m) == 0.0

    def test_log_euclidean_from_constructed_logs(self, rng):
        # both operands share an eigenbasis by construction, so the loss is
        # the squared norm of the log-eigenvalue differences
        q_vals = np.array([3.0, 1.5, 0.5])
        p_vals = np.array([2.0, 1.0, 0.25])
        from conftest import random_orthogonal

        q = random_orthogonal(rng, 3)
        a = SpdMatrix(q @ np.diag(q_vals) @ q.T)
        b = SpdMatrix(q @ np.diag(p_vals) @ q.T)
        expected = np.sum((np.log(q_vals) - np.log(p_vals)) ** 2)
        assert np.isclose(loss_log_euclidean(a, b), expected, atol=1e-12)

    @pytest.mark.parametrize("label", ["prediction", "target"])
    def test_log_euclidean_warns_on_a_rank_deficient_operand(self, label):
        singular, eye = SpdMatrix(np.diag([2.0, 0.0])), SpdMatrix(np.eye(2))
        pair = (singular, eye) if label == "prediction" else (eye, singular)
        with pytest.warns(RuntimeWarning, match=f"^{label} is rank deficient; floor-projected at "):
            loss = loss_log_euclidean(*pair)
        assert np.isfinite(loss) and loss > 0.0

    @pytest.mark.parametrize("loss", [loss_mse, loss_log_euclidean])
    def test_operands_must_be_spd_matrices(self, loss):
        with pytest.raises(TypeError, match="^expected two SpdMatrix operands$"):
            loss(np.eye(2), SpdMatrix(np.eye(2)))


class TestGradients:
    @pytest.mark.parametrize("loss", [LOSS_MSE, LOSS_LOG_EUCLIDEAN])
    def test_compressing_network(self, rng, loss):
        spec = NetworkSpec(6, (4, 3), eps_rectify=1e-4)
        net = Network.init_random(spec, 5)
        x = spread_input(rng, 6)
        target = random_spd(rng, 3, lo=0.5, hi=2.0)
        result = analytic_weight_grads(net, x, target, loss)
        fd = fd_weight_grads(net, x, target, loss)
        for got, want in zip(result.weight_grads, fd):
            rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)
            assert rel <= 1e-5

    @pytest.mark.parametrize("loss", [LOSS_MSE, LOSS_LOG_EUCLIDEAN])
    def test_expansion_by_one(self, rng, loss):
        # padding adds a unit eigenvalue; keep the data spectrum clear of 1.0
        spec = NetworkSpec(3, (4, 3), eps_rectify=1e-4)
        net = Network.init_random(spec, 8)
        x = spd_from_spectrum(rng, [1.7, 2.3, 3.1])
        target = random_spd(rng, 3, lo=0.5, hi=2.0)
        result = analytic_weight_grads(net, x, target, loss)
        fd = fd_weight_grads(net, x, target, loss)
        for got, want in zip(result.weight_grads, fd):
            rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)
            assert rel <= 1e-5

    @pytest.mark.parametrize("loss", [LOSS_MSE, LOSS_LOG_EUCLIDEAN])
    @pytest.mark.parametrize("input_dim, layer_dims", [(3, (2, 4, 3)), (4, (3, 5, 2)),
                                                       (3, (2, 5, 4, 3))])
    def test_padding_above_the_first_layer_repeats_the_unit_eigenvalue(
        self, rng, input_dim, layer_dims, loss
    ):
        # A hidden layer wider than the one below pads by two or more, so its
        # rectification sees eigenvalue 1 repeated above eps_rectify; the
        # gradient there takes the divided difference's limit, f' = 1.
        net = Network.init_random(NetworkSpec(input_dim, layer_dims), 11)
        x = spread_input(rng, input_dim)
        target = random_spd(rng, layer_dims[-1], lo=0.5, hi=2.0)
        result = analytic_weight_grads(net, x, target, loss)
        assert result.gap_clamps.sum() > 0
        fd = fd_weight_grads(net, x, target, loss)
        for got, want in zip(result.weight_grads, fd):
            rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)
            assert rel <= 1e-5

    def test_gap_clamp_diagnostics_fire_on_degenerate_padding(self, rng):
        # expanding by two repeats the padded unit eigenvalue exactly
        spec = NetworkSpec(2, (4, 2), eps_rectify=1e-4)
        net = Network.init_random(spec, 3)
        x = spd_from_spectrum(rng, [2.0, 3.0])
        target = random_spd(rng, 2)
        result = analytic_weight_grads(net, x, target, LOSS_MSE)
        assert result.gap_clamps > 0
        assert result.min_gap <= 1e-6


class TestTrain:
    def make_problem(self, rng, n=3, count=24):
        target = random_spd(rng, n, lo=0.8, hi=1.5)
        inputs = [random_spd(rng, 2 * n, lo=0.3, hi=3.0) for _ in range(count)]
        targets = [target for _ in range(count)]
        return inputs, targets

    def test_loss_decreases(self, rng):
        inputs, targets = self.make_problem(rng)
        net = Network.init_random(NetworkSpec.default(6, 3), 1)
        cfg = TrainConfig(epochs=12, batch_size=8, learning_rate=5e-2, seed=1)
        result = train(net, inputs, targets, cfg)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_weights_stay_on_manifold(self, rng):
        inputs, targets = self.make_problem(rng)
        net = Network.init_random(NetworkSpec.default(6, 3), 2)
        cfg = TrainConfig(epochs=5, batch_size=8, learning_rate=1e-1, seed=2)
        result = train(net, inputs, targets, cfg)
        for param in result.network.weights:
            assert stiefel_error(param.value) <= 1e-10

    def test_gradients_projected_to_tangent(self, rng):
        inputs, targets = self.make_problem(rng)
        net = Network.init_random(NetworkSpec.default(6, 3), 3)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=3)
        result = train(net, inputs, targets, cfg)
        for param in result.network.weights:
            v = stiefel_project(param.value, param.grad_euclidean)
            skew = v @ param.value.T + param.value @ v.T
            assert np.linalg.norm(skew) <= 1e-10

    def test_deterministic_given_seed(self, rng):
        inputs, targets = self.make_problem(rng)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=7)
        net_a = Network.init_random(NetworkSpec.default(6, 3), 7)
        net_b = Network.init_random(NetworkSpec.default(6, 3), 7)
        res_a = train(net_a, inputs, targets, cfg)
        res_b = train(net_b, inputs, targets, cfg)
        for wa, wb in zip(res_a.network.weights, res_b.network.weights):
            assert np.array_equal(wa.value, wb.value)
        assert np.array_equal(res_a.epoch_losses, res_b.epoch_losses)

    def test_zero_learning_rate_freezes_weights(self, rng):
        inputs, targets = self.make_problem(rng)
        net = Network.init_random(NetworkSpec.default(6, 3), 4)
        before = [p.value.copy() for p in net.weights]
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.0, seed=4)
        train(net, inputs, targets, cfg)
        for prev, param in zip(before, net.weights):
            assert np.array_equal(prev, param.value)

    def test_mse_loss_route(self, rng):
        inputs, targets = self.make_problem(rng)
        net = Network.init_random(NetworkSpec.default(6, 3), 5)
        cfg = TrainConfig(epochs=6, batch_size=8, loss=LOSS_MSE, learning_rate=5e-2, seed=5)
        result = train(net, inputs, targets, cfg)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_non_finite_loss_stops_before_backward(self, monkeypatch):
        calls = []
        original = optim.backward
        monkeypatch.setattr(optim, "backward", lambda *args: calls.append(1) or original(*args))
        net = Network.init_random(NetworkSpec.default(2, 2), 0)
        with pytest.raises(TrainingDivergedError) as err, np.errstate(over="ignore"):
            train(net, [SpdMatrix(1e200 * np.eye(2))], [SpdMatrix(np.eye(2))],
                  TrainConfig(loss=LOSS_MSE))
        assert str(err.value) == ("non-finite loss at epoch 0, batch starting 0 "
                                  "(learning_rate=1.000e-02)")
        assert calls == []

    def test_diverging_mse_batch_raises_without_a_warning(self):
        net = Network.init_random(NetworkSpec.default(2, 2), 0)
        with warnings.catch_warnings(), pytest.raises(TrainingDivergedError):
            warnings.simplefilter("error")
            train(net, [SpdMatrix(1e200 * np.eye(2))], [SpdMatrix(np.eye(2))],
                  TrainConfig(loss=LOSS_MSE))

    def test_targets_of_two_sides_rejected(self):
        net = Network.init_random(NetworkSpec.default(2, 2), 0)
        eye = SpdMatrix(np.eye(2))
        with pytest.raises(DimensionMismatchError,
                           match="^sample is not dimension-uniform: 3 vs 2$"):
            train(net, [eye, eye], [eye, SpdMatrix(np.eye(3))], TrainConfig())

    def test_length_mismatch_rejected(self, rng):
        inputs, targets = self.make_problem(rng)
        net = Network.init_random(NetworkSpec.default(6, 3), 8)
        with pytest.raises(Exception):
            train(net, inputs, targets[:-1], TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(loss="hinge")
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=0.0)
