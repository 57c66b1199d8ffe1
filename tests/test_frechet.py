"""Closed-form and iterative Fréchet means."""

import math

import numpy as np
import pytest

from conftest import random_spd, spd_from_spectrum
from spdcast import (
    METRIC_LOG_EUCLIDEAN,
    METRIC_PROCRUSTES,
    FrechetConfig,
    SpdMatrix,
    dist_log_euclidean,
    frechet_mean,
    frechet_mean_log_euclidean,
    frechet_mean_procrustes,
    logm,
    project_to_spd,
    sqrtm_psd,
)
from spdcast.frechet import _exact_mean, mean_from_roots
from spdcast.spd import SPD_FLOOR


def per_matrix_gpa(sample, cfg):
    """Generalized Procrustes averaging one matrix at a time: the oracle.

    The algorithm of the library's batched :func:`mean_from_roots`, written
    with a single-matrix SVD per sample element and iteration.
    """

    def rotation(l1, l2):
        u, _, vt = np.linalg.svd(l2.T @ l1)
        flip = np.where(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0, -1.0, 1.0)
        return (u * flip) @ (vt * flip[:, None])

    roots = [sqrtm_psd(s) for s in sample]
    center = roots[0].copy()
    trace = []
    prev = math.inf
    converged = False
    for n_iters in range(1, cfg.max_iters + 1):
        aligned = np.stack([r @ rotation(center, r) for r in roots])
        center = _exact_mean(aligned)
        objective = float(np.sum((aligned - center) ** 2))
        trace.append(objective)
        if math.isfinite(prev) and prev - objective <= cfg.tol * max(abs(prev), 1.0):
            converged = True
            break
        prev = objective
    gram = center @ center.T
    lmax = float(np.linalg.eigvalsh(gram)[-1])
    mean = project_to_spd(gram, SPD_FLOOR * (lmax if lmax > 0.0 else 1.0))
    return mean, converged, n_iters, np.asarray(trace)


class TestLogEuclideanMean:
    def test_mean_of_identical_matrices(self, rng):
        m = random_spd(rng, 4)
        mean = frechet_mean_log_euclidean([m, m, m])
        assert np.allclose(mean.data, m.data, atol=1e-12)

    def test_scalar_family_geometric_mean(self):
        # diag(1,1) and diag(e^2,e^2) average to diag(e,e) in log space
        a = SpdMatrix(np.eye(2))
        b = SpdMatrix(np.exp(2.0) * np.eye(2))
        mean = frechet_mean_log_euclidean([a, b])
        assert np.allclose(mean.data, np.e * np.eye(2), atol=1e-12)

    def test_commuting_diagonals(self):
        a = SpdMatrix(np.diag([1.0, 8.0]))
        b = SpdMatrix(np.diag([4.0, 2.0]))
        mean = frechet_mean_log_euclidean([a, b])
        assert np.allclose(mean.data, np.diag([2.0, 4.0]), atol=1e-12)

    def test_permutation_invariant_bitwise(self, rng):
        sample = [random_spd(rng, 3) for _ in range(7)]
        forward = frechet_mean_log_euclidean(sample)
        shuffled = frechet_mean_log_euclidean(sample[::-1])
        assert np.array_equal(forward.data, shuffled.data)

    def test_minimizes_sum_of_squared_distances(self, rng):
        # the mean must beat every sample point and random probes
        sample = [random_spd(rng, 3) for _ in range(5)]
        mean = frechet_mean_log_euclidean(sample)

        def objective(candidate):
            return sum(dist_log_euclidean(candidate, s) ** 2 for s in sample)

        best = objective(mean)
        for probe in sample:
            assert best <= objective(probe) + 1e-10
        for _ in range(20):
            probe = random_spd(rng, 3)
            assert best <= objective(probe) + 1e-10

    def test_gradient_stationarity(self, rng):
        # at the optimum the log-domain residuals sum to zero
        sample = [random_spd(rng, 4) for _ in range(6)]
        mean = frechet_mean_log_euclidean(sample)
        residual = sum(logm(s) - logm(mean) for s in sample)
        assert np.linalg.norm(residual) <= 1e-10


class TestProcrustesMean:
    def test_scaled_identity_pair(self):
        # roots are I and 3I, aligned average is 2I, squared back to 4I
        a = SpdMatrix(np.eye(2))
        b = SpdMatrix(9.0 * np.eye(2))
        result = frechet_mean_procrustes([a, b])
        assert result.converged
        assert np.allclose(result.mean.data, 4.0 * np.eye(2), atol=1e-10)

    def test_mean_of_identical_matrices(self, rng):
        m = random_spd(rng, 3)
        result = frechet_mean_procrustes([m, m, m, m])
        assert result.converged
        assert np.allclose(result.mean.data, m.data, atol=1e-10)

    def test_objective_trace_non_increasing(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            sample = [random_spd(rng, n) for _ in range(6)]
            result = frechet_mean_procrustes(sample)
            trace = result.objective_trace
            assert len(trace) >= 1
            assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))

    def test_respects_iteration_cap(self, rng):
        sample = [random_spd(rng, 3) for _ in range(4)]
        cfg = FrechetConfig(metric=METRIC_PROCRUSTES, max_iters=2, tol=1e-300)
        result = frechet_mean_procrustes(sample, cfg)
        assert result.n_iters <= 2

    def test_mean_is_spd(self, rng):
        sample = [spd_from_spectrum(rng, [1e-6, 1.0, 5.0]) for _ in range(4)]
        result = frechet_mean_procrustes(sample)
        assert result.mean.eig.values[-1] > 0.0


class TestBatchedGpa:
    """The batched GPA reproduces the per-matrix algorithm bit for bit."""

    @staticmethod
    def assert_matches_oracle(result, sample, cfg):
        mean, converged, n_iters, trace = per_matrix_gpa(sample, cfg)
        assert np.array_equal(result.mean.data, mean.data)
        assert np.array_equal(result.mean.eig.values, mean.eig.values)
        assert np.array_equal(result.mean.eig.vectors, mean.eig.vectors)
        assert (result.converged, result.n_iters) == (converged, n_iters)
        assert np.array_equal(result.objective_trace, trace)

    @pytest.mark.parametrize("n", [5, 8])
    def test_rolling_windows_match_per_matrix_gpa(self, rng, n):
        series = [random_spd(rng, n, lo=0.2, hi=4.0) for _ in range(40)]
        v = rng.standard_normal(n)
        series[25] = SpdMatrix(np.outer(v, v))  # a rank-one day
        cfg = FrechetConfig(metric=METRIC_PROCRUSTES)
        roots = np.stack([sqrtm_psd(m) for m in series])
        for k in (5, 22):
            for t in range(k, len(series) + 1):
                window = series[t - k : t]
                self.assert_matches_oracle(frechet_mean_procrustes(window, cfg), window, cfg)
                self.assert_matches_oracle(mean_from_roots(roots[t - k : t], cfg), window, cfg)

    def test_one_matrix_sample(self, rng):
        for m in (random_spd(rng, 5), SpdMatrix(np.outer(np.arange(1.0, 6.0), np.arange(1.0, 6.0)))):
            cfg = FrechetConfig(metric=METRIC_PROCRUSTES)
            self.assert_matches_oracle(frechet_mean_procrustes([m], cfg), [m], cfg)

    def test_iteration_cap_matches(self, rng):
        sample = [random_spd(rng, 5) for _ in range(22)]
        cfg = FrechetConfig(metric=METRIC_PROCRUSTES, max_iters=2, tol=1e-300)
        result = frechet_mean_procrustes(sample, cfg)
        assert not result.converged
        self.assert_matches_oracle(result, sample, cfg)


class TestDispatcher:
    def test_log_euclidean_route(self, rng):
        sample = [random_spd(rng, 3) for _ in range(3)]
        cfg = FrechetConfig(metric=METRIC_LOG_EUCLIDEAN)
        direct = frechet_mean_log_euclidean(sample)
        routed = frechet_mean(sample, cfg)
        assert np.array_equal(routed.data, direct.data)

    def test_procrustes_route(self, rng):
        sample = [random_spd(rng, 3) for _ in range(3)]
        cfg = FrechetConfig(metric=METRIC_PROCRUSTES)
        direct = frechet_mean_procrustes(sample, cfg).mean
        routed = frechet_mean(sample, cfg)
        assert np.array_equal(routed.data, direct.data)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            frechet_mean_log_euclidean([])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FrechetConfig(metric="affine")
        with pytest.raises(ValueError):
            FrechetConfig(metric=METRIC_PROCRUSTES, max_iters=0)
        with pytest.raises(ValueError):
            FrechetConfig(metric=METRIC_PROCRUSTES, tol=-1.0)


class TestExactMean:
    @staticmethod
    def stacks(rng):
        # Entries spread over 16 decades, so that naive summation would round
        # differently from an exactly rounded sum.
        for shape in ((1, 1, 1), (5, 3, 3), (22, 8, 8), (7, 2, 5)):
            yield rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)

    def test_equals_columnwise_fsum(self, rng):
        for stack in self.stacks(rng):
            count = stack.shape[0]
            expected = np.empty(stack.shape[1:])
            for index in np.ndindex(*stack.shape[1:]):
                expected[index] = math.fsum(stack[(slice(None), *index)]) / count
            assert np.array_equal(_exact_mean(stack), expected)

    def test_permutation_invariant_bitwise(self, rng):
        for stack in self.stacks(rng):
            for _ in range(3):
                shuffled = stack[rng.permutation(stack.shape[0])]
                assert np.array_equal(_exact_mean(shuffled), _exact_mean(stack))
