"""Closed-form and iterative Fréchet means."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd, spd_from_spectrum
from spdcast import (
    METRIC_LOG_EUCLIDEAN,
    METRIC_PROCRUSTES,
    FrechetConfig,
    NotPositiveDefiniteError,
    SpdMatrix,
    dist_log_euclidean,
    dist_procrustes,
    frechet_mean_log_euclidean,
    frechet_mean_procrustes,
    logm,
    project_to_spd,
    sqrtm_psd,
)
from spdcast.frechet import _WINDOW_CHUNK, _exact_mean, rolling_means
from spdcast.spd import SPD_FLOOR, _eigh_desc, ensure_pd_values, logm_stack, sqrtm_stack

PROCRUSTES = FrechetConfig(metric=METRIC_PROCRUSTES)

# Agreement of the fixed point with the GPA when both run at tol 1e-14.  The
# fixed point's objective comes from eigenvalues, to about 1e-15 of its value,
# so it cannot tell apart iterates whose objectives differ by less; about its
# minimum the objective is quadratic, which leaves the mean resolved to a few
# 1e-8 (5.6e-8 was the largest gap seen on windows like these).
TIGHT_AGREEMENT = 1e-7


def per_matrix_gpa(sample, cfg):
    """Generalized Procrustes averaging one matrix at a time: the oracle.

    Roots are alternately rotated onto their average, with a single-matrix
    SVD per sample element and iteration, and re-averaged until the
    objective ``sum_t ||L_t R_t - mean||_F^2`` changes by at most ``cfg.tol``
    relative.  Its minimizer squared is the Procrustes mean, which the
    library finds by another algorithm.
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

    def test_equals_the_exponential_of_the_entrywise_exact_mean(self, rng):
        # The kernel sums only the upper triangle of the exactly symmetric logarithms.
        for n in (1, 3, 8):
            sample = [random_spd(rng, n, 1e-6, 1e3) for _ in range(22)]
            lam, vec = _eigh_desc(_exact_mean(np.stack([logm(s) for s in sample])))
            expected = SpdMatrix._from_eig(np.exp(lam), vec)
            assert np.array_equal(frechet_mean_log_euclidean(sample).data, expected.data)

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

    def test_minimizes_sum_of_squared_distances(self, rng):
        # the mean must beat every sample point, random probes and small moves
        sample = [random_spd(rng, 3) for _ in range(5)]
        mean = frechet_mean_procrustes(sample).mean

        def objective(candidate):
            return sum(dist_procrustes(candidate, s) ** 2 for s in sample)

        best = objective(mean)
        for probe in sample + [random_spd(rng, 3) for _ in range(20)]:
            assert best <= objective(probe)
        for _ in range(20):
            step = rng.standard_normal((3, 3))
            assert best <= objective(SpdMatrix(mean.data + 1e-3 * (step + step.T))) + 1e-12


def window_roots(matrices):
    return sqrtm_stack(np.array([m.eig.values for m in matrices]),
                       np.array([m.eig.vectors for m in matrices]))


def window_inputs(matrices, metric):
    """The stack :func:`rolling_means` takes under ``metric``, failed logarithms zeroed
    as the HAR means zero them, and the rows whose logarithm failed."""
    if metric == METRIC_PROCRUSTES:
        return window_roots(matrices), {}
    logs, errors = logm_stack(ensure_pd_values(np.array([m.eig.values for m in matrices])),
                              np.array([m.eig.vectors for m in matrices]))
    logs[list(errors)] = 0.0
    return logs, errors


def one_window_mean(window, cfg):
    """The mean of one window, its fixed-point steps and whether it converged."""
    if cfg.metric == METRIC_PROCRUSTES:
        result = frechet_mean_procrustes(window, cfg)
        return result.mean, result.n_iters, result.converged
    return frechet_mean_log_euclidean(window), 0, True


def relative_gap(a, b):
    return np.linalg.norm(a.data - b.data) / np.linalg.norm(b.data)


class TestLockstepBarycenters:
    """Each row of the rolling kernel is its one-window call bit for bit, under
    either metric, and the Procrustes mean is the one generalized Procrustes
    averaging finds."""

    @staticmethod
    def assert_rows_are_one_window_calls(matrices, k, cfg):
        stack, failed = window_inputs(matrices, cfg.metric)
        values, vectors, n_iters, converged = rolling_means(stack, k, cfg)
        assert len(values) == len(matrices) - k + 1
        for s in range(len(values)):
            if any(s <= row < s + k for row in failed):
                with pytest.raises(NotPositiveDefiniteError):
                    frechet_mean_log_euclidean(matrices[s : s + k])
                continue
            mean, steps, done = one_window_mean(matrices[s : s + k], cfg)
            assert mean.eig.values.tobytes() == values[s].tobytes()
            assert mean.eig.vectors.tobytes() == vectors[s].tobytes()
            assert (steps, done) == (n_iters[s], converged[s])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        k=st.integers(1, 22),
        windows=st.integers(1, _WINDOW_CHUNK + 3),
        day=st.sampled_from([None, "rank_one", "subnormal", "zero"]),
    )
    def test_each_row_is_its_one_window_call(self, seed, n, k, windows, day):
        rng = np.random.default_rng(seed)
        matrices = [random_spd(rng, n, lo=0.2, hi=4.0) for _ in range(k + windows - 1)]
        if day is not None:
            v = rng.standard_normal(n)
            odd = {"rank_one": np.outer(v, v), "subnormal": np.diag([1e-320] + [0.0] * (n - 1)),
                   "zero": np.zeros((n, n))}[day]
            matrices[int(rng.integers(len(matrices)))] = SpdMatrix(odd)
        for metric in (METRIC_LOG_EUCLIDEAN, METRIC_PROCRUSTES):
            self.assert_rows_are_one_window_calls(matrices, k, FrechetConfig(metric=metric))

    def test_rows_on_both_sides_of_chunk_boundaries(self, rng):
        matrices = [random_spd(rng, 5, lo=0.2, hi=4.0) for _ in range(2 * _WINDOW_CHUNK + 6)]
        v = rng.standard_normal(5)
        matrices[_WINDOW_CHUNK + 2] = SpdMatrix(np.outer(v, v))
        for cfg in (FrechetConfig(), PROCRUSTES,
                    FrechetConfig(metric=METRIC_PROCRUSTES, max_iters=2, tol=1e-300)):
            self.assert_rows_are_one_window_calls(matrices, 5, cfg)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_agrees_with_gpa(self, rng, n):
        series = [random_spd(rng, n, lo=0.2, hi=4.0) for _ in range(40)]
        v = rng.standard_normal(n)
        series[25] = SpdMatrix(np.outer(v, v))  # a rank-one day
        default = FrechetConfig(metric=METRIC_PROCRUSTES)
        tight = FrechetConfig(metric=METRIC_PROCRUSTES, tol=1e-14)
        for k in (5, 22):
            for t in range(k, len(series) + 1, 3):
                window = series[t - k : t]
                for cfg, bound in ((default, 1e-5), (tight, TIGHT_AGREEMENT)):
                    mean = frechet_mean_procrustes(window, cfg).mean
                    assert relative_gap(mean, per_matrix_gpa(window, cfg)[0]) <= bound

    def test_one_matrix_and_zero_samples_give_the_gpa_floor_projection(self, rng):
        v = np.arange(1.0, 6.0)
        cfg = FrechetConfig(metric=METRIC_PROCRUSTES)
        zero = SpdMatrix(np.zeros((5, 5)))
        for sample in ([random_spd(rng, 5)], [SpdMatrix(np.outer(v, v))], [zero] * 5):
            result = frechet_mean_procrustes(sample, cfg)
            gpa = per_matrix_gpa(sample, cfg)[0]
            values, lmax = result.mean.eig.values, sample[0].eig.values[0]
            floor = SPD_FLOOR * (lmax if lmax > 0.0 else 1.0)
            assert result.converged
            assert values[-1] >= SPD_FLOOR * values[0]
            assert np.allclose(values, gpa.eig.values, rtol=1e-12, atol=0.0)
            for expected in (gpa, project_to_spd(sample[0], floor)):
                gap = np.abs(result.mean.data - expected.data).max()
                assert gap <= 1e-13 * values[0]

    def test_units_do_not_matter(self, rng):
        roots = window_roots([random_spd(rng, 4) for _ in range(30)])
        base = rolling_means(roots, 5, PROCRUSTES)
        for j in (-500, -60, 60, 500):
            values, *rest = rolling_means(np.ldexp(roots, j), 5, PROCRUSTES)
            assert np.array_equal(values, np.ldexp(base[0], 2 * j))
            assert all(np.array_equal(a, b) for a, b in zip(rest, base[1:]))

    def test_iteration_cap(self, rng):
        sample = [random_spd(rng, 5) for _ in range(22)]
        cfg = FrechetConfig(metric=METRIC_PROCRUSTES, max_iters=2, tol=1e-300)
        result = frechet_mean_procrustes(sample, cfg)
        assert (result.converged, result.n_iters, len(result.objective_trace)) == (False, 2, 3)

    def test_objective_is_the_sum_of_squared_procrustes_distances(self, rng):
        sample = [random_spd(rng, 4) for _ in range(6)]
        result = frechet_mean_procrustes(sample, FrechetConfig(metric=METRIC_PROCRUSTES))
        total = sum(dist_procrustes(result.mean, s) ** 2 for s in sample)
        assert np.isclose(result.objective_trace[-1], total, rtol=1e-9)


class TestDispatcher:
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
