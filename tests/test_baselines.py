"""Random walk and factor-VAR reference forecasters."""

import numpy as np
import pytest

from conftest import random_spd
from spdcast import baselines
from spdcast import (
    CovSeries,
    DimensionMismatchError,
    SpdMatrix,
    chol_reconstruct,
    chol_vectorize,
    default_factor_count,
    favar_fit,
    favar_forecast,
    forecast_rw,
)


def series_from(mats):
    dates = np.datetime64("2001-01-01") + np.arange(len(mats))
    return CovSeries(dates, mats)


class TestRandomWalk:
    def test_returns_previous_matrix(self, rng):
        series = series_from([random_spd(rng, 2) for _ in range(6)])
        for t in range(1, 7):
            assert forecast_rw(series, t) is series.matrices[t - 1]

    def test_bounds(self, rng):
        series = series_from([random_spd(rng, 2) for _ in range(3)])
        with pytest.raises(IndexError):
            forecast_rw(series, 0)
        with pytest.raises(IndexError):
            forecast_rw(series, 4)


class TestCholVectorize:
    def test_diagonal_matrix(self):
        m = SpdMatrix(np.diag([4.0, 9.0, 16.0]))
        v = chol_vectorize(m)
        # row-major lower triangle of diag(2, 3, 4)
        assert np.allclose(v, [2.0, 0.0, 3.0, 0.0, 0.0, 4.0], atol=1e-14)

    def test_reconstruct_inverts(self, rng):
        for _ in range(20):
            m = random_spd(rng, int(rng.integers(2, 6)))
            back = chol_reconstruct(chol_vectorize(m))
            assert np.allclose(back.data, m.data, atol=1e-10)

    def test_vector_length_triangular(self, rng):
        assert len(chol_vectorize(random_spd(rng, 5))) == 15

    def test_reconstruct_rejects_non_triangular_length(self):
        with pytest.raises(DimensionMismatchError):
            chol_reconstruct(np.ones(4))


class TestFactorCount:
    def test_caps(self):
        assert default_factor_count(6, 100) == 6
        assert default_factor_count(120, 100) == 50
        assert default_factor_count(120, 30) == 28


class TestFavar:
    def make_factor_series(self, phi=0.8, length=40):
        """Noiseless one-factor structure in Cholesky space.

        v_t = mu + loading * f_t with f_t = phi * f_{t-1}; every v_t stays a
        valid Cholesky vector because the perturbation is small.
        """
        base = SpdMatrix(np.diag([4.0, 1.0]) + 0.5 * np.ones((2, 2)))
        mu = chol_vectorize(base)
        loading = np.array([0.05, -0.03, 0.04])
        f = np.empty(length)
        f[0] = 1.0
        for t in range(1, length):
            f[t] = phi * f[t - 1]
        mats = [chol_reconstruct(mu + loading * f[t]) for t in range(length)]
        return series_from(mats), mu, loading, f

    def test_recovers_noiseless_factor_dynamics(self):
        series, mu, loading, f = self.make_factor_series()
        model = favar_fit(series, n_factors=1, train=slice(0, 30))
        for t in range(30, len(series)):
            pred = favar_forecast(model, series, t)
            expected = chol_reconstruct(mu + loading * f[t])
            assert np.allclose(pred.data, expected.data, atol=1e-8)

    def test_constant_series_forecasts_the_constant(self, rng):
        m = random_spd(rng, 3)
        series = series_from([m] * 20)
        with pytest.warns(RuntimeWarning):
            model = favar_fit(series, n_factors=2)
        pred = favar_forecast(model, series, len(series))
        assert np.allclose(pred.data, m.data, atol=1e-10)

    def test_rank_reduction_warns(self):
        series, *_ = self.make_factor_series()
        with pytest.warns(RuntimeWarning):
            model = favar_fit(series, n_factors=3)
        assert model.n_factors < 3

    def test_default_factor_count_used(self, rng):
        series = series_from([random_spd(rng, 2) for _ in range(12)])
        model = favar_fit(series)
        assert model.n_factors == min(50, 3, 10)

    def test_forecast_bounds(self, rng):
        series = series_from([random_spd(rng, 2) for _ in range(12)])
        model = favar_fit(series)
        with pytest.raises(IndexError):
            favar_forecast(model, series, 0)

    def test_forecasts_are_spd(self, rng):
        series = series_from([random_spd(rng, 3) for _ in range(25)])
        model = favar_fit(series, train=slice(0, 20))
        for t in range(20, 26):
            assert favar_forecast(model, series, t).eig.values[-1] > 0.0

    def test_too_few_observations_rejected(self, rng):
        series = series_from([random_spd(rng, 2) for _ in range(2)])
        with pytest.raises(ValueError):
            favar_fit(series)


class TestFavarSeriesStack:
    """Refits read rows of one Cholesky stack per series."""

    @staticmethod
    def assert_same_model(a, b):
        assert a.n_factors == b.n_factors
        for field in ("loadings", "mean_vector", "var_coef", "var_intercept"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_refits_match_per_window_vectors_bitwise(self, rng):
        series = series_from([random_spd(rng, 3) for _ in range(40)])
        window = 25
        for t in range(window, len(series) + 1):
            train = slice(t - window, t)
            vectors = np.stack([chol_vectorize(m) for m in series.matrices[train]])
            alone = series_from(series.matrices[train])  # its own, per-window stack
            assert np.array_equal(baselines._chol_rows(series, train), vectors)
            model = favar_fit(series, 4, train)
            self.assert_same_model(model, favar_fit(alone, 4))
            assert np.array_equal(model.mean_vector, vectors.mean(axis=0))
            current = chol_vectorize(series.matrices[t - 1])
            advanced = model.var_intercept + model.var_coef @ (
                model.loadings.T @ (current - model.mean_vector)
            )
            reference = chol_reconstruct(model.mean_vector + model.loadings @ advanced)
            assert np.array_equal(favar_forecast(model, series, t).data, reference.data)

    def test_each_matrix_vectorized_once(self, rng, monkeypatch):
        calls = []
        original = baselines.chol_vectorize

        def counted(m, *args):
            calls.append(m)
            return original(m, *args)

        monkeypatch.setattr(baselines, "chol_vectorize", counted)
        series = series_from([random_spd(rng, 2) for _ in range(30)])
        for t in range(20, 30):
            favar_forecast(favar_fit(series, 2, slice(t - 20, t)), series, t)
        assert len(calls) == len(series)
