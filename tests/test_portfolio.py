"""Minimum-variance weights and path statistics.

The long-only solver is checked against a dense simplex grid search, which
is slow but unambiguous.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd, spd_from_spectrum
from spdcast import (
    ConvergenceError,
    CovSeries,
    SpdMatrix,
    WeightPath,
    annualized_std,
    avg_turnover,
    evaluate_portfolio,
    gmv_long_only,
    gmv_weights,
    naive_weights,
    portfolio_returns,
)
from spdcast.spd import ensure_pd


def grid_long_only(s, resolution):
    """Best long-only weights on a dense 3-asset simplex grid."""
    steps = np.arange(0.0, 1.0 + resolution / 2.0, resolution)
    w1, w2 = np.meshgrid(steps, steps, indexing="ij")
    w3 = 1.0 - w1 - w2
    keep = w3 >= -1e-12
    w = np.column_stack([w1[keep], w2[keep], np.maximum(w3[keep], 0.0)])
    variances = np.einsum("ki,ij,kj->k", w, s.data, w)
    return w[np.argmin(variances)]


class TestGmv:
    def test_two_asset_diagonal_exact(self):
        w = gmv_weights(SpdMatrix(np.diag([1.0, 4.0])))
        assert w[0] == 0.8 and w[1] == 0.2

    def test_diagonal_inverse_variance_rule(self, rng):
        variances = rng.uniform(0.5, 4.0, size=5)
        w = gmv_weights(SpdMatrix(np.diag(variances)))
        want = (1.0 / variances) / np.sum(1.0 / variances)
        assert np.allclose(w, want, rtol=1e-12)

    def test_sums_to_one(self, rng):
        for _ in range(20):
            w = gmv_weights(random_spd(rng, 4))
            assert np.isclose(w.sum(), 1.0, atol=1e-12)

    def test_first_order_optimality(self, rng):
        # at the optimum, S w has equal entries (budget multiplier only)
        s = random_spd(rng, 4)
        w = gmv_weights(s)
        marginal = s.data @ w
        assert np.ptp(marginal) <= 1e-10 * abs(marginal[0])


def series_of(mats):
    return CovSeries(np.datetime64("2001-01-01") + np.arange(len(mats)), mats)


class TestStackedGmv:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 12),
        count=st.integers(1, 6),
        floored=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_the_per_matrix_solve(self, n, count, floored, seed):
        rng = np.random.default_rng(seed)
        mats = [random_spd(rng, n) for _ in range(count)]
        # Matrices below the relative floor: ensure_pd projects them first.
        for k in range(min(floored, count)):
            spectrum = rng.uniform(0.5, 3.0, size=n)
            spectrum[rng.integers(0, n)] = rng.choice([0.0, 1e-12])
            mats[k] = spd_from_spectrum(rng, spectrum)
        weights = gmv_weights(series_of(mats))
        assert weights.shape == (count, n)
        for m, row in zip(mats, weights):
            raw = np.linalg.solve(ensure_pd(m).data, np.ones(n))
            assert np.array_equal(row, raw / raw.sum())
            assert np.array_equal(row, gmv_weights(m))

    def test_floor_projected_rows(self, rng):
        singular = SpdMatrix(np.diag([1.0, 2.0, 0.0]))
        weights = gmv_weights(series_of([random_spd(rng, 3), singular]))
        assert ensure_pd(singular) is not singular
        raw = np.linalg.solve(ensure_pd(singular).data, np.ones(3))
        assert np.array_equal(weights[1], raw / raw.sum())


class TestGmvLongOnly:
    def test_matches_simplex_grid(self, rng):
        for trial in range(12):
            s = random_spd(rng, 3, lo=0.2, hi=3.0)
            w = gmv_long_only(s)
            grid_w = grid_long_only(s, 1e-3)
            var = w @ s.data @ w
            grid_var = grid_w @ s.data @ grid_w
            assert var <= grid_var + 1e-9
            assert np.max(np.abs(w - grid_w)) <= 2e-3

    def test_interior_solution_matches_unconstrained(self, rng):
        s = SpdMatrix(np.diag([1.0, 2.0, 4.0]))
        assert np.allclose(gmv_long_only(s), gmv_weights(s), atol=1e-12)

    def test_weights_nonnegative_and_normalized(self, rng):
        for _ in range(30):
            s = random_spd(rng, int(rng.integers(2, 6)), lo=0.05, hi=5.0)
            w = gmv_long_only(s)
            assert np.all(w >= -1e-12)
            assert np.isclose(w.sum(), 1.0, atol=1e-10)

    def test_binding_constraint_case(self):
        # strong negative correlation pushes the short seller to the floor
        s = SpdMatrix(np.array([[1.0, 0.9], [0.9, 1.0]]) * np.outer([1.0, 3.0], [1.0, 3.0]))
        unconstrained = gmv_weights(s)
        assert unconstrained.min() < 0.0
        w = gmv_long_only(s)
        assert np.isclose(w.min(), 0.0, atol=1e-12)
        assert np.isclose(w.sum(), 1.0, atol=1e-12)

    def test_kkt_conditions(self, rng):
        for _ in range(20):
            s = random_spd(rng, 4, lo=0.1, hi=4.0)
            w = gmv_long_only(s)
            marginal = 2.0 * s.data @ w
            lam = w @ marginal
            active = w <= 1e-12
            assert np.all(marginal[active] - lam >= -1e-8)
            free = ~active
            assert np.ptp(marginal[free]) <= 1e-8 * max(abs(lam), 1.0)


class TestNaive:
    def test_equal_weights(self):
        assert np.array_equal(naive_weights(4), np.full(4, 0.25))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            naive_weights(0)


class TestPathStatistics:
    def test_portfolio_returns_row_dots(self, rng):
        weights = rng.dirichlet(np.ones(3), size=5)
        returns = rng.standard_normal((5, 3)) * 0.01
        got = portfolio_returns(weights, returns)
        want = np.array([w @ r for w, r in zip(weights, returns)])
        assert np.allclose(got, want, rtol=1e-14)

    def test_annualized_std_formula(self, rng):
        r = rng.standard_normal(40) * 0.01
        want = np.sqrt(252.0 * np.mean((r - r.mean()) ** 2))
        assert np.isclose(annualized_std(r), want, rtol=1e-12)

    def test_annualized_std_needs_two(self):
        with pytest.raises(ValueError):
            annualized_std(np.array([0.01]))

    def test_turnover_worked_example(self):
        dates = np.datetime64("2002-01-01") + np.arange(2)
        weights = np.array([[0.5, 0.5], [0.6, 0.4]])
        returns = np.zeros((2, 2))
        tau = avg_turnover(WeightPath(dates, weights), returns)
        assert abs(tau - 0.2) <= 1e-15

    def test_static_weights_zero_turnover(self, rng):
        dates = np.datetime64("2002-01-01") + np.arange(6)
        weights = np.tile([0.25, 0.75], (6, 1))
        returns = np.zeros((6, 2))
        assert avg_turnover(WeightPath(dates, weights), returns) == 0.0

    def test_turnover_accounts_for_drift(self):
        # weights held constant while prices move still trade back to target
        dates = np.datetime64("2002-01-01") + np.arange(2)
        weights = np.tile([0.5, 0.5], (2, 1))
        returns = np.array([[0.1, 0.0], [0.0, 0.0]])
        growth = 1.0 + 0.5 * 0.1
        drifted = np.array([0.5 * 1.1, 0.5]) / growth
        want = np.abs(weights[1] - drifted).sum()
        tau = avg_turnover(WeightPath(dates, weights), returns)
        assert np.isclose(tau, want, rtol=1e-12)

    def test_turnover_direct_loop(self, rng):
        length = 8
        dates = np.datetime64("2002-01-01") + np.arange(length)
        weights = rng.dirichlet(np.ones(3), size=length)
        returns = rng.uniform(-0.02, 0.02, size=(length, 3))
        total = 0.0
        for t in range(length - 1):
            growth = 1.0 + weights[t] @ returns[t]
            drifted = weights[t] * (1.0 + returns[t]) / growth
            total += np.abs(weights[t + 1] - drifted).sum()
        want = total / (length - 1)
        tau = avg_turnover(WeightPath(dates, weights), returns)
        assert np.isclose(tau, want, rtol=1e-12)

    def test_wipeout_growth_rejected(self):
        dates = np.datetime64("2002-01-01") + np.arange(2)
        weights = np.array([[1.0, 0.0], [0.5, 0.5]])
        returns = np.array([[-1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            avg_turnover(WeightPath(dates, weights), returns)

    def test_weight_path_row_sum_validation(self):
        dates = np.datetime64("2002-01-01") + np.arange(2)
        with pytest.raises(ValueError):
            WeightPath(dates, np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_evaluate_portfolio_composition(self, rng):
        length = 10
        dates = np.datetime64("2002-01-01") + np.arange(length)
        weights = rng.dirichlet(np.ones(2), size=length)
        returns = rng.uniform(-0.02, 0.02, size=(length, 2))
        path = WeightPath(dates, weights)
        report = evaluate_portfolio(path, returns)
        assert np.isclose(
            report.annualized_std,
            annualized_std(portfolio_returns(weights, returns)),
            rtol=1e-12,
        )
        assert np.isclose(report.avg_turnover, avg_turnover(path, returns), rtol=1e-12)


def active_set_steps(s, tol=1e-10):
    """The active-set iteration on one matrix, as a plain loop: its weights
    and how many clamp and release steps it took."""
    n = len(s)
    free = np.ones(n, dtype=bool)
    clamps = releases = 0
    for _ in range(10 * n):
        raw = np.linalg.solve(s[np.ix_(free, free)], np.ones(int(free.sum())))
        w_free = raw / raw.sum()
        if np.min(w_free) < -tol:
            full = np.zeros(n)
            full[free] = w_free
            free &= full > -tol
            clamps += 1
            continue
        w = np.zeros(n)
        w[free] = np.maximum(w_free, 0.0)
        w /= w.sum()
        marginal = 2.0 * (s @ w)
        multipliers = marginal[~free] - float(w @ marginal)
        if multipliers.size == 0 or np.min(multipliers) >= -tol:
            return w, clamps, releases
        free[np.flatnonzero(~free)[int(np.argmin(multipliers))]] = True
        releases += 1
    raise AssertionError("did not settle")


def wishart_mats(rng, n, count):
    """Few degrees of freedom and uneven volatilities: many clamps, and at
    larger n releases after a clamp that went too far."""
    g = rng.standard_normal((count, n, n + 1))
    vol = np.exp(rng.normal(0.0, 1.0, size=(count, n)))
    return [SpdMatrix((a @ a.T) * np.outer(v, v)) for a, v in zip(g, vol)]


class TestStackedLongOnly:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), count=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_the_per_matrix_iteration(self, n, count, seed):
        mats = wishart_mats(np.random.default_rng(seed), n, count)
        weights = gmv_long_only(series_of(mats))
        assert weights.shape == (count, n)
        for m, row in zip(mats, weights):
            assert np.array_equal(row, gmv_long_only(m))
            assert np.array_equal(row, active_set_steps(ensure_pd(m).data)[0])
            assert np.all(row >= 0.0)
            assert abs(row.sum() - 1.0) <= 1e-12
            marginal = 2.0 * (m.data @ row)
            assert np.all(marginal[row == 0.0] - row @ marginal >= -1e-10)

    def test_draws_clamp_and_release(self):
        rng = np.random.default_rng(11)
        mats = wishart_mats(rng, 10, 60)
        steps = [active_set_steps(ensure_pd(m).data) for m in mats]
        assert sum(c > 0 for _, c, _ in steps) > 30
        assert sum(r > 0 for _, _, r in steps) > 5
        assert np.array_equal(gmv_long_only(series_of(mats)), np.array([w for w, _, _ in steps]))

    def test_unsettled_row_is_named(self):
        interior = SpdMatrix(np.diag([1.0, 2.0]))
        binding = SpdMatrix(np.array([[1.0, 0.9], [0.9, 1.0]]) * np.outer([1.0, 3.0], [1.0, 3.0]))
        series = series_of([interior, binding])
        assert gmv_long_only(series, max_iters=2).shape == (2, 2)
        with pytest.raises(ConvergenceError, match=r"row 1 \(2001-01-02\) did not settle within 1"):
            gmv_long_only(series, max_iters=1)
        with pytest.raises(ConvergenceError, match="^active set did not settle within 1"):
            gmv_long_only(binding, max_iters=1)
