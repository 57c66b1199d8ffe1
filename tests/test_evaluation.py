"""Loss panels, the block bootstrap, and the model confidence set.

The confidence-set test checks the library against a straight-line
reference written here from the procedure's definition: same bootstrap
draws in, every statistic recomputed with plain loops.
"""

import numpy as np
import pytest

from conftest import random_spd
from spdcast import (
    ForecastRun,
    LossPanel,
    block_bootstrap_indices,
    default_block_len,
    dist_frobenius,
    loss_panel,
    mcs,
    regime_split,
)


def make_runs(rng, n_models=2, length=6):
    dates = np.datetime64("2002-01-01") + np.arange(length)
    realized = [random_spd(rng, 2) for _ in range(length)]
    runs = []
    for m in range(n_models):
        predicted = [random_spd(rng, 2) for _ in range(length)]
        runs.append(ForecastRun(f"m{m}", dates, predicted, realized))
    return runs


def reference_mcs(losses, models, indices, alpha):
    """Elimination loop recomputed with plain loops; shares only the draws."""
    n_obs, n_models = losses.shape
    replicates = indices.shape[0]
    boot = np.zeros((replicates, n_models))
    for r in range(replicates):
        for m in range(n_models):
            total = 0.0
            for t in indices[r]:
                total += losses[t, m]
            boot[r, m] = total / n_obs
    full = losses.mean(axis=0)

    alive = list(range(n_models))
    p_values = {}
    order = []
    running = 0.0
    while len(alive) > 1:
        stats = {}
        null = np.zeros(replicates)
        range_stat = 0.0
        for a in alive:
            for b in alive:
                if b <= a:
                    continue
                centered = (boot[:, a] - boot[:, b]) - (full[a] - full[b])
                var = np.mean(centered**2)
                se = np.sqrt(var)
                t_ab = (full[a] - full[b]) / se
                stats[(a, b)] = t_ab
                range_stat = max(range_stat, abs(t_ab))
                null = np.maximum(null, np.abs(centered) / se)
        worst_score = {m: -np.inf for m in alive}
        for (a, b), t_ab in stats.items():
            worst_score[a] = max(worst_score[a], t_ab)
            worst_score[b] = max(worst_score[b], -t_ab)
        top = max(worst_score.values())
        out = min(m for m in alive if worst_score[m] == top)
        running = max(running, float(np.mean(null >= range_stat)))
        alive.remove(out)
        p_values[models[out]] = running
        order.append(models[out])
    p_values[models[alive[0]]] = 1.0
    surviving = {m for m, p in p_values.items() if p >= alpha}
    return surviving, p_values, order


class TestLossPanel:
    def test_losses_recomputed_directly(self, rng):
        runs = make_runs(rng, n_models=3)
        panel = loss_panel(runs, "frobenius")
        for j, run in enumerate(runs):
            for i in range(len(run.dates)):
                want = dist_frobenius(run.predicted[i], run.realized[i])
                assert np.isclose(panel.losses[i, j], want, rtol=1e-14)

    def test_rejects_misaligned_dates(self, rng):
        runs = make_runs(rng, n_models=2)
        shifted = ForecastRun(
            "m1",
            runs[1].dates + np.timedelta64(1, "D"),
            runs[1].predicted,
            runs[1].realized,
        )
        with pytest.raises(ValueError):
            loss_panel([runs[0], shifted], "frobenius")

    def test_rejects_disagreeing_realized(self, rng):
        runs = make_runs(rng, n_models=2)
        other = ForecastRun(
            "m1",
            runs[1].dates,
            runs[1].predicted,
            [random_spd(rng, 2) for _ in runs[1].realized],
        )
        with pytest.raises(ValueError):
            loss_panel([runs[0], other], "frobenius")

    def test_unknown_metric(self, rng):
        with pytest.raises(ValueError):
            loss_panel(make_runs(rng), "wasserstein")

    def test_column_lookup(self, rng):
        panel = loss_panel(make_runs(rng, n_models=2), "frobenius")
        assert np.array_equal(panel.column("m1"), panel.losses[:, 1])


class TestBootstrap:
    def test_index_shape_and_range(self):
        idx = block_bootstrap_indices(17, 40, 4, seed=0)
        assert idx.shape == (40, 17)
        assert idx.min() >= 0 and idx.max() < 17

    def test_rows_are_circular_blocks(self):
        block = 5
        idx = block_bootstrap_indices(12, 30, block, seed=1)
        for row in idx:
            for start in range(0, 12, block):
                chunk = row[start : start + block]
                anchors = (chunk[0] + np.arange(len(chunk))) % 12
                assert np.array_equal(chunk, anchors)

    def test_deterministic_by_seed(self):
        a = block_bootstrap_indices(10, 20, 3, seed=5)
        b = block_bootstrap_indices(10, 20, 3, seed=5)
        assert np.array_equal(a, b)

    def test_block_len_bounds(self):
        with pytest.raises(ValueError):
            block_bootstrap_indices(10, 20, 0, seed=0)
        with pytest.raises(ValueError):
            block_bootstrap_indices(10, 20, 11, seed=0)

    def test_default_block_len_cube_root(self):
        assert default_block_len(1000) == 10
        assert default_block_len(1001) == 11
        assert default_block_len(8) == 2


class TestMcs:
    def test_matches_reference_implementation(self, rng):
        losses = rng.uniform(0.5, 2.0, size=(50, 4))
        losses[:, 2] += 0.3 * rng.uniform(0.5, 1.5, size=50)
        models = ["alpha", "bravo", "carol", "delta"]
        dates = np.datetime64("2002-01-01") + np.arange(50)
        panel = LossPanel(models, dates, losses)
        block = default_block_len(50)
        result = mcs(panel, alpha=0.25, replicates=400, seed=11)
        indices = block_bootstrap_indices(50, 400, block, seed=11)
        surviving, p_values, order = reference_mcs(losses, models, indices, 0.25)
        assert result.surviving == surviving
        assert result.elimination_order == order
        for name in models:
            assert np.isclose(result.p_values[name], p_values[name], atol=1e-12)

    def test_identical_losses_all_survive(self, rng):
        col = rng.uniform(0.5, 2.0, size=40)
        losses = np.column_stack([col, col, col])
        dates = np.datetime64("2002-01-01") + np.arange(40)
        panel = LossPanel(["a", "b", "c"], dates, losses)
        result = mcs(panel, alpha=0.25, replicates=200, seed=0)
        assert result.surviving == {"a", "b", "c"}
        assert all(p == 1.0 for p in result.p_values.values())

    def test_dominated_model_eliminated(self, rng):
        base = rng.uniform(0.9, 1.1, size=(150, 2))
        bad = base[:, 0] + 1.0 + 0.01 * rng.standard_normal(150)
        losses = np.column_stack([base, bad])
        dates = np.datetime64("2002-01-01") + np.arange(150)
        panel = LossPanel(["good_a", "good_b", "awful"], dates, losses)
        result = mcs(panel, alpha=0.10, replicates=500, seed=1)
        assert "awful" not in result.surviving
        assert result.p_values["awful"] < 0.01
        assert result.elimination_order[0] == "awful"

    def test_constant_dominance_eliminated_first(self, rng):
        col = rng.uniform(0.5, 2.0, size=20)
        dates = np.datetime64("2002-01-01") + np.arange(20)
        panel = LossPanel(["worse", "better"], dates, np.column_stack([col + 1.0, col]))
        result = mcs(panel, replicates=200, block_len=3, seed=4)
        assert result.elimination_order == ["worse"]
        assert result.p_values == {"worse": 0.0, "better": 1.0}
        assert result.surviving == {"better"}

    def test_single_model_trivial(self, rng):
        col = rng.uniform(0.5, 2.0, size=30)
        dates = np.datetime64("2002-01-01") + np.arange(30)
        panel = LossPanel(["only"], dates, col[:, None])
        result = mcs(panel, replicates=100)
        assert result.surviving == {"only"}
        assert result.p_values["only"] == 1.0

    def test_validation(self, rng):
        losses = rng.uniform(0.5, 2.0, size=(30, 2))
        dates = np.datetime64("2002-01-01") + np.arange(30)
        panel = LossPanel(["a", "b"], dates, losses)
        with pytest.raises(ValueError):
            mcs(panel, alpha=0.0)
        with pytest.raises(ValueError):
            mcs(panel, replicates=99)
        with pytest.raises(ValueError):
            mcs(panel, block_len=30)

    def test_survivor_set_monotone_in_alpha(self, rng):
        losses = rng.uniform(0.5, 2.0, size=(60, 4))
        losses[:, 0] += 0.15
        dates = np.datetime64("2002-01-01") + np.arange(60)
        panel = LossPanel(["a", "b", "c", "d"], dates, losses)
        small = mcs(panel, alpha=0.05, replicates=300, seed=2)
        large = mcs(panel, alpha=0.50, replicates=300, seed=2)
        assert large.surviving <= small.surviving


class TestRegimeSplit:
    def test_strict_exceedance_by_hand(self):
        values = np.arange(1.0, 11.0)
        dates = np.datetime64("2002-01-01") + np.arange(10)
        calm, turbulent = regime_split(values, dates, 0.90)
        assert list(turbulent) == [dates[9]]
        assert len(calm) == 9

    def test_partition_is_exhaustive(self, rng):
        values = rng.uniform(0.0, 5.0, size=40)
        dates = np.datetime64("2002-01-01") + np.arange(40)
        calm, turbulent = regime_split(values, dates, 0.8)
        merged = np.sort(np.concatenate([calm, turbulent]))
        assert np.array_equal(merged, dates)

    def test_constant_series_has_no_turbulence(self):
        values = np.full(12, 2.0)
        dates = np.datetime64("2002-01-01") + np.arange(12)
        calm, turbulent = regime_split(values, dates)
        assert len(turbulent) == 0
        assert len(calm) == 12

    def test_validation(self):
        dates = np.datetime64("2002-01-01") + np.arange(3)
        with pytest.raises(Exception):
            regime_split(np.ones(2), dates)
        with pytest.raises(ValueError):
            regime_split(np.ones(3), dates, 1.0)
        with pytest.raises(ValueError):
            regime_split(np.array([1.0, np.nan, 2.0]), dates)
