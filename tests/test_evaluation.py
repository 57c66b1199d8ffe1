"""Loss panels, the block bootstrap, and the model confidence set.

The confidence-set test checks the library against a straight-line
reference written here from the procedure's definition: same bootstrap
draws in, every statistic recomputed with plain loops.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthogonal, random_spd
from spdcast import (
    CovSeries,
    LossPanel,
    NotPositiveDefiniteError,
    SpdMatrix,
    block_bootstrap_indices,
    default_block_len,
    dist_euclidean,
    dist_frobenius,
    dist_log_euclidean,
    dist_procrustes,
    loss_panel,
    mcs,
    regime_split,
)
from spdcast import evaluation
from spdcast.evaluation import _centered_bootstrap_means

DISTANCES = {
    "frobenius": dist_frobenius,
    "euclidean": dist_euclidean,
    "procrustes": dist_procrustes,
    "log_euclidean": dist_log_euclidean,
}


def series_of(mats, dates=None):
    if dates is None:
        dates = np.datetime64("2002-01-01") + np.arange(len(mats))
    return CovSeries(dates, mats)


def make_runs(rng, n_models=2, length=6):
    """``n_models`` forecast series and the realized series, on one set of dates."""
    realized = series_of([random_spd(rng, 2) for _ in range(length)])
    forecasts = {f"m{m}": series_of([random_spd(rng, 2) for _ in range(length)])
                 for m in range(n_models)}
    return forecasts, realized


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
        forecasts, realized = make_runs(rng, n_models=3)
        panel = loss_panel(forecasts, realized, "frobenius")
        for j, forecast in enumerate(forecasts.values()):
            for i in range(len(realized)):
                want = dist_frobenius(forecast[i], realized[i])
                assert np.isclose(panel.losses[i, j], want, rtol=1e-14)

    def test_rejects_misaligned_dates(self, rng):
        forecasts, realized = make_runs(rng, n_models=2)
        forecasts["m1"] = series_of(forecasts["m1"].data, realized.dates + np.timedelta64(1, "D"))
        with pytest.raises(ValueError):
            loss_panel(forecasts, realized, "frobenius")

    def test_unknown_metric(self, rng):
        with pytest.raises(ValueError):
            loss_panel(*make_runs(rng), "wasserstein")


def spd_with_rank(rng, n, rank):
    """A PSD matrix of the given rank (strictly SPD when rank == n)."""
    values = np.zeros(n)
    values[:rank] = rng.uniform(0.2, 3.0, size=rank)
    q = random_orthogonal(rng, n)
    return SpdMatrix(q @ np.diag(values) @ q.T)


class TestStackedLossPanel:
    """The stacked panel is the per-pair ``dist_*`` loop, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        metric=st.sampled_from(sorted(DISTANCES)),
        n=st.integers(1, 6),
        length=st.integers(1, 7),
        n_models=st.integers(1, 3),
        rank_deficient=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_pair_loop(self, metric, n, length, n_models, rank_deficient, seed):
        rng = np.random.default_rng(seed)
        # Logarithms need strictly SPD matrices; the other metrics also take
        # realized matrices of lower rank.
        low = rank_deficient and metric != "log_euclidean"
        realized = [spd_with_rank(rng, n, int(rng.integers(0, n)) if low else n)
                    for _ in range(length)]
        predicted = [[random_spd(rng, n) for _ in range(length)] for _ in range(n_models)]
        panel = loss_panel({f"m{j}": series_of(p) for j, p in enumerate(predicted)},
                           series_of(realized), metric)
        fn = DISTANCES[metric]
        for j, p in enumerate(predicted):
            for i in range(length):
                assert panel.losses[i, j] == fn(p[i], realized[i])

    def test_log_euclidean_rejects_a_singular_matrix(self, rng):
        forecasts, realized = make_runs(rng, n_models=2, length=5)
        singular = forecasts["m1"].data.copy()
        singular[3] = np.diag([1.0, 0.0])
        forecasts["m1"] = series_of(singular)
        with pytest.raises(NotPositiveDefiniteError, match="smallest is 0.000000e"):
            loss_panel(forecasts, realized, "log_euclidean")

    def test_a_log_error_names_the_metric_the_series_and_its_first_failed_date(self, rng):
        forecasts, realized = make_runs(rng, n_models=2, length=6)
        singular = forecasts["m1"].data.copy()
        singular[[2, 4]] = np.diag([1.0, 0.0])
        forecasts["m1"] = series_of(singular)
        with pytest.raises(NotPositiveDefiniteError) as err:
            loss_panel(forecasts, realized, "log_euclidean")
        assert str(err.value).startswith("log_euclidean loss of m1 on 2002-01-03: matrix "
                                         "logarithm requires strictly positive eigenvalues")
        real = realized.data.copy()
        real[5] = np.diag([0.0, 0.0])
        with pytest.raises(NotPositiveDefiniteError, match="^log_euclidean loss of realized on "
                                                          "2002-01-06: "):
            loss_panel(forecasts, series_of(real), "log_euclidean")
        # The metrics that need no logarithm score the same days.
        for metric in ("frobenius", "euclidean", "procrustes"):
            assert np.isfinite(loss_panel(forecasts, series_of(real), metric).losses).all()

    def test_rejects_forecasts_of_another_dimension(self, rng):
        forecasts, realized = make_runs(rng, n_models=1, length=3)
        forecasts["m1"] = series_of([random_spd(rng, 3) for _ in range(3)])
        with pytest.raises(ValueError):
            loss_panel(forecasts, realized, "procrustes")


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


class TestPrefixSumBootstrap:
    """Bootstrap means from prefix sums against the gathered index matrix."""

    @staticmethod
    def means(losses, replicates, block_len, seed):
        centered = _centered_bootstrap_means(losses, replicates, block_len, seed)
        return centered + losses.mean(axis=0)

    @pytest.mark.parametrize("n_obs, block_len, replicates, heavy", [
        (50, 4, 400, False), (17, 17, 30, False), (12, 1, 25, False), (1030, 11, 200, False),
        (31, 5, 101, False), (10_000, 22, 100, True),
    ])
    def test_means_match_the_index_gather(self, rng, n_obs, block_len, replicates, heavy):
        losses = rng.uniform(0.1, 5.0, size=(n_obs, 3))
        if heavy:
            # Pareto tails (infinite variance) and a few crisis-day spikes.
            losses = rng.pareto(1.5, size=(n_obs, 3)) + 0.01
            losses[rng.integers(0, n_obs, size=20)] *= 1e4
        want = losses[block_bootstrap_indices(n_obs, replicates, block_len, 7)].mean(axis=1)
        got = self.means(losses, replicates, block_len, 7)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_chunks_draw_the_same_starts(self, rng, monkeypatch):
        # Chunks of 7 replicates (of 3 blocks x 2 models): 100 replicates
        # take 15 generator calls, the last one short.
        losses = rng.uniform(0.1, 5.0, size=(9, 2))
        whole = self.means(losses, 100, 3, 5)
        monkeypatch.setattr(evaluation, "_CHUNK_ELEMENTS", 7 * 3 * 2)
        assert np.array_equal(self.means(losses, 100, 3, 5), whole)
        want = losses[block_bootstrap_indices(9, 100, 3, 5)].mean(axis=1)
        assert np.allclose(whole, want, rtol=1e-12, atol=0.0)

    def test_mcs_memory_does_not_grow_with_the_panel(self):
        losses = np.random.default_rng(0).uniform(0.5, 2.0, size=(10_000, 3))
        panel = LossPanel(["a", "b", "c"], np.datetime64("2000-01-01") + np.arange(10_000), losses)
        tracemalloc.start()
        try:
            mcs(panel, replicates=2_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Gathering losses[indices] alone would take 2,000 x 10,000 x 3 doubles.
        assert peak < 50 * 2**20


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
        for block_len in (0, -3):
            with pytest.raises(ValueError, match=f"block_len must be >= 1, got {block_len}"):
                mcs(panel, block_len=block_len)
        # A panel within one block keeps every model at p = 1, eliminating none.
        for block_len in (30, 31):
            result = mcs(panel, block_len=block_len)
            assert result.p_values == {"a": 1.0, "b": 1.0}
            assert result.surviving == {"a", "b"}
            assert result.elimination_order == []
            assert result.block_len == block_len

    def test_survivor_set_monotone_in_alpha(self, rng):
        losses = rng.uniform(0.5, 2.0, size=(60, 4))
        losses[:, 0] += 0.15
        dates = np.datetime64("2002-01-01") + np.arange(60)
        panel = LossPanel(["a", "b", "c", "d"], dates, losses)
        small = mcs(panel, alpha=0.05, replicates=300, seed=2)
        large = mcs(panel, alpha=0.50, replicates=300, seed=2)
        assert large.surviving <= small.surviving


class TestMcsPermutation:
    @settings(max_examples=30, deadline=None)
    @given(
        n_models=st.integers(2, 5),
        n_obs=st.integers(12, 60),
        tie=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        order_seed=st.integers(0, 2**32 - 1),
    )
    def test_p_values_follow_their_models(self, n_models, n_obs, tie, seed, order_seed):
        rng = np.random.default_rng(seed)
        losses = rng.uniform(0.5, 2.0, size=(n_obs, n_models))
        losses += rng.uniform(0.0, 0.5, size=n_models)
        if tie:
            losses[:, 1] = losses[:, 0]
        names = [f"m{j}" for j in range(n_models)]
        dates = np.datetime64("2002-01-01") + np.arange(n_obs)
        order = np.random.default_rng(order_seed).permutation(n_models)
        base = mcs(LossPanel(names, dates, losses), replicates=150, seed=3)
        moved = mcs(LossPanel([names[k] for k in order], dates, losses[:, order]),
                    replicates=150, seed=3)
        assert moved.p_values == base.p_values
        assert moved.elimination_order == base.elimination_order
        assert moved.surviving == base.surviving


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


class TestMcsOfSeveralPanels:
    """Panels on one date set share one bootstrap draw and keep their results."""

    @staticmethod
    def panels(rng, n_obs, model_counts):
        dates = np.datetime64("2003-01-01") + np.arange(n_obs)
        panels = []
        for k, count in enumerate(model_counts):
            losses = rng.uniform(0.5, 2.0, size=(n_obs, count))
            losses[:, : count // 2] += rng.uniform(0.0, 0.4)  # some models dominated
            if count > 2 and k % 2:
                losses[:, -1] = losses[:, -2]  # identical columns: a degenerate pair
            panels.append(LossPanel([f"m{k}_{j}" for j in range(count)], dates, losses))
        return panels

    @settings(max_examples=30, deadline=None)
    @given(
        model_counts=st.lists(st.integers(1, 5), min_size=1, max_size=5),
        n_obs=st.integers(4, 60),
        block_len=st.one_of(st.none(), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_one_call_per_panel(self, model_counts, n_obs, block_len, seed):
        rng = np.random.default_rng(seed)
        panels = self.panels(rng, n_obs, model_counts)
        together = mcs(panels, 0.25, 150, block_len, seed)
        assert len(together) == len(panels)
        for panel, result in zip(panels, together):
            alone = mcs(panel, 0.25, 150, block_len, seed)
            assert result.p_values == alone.p_values
            assert result.surviving == alone.surviving
            assert result.elimination_order == alone.elimination_order
            assert (result.alpha, result.replicates, result.block_len) == (
                alone.alpha, alone.replicates, alone.block_len)

    @pytest.mark.parametrize("model_counts", [(1, 3, 1), (1,), (2, 4)])
    def test_panels_just_longer_than_the_block(self, rng, model_counts):
        block = default_block_len(9)  # 3
        for n_obs in (block + 1, block + 2):
            panels = self.panels(rng, n_obs, model_counts)
            for panel, result in zip(panels, mcs(panels, 0.25, 200, None, 4)):
                alone = mcs(panel, 0.25, 200, None, 4)
                assert (result.p_values, result.elimination_order) == (
                    alone.p_values, alone.elimination_order)
        # Within one block (by default too: 2 days, block 2), every model is kept at p = 1.
        for n_obs, block_len in ((3, 3), (2, None)):
            panels = self.panels(rng, n_obs, model_counts)
            for panel, result in zip(panels, mcs(panels, 0.25, 200, block_len, 4)):
                assert result.p_values == dict.fromkeys(panel.models, 1.0)
                assert result.surviving == set(panel.models)
                assert result.elimination_order == []

    def test_rejects_panels_on_other_dates(self, rng):
        first, second = self.panels(rng, 20, (2, 2))
        shifted = LossPanel(second.models, second.dates + 1, second.losses)
        with pytest.raises(ValueError, match="share their dates"):
            mcs([first, shifted], replicates=100)
