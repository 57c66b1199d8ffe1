"""Series containers, supervised builders, simulation, and file formats."""

import csv
import itertools
import logging
import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd
from spdcast import (
    FORMAT_CSVLONG,
    FORMAT_MATBIN,
    CovSeries,
    DecompositionError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    ReturnPanel,
    SeriesFormatError,
    SpdMatrix,
    blockdiag_spd,
    build_geohar_inputs,
    build_lagged_inputs,
    frechet_mean_log_euclidean,
    frechet_mean_procrustes,
    load_intraday_csv,
    load_series,
    log_returns,
    realized_series,
    rolling_windows,
    save_series,
    simulate_market,
)
from spdcast import data
from spdcast.data import HAR_MONTH, _read_matrix_records, _write_matrix_records
from spdcast.frechet import METRIC_LOG_EUCLIDEAN, METRIC_PROCRUSTES, FrechetConfig


def make_series(rng, n=3, length=30):
    dates = np.datetime64("2001-01-01") + np.arange(length)
    return CovSeries(dates, [random_spd(rng, n) for _ in range(length)])


class TestCovSeries:
    def test_rejects_length_mismatch(self, rng):
        dates = np.datetime64("2001-01-01") + np.arange(3)
        with pytest.raises(SeriesFormatError):
            CovSeries(dates, [random_spd(rng, 2)] * 2)

    def test_rejects_unsorted_dates(self, rng):
        dates = np.array(["2001-01-02", "2001-01-01"], dtype="datetime64[D]")
        with pytest.raises(SeriesFormatError):
            CovSeries(dates, [random_spd(rng, 2)] * 2)

    def test_rejects_duplicate_dates(self, rng):
        dates = np.array(["2001-01-01", "2001-01-01"], dtype="datetime64[D]")
        with pytest.raises(SeriesFormatError):
            CovSeries(dates, [random_spd(rng, 2)] * 2)

    def test_rejects_mixed_dims(self, rng):
        dates = np.datetime64("2001-01-01") + np.arange(2)
        with pytest.raises(DimensionMismatchError):
            CovSeries(dates, [random_spd(rng, 2), random_spd(rng, 3)])

    def test_rejects_entries_whose_symmetrization_overflows(self, rng):
        data = simulate_market(4, 120, 0.8, 7, 3)[0].data
        matrices = data * (1.5e308 / np.abs(data).max())  # finite; its largest doubled is not
        dates = np.datetime64("2001-01-01") + np.arange(120)
        with pytest.raises(NotPositiveDefiniteError,
                           match="^matrix entries overflow when symmetrized$"):
            CovSeries(dates, matrices)
        # Symmetric entries up to the largest double whose double is finite stay accepted.
        top = np.nextafter(np.finfo(float).max / 2.0, 0.0)
        kept = CovSeries(dates[:2], [[[top, 0.0], [0.0, top]], np.eye(2)])
        assert kept.data[0, 0, 0] == top

    def test_subseries(self, rng):
        series = make_series(rng, length=10)
        sub = series[2:7]
        assert len(sub) == 5
        assert sub.dates[0] == series.dates[2]
        for got, want in ((sub.data, series.data), (sub.values, series.values),
                          (sub.vectors, series.vectors)):
            assert np.shares_memory(got, want) and np.array_equal(got, want[2:7])
        picked = series[np.array([1, 4, 8])]
        assert np.array_equal(picked.dates, series.dates[[1, 4, 8]])
        assert np.array_equal(picked.vectors, series.vectors[[1, 4, 8]])
        assert not picked.data.flags.writeable
        with pytest.raises(SeriesFormatError):
            series[::-1]

    def test_a_position_is_a_read_only_view(self, rng):
        series = make_series(rng, length=4)
        m = series[2]
        assert isinstance(m, SpdMatrix)
        assert np.shares_memory(m.data, series.data) and not m.data.flags.writeable
        assert m.eig.values.tobytes() == series.values[2].tobytes()
        assert m.eig.vectors.tobytes() == series.vectors[2].tobytes()
        assert [x.data.tobytes() for x in series] == [x.tobytes() for x in series.data]


class TestSeriesStacks:
    def test_each_kernel_runs_once_per_series(self, rng, monkeypatch):
        series = make_series(rng, length=30)
        calls = []
        original = data._series_roots
        monkeypatch.setattr(data, "_series_roots",
                            lambda s: calls.append(len(s)) or original(s))
        cfg = FrechetConfig(metric=METRIC_PROCRUSTES)
        data._geohar_stack(series, np.arange(22, 31), cfg)
        build_geohar_inputs(series, cfg, train=slice(3, 28))
        assert calls == [30]


    def test_a_stack_is_kept_and_indexes_as_the_sub_series_own(self, rng):
        series = make_series(rng, length=30)
        stack = series.stack(data._series_logs)
        assert series.stack(data._series_logs) is stack
        sub = series[10:25]
        assert sub.stack(data._series_logs).tobytes() == stack[10:25].tobytes()


class TestReturnsAndCovariance:
    def test_realized_cov_double_loop(self, rng):
        r = rng.standard_normal((13, 4))
        panel = ReturnPanel(np.array(["2001-01-01"], "datetime64[D]"), [r], list("abcd"))
        cov = realized_series(panel)[0]
        expected = np.zeros((4, 4))
        for t in range(13):
            expected += np.outer(r[t], r[t])
        assert np.allclose(cov.data, expected, atol=1e-12)

    def test_panel_reads_a_nested_list_block_as_its_array(self):
        dates, block = np.array(["2001-01-01"], "datetime64[D]"), [[0.01, -0.02], [0.03, 0.01]]
        from_list = realized_series(ReturnPanel(dates, [block], ["a", "b"]))
        from_array = realized_series(ReturnPanel(dates, [np.array(block)], ["a", "b"]))
        assert from_list.data.tobytes() == from_array.data.tobytes()

    def test_panel_rejects_a_non_finite_block_when_built(self):
        r = np.array([[0.01, np.nan], [0.02, -0.01]])
        with pytest.raises(ValueError, match="^returns must be finite$"):
            ReturnPanel(np.array(["2001-01-01"], "datetime64[D]"), [r], ["a", "b"])

    def test_log_returns_manual(self):
        prices = np.array([[100.0, 50.0], [110.0, 45.0], [105.0, 46.0]])
        r = log_returns(prices)
        assert np.allclose(r[0], [np.log(1.1), np.log(0.9)], atol=1e-15)
        assert r.shape == (2, 2)

    def test_log_returns_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_returns(np.array([[1.0], [-2.0]]))

    def test_log_returns_needs_two_rows(self):
        with pytest.raises(ValueError):
            log_returns(np.array([[1.0, 2.0]]))


class TestBlockdiag:
    def test_assembles_blocks(self, rng):
        a, b = random_spd(rng, 2), random_spd(rng, 3)
        out = blockdiag_spd([a, b])
        expected = np.zeros((5, 5))
        expected[:2, :2] = a.data
        expected[2:, 2:] = b.data
        assert np.allclose(out.data, expected, atol=1e-14)

    def test_spectrum_is_union(self, rng):
        a, b = random_spd(rng, 2), random_spd(rng, 2)
        out = blockdiag_spd([a, b])
        want = np.sort(np.concatenate([a.eig.values, b.eig.values]))
        assert np.allclose(np.sort(out.eig.values), want, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        sides=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        rows=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_rows_place_the_blocks_bitwise(self, sides, rows, seed):
        rng = np.random.default_rng(seed)
        blocks = [[random_spd(rng, side) for _ in range(rows)] for side in sides]
        out = data._blockdiag_stack([np.stack([m.data for m in b]) for b in blocks])
        ends = np.cumsum(sides)
        assert out.shape == (rows, ends[-1], ends[-1])
        for r in range(rows):
            placed = np.zeros((ends[-1], ends[-1]), dtype=bool)
            for b, start, end in zip(blocks, ends - sides, ends):
                assert np.array_equal(out[r, start:end, start:end], b[r].data)
                placed[start:end, start:end] = True
            assert not out[r][~placed].any()
            assert np.array_equal(blockdiag_spd([b[r] for b in blocks]).data, out[r])


class TestSupervisedBuilders:
    def test_lagged_counts_and_alignment(self, rng):
        series = make_series(rng, n=2, length=12)
        sup = build_lagged_inputs(series, 3)
        assert sup.inputs.shape == (9, 6, 6)
        assert np.array_equal(sup.targets.dates, series.dates[3:])
        # input block order at position t is t-1, t-2, t-3
        for k, t in enumerate(range(3, 12)):
            want = blockdiag_spd([series[t - 1], series[t - 2], series[t - 3]])
            assert np.array_equal(sup.inputs[k], want.data)
            assert np.array_equal(sup.targets[k].data, series[t].data)

    def test_lagged_inputs_peak_near_their_own_bytes(self, rng):
        series = make_series(rng, n=50, length=60)
        build_lagged_inputs(series, 3)  # first-call allocations are not the builder's
        tracemalloc.start()
        try:
            sup = build_lagged_inputs(series, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The stack and one lag's gathered rows, a ninth of it at 3 lags; all
        # lags gathered at once took a third, and eigenvector stacks and a
        # recomposition of every input over 3 times it.
        assert peak <= 1.2 * sup.inputs.nbytes

    def test_lagged_needs_history(self, rng):
        series = make_series(rng, length=3)
        with pytest.raises(ValueError):
            build_lagged_inputs(series, 3)

    def test_geohar_counts_and_blocks(self, rng):
        series = make_series(rng, n=2, length=30)
        sup = build_geohar_inputs(series)
        assert sup.inputs.shape == (8, 6, 6)
        assert np.array_equal(sup.targets.dates, series.dates[22:])
        weekly = frechet_mean_log_euclidean(series[17:22])
        monthly = frechet_mean_log_euclidean(series[0:22])
        assert np.array_equal(sup.inputs[0], blockdiag_spd([series[21], weekly, monthly]).data)

    def test_geohar_constant_series(self, rng):
        m = random_spd(rng, 2)
        dates = np.datetime64("2001-01-01") + np.arange(25)
        series = CovSeries(dates, [m] * 25)
        sup = build_geohar_inputs(series)
        for block in (slice(0, 2), slice(2, 4), slice(4, 6)):
            assert np.allclose(sup.inputs[0][block, block], m.data, atol=1e-10)


class TestHarInputs:
    @staticmethod
    def series_with_singular_day(rng, length=40):
        series = make_series(rng, n=3, length=length)
        matrices = series.data.copy()
        v = rng.standard_normal(3)
        matrices[10] = np.outer(v, v)  # rank one: floor-projected
        return CovSeries(series.dates, matrices)

    @staticmethod
    def reference(matrices, t, cfg):
        def mean(window):
            if cfg.metric == METRIC_LOG_EUCLIDEAN:
                return frechet_mean_log_euclidean(window)
            return frechet_mean_procrustes(window, cfg).mean

        return blockdiag_spd([matrices[t - 1], mean(matrices[t - 5 : t]),
                              mean(matrices[t - 22 : t])])

    @staticmethod
    def at(series, t, cfg):
        """The HAR input at position t, one row of the builder's stack."""
        return data._geohar_stack(series, np.array([t]), cfg)[0]

    @staticmethod
    def assert_same(a, b):
        assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_log_cached_inputs_equal_per_window_means_bitwise(self, rng):
        series = self.series_with_singular_day(rng)
        cfg = FrechetConfig(metric=METRIC_LOG_EUCLIDEAN)
        sup = build_geohar_inputs(series, cfg)
        for k, t in enumerate(range(22, len(series))):
            self.assert_same(sup.inputs[k], self.reference(series, t, cfg))

    def test_series_log_stack_matches_a_fit_on_a_slice(self, rng):
        series = self.series_with_singular_day(rng)
        cfg = FrechetConfig(metric=METRIC_LOG_EUCLIDEAN)
        fit = build_geohar_inputs(series, cfg, train=slice(5, 35))
        for k, t in enumerate(range(5 + 22, 35)):
            self.assert_same(fit.inputs[k], self.at(series, t, cfg))
        for t in range(22, len(series) + 1):
            self.assert_same(self.at(series, t, cfg), self.reference(series, t, cfg))

    def test_procrustes_route_unchanged(self, rng):
        series = make_series(rng, n=2, length=25)
        cfg = FrechetConfig(metric=METRIC_PROCRUSTES)
        sup = build_geohar_inputs(series, cfg)
        for k, t in enumerate(range(22, len(series))):
            self.assert_same(sup.inputs[k], self.reference(series, t, cfg))

    def test_position_needs_a_full_monthly_window(self, rng):
        series = make_series(rng, length=30)
        cfg = FrechetConfig(metric=METRIC_LOG_EUCLIDEAN)
        for t in (21, 31):
            with pytest.raises(IndexError):
                self.at(series, t, cfg)
        # The first unobserved day has an input, as it has a random-walk forecast.
        self.assert_same(self.at(series, 30, cfg), self.reference(series, 30, cfg))

    def test_unconverged_procrustes_mean_logs_a_warning(self, rng, caplog):
        series = make_series(rng, n=3, length=30)
        capped = FrechetConfig(metric=METRIC_PROCRUSTES, max_iters=1)
        caplog.set_level(logging.WARNING, logger="spdcast.data")
        self.at(series, 25, capped)
        build_geohar_inputs(series, capped, train=slice(2, 30))
        self.at(series, 30, capped)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        # Every mean is unconverged after one iteration; each is computed, and
        # logged, once per series, naming its window and position.
        assert warnings == [
            f"Procrustes mean of the {k} matrices before position {t} did not converge "
            "in 1 iterations"
            for t in range(HAR_MONTH, len(series) + 1) for k in (5, 22)
        ]
        caplog.clear()
        default = FrechetConfig(metric=METRIC_PROCRUSTES)
        self.at(series, 25, default)
        assert not caplog.records


class TestRollingWindows:
    def test_task_count(self, rng):
        series = make_series(rng, n=2, length=40)
        tasks = list(rolling_windows(series, 30))
        assert len(tasks) == 10
        sl, t = tasks[0]
        assert (sl.start, sl.stop, t) == (0, 30, 30)
        sl, t = tasks[-1]
        assert (sl.start, sl.stop, t) == (9, 39, 39)

    def test_window_too_long(self, rng):
        series = make_series(rng, length=5)
        with pytest.raises(ValueError):
            list(rolling_windows(series, 5))


class TestSimulate:
    def test_shapes_and_dates(self):
        series, returns = simulate_market(3, 40, 0.9, 6, seed=1)
        assert len(series) == 40
        assert series.dim == 3
        assert returns.shape == (40, 3)
        assert series.dates[0] == np.datetime64("2000-01-03")
        assert series.dates[1] == np.datetime64("2000-01-04")

    def test_deterministic(self):
        a, _ = simulate_market(2, 10, 0.5, 5, seed=9)
        b, _ = simulate_market(2, 10, 0.5, 5, seed=9)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.data, mb.data)

    def test_df_below_dim_rejected(self):
        with pytest.raises(ValueError):
            simulate_market(5, 10, 0.5, 4, seed=0)

    def test_persistence_bounds(self):
        with pytest.raises(ValueError):
            simulate_market(2, 10, 1.0, 5, seed=0)

    def test_outputs_are_spd(self):
        series, _ = simulate_market(4, 30, 0.95, 8, seed=2)
        for m in series:
            assert m.eig.values[-1] > 0.0

    def test_unfactorable_covariance_is_a_typed_error_naming_the_day(self):
        # vol = 30 spreads the latent log-spectrum so far that the day's
        # covariance is numerically singular and its Cholesky factor fails.
        with pytest.raises(DecompositionError, match=r"simulated day \d+: .*vol=30"):
            simulate_market(3, 50, 0.9, 12, 0, vol=30)

    def test_overflowing_covariance_is_a_typed_error_naming_the_day(self):
        # vol = 1000 drives the latent log-spectrum past the largest double's
        # logarithm, so the day's covariance overflows in expm.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            match = r"simulated day \d+: .*vol=1000.*overflows"
            with pytest.raises(DecompositionError, match=match):
                simulate_market(3, 50, 0.9, 12, 0, vol=1000)


class TestMatbin:
    def test_round_trip_bitwise(self, tmp_path, rng):
        series = make_series(rng, n=4, length=9)
        path = tmp_path / "series.matbin"
        save_series(series, path, FORMAT_MATBIN)
        loaded = load_series(path, FORMAT_MATBIN)
        assert np.array_equal(loaded.dates, series.dates)
        for ma, mb in zip(series, loaded):
            assert np.array_equal(ma.data, mb.data)

    def test_header_layout(self, tmp_path, rng):
        series = make_series(rng, n=3, length=5)
        path = tmp_path / "series.matbin"
        save_series(series, path, FORMAT_MATBIN)
        blob = path.read_bytes()
        magic, version, side, count = struct.unpack_from("<4sIIQ", blob, 0)
        assert magic == b"SPDS"
        assert version == 1
        assert side == 3
        assert count == 5
        (first_key,) = struct.unpack_from("<q", blob, struct.calcsize("<4sIIQ"))
        days = (series.dates[0] - np.datetime64("1970-01-01")).astype(int)
        assert first_key == days

    def test_truncated_file_rejected(self, tmp_path, rng):
        series = make_series(rng, n=3, length=5)
        path = tmp_path / "series.matbin"
        save_series(series, path, FORMAT_MATBIN)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(SeriesFormatError):
            load_series(path, FORMAT_MATBIN)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.matbin"
        path.write_bytes(b"JUNKxxxxxxxxxxxxxxxxxxxx")
        with pytest.raises(SeriesFormatError):
            load_series(path, FORMAT_MATBIN)

    def test_non_finite_record_names_file_and_date(self, tmp_path, rng):
        series = make_series(rng, n=3, length=5)
        records = series.data.copy()
        records[2, 0, 1] = np.nan
        path = tmp_path / "series.matbin"
        keys = (series.dates - np.datetime64("1970-01-01")).astype(np.int64)
        _write_matrix_records(path, keys, records)
        with pytest.raises(SeriesFormatError) as err:
            load_series(path, FORMAT_MATBIN)
        assert str(err.value) == f"{path}: date 2001-01-03: matrix entries must be finite"


class TestCsvLong:
    def test_round_trip_exact(self, tmp_path, rng):
        series = make_series(rng, n=3, length=4)
        path = tmp_path / "series.csv"
        save_series(series, path, FORMAT_CSVLONG)
        loaded = load_series(path, FORMAT_CSVLONG)
        assert np.array_equal(loaded.dates, series.dates)
        for ma, mb in zip(series, loaded):
            assert np.array_equal(ma.data, mb.data)

    def test_only_one_triangle_stored(self, tmp_path, rng):
        series = make_series(rng, n=3, length=2)
        path = tmp_path / "series.csv"
        save_series(series, path, FORMAT_CSVLONG)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "date,row,col,value"
        assert len(lines) == 1 + 2 * 6

    def test_wrong_triangle_rejected(self, tmp_path):
        # stored entries must satisfy row <= col
        path = tmp_path / "bad.csv"
        path.write_text("date,row,col,value\n2001-01-01,1,0,0.5\n")
        with pytest.raises(SeriesFormatError) as err:
            load_series(path, FORMAT_CSVLONG)
        assert ":2" in str(err.value)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "date,row,col,value\n"
            "2001-01-01,0,0,1.0\n"
            "2001-01-01,0,0,2.0\n"
            "2001-01-01,1,0,0.0\n"
            "2001-01-01,1,1,1.0\n"
        )
        with pytest.raises(SeriesFormatError):
            load_series(path, FORMAT_CSVLONG)

    def test_non_psd_record_names_file_and_date(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "date,row,col,value\n"
            "2001-01-01,0,0,1.0\n2001-01-01,0,1,0.0\n2001-01-01,1,1,1.0\n"
            "2001-01-02,0,0,1.0\n2001-01-02,0,1,2.0\n2001-01-02,1,1,1.0\n"
        )
        with pytest.raises(SeriesFormatError) as err:
            load_series(path, FORMAT_CSVLONG)
        assert str(err.value).startswith(f"{path}: date 2001-01-02: smallest eigenvalue")

    def test_malformed_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,row,col,value\n2001-01-01,0,0,abc\n")
        with pytest.raises(SeriesFormatError) as err:
            load_series(path, FORMAT_CSVLONG)
        assert ":2" in str(err.value)


class TestIntraday:
    def write_csv(self, path, rows):
        path.write_text("date,time,ticker,price\n" + "\n".join(rows) + "\n")

    def test_grid_and_realized_cov_by_hand(self, tmp_path):
        # one day, two tickers, 60-second grid; prices move once mid-interval
        rows = [
            "2001-01-02,09:30:00,aaa,100.0",
            "2001-01-02,09:31:00,aaa,101.0",
            "2001-01-02,09:32:00,aaa,99.0",
            "2001-01-02,09:30:00,bbb,50.0",
            "2001-01-02,09:31:00,bbb,50.5",
            "2001-01-02,09:32:00,bbb,50.0",
        ]
        path = tmp_path / "ticks.csv"
        self.write_csv(path, rows)
        panel = load_intraday_csv(path, grid_seconds=60)
        assert list(panel.tickers) == ["aaa", "bbb"]
        r = panel.returns[0]
        expected = np.array(
            [
                [np.log(101.0 / 100.0), np.log(50.5 / 50.0)],
                [np.log(99.0 / 101.0), np.log(50.0 / 50.5)],
            ]
        )
        assert np.allclose(r, expected, atol=1e-15)
        series = realized_series(panel)
        assert np.allclose(series[0].data, expected.T @ expected, atol=1e-15)

    def test_last_observation_carried_forward(self, tmp_path):
        rows = [
            "2001-01-02,09:30,aaa,100.0",
            "2001-01-02,09:33,aaa,102.0",
            "2001-01-02,09:30,bbb,50.0",
            "2001-01-02,09:31,bbb,51.0",
            "2001-01-02,09:33,bbb,51.0",
        ]
        path = tmp_path / "ticks.csv"
        self.write_csv(path, rows)
        panel = load_intraday_csv(path, grid_seconds=60)
        r = panel.returns[0]
        # ticker aaa holds at 100 until its 09:33 print
        assert np.allclose(r[:, 0], [0.0, 0.0, np.log(102.0 / 100.0)], atol=1e-15)
        assert np.allclose(r[:, 1], [np.log(51.0 / 50.0), 0.0, 0.0], atol=1e-15)

    def test_ticker_missing_on_a_day_rejected(self, tmp_path):
        rows = [
            "2001-01-02,09:30,aaa,100.0",
            "2001-01-02,09:31,aaa,101.0",
            "2001-01-03,09:30,aaa,100.0",
            "2001-01-03,09:31,aaa,101.0",
            "2001-01-02,09:30,bbb,50.0",
            "2001-01-02,09:31,bbb,51.0",
        ]
        path = tmp_path / "ticks.csv"
        self.write_csv(path, rows)
        with pytest.raises(SeriesFormatError):
            load_intraday_csv(path, grid_seconds=60)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "ticks.csv"
        path.write_text("time,ticker,price\n")
        with pytest.raises(SeriesFormatError):
            load_intraday_csv(path)

    def test_nonpositive_price_rejected(self, tmp_path):
        path = tmp_path / "ticks.csv"
        self.write_csv(path, ["2001-01-02,09:30,aaa,-1.0"])
        with pytest.raises(SeriesFormatError):
            load_intraday_csv(path)


TICK_HEADER = "date,time,ticker,price\n"
TWO_TICKERS = (
    "2001-01-02,09:30,aaa,100.0\n2001-01-02,09:40,aaa,101.0\n"
    "2001-01-02,09:30,bbb,50.0\n2001-01-02,09:40,bbb,51.0\n"
)

# (file text, expected message after "<path>"): one per loader check, and
# cases where several rows are bad and the first one must be named.
INTRADAY_MESSAGES = [
    ("", ": bad header None"),
    ("\n2001-01-02,09:30,aaa,100.0\n", ": bad header []"),
    ("time,ticker,price\n", ": bad header ['time', 'ticker', 'price']"),
    ("date,time,ticker,price,size\n", ": bad header ['date', 'time', 'ticker', 'price', 'size']"),
    (TICK_HEADER + "2001-01-02,09:30,aaa\n", ":2: expected 4 fields"),
    (TICK_HEADER + "2001-01-02,09:30,aaa,1.0,7\n", ":2: expected 4 fields"),
    (TICK_HEADER + "2001-01-02,09:30,aaa,1.0\n\n2001-01-02,09:31,aaa,1.0\n", ":3: expected 4 fields"),
    (TICK_HEADER + TWO_TICKERS + "\n", ":6: expected 4 fields"),
    (TICK_HEADER + "2001-01-02,0930,aaa,1.0\n", ":2: bad time '0930'"),
    (TICK_HEADER + "2001-01-02,9:30:00:00,aaa,1.0\n", ":2: bad time '9:30:00:00'"),
    (TICK_HEADER + "2001-01-02,9:3x,aaa,1.0\n", ":2: invalid literal for int() with base 10: '3x'"),
    (TICK_HEADER + "2001-01-02,:30,aaa,1.0\n", ":2: invalid literal for int() with base 10: ''"),
    (TICK_HEADER + "2001-01-02,9:30,aaa,abc\n", ":2: could not convert string to float: 'abc'"),
    (TICK_HEADER + "2001-01-02,9:30,aaa,\n", ":2: could not convert string to float: ''"),
    (TICK_HEADER + "2001-01-02,9:30,aaa,-1.0\n", ":2: nonpositive price"),
    (TICK_HEADER + "2001-01-02,9:30,aaa,0\n", ":2: nonpositive price"),
    (TICK_HEADER, ": no records"),
    ("date,time,ticker,price", ": no records"),
    (
        TICK_HEADER + TWO_TICKERS + "2001-01-03,09:30,aaa,100.0\n2001-01-03,09:40,aaa,101.0\n",
        ": date 2001-01-03 missing tickers ['bbb']",
    ),
    (
        TICK_HEADER + "2001-01-02,09:30,aaa,100.0\n2001-01-02,09:34,aaa,101.0\n"
        "2001-01-02,09:30,bbb,50.0\n2001-01-02,09:34,bbb,51.0\n",
        ": date 2001-01-02 has fewer than two grid points at 300s spacing",
    ),
    (
        # the first day that fails either day check is named
        TICK_HEADER + "2001-01-03,09:30,aaa,100.0\n2001-01-03,09:31,aaa,101.0\n"
        "2001-01-03,09:30,bbb,50.0\n2001-01-03,09:31,bbb,51.0\n" + TWO_TICKERS.replace("bbb", "ccc"),
        ": date 2001-01-02 missing tickers ['bbb']",
    ),
    (TICK_HEADER + "2001-01-02,9:30,aaa,-1.0\n2001-01-02,930,aaa,1.0\n", ":2: nonpositive price"),
    (TICK_HEADER + "2001-01-02,930,aaa,1.0\n2001-01-02,9:30,aaa,-1.0\n", ":2: bad time '930'"),
    (TICK_HEADER + "2001-01-02,9:30,aaa,1.0\n2001-01-02,9:30,aaa,x\n2001-01-02,9:30\n",
     ":3: could not convert string to float: 'x'"),
    (TICK_HEADER + "2001-01-02,9:30,aaa,1.0\n2001-01-02,9:30\n2001-01-02,9:30,aaa,x\n",
     ":3: expected 4 fields"),
    (TICK_HEADER.replace("\n", "\r\n") + "2001-01-02,9:30,aaa,1.0\r\n2001-01-02,9:30,aaa,0\r\n",
     ":3: nonpositive price"),
    (TICK_HEADER + '2001-01-02,9:30,"aaa",1.0\n2001-01-02,"9:30,aaa",1.0\n',
     ":3: expected 4 fields"),
]

# Rows the loader once let through to a raw ValueError.
INTRADAY_NEW_MESSAGES = [
    (TICK_HEADER + "2001-13-45,9:30,aaa,1.0\n", ":2: bad date '2001-13-45'"),
    (TICK_HEADER + "2001-01-02,9:30,aaa,1.0\nNaT,9:30,aaa,1.0\n", ":3: bad date 'NaT'"),
    (TICK_HEADER + ",9:30,aaa,1.0\n", ":2: bad date ''"),
    (TICK_HEADER + "2001-01-02,9:30,aaa,nan\n", ":2: non-finite price 'nan'"),
    (TICK_HEADER + "2001-01-02,9:30,aaa,inf\n", ":2: non-finite price 'inf'"),
    (TICK_HEADER + "2001-01-02,9:30,aaa,1e999\n", ":2: non-finite price '1e999'"),
    # the first bad row is named, whatever is wrong with it
    (TICK_HEADER + "2001-01-02,9:30,aaa,nan\n2001-01-02,9:3x,aaa,1.0\n", ":2: non-finite price 'nan'"),
    (TICK_HEADER + "2001-01-02,9:30,aaa,-1\n2001-99-02,9:30,aaa,1.0\n", ":2: nonpositive price"),
    (TICK_HEADER + "2001-99-02,9:30,aaa,1.0\n2001-01-02,9:30\n", ":2: bad date '2001-99-02'"),
    # a bad value first seen in a later block of rows (blocks are 2**17 characters)
    (TICK_HEADER + TWO_TICKERS * 1400 + "2001-13-45,9:30,aaa,1.0\n",
     f":{4 * 1400 + 2}: bad date '2001-13-45'"),
    (TICK_HEADER + TWO_TICKERS * 1400 + "2001-01-02,9:3x,aaa,1.0\n",
     f":{4 * 1400 + 2}: invalid literal for int() with base 10: '3x'"),
    (TICK_HEADER + "2001-01-02 ,9:30,aaa,1.0\n", ":2: bad date '2001-01-02 '"),
    # tickers and prices that NumPy's C reader does not read as the loader must: the
    # message shows the rows before it were accepted, and their tickers read back
    (TICK_HEADER + TWO_TICKERS.replace("bbb", "bé") + "2001-01-03,09:30,aaa,100.0\n"
     "2001-01-03,09:40,aaa,101.0\n",
     ": date 2001-01-03 missing tickers ['bé']"),
    (TICK_HEADER + TWO_TICKERS.replace("bbb", "b\0") + "2001-01-03,09:30,aaa,100.0\n"
     "2001-01-03,09:40,aaa,101.0\n",
     ": date 2001-01-03 missing tickers ['b\\x00']"),
    (TICK_HEADER + TWO_TICKERS.replace("101.0", "1_01.0") + "2001-01-02,9:50,aaa,0\n",
     ":6: nonpositive price"),
    (TICK_HEADER + TWO_TICKERS.replace("101.0", "\u0661\u0660\u0661") + "2001-01-02,9:50,aaa,0\n",
     ":6: nonpositive price"),
    (TICK_HEADER + "2001-01-02,9:30,aaa,\x1c1.0\n",
     ":2: could not convert string to float: '\\x1c1.0'"),
    # hours beyond what seconds are held in: once a raw OverflowError
    (TICK_HEADER + "2001-01-02,99999999999999999999:00,aaa,1.0\n",
     ":2: bad time '99999999999999999999:00'"),
    # dates NumPy reads but whose text is not their ISO day, on both block paths:
    # once a second panel day beside 2001-01-02, in a message naming no line
    (TICK_HEADER + TWO_TICKERS + " 2001-01-02,09:50,aaa,1.0\n", ":6: bad date ' 2001-01-02'"),
    (TICK_HEADER + TWO_TICKERS.replace("bbb", "bé") + " 2001-01-02,09:50,aaa,1.0\n",
     ":6: bad date ' 2001-01-02'"),
    (TICK_HEADER + TWO_TICKERS + "2001-01,09:50,aaa,1.0\n", ":6: bad date '2001-01'"),
    (TICK_HEADER + TWO_TICKERS + "2001-01-02T00Z,09:50,aaa,1.0\n", ":6: bad date '2001-01-02T00Z'"),
    # a field longer than csv reads, quoted or not: once a raw csv traceback
    (TICK_HEADER + TWO_TICKERS + '2001-01-02,09:50,"' + "x" * 140_000 + '",1.0\n',
     ":6: field larger than field limit (131072)"),
    (TICK_HEADER + TWO_TICKERS + "2001-01-02,09:50," + "x" * 140_000 + ",1.0\n",
     ":6: field larger than field limit (131072)"),
    ('"' + "x" * 140_000 + '",time,ticker,price\n' + TWO_TICKERS,
     ":1: field larger than field limit (131072)"),
]


class TestIntradayMessages:
    """Exact loader messages: each names the file, and a row error its line."""

    @pytest.mark.parametrize("text, suffix", INTRADAY_MESSAGES, ids=range(len(INTRADAY_MESSAGES)))
    def test_message(self, tmp_path, text, suffix):
        path = tmp_path / "ticks.csv"
        path.write_bytes(text.encode())
        with pytest.raises(SeriesFormatError) as err:
            load_intraday_csv(path)
        assert str(err.value) == f"{path}{suffix}"

    @pytest.mark.parametrize(
        "text, suffix", INTRADAY_NEW_MESSAGES, ids=range(len(INTRADAY_NEW_MESSAGES))
    )
    def test_new_row_errors(self, tmp_path, text, suffix):
        self.test_message(tmp_path, text, suffix)


def _matbin_bytes(side, keys, records, version=1):
    head = struct.pack("<4sIIQ", b"SPDS", version, side, len(keys))
    return head + b"".join(
        struct.pack("<q", k) + np.asarray(r, dtype="<f8").tobytes() for k, r in zip(keys, records)
    )


KEYS = [11323, 11324]  # 2001-01-01, 2001-01-02
EYE = np.eye(2)
NOT_PSD = np.array([[1.0, 2.0], [2.0, 1.0]])
PSD_MESSAGE = "smallest eigenvalue -1.000000e+00 is below the PSD tolerance -3.000000e-10"

MATBIN_MESSAGES = [
    (b"SPDS", ": truncated header"),
    (b"JUNKxxxxxxxxxxxxxxxxxxxx", ": bad magic b'JUNK'"),
    (_matbin_bytes(2, KEYS, [EYE, EYE], version=2), ": unsupported version 2"),
    (_matbin_bytes(2, KEYS, [EYE, EYE])[:-1], ": expected 100 bytes for 2 records, found 99"),
    (_matbin_bytes(2, KEYS, [EYE, EYE]) + b"\0", ": expected 100 bytes for 2 records, found 101"),
    (_matbin_bytes(2, KEYS, [EYE, NOT_PSD]), ": date 2001-01-02: " + PSD_MESSAGE),
    (_matbin_bytes(2, KEYS, [NOT_PSD, [[np.inf, 0], [0, 1]]]), ": date 2001-01-01: " + PSD_MESSAGE),
    (_matbin_bytes(2, KEYS, [[[np.inf, 0], [0, 1]], NOT_PSD]),
     ": date 2001-01-01: matrix entries must be finite"),
    (_matbin_bytes(0, KEYS, [np.zeros((0, 0))] * 2),
     ": date 2001-01-01: expected a nonempty square matrix, got shape (0, 0)"),
    (_matbin_bytes(2, [], []), ": no records"),
    (_matbin_bytes(2, KEYS[::-1], [EYE, EYE]), ": date 2001-01-01 is not after 2001-01-02"),
    (_matbin_bytes(2, KEYS[:1] * 2, [EYE, EYE]), ": date 2001-01-01 is not after 2001-01-01"),
    (_matbin_bytes(2, KEYS, [EYE, [[1e308, 1e308], [1e308, 1e308]]]),
     ": date 2001-01-02: matrix entries overflow when symmetrized"),
]

CSV_HEADER = "date,row,col,value\n"
CSV_EYE = "2001-01-01,0,0,1.0\n2001-01-01,0,1,0.0\n2001-01-01,1,1,1.0\n"
CSVLONG_MESSAGES = [
    ("", ": bad header None"),
    ("date,row,col\n", ": bad header ['date', 'row', 'col']"),
    (CSV_HEADER + "2001-01-01,0,0\n", ":2: expected 4 fields"),
    (CSV_HEADER + "2001-01-01,0,x,1.0\n", ":2: invalid literal for int() with base 10: 'x'"),
    (CSV_HEADER + "2001-01-01,0,0,abc\n", ":2: could not convert string to float: 'abc'"),
    (CSV_HEADER + "2001-01-01,1,0,0.5\n", ":2: need 0 <= row <= col, got (1, 0)"),
    (CSV_HEADER + "2001-01-01,-1,0,0.5\n", ":2: need 0 <= row <= col, got (-1, 0)"),
    (CSV_HEADER + CSV_EYE + "2001-01-01,0,0,2.0\n", ":5: duplicate entry (0, 0)"),
    (CSV_HEADER, ": no records"),
    (CSV_HEADER + CSV_EYE + "2001-01-02,0,0,1.0\n", ": date 2001-01-02 has 1 entries, expected 3"),
    (CSV_HEADER + CSV_EYE + "2001-01-02,0,0,1.0\n2001-01-02,0,2,0.0\n2001-01-02,1,1,1.0\n",
     ": date 2001-01-02 exceeds dimension 2"),
    (CSV_HEADER + CSV_EYE + CSV_EYE.replace("0,1,0.0", "0,1,2.0").replace("-01,", "-02,"),
     ": date 2001-01-02: " + PSD_MESSAGE),
    (CSV_HEADER + CSV_EYE.replace("0,1,0.0", "0,1,nan"),
     ": date 2001-01-01: matrix entries must be finite"),
    (CSV_HEADER + "abc,0,0,1.0\n", ":2: bad date 'abc'"),
    (CSV_HEADER + CSV_EYE + "2001-01,0,0,1.0\n", ":5: bad date '2001-01'"),
    (CSV_HEADER + "20010101,0,0,1.0\n", ":2: bad date '20010101'"),
    (CSV_HEADER + "2001-01-01T10,0,0,1.0\n", ":2: bad date '2001-01-01T10'"),
    (CSV_HEADER + " 2001-01-01,0,0,1.0\n", ":2: bad date ' 2001-01-01'"),
    (CSV_HEADER + CSV_EYE.replace("-01,", "-03,") + CSV_EYE.replace("-01,", "-02,") + CSV_EYE,
     ": date 2001-01-02 is not after 2001-01-03"),
    (CSV_HEADER + CSV_EYE[:38] + CSV_EYE.replace("-01,", "-02,") + CSV_EYE[38:],
     ": date 2001-01-01 is not after 2001-01-02"),
]


class TestSeriesMessages:
    """Exact ``load_series`` messages for malformed files and records."""

    @pytest.mark.parametrize("blob, suffix", MATBIN_MESSAGES, ids=range(len(MATBIN_MESSAGES)))
    def test_matbin(self, tmp_path, blob, suffix):
        path = tmp_path / "series.matbin"
        path.write_bytes(blob)
        with pytest.raises(SeriesFormatError) as err:
            load_series(path, FORMAT_MATBIN)
        assert str(err.value) == f"{path}{suffix}"

    @pytest.mark.parametrize("text, suffix", CSVLONG_MESSAGES, ids=range(len(CSVLONG_MESSAGES)))
    def test_csvlong(self, tmp_path, text, suffix):
        path = tmp_path / "series.csv"
        path.write_text(text)
        with pytest.raises(SeriesFormatError) as err:
            load_series(path, FORMAT_CSVLONG)
        assert str(err.value) == f"{path}{suffix}"


def _reference_panel(path, grid_seconds):
    """The row-at-a-time loader this package used before its columnar one."""
    by_day = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for date, time_s, ticker, price_s in reader:
            parts = [int(p) for p in time_s.split(":")] + [0]
            seconds = parts[0] * 3600 + parts[1] * 60 + parts[2]
            by_day.setdefault(date, {}).setdefault(ticker, []).append((seconds, float(price_s)))
    tickers = sorted({t for day in by_day.values() for t in day})
    blocks = []
    for date in sorted(by_day):
        obs = {t: sorted(by_day[date][t]) for t in tickers}
        start = max(o[0][0] for o in obs.values())
        stop = min(o[-1][0] for o in obs.values())
        grid = np.arange(start, stop + 1, grid_seconds)
        prices = np.zeros((len(grid), len(tickers)))
        for k, t in enumerate(tickers):
            times = np.array([o[0] for o in obs[t]])
            pos = np.searchsorted(times, grid, side="right") - 1
            prices[:, k] = np.array([o[1] for o in obs[t]])[pos]
        blocks.append(log_returns(prices))
    return sorted(by_day), blocks, tickers


def _tick_rows(rng, short_times):
    """Rows of 2 to 3 tickers over 1 to 3 days, with same-second repeats."""
    rows = []
    tickers = ["zz", "aa", "mm"][: int(rng.integers(2, 4))]
    for day in range(int(rng.integers(1, 4))):
        date = str(np.datetime64("2003-03-03") + day)
        for ticker in tickers:
            step = 60 if short_times else 1
            seconds = 9 * 3600 + step * rng.integers(0, 7200 // step, size=int(rng.integers(2, 9)))
            seconds = np.r_[seconds, 9 * 3600, 11 * 3600]
            seconds = np.r_[seconds, rng.choice(seconds, size=3)]  # same-second ticks
            for s, price in zip(seconds, rng.uniform(10.0, 20.0, size=len(seconds))):
                clock = (f"{s // 3600}:{s // 60 % 60:02d}" if short_times
                         else f"{s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d}")
                rows.append([date, clock, ticker, repr(float(price))])
    return rows


def _mixed_tick_file(rng, tickers, crlf):
    """Ticks of ``tickers`` over 1 to 2 days, each row in its own form: ``H:MM`` or
    ``HH:MM:SS`` times, prices written as ``repr``, with an underscore or in spaces,
    some rows quoted (and every field with a comma or a line break), and same-second
    repeats."""
    lines = ["date,time,ticker,price"]
    for day in range(int(rng.integers(1, 3))):
        date = str(np.datetime64("2003-03-03") + day)
        for ticker in tickers:
            seconds = 9 * 3600 + rng.integers(0, 120, size=int(rng.integers(2, 8))) * 60
            seconds = np.r_[seconds, 9 * 3600 + rng.integers(0, 7200, size=3), 9 * 3600, 11 * 3600]
            seconds = np.r_[seconds, rng.choice(seconds, size=2)]
            for s, price in zip(seconds.tolist(), rng.uniform(10.0, 20.0, size=len(seconds))):
                clock = (f"{s // 3600}:{s // 60 % 60:02d}" if s % 60 == 0 and rng.random() < 0.5
                         else f"{s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d}")
                text = repr(float(price))
                text = [text, text[0] + "_" + text[1:], f" {text} "][int(rng.integers(0, 3))]
                row = [date, clock, ticker, text]
                quote = rng.random() < 0.1
                lines.append(",".join(f'"{v}"' if quote or set(v) & {",", "\n"} else v
                                      for v in row))
    order = [0, *(1 + rng.permutation(len(lines) - 1))]
    end = "\r\n" if crlf else "\n"
    return "".join(lines[i] + end for i in order).encode()


class TestIntradayColumnar:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        crlf=st.booleans(),
        quoted=st.booleans(),
        short_times=st.booleans(),
    )
    def test_shuffled_rows_give_the_same_panel_bitwise(
        self, tmp_path_factory, seed, crlf, quoted, short_times
    ):
        rng = np.random.default_rng(seed)
        rows = _tick_rows(rng, short_times)
        end = "\r\n" if crlf else "\n"
        paths = []
        for k, order in enumerate([np.arange(len(rows)), rng.permutation(len(rows))]):
            lines = [",".join(f'"{v}"' if quoted and j == 2 else v for j, v in enumerate(rows[i]))
                     for i in order]
            path = tmp_path_factory.mktemp("ticks") / f"ticks{k}.csv"
            path.write_bytes(("date,time,ticker,price" + end + end.join(lines) + end).encode())
            paths.append(path)
        panels = [load_intraday_csv(path, grid_seconds=300) for path in paths]
        dates, blocks, tickers = _reference_panel(paths[0], 300)
        for panel in panels:
            assert list(panel.tickers) == tickers
            assert np.array_equal(panel.dates, np.array(dates, dtype="datetime64[D]"))
            assert [r.tobytes() for r in panel.returns] == [b.tobytes() for b in blocks]

    def test_highest_price_of_one_second_is_carried(self, tmp_path):
        path = tmp_path / "ticks.csv"
        path.write_text(
            TICK_HEADER + "2001-01-02,9:30,aaa,100.0\n2001-01-02,9:31,aaa,105.0\n"
            "2001-01-02,9:31,aaa,104.0\n2001-01-02,9:31,aaa,103.0\n2001-01-02,9:32,aaa,100.0\n"
        )
        r = load_intraday_csv(path, grid_seconds=60).returns[0][:, 0]
        assert r.tolist() == [np.log(105.0 / 100.0), np.log(100.0 / 105.0)]

    def test_rows_span_many_blocks(self, tmp_path, monkeypatch):
        # Blocks of a few lines: the loader must not depend on where they end.
        rows = _tick_rows(np.random.default_rng(5), short_times=False)
        path = tmp_path / "ticks.csv"
        path.write_text(TICK_HEADER + "".join(",".join(r) + "\n" for r in rows))
        whole = load_intraday_csv(path)
        monkeypatch.setattr(data, "_BLOCK_CHARS", 64)
        cut = load_intraday_csv(path)
        assert [r.tobytes() for r in cut.returns] == [r.tobytes() for r in whole.returns]
        lines = path.read_text().splitlines()
        lines[40] = lines[40].replace(",", ";", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SeriesFormatError, match=r":41: expected 4 fields$"):
            load_intraday_csv(path)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tickers=st.lists(st.text(st.sampled_from("Tb9_ ,\n\u00e9\u6f22"), min_size=1, max_size=12),
                         min_size=2, max_size=3, unique=True),
        block=st.one_of(st.integers(1, 400), st.just(1 << 17)),
        crlf=st.booleans(),
    )
    def test_any_mix_of_blocks_gives_the_reference_panel_bitwise(
        self, tmp_path_factory, seed, tickers, block, crlf
    ):
        # Tickers wider than 8 bytes and non-ASCII ones, prices only ``float`` reads and
        # quoted rows send some blocks through csv and the rest through NumPy's C reader.
        path = tmp_path_factory.mktemp("ticks") / "ticks.csv"
        path.write_bytes(_mixed_tick_file(np.random.default_rng(seed), tickers, crlf))
        with mock.patch.object(data, "_BLOCK_CHARS", block):
            panel = load_intraday_csv(path, grid_seconds=300)
        dates, blocks, expected = _reference_panel(path, 300)
        assert list(panel.tickers) == expected
        assert np.array_equal(panel.dates, np.array(dates, dtype="datetime64[D]"))
        assert [r.tobytes() for r in panel.returns] == [b.tobytes() for b in blocks]

    def test_only_blocks_the_c_reader_cannot_read_take_csv(self, tmp_path, monkeypatch):
        # Well-formed ASCII rows never reach csv; a price with an underscore sends
        # its block, and only that one, there.
        rows = _tick_rows(np.random.default_rng(7), short_times=False)
        lines = [",".join(r) + "\n" for r in rows]
        path = tmp_path / "ticks.csv"
        path.write_text(TICK_HEADER + "".join(lines))
        read = []
        csv_block = data._csv_block
        monkeypatch.setattr(data, "_csv_block",
                            lambda text, fh: read.append(text) or csv_block(text, fh))
        monkeypatch.setattr(data, "_BLOCK_CHARS", 1)  # a block per row
        whole = load_intraday_csv(path)
        assert read == []
        date, time_s, ticker, price = lines[20].rstrip("\n").split(",")
        lines[20] = f"{date},{time_s},{ticker},{price[0]}_{price[1:]}\n"
        path.write_text(TICK_HEADER + "".join(lines))
        cut = load_intraday_csv(path)
        assert [r.tobytes() for r in cut.returns] == [r.tobytes() for r in whole.returns]
        assert read == [lines[20]]

    def test_memory_per_row_is_bounded(self, tmp_path):
        # 100,000 rows: 4 tickers x 100 ticks a day at random seconds over 250 days.
        rng = np.random.default_rng(0)
        seconds = 9 * 3600 + np.sort(rng.integers(0, 6 * 3600, size=(250, 100)), axis=1)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 1e-3, size=(250, 100, 4)), axis=1))
        rows = [TICK_HEADER]
        for d, day in enumerate(np.datetime64("2003-01-01") + np.arange(250)):
            for s, quotes in zip(seconds[d].tolist(), prices[d].tolist()):
                clock = f"{s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d}"
                rows += [f"{day},{clock},{t},{p!r}\n" for t, p in zip(("aa", "bb", "cc", "dd"), quotes)]
        path = tmp_path / "ticks.csv"
        path.write_text("".join(rows))
        load_intraday_csv(path)  # first-call allocations are not the loader's
        tracemalloc.start()
        try:
            load_intraday_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A few words per row: the prices, three int32 row numbers, a sort key
        # and its argsort, about 43 traced bytes a row. Whole-file text columns
        # and their temporaries take over 100.
        assert peak < 64 * 100_000


def _reference_write(path, keys, records):
    """The record-at-a-time MatBin writer this package used before."""
    count, side, _ = records.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIQ", b"SPDS", 1, side, count))
        for key, rec in zip(keys, records):
            fh.write(struct.pack("<q", int(key)))
            fh.write(np.ascontiguousarray(rec, dtype="<f8").tobytes())


def _reference_read(path):
    raw = path.read_bytes()
    _, _, side, count = struct.unpack_from("<4sIIQ", raw)
    keys, records = np.zeros(count, dtype=np.int64), np.zeros((count, side, side))
    offset = struct.calcsize("<4sIIQ")
    for i in range(count):
        (keys[i],) = struct.unpack_from("<q", raw, offset)
        records[i] = np.frombuffer(raw, "<f8", side * side, offset + 8).reshape(side, side)
        offset += 8 + 8 * side * side
    return keys, records


class TestMatbinRecords:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 20), side=st.integers(1, 7))
    def test_round_trip_matches_the_record_loop_bitwise(self, tmp_path_factory, seed, count, side):
        rng = np.random.default_rng(seed)
        keys = rng.integers(-(2**62), 2**62, size=count)
        records = rng.standard_normal((count, side, side)) * 10.0 ** rng.integers(-320, 300)
        special = [np.nan, np.inf, -0.0][: records.size]
        records.flat[rng.integers(0, records.size, size=len(special))] = special
        folder = tmp_path_factory.mktemp("matbin")
        ours, theirs = folder / "ours.matbin", folder / "theirs.matbin"
        _write_matrix_records(ours, keys, records)
        _reference_write(theirs, keys, records)
        assert ours.read_bytes() == theirs.read_bytes()
        for got, want in zip(_read_matrix_records(theirs), _reference_read(theirs)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
