"""Series containers, supervised builders, simulation, and file formats."""

import logging
import struct

import numpy as np
import pytest

from conftest import random_spd
from spdcast import (
    FORMAT_CSVLONG,
    FORMAT_MATBIN,
    CovSeries,
    DecompositionError,
    DimensionMismatchError,
    SeriesFormatError,
    SpdMatrix,
    blockdiag_spd,
    build_geohar_inputs,
    build_lagged_inputs,
    frechet_mean_log_euclidean,
    load_intraday_csv,
    load_series,
    log_returns,
    realized_cov,
    realized_series,
    rolling_windows,
    save_series,
    simulate_market,
)
from spdcast.data import _write_matrix_records, har_input
from spdcast.frechet import (
    METRIC_LOG_EUCLIDEAN,
    METRIC_PROCRUSTES,
    FrechetConfig,
    frechet_mean,
)


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

    def test_subseries(self, rng):
        series = make_series(rng, length=10)
        sub = series.subseries(slice(2, 7))
        assert len(sub) == 5
        assert sub.dates[0] == series.dates[2]
        assert sub.matrices[0] is series.matrices[2]


class TestSeriesStacks:
    @staticmethod
    def dense(matrices):
        return np.stack([m.data for m in matrices])

    def test_subseries_read_the_parent_stack(self, rng):
        series = make_series(rng, length=30)
        builds = []

        def build(m):
            builds.append(m)
            return m.data

        sub = series.subseries(slice(5, 25)).subseries(slice(2, 10))
        assert np.array_equal(sub.stack("dense", build), self.dense(series.matrices[7:15]))
        assert np.array_equal(sub.stack("dense", build, slice(3, 5)),
                              self.dense(series.matrices[10:12]))
        assert np.array_equal(series.stack("dense", build), self.dense(series.matrices))
        assert len(builds) == 30
        stepped = series.subseries(slice(0, 30, 2))  # not a window: builds its own
        assert np.array_equal(stepped.stack("dense", build), self.dense(series.matrices[::2]))
        assert len(builds) == 45

    def test_a_failure_is_raised_only_for_rows_that_include_it(self, rng):
        series = make_series(rng, length=30)
        bad = series.matrices[12]

        def build(m):
            if m is bad:
                raise DecompositionError("day 12 failed")
            return m.data

        sub = series.subseries(slice(10, 30))
        with pytest.raises(DecompositionError, match="day 12 failed"):
            series.stack("dense", build, slice(5, 13))
        with pytest.raises(DecompositionError, match="day 12 failed"):
            sub.stack("dense", build, slice(0, 5))
        with pytest.raises(DecompositionError, match="day 12 failed"):
            series.stack("dense", build)
        dense = self.dense(series.matrices)
        assert np.array_equal(series.stack("dense", build, slice(0, 12)), dense[:12])
        assert np.array_equal(series.stack("dense", build, slice(13, 30)), dense[13:])
        assert np.array_equal(sub.stack("dense", build, slice(3, 20)), dense[13:])

    def test_a_repeated_failure_keeps_a_short_traceback(self, rng):
        series = make_series(rng, length=10)

        def build(m):
            raise DecompositionError("every day fails")

        def depth():
            with pytest.raises(DecompositionError) as info:
                series.stack("failing", build, slice(0, 1))
            return len(info.traceback)

        first = depth()
        assert [depth() for _ in range(3)] == [first] * 3


class TestReturnsAndCovariance:
    def test_realized_cov_double_loop(self, rng):
        r = rng.standard_normal((13, 4))
        cov = realized_cov(r)
        expected = np.zeros((4, 4))
        for t in range(13):
            expected += np.outer(r[t], r[t])
        assert np.allclose(cov.data, expected, atol=1e-12)

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


class TestSupervisedBuilders:
    def test_lagged_counts_and_alignment(self, rng):
        series = make_series(rng, n=2, length=12)
        sup = build_lagged_inputs(series, 3)
        assert len(sup.inputs) == 9
        assert np.array_equal(sup.dates, series.dates[3:])
        # input block order at position t is t-1, t-2, t-3
        x0 = sup.inputs[0]
        assert np.allclose(x0.data[:2, :2], series.matrices[2].data, atol=1e-14)
        assert np.allclose(x0.data[2:4, 2:4], series.matrices[1].data, atol=1e-14)
        assert np.allclose(x0.data[4:, 4:], series.matrices[0].data, atol=1e-14)
        assert np.array_equal(sup.targets[0].data, series.matrices[3].data)
        assert sup.inputs[0].dim == 6

    def test_lagged_needs_history(self, rng):
        series = make_series(rng, length=3)
        with pytest.raises(ValueError):
            build_lagged_inputs(series, 3)

    def test_geohar_counts_and_blocks(self, rng):
        series = make_series(rng, n=2, length=30)
        sup = build_geohar_inputs(series)
        assert len(sup.inputs) == 8
        assert np.array_equal(sup.dates, series.dates[22:])
        x0 = sup.inputs[0]
        assert x0.dim == 6
        assert np.allclose(x0.data[:2, :2], series.matrices[21].data, atol=1e-12)
        weekly = frechet_mean_log_euclidean(series.matrices[17:22])
        monthly = frechet_mean_log_euclidean(series.matrices[0:22])
        assert np.allclose(x0.data[2:4, 2:4], weekly.data, atol=1e-10)
        assert np.allclose(x0.data[4:, 4:], monthly.data, atol=1e-10)

    def test_geohar_constant_series(self, rng):
        m = random_spd(rng, 2)
        dates = np.datetime64("2001-01-01") + np.arange(25)
        series = CovSeries(dates, [m] * 25)
        sup = build_geohar_inputs(series)
        for block in (slice(0, 2), slice(2, 4), slice(4, 6)):
            assert np.allclose(sup.inputs[0].data[block, block], m.data, atol=1e-10)


class TestHarInputs:
    @staticmethod
    def series_with_singular_day(rng, length=40):
        series = make_series(rng, n=3, length=length)
        matrices = list(series.matrices)
        v = rng.standard_normal(3)
        matrices[10] = SpdMatrix(np.outer(v, v))  # rank one: floor-projected
        return CovSeries(series.dates, matrices)

    @staticmethod
    def reference(matrices, t, cfg):
        return blockdiag_spd([
            matrices[t - 1],
            frechet_mean(matrices[t - 5 : t], cfg),
            frechet_mean(matrices[t - 22 : t], cfg),
        ])

    @staticmethod
    def assert_same(a, b):
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.eig.values, b.eig.values)
        assert np.array_equal(a.eig.vectors, b.eig.vectors)

    def test_log_cached_inputs_equal_per_window_means_bitwise(self, rng):
        series = self.series_with_singular_day(rng)
        cfg = FrechetConfig(metric=METRIC_LOG_EUCLIDEAN)
        sup = build_geohar_inputs(series, METRIC_LOG_EUCLIDEAN, cfg)
        for k, t in enumerate(range(22, len(series))):
            self.assert_same(sup.inputs[k], self.reference(series.matrices, t, cfg))

    def test_series_log_stack_matches_a_fit_on_a_slice(self, rng):
        series = self.series_with_singular_day(rng)
        cfg = FrechetConfig(metric=METRIC_LOG_EUCLIDEAN)
        fit = build_geohar_inputs(series.subseries(slice(5, 35)), METRIC_LOG_EUCLIDEAN, cfg)
        for k, t in enumerate(range(5 + 22, 35)):
            self.assert_same(fit.inputs[k], har_input(series, t, cfg))
        for t in range(22, len(series)):
            self.assert_same(har_input(series, t, cfg),
                             self.reference(series.matrices, t, cfg))

    def test_procrustes_route_unchanged(self, rng):
        series = make_series(rng, n=2, length=25)
        cfg = FrechetConfig(metric=METRIC_PROCRUSTES)
        sup = build_geohar_inputs(series, METRIC_PROCRUSTES, cfg)
        for k, t in enumerate(range(22, len(series))):
            self.assert_same(sup.inputs[k], self.reference(series.matrices, t, cfg))


    def test_position_needs_a_full_monthly_window(self, rng):
        series = make_series(rng, length=30)
        cfg = FrechetConfig(metric=METRIC_LOG_EUCLIDEAN)
        for t in (21, 31):
            with pytest.raises(IndexError):
                har_input(series, t, cfg)

    def test_unconverged_procrustes_mean_logs_a_warning(self, rng, caplog):
        series = make_series(rng, n=3, length=30)
        capped = FrechetConfig(metric=METRIC_PROCRUSTES, max_iters=1)
        caplog.set_level(logging.WARNING, logger="spdcast.data")
        har_input(series, 25, capped)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 2
        assert "the 5 matrices before position 25" in warnings[0]
        assert "the 22 matrices before position 25" in warnings[1]
        caplog.clear()
        default = FrechetConfig(metric=METRIC_PROCRUSTES)
        har_input(series, 25, default)
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
        for ma, mb in zip(a.matrices, b.matrices):
            assert np.array_equal(ma.data, mb.data)

    def test_df_below_dim_rejected(self):
        with pytest.raises(ValueError):
            simulate_market(5, 10, 0.5, 4, seed=0)

    def test_persistence_bounds(self):
        with pytest.raises(ValueError):
            simulate_market(2, 10, 1.0, 5, seed=0)

    def test_outputs_are_spd(self):
        series, _ = simulate_market(4, 30, 0.95, 8, seed=2)
        for m in series.matrices:
            assert m.eig.values[-1] > 0.0

    def test_unfactorable_covariance_is_a_typed_error_naming_the_day(self):
        # vol = 30 spreads the latent log-spectrum so far that the day's
        # covariance is numerically singular and its Cholesky factor fails.
        with pytest.raises(DecompositionError, match=r"simulated day \d+: .*vol=30"):
            simulate_market(3, 50, 0.9, 12, 0, vol=30)


class TestMatbin:
    def test_round_trip_bitwise(self, tmp_path, rng):
        series = make_series(rng, n=4, length=9)
        path = tmp_path / "series.matbin"
        save_series(series, path, FORMAT_MATBIN)
        loaded = load_series(path, FORMAT_MATBIN)
        assert np.array_equal(loaded.dates, series.dates)
        for ma, mb in zip(series.matrices, loaded.matrices):
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
        records = np.stack([m.data for m in series.matrices])
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
        for ma, mb in zip(series.matrices, loaded.matrices):
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
        assert np.allclose(series.matrices[0].data, expected.T @ expected, atol=1e-15)

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
