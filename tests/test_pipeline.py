"""Config parsing, rolling model runs, and the command line surface."""

import configparser
import dataclasses
import errno
import importlib
import json
import logging
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcast import (
    METRIC_PROCRUSTES,
    ConfigError,
    CovSeries,
    FrechetConfig,
    SeriesFormatError,
    SpdcastError,
    SpdMatrix,
    TrainingDivergedError,
    blockdiag_spd,
    frechet_mean_log_euclidean,
    frechet_mean_procrustes,
    load_config,
    load_series,
    loss_panel,
    run_model,
    save_series,
    simulate_market,
)
from spdcast import baselines, data, pipeline
from spdcast.cli import main
from spdcast.config import _KEYS, ModelSpec, _parse_roster
from spdcast.data import HAR_MONTH
from spdcast.frechet import rolling_means
from spdcast.pipeline import _model_seed
from spdcast.spd import sqrtm_stack

BASE_CONFIG = """\
[run]
seed = 5
out = {out}

[data]
source = simulate
n = 3
days = 70
persistence = 0.8
df = 7

[models]
roster = rw, favar:factors=2

[forecast]
window = 40

[train]
epochs = 2
batch_size = 8

[evaluate]
metrics = frobenius
replicates = 120

[portfolio]
enabled = true
"""


def write_config(tmp_path, text=None, **fmt):
    path = tmp_path / "run.ini"
    path.write_text((text or BASE_CONFIG).format(out=tmp_path / "out", **fmt))
    return path


def write_ticks(path, days, seed=3):
    """Two tickers quoting every minute from 09:30 for half an hour."""
    rows = ["date,time,ticker,price"]
    rng = np.random.default_rng(seed)
    for day in range(days):
        date = np.datetime64("2001-01-01") + day
        for ticker, base in (("aaa", 100.0), ("bbb", 50.0)):
            price = base
            for minute in range(30):
                price *= float(np.exp(rng.normal(0.0, 0.001)))
                rows.append(f"{date},{9}:{30 + minute:02d},{ticker},{price:.6f}")
    path.write_text("\n".join(rows) + "\n")


class TestLoadConfig:
    def test_round_trip_values(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.seed == 5
        assert cfg.source == "simulate"
        assert cfg.sim_n == 3 and cfg.sim_days == 70
        assert cfg.window == 40
        assert cfg.metrics == ["frobenius"]
        assert [m.kind for m in cfg.roster] == ["rw", "favar"]
        assert cfg.roster[1].params["factors"] == 2

    def test_overrides(self, tmp_path):
        cfg = load_config(write_config(tmp_path), seed_override=99, workers_override=3)
        assert cfg.seed == 99
        assert cfg.workers == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")

    def test_unknown_section(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text() + "\n[mystery]\nx = 1\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "mystery" in str(err.value)

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("[forecast]", "[forecast]\nwidth = 9"))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "width" in str(err.value)

    def test_bad_integer(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("window = 40", "window = soon"))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "[forecast] window" in str(err.value)

    def test_path_required_for_file_sources(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("source = simulate", "source = matbin"))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "[data] path" in str(err.value)

    # One bad edit of BASE_CONFIG per check, and the exact message it raises.
    REJECTIONS = [
        ("seed = 5", "seed = x", "[run] seed: expected an integer, got 'x'"),
        ("seed = 5", "seed = -1", "[run] seed: must be >= 0, got -1"),
        ("seed = 5", "seed = 5\nworkers = 0", "[run] workers: must be >= 1, got 0"),
        ("source = simulate", "source = Bogus",
         "[data] source: unknown source 'Bogus' (simulate, matbin, csvlong, intraday)"),
        ("source = simulate", "source = matbin", "[data] path: required for source=matbin"),
        ("n = 3", "n = three", "[data] n: expected an integer, got 'three'"),
        ("n = 3", "n = 0", "[data] n: must be >= 1, got 0"),
        ("source = simulate\nn = 3", "source = matbin\npath = series.matbin\nn = 0",
         "[data] n: must be >= 1, got 0"),
        ("days = 70", "days = 1", "[data] days: must be >= 2, got 1"),
        ("persistence = 0.8", "persistence = high",
         "[data] persistence: expected a number, got 'high'"),
        ("persistence = 0.8", "persistence = 1", "[data] persistence: must be in [0, 1), got 1.0"),
        ("df = 7", "df = 2", "[data] df: must be >= n = 3, got 2"),
        ("df = 7", "df = 7\ngrid_seconds = 0", "[data] grid_seconds: must be >= 1, got 0"),
        ("roster = rw, favar:factors=2", "roster = oracle",
         "[models] roster: unknown model kind 'oracle' (rw, favar, respdnet, geohar)"),
        ("roster = rw, favar:factors=2", "roster = respdnet:lags=0",
         "[models] roster: respdnet lags must be >= 1"),
        ("window = 40", "window = soon", "[forecast] window: expected an integer, got 'soon'"),
        ("window = 40", "window = 1", "[forecast] window: must be >= 2, got 1"),
        ("window = 40", "window = 40\nrefit_every = -1",
         "[forecast] refit_every: must be >= 0, got -1"),
        ("epochs = 2", "epochs = 2\nlearning_rate = fast",
         "[train] learning_rate: expected a number, got 'fast'"),
        ("epochs = 2", "epochs = 2\nhidden = a,b",
         "[train] hidden: expected 'auto' or comma-separated integers, got 'a,b'"),
        ("epochs = 2", "epochs = 2\nhidden = 4,0", "[train] hidden: dims must be positive, got '4,0'"),
        ("metrics = frobenius", "metrics = frobenius, cosine",
         "[evaluate] metrics: unknown metric 'cosine' (known: "
         "('frobenius', 'euclidean', 'procrustes', 'log_euclidean'))"),
        ("metrics = frobenius", "metrics = ,", "[evaluate] metrics: no metrics specified"),
        ("metrics = frobenius", "metrics = frobenius, frobenius",
         "[evaluate] metrics: duplicate metric 'frobenius'"),
        ("metrics = frobenius", "metrics = frobenius, Frobenius",
         "[evaluate] metrics: duplicate metric 'Frobenius'"),
        ("replicates = 120", "replicates = 120\nalpha = 1",
         "[evaluate] alpha: must be in (0, 1), got 1.0"),
        ("replicates = 120", "replicates = many",
         "[evaluate] replicates: expected an integer, got 'many'"),
        ("replicates = 120", "replicates = 120\nblock_len = long",
         "[evaluate] block_len: expected 'auto' or an integer, got 'long'"),
        ("replicates = 120", "replicates = 120\nregime_quantile = 0",
         "[evaluate] regime_quantile: must be in (0, 1), got 0.0"),
        ("enabled = true", "enabled = maybe", "[portfolio] enabled: expected a boolean, got 'maybe'"),
        ("[forecast]", "[forecast]\nwidth = 9", "[forecast] unknown keys: ['width']"),
        ("[portfolio]", "[mystery]\nx = 1\n\n[portfolio]", "unknown config sections: ['mystery']"),
    ]

    @pytest.mark.parametrize("old, new, message", REJECTIONS)
    def test_rejection_message(self, tmp_path, old, new, message):
        path = write_config(tmp_path)
        assert old in path.read_text()
        path.write_text(path.read_text().replace(old, new, 1))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == message

    # Names match case-insensitively and read as their lowercase spelling.
    @pytest.mark.parametrize("old, new, setting, value", [
        ("metrics = frobenius", "metrics = Frobenius, LOG_Euclidean", "metrics",
         ["frobenius", "log_euclidean"]),
        ("roster = rw, favar:factors=2", "roster = GeoHAR:metric=Procrustes", "roster",
         [ModelSpec("geohar", "geohar_pro_le", {"metric": "procrustes", "loss": "log_euclidean"})]),
        ("roster = rw, favar:factors=2", "roster = respdnet:loss=MSE", "roster",
         [ModelSpec("respdnet", "respdnet3_mse", {"lags": 3, "loss": "mse"})]),
        ("roster = rw, favar:factors=2", "roster = geohar:Metric=procrustes", "roster",
         [ModelSpec("geohar", "geohar_pro_le", {"metric": "procrustes", "loss": "log_euclidean"})]),
        ("roster = rw, favar:factors=2", "roster = favar:FACTORS=AUTO", "roster",
         [ModelSpec("favar", "favar", {"factors": None})]),
        ("replicates = 120", "replicates = 120\nblock_len = AUTO", "block_len", None),
        ("epochs = 2", "epochs = 2\nhidden = Auto", "hidden", None),
        ("replicates = 120", "replicates = 120\nmarket_variance = TRACE", "market_variance",
         "trace"),
    ])
    def test_names_match_in_any_case(self, tmp_path, old, new, setting, value):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace(old, new, 1))
        assert getattr(load_config(path), setting) == value

    def test_rejection_messages_outside_the_sections(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(tmp_path / "absent.ini")
        assert str(err.value) == f"config file {tmp_path / 'absent.ini'} does not exist"
        path = write_config(tmp_path)
        with pytest.raises(ConfigError) as err:
            load_config(path, workers_override=0)
        assert str(err.value) == "--workers: must be >= 1, got 0"
        with pytest.raises(ConfigError) as err:
            load_config(path, seed_override=-1)
        assert str(err.value) == "--seed: must be >= 0, got -1"
        path.write_text(path.read_text().replace("seed = 5", "seed = 5\nseed = 6"))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == str(configparser.DuplicateOptionError("run", "seed", str(path), 3))

    def test_default_section_rejected_once_naming_its_keys(self, tmp_path, capsys):
        path = write_config(tmp_path)
        path.write_text("[DEFAULT]\nseed = 3\n\n" + path.read_text())
        with pytest.raises(ConfigError) as err:
            load_config(path)
        message = "[DEFAULT] is not supported; move its keys into their sections: ['seed']"
        assert str(err.value) == message
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"spdcast: config error: {message}\n"

    def test_empty_default_section_accepted(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text("[DEFAULT]\n\n" + path.read_text())
        assert load_config(path).seed == 5

    def test_config_hash_tracks_text(self, tmp_path):
        a = load_config(write_config(tmp_path))
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("seed = 5", "seed = 6"))
        b = load_config(path)
        assert a.config_hash != b.config_hash

    def test_readme_config_block_holds_every_key_at_its_default(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(block)
        assert parser.sections() == list(dict.fromkeys(s for s, *_ in _KEYS))
        assert {(s, k) for s in parser.sections() for k in parser[s]} == {
            (s, k) for s, k, *_ in _KEYS}
        documented, empty = tmp_path / "readme.ini", tmp_path / "empty.ini"
        documented.write_text(block)
        empty.write_text("")
        assert (dataclasses.replace(load_config(documented), raw_text="")
                == dataclasses.replace(load_config(empty), raw_text=""))


class TestRosterParsing:
    def test_default_names(self):
        specs = _parse_roster("rw, respdnet:lags=3:loss=log_euclidean, geohar:loss=mse")
        assert [s.name for s in specs] == ["rw", "respdnet3_le", "geohar_le_mse"]

    def test_custom_name(self):
        (spec,) = _parse_roster("respdnet:lags=2:name=deep")
        assert spec.name == "deep"
        assert spec.params["lags"] == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            _parse_roster("rw, rw")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            _parse_roster("oracle")

    def test_bad_parameter_syntax(self):
        with pytest.raises(ConfigError):
            _parse_roster("respdnet:lags")

    def test_bad_loss(self):
        with pytest.raises(ConfigError):
            _parse_roster("respdnet:loss=hinge")

    def test_empty_roster(self):
        with pytest.raises(ConfigError):
            _parse_roster(" , ")


class TestRunModel:
    def test_rw_identity(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        series, _ = simulate_market(cfg.sim_n, cfg.sim_days, 0.8, 7, cfg.seed)
        result = run_model(ModelSpec("rw", "rw", {}), cfg, series)
        assert list(result.dates) == list(series.dates[cfg.window :])
        for k, pred in enumerate(result.predictions):
            t = cfg.window + k
            assert np.array_equal(pred.data, series[t - 1].data)
        assert result.failures == []

    def test_window_must_leave_training_pairs(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        series, _ = simulate_market(3, 50, 0.8, 7, 1)
        spec = ModelSpec("geohar", "geohar_le_le", {"metric": "log_euclidean", "loss": "log_euclidean"})
        object.__setattr__(cfg, "window", 22)
        with pytest.raises(ConfigError):
            run_model(spec, cfg, series)


class TestStackFailures:
    """A floored logarithm cannot fail, so a GeoHAR model forecasts every
    date; a series' roots are taken once."""

    def config_and_series(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        series, _ = simulate_market(3, 70, 0.8, 7, 5)
        return cfg, series

    def test_geohar_forecasts_every_date_around_underflowing_days(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        series = simulate_market(3, 110, 0.8, 7, 5)[0]
        spec = ModelSpec("geohar", "geohar_le_le",
                         {"metric": "log_euclidean", "loss": "log_euclidean"})
        clean = run_model(spec, cfg, series)
        assert len(clean.dates) == 70 and clean.failures == []
        # Days whose relative floor SPD_FLOOR * 1e-320 underflows to 0: one within
        # 22 days of each end of the forecast span 40..109, and two in one month.
        days = [42, 70, 80, 100]
        matrices = series.data.copy()
        matrices[days] = np.diag([1e-320, 0.0, 0.0])
        result = run_model(spec, cfg, CovSeries(series.dates, matrices))
        # Every forecast passed the stacked finite PSD check of run_model.
        assert result.failures == [] and np.array_equal(result.dates, clean.dates)
        assert np.isfinite(result.predictions.data).all()
        # One fit on [0, 40), which holds no bad day: a date whose month (the
        # HAR_MONTH days before it) holds none keeps the clean forecast's bytes.
        kept = [k for k, t in enumerate(range(40, 110))
                if not any(t - HAR_MONTH <= d < t for d in days)]
        assert len(kept) == 9
        for k in kept:
            assert result.predictions.data[k].tobytes() == clean.predictions.data[k].tobytes()

    def test_favar_forecasts_every_date_around_a_singular_day(self, tmp_path):
        cfg, series = self.config_and_series(tmp_path)
        spec = ModelSpec("favar", "favar", {"factors": 2})
        clean = run_model(spec, cfg, series)
        assert len(clean.dates) == 30 and clean.failures == []
        matrices = series.data.copy()
        matrices[50] = np.diag([1e-320, 0.0, 0.0])  # floored, it has a Cholesky factor
        result = run_model(spec, cfg, CovSeries(series.dates, matrices))
        assert result.failures == [] and np.array_equal(result.dates, clean.dates)
        assert np.isfinite(result.predictions.data).all()
        # FAVAR refits on every window [t - 40, t); it holds day 50 for t = 51..69.
        for k, t in enumerate(range(40, 51)):
            assert result.predictions.data[k].tobytes() == clean.predictions.data[k].tobytes()
        assert not np.array_equal(result.predictions.data[11:], clean.predictions.data[11:])

    def test_geohar_roots_each_matrix_once(self, tmp_path, monkeypatch):
        cfg, series = self.config_and_series(tmp_path)
        cfg.refit_every = 10
        rows = []
        original = data.sqrtm_stack
        monkeypatch.setattr(data, "sqrtm_stack",
                            lambda values, vectors: rows.append(len(values)) or
                            original(values, vectors))
        spec = ModelSpec("geohar", "geohar", {"metric": "procrustes", "loss": "log_euclidean"})
        result = run_model(spec, cfg, series)
        assert len(result.traces) == 3 and len(result.dates) == 30
        assert rows == [len(series)]


class TestStackedPrediction:
    """A network predicts the dates one fit serves as one stack; a date
    whose output fails still fails alone."""

    SPEC = ModelSpec("respdnet", "respdnet2_le", {"lags": 2, "loss": "log_euclidean"})

    @staticmethod
    def config_and_series(tmp_path):
        cfg = load_config(write_config(tmp_path))
        return cfg, simulate_market(3, 70, 0.8, 7, 5)[0]

    @staticmethod
    def record_batches(monkeypatch):
        sizes = []
        original = pipeline.Network.forward_trace

        def recording(self, x):
            sizes.append(len(x))
            return original(self, x)

        monkeypatch.setattr(pipeline.Network, "forward_trace", recording)
        return sizes

    @pytest.mark.parametrize("spec", [
        SPEC,
        ModelSpec("geohar", "geohar_le_le", {"metric": "log_euclidean", "loss": "log_euclidean"}),
        ModelSpec("geohar", "geohar_pro_le", {"metric": "procrustes", "loss": "log_euclidean"}),
    ], ids=lambda spec: spec.name)
    def test_forecasts_do_not_depend_on_the_chunk(self, tmp_path, monkeypatch, spec):
        cfg = load_config(write_config(tmp_path))
        series = simulate_market(3, cfg.window + pipeline._PREDICT_CHUNK + 9, 0.8, 7, 5)[0]
        whole = run_model(spec, cfg, series)
        assert len(whole.dates) > pipeline._PREDICT_CHUNK and whole.failures == []
        for chunk in (1, 7):
            monkeypatch.setattr(pipeline, "_PREDICT_CHUNK", chunk)
            sizes = self.record_batches(monkeypatch)
            result = run_model(spec, cfg, series)
            stacks = [min(chunk, len(whole.dates) - s) for s in range(0, len(whole.dates), chunk)]
            assert sizes[-len(stacks):] == stacks and result.failures == []  # after the fit's
            assert np.array_equal(result.dates, whole.dates)
            assert result.predictions.data.tobytes() == whole.predictions.data.tobytes()
            monkeypatch.undo()

    def test_non_pd_output_fails_only_its_date(self, tmp_path, monkeypatch):
        cfg, series = self.config_and_series(tmp_path)
        clean = run_model(self.SPEC, cfg, series)
        original = pipeline.Network.forward_trace

        def negating(self, x):
            trace = original(self, x)
            if len(x) == 30:
                trace.output[3] = -trace.output[3]
            return trace

        monkeypatch.setattr(pipeline.Network, "forward_trace", negating)
        result = run_model(self.SPEC, cfg, series)
        assert [d for d, _ in result.failures] == [str(series.dates[43])]
        assert "below the PSD tolerance" in result.failures[0][1]
        assert len(result.dates) == 29 and series.dates[43] not in result.dates

    def test_non_finite_output_fails_only_its_date(self, tmp_path, monkeypatch):
        cfg, series = self.config_and_series(tmp_path)
        clean = run_model(self.SPEC, cfg, series)
        original = pipeline.Network.forward_trace

        def poisoning(self, x):
            trace = original(self, x)
            if len(x) == 30:
                trace.output[7, 0, 1] = np.nan
            return trace

        checked = []
        check = data._check_records
        monkeypatch.setattr(pipeline.Network, "forward_trace", poisoning)
        monkeypatch.setattr(data, "_check_records",
                            lambda outputs: checked.append(len(outputs)) or check(outputs))
        result = run_model(self.SPEC, cfg, series)
        with pytest.raises(SpdcastError) as alone:
            SpdMatrix(np.diag([1.0, np.nan, 1.0]))
        assert result.failures == [(str(series.dates[47]), str(alone.value))]
        assert checked == [30]  # one stacked check of the model's 30 forecasts
        kept = [k for k in range(30) if k != 7]
        assert list(result.dates) == [clean.dates[k] for k in kept]
        for k, pred in zip(kept, result.predictions):
            assert np.array_equal(pred.data, clean.predictions[k].data)

    @staticmethod
    def input_alone(spec, series, t):
        """The input at position t from the per-matrix API: its blocks and per-window means."""
        if spec.kind == "respdnet":
            blocks = [series[t - j] for j in range(1, spec.params["lags"] + 1)]
        elif spec.params["metric"] == METRIC_PROCRUSTES:
            cfg = FrechetConfig(metric=METRIC_PROCRUSTES)
            blocks = [series[t - 1]] + [frechet_mean_procrustes(series[t - k : t], cfg).mean
                                        for k in (5, 22)]
        else:
            blocks = [series[t - 1]] + [frechet_mean_log_euclidean(series[t - k : t])
                                        for k in (5, 22)]
        return blockdiag_spd(blocks)

    def check_each_fit_predicts_the_dates_it_serves(self, spec, tmp_path, monkeypatch):
        cfg, series = self.config_and_series(tmp_path)
        cfg.refit_every = 10
        sizes = self.record_batches(monkeypatch)
        result = run_model(spec, cfg, series)
        assert len(result.traces) == 3
        assert sizes.count(10) == 3  # one stack per fit, besides training batches
        for k, (date, pred) in enumerate(zip(result.dates, result.predictions)):
            net = result.traces[k // 10].network
            alone = net.forward(self.input_alone(spec, series, 40 + k))
            assert date == series.dates[40 + k]
            assert np.array_equal(pred.data, alone.data)

    def test_each_fit_predicts_the_dates_it_serves(self, tmp_path, monkeypatch):
        self.check_each_fit_predicts_the_dates_it_serves(self.SPEC, tmp_path, monkeypatch)

    @pytest.mark.parametrize("metric", ["log_euclidean", "procrustes"])
    def test_each_geohar_fit_predicts_the_dates_it_serves(self, tmp_path, monkeypatch, metric):
        calls = []
        original = data.rolling_means

        def recording(stack, k, cfg):
            means = original(stack, k, cfg)
            calls.append((k, len(means[0])))
            return means

        monkeypatch.setattr(data, "rolling_means", recording)
        spec = ModelSpec("geohar", "geohar", {"metric": metric, "loss": "log_euclidean"})
        self.check_each_fit_predicts_the_dates_it_serves(spec, tmp_path, monkeypatch)
        # Three fits and their forecasts share one stack of means, from one
        # rolling call per window length: a week's and a month's for each
        # position from 22 through the first unobserved day, 70.
        assert calls == [(5, len(range(22, 71))), (22, len(range(22, 71)))]


class TestFitSchedule:
    """A network fits on the first window and refits every ``refit_every``
    windows (0: never); a failed fit fails its own date and is retried on
    the next window.  Each other date is forecast by the latest successful fit."""

    SPEC = ModelSpec("respdnet", "respdnet1_le", {"lags": 1, "loss": "log_euclidean"})
    SERIES = simulate_market(3, 52, 0.8, 7, 5)[0]  # 12 windows, at positions 40..51

    @settings(max_examples=40, deadline=None)
    @given(every=st.integers(0, 12), failing=st.sets(st.integers(0, 11)))
    def test_each_date_is_forecast_by_the_latest_successful_fit(
        self, tmp_path_factory, every, failing
    ):
        cfg = load_config(write_config(tmp_path_factory.mktemp("schedule")))
        cfg.refit_every = every
        series, window = self.SERIES, cfg.window
        attempts = []  # (window index, seed) of each fit
        original = pipeline._NetForecaster.fit

        def fit(forecaster, series, train_slice, seed):
            attempts.append((train_slice.stop - window, seed))
            if attempts[-1][0] in failing:
                raise SpdcastError(f"no fit on window {attempts[-1][0]}")
            original(forecaster, series, train_slice, seed)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline._NetForecaster, "fit", fit)
            result = run_model(self.SPEC, cfg, series)

        # The reference schedule, one window at a time: a fit is due on the
        # first window, after a failed fit, and on each multiple of every.
        expected, failed, serving, fits = [], [], {}, 0
        current = None  # the fit index serving the window, None after a failure
        for w in range(len(series) - window):
            if current is None or (every and w % every == 0):
                expected.append((w, _model_seed(cfg.seed, self.SPEC.name, fits)))
                if w in failing:
                    failed.append(w)
                    current = None
                    continue
                current, fits = fits, fits + 1
            serving[w] = current
        assert attempts == expected
        assert len(result.traces) == fits
        assert result.failures == [(str(series.dates[window + w]), f"fit: no fit on window {w}")
                                   for w in failed]
        assert list(result.dates) == [series.dates[window + w] for w in serving]
        for (w, k), pred in zip(serving.items(), result.predictions or ()):
            net = result.traces[k].network
            alone = net.forward(TestStackedPrediction.input_alone(self.SPEC, series, window + w))
            assert np.array_equal(pred.data, alone.data)


class TestCommands:
    def run_cli(self, command, config_path, *extra):
        return main([command, "--config", str(config_path), *extra])

    def test_full_chain(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert self.run_cli("simulate", path) == 0
        assert self.run_cli("train-forecast", path) == 0
        assert self.run_cli("evaluate", path) == 0
        assert self.run_cli("portfolio", path) == 0
        assert self.run_cli("report", path) == 0

        realized = load_series(out / "data" / "realized.matbin")
        assert len(realized) == 30
        for name in ("rw", "favar"):
            forecasts = load_series(out / "forecasts" / f"{name}.matbin")
            assert len(forecasts) == 30
        table = (out / "eval" / "losses_frobenius.csv").read_text().splitlines()
        assert table[0] == "model,avg_loss,mcs_pvalue,in_ssm,eliminated_rank"
        assert len(table) == 3
        report = (out / "portfolio" / "report.csv").read_text()
        assert "naive,static" in report
        assert (out / "report.md").exists()
        manifest = json.loads((out / "manifest_train_forecast.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["artifacts"]["rw"] == "forecasts/rw.matbin"

    def test_manifest_counts_training_repairs_per_model(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG.replace(
            "rw, favar:factors=2", "rw, respdnet:lags=1, geohar:metric=log_euclidean"))
        assert self.run_cli("simulate", path) == 0
        assert self.run_cli("train-forecast", path) == 0
        manifest = json.loads((tmp_path / "out" / "manifest_train_forecast.json").read_text())
        cfg = load_config(path)
        series = load_series(tmp_path / "out" / "data" / "series.matbin")
        expected = {}
        for spec in cfg.roster[1:]:
            fits = run_model(spec, cfg, series).traces
            expected[spec.name] = {
                "fits": len(fits),
                "gap_clamps": sum(f.gap_clamp_count for f in fits),
                "floored_targets": sum(f.floored_target_count for f in fits),
            }
        assert manifest["training"] == expected
        assert set(expected) == {"respdnet1_le", "geohar_le_le"}
        assert all(record["fits"] == 1 for record in expected.values())

    def test_explicit_hidden_dims_precede_the_output_layer(self, tmp_path, monkeypatch):
        # A hidden layer of 6 over one of 2 pads by 4, repeating eigenvalue 1.
        path = write_config(tmp_path, BASE_CONFIG.replace(
            "rw, favar:factors=2", "respdnet:lags=2, geohar").replace(
            "batch_size = 8", "batch_size = 8\nhidden = 2,6"))
        assert load_config(path).hidden == (2, 6)
        specs, original = [], pipeline.train
        monkeypatch.setattr(pipeline, "train",
                            lambda net, *args: specs.append(net.spec) or original(net, *args))
        assert self.run_cli("train-forecast", path) == 0
        assert [(s.input_dim, s.layer_dims) for s in specs] == [(6, (2, 6, 3)), (9, (2, 6, 3))]
        realized = load_series(tmp_path / "out" / "data" / "realized.matbin")
        for name in ("respdnet2_le", "geohar_le_le"):
            forecasts = load_series(tmp_path / "out" / "forecasts" / f"{name}.matbin")
            assert np.array_equal(forecasts.dates, realized.dates)

    def test_a_model_whose_every_fit_fails_exits_1_after_writing_the_others(
            self, tmp_path, monkeypatch, caplog):
        path = write_config(tmp_path, BASE_CONFIG.replace("favar:factors=2", "respdnet:lags=1"))

        def diverge(net, inputs, targets, cfg):
            raise TrainingDivergedError("non-finite loss at epoch 0")

        monkeypatch.setattr(pipeline, "train", diverge)
        with caplog.at_level(logging.ERROR, logger="spdcast.pipeline"):
            assert self.run_cli("train-forecast", path) == 1
        assert "model respdnet1_le produced no forecasts" in caplog.text
        out = tmp_path / "out"
        realized = load_series(out / "data" / "realized.matbin")
        rows = (out / "train" / "failures.csv").read_text().splitlines()
        assert rows == ["model,date,reason", *(
            f"respdnet1_le,{date},fit: non-finite loss at epoch 0" for date in realized.dates)]
        manifest = json.loads((out / "manifest_train_forecast.json").read_text())
        assert manifest["artifacts"] == {"realized": "data/realized.matbin",
                                         "rw": "forecasts/rw.matbin"}
        assert not (out / "forecasts" / "respdnet1_le.matbin").exists()
        assert np.array_equal(load_series(out / "forecasts" / "rw.matbin").dates, realized.dates)

    def test_fit_trace_holds_each_epoch(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG.replace("rw, favar:factors=2", "respdnet:lags=1"))
        assert self.run_cli("train-forecast", path) == 0
        cfg = load_config(path)
        trained = run_model(cfg.roster[0], cfg, pipeline.resolve_series(cfg)[0]).traces[0]
        lines = (tmp_path / "out" / "train" / "respdnet1_le_fit0.csv").read_text().splitlines()
        assert lines[0] == "epoch,mean_loss,grad_norm,min_eig_gap"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(row[0]) for row in rows] == list(range(cfg.epochs))
        assert np.array_equal(np.array([row[1:] for row in rows], dtype=float), np.column_stack(
            [trained.epoch_losses, trained.grad_norms, trained.min_eig_gaps]))

    def test_manifest_counts_procrustes_means_with_any_workers(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG.replace(
            "rw, favar:factors=2", "rw, geohar:metric=procrustes"))
        assert self.run_cli("simulate", path) == 0
        records = []
        for workers in ("1", "2"):
            assert self.run_cli("train-forecast", path, "--workers", workers) == 0
            manifest = json.loads((tmp_path / "out" / "manifest_train_forecast.json").read_text())
            records.append(manifest["training"])
        series = load_series(tmp_path / "out" / "data" / "series.matbin")
        roots = sqrtm_stack(series.values, series.vectors)
        cfg = FrechetConfig(metric=METRIC_PROCRUSTES)
        iters = [rolling_means(roots[HAR_MONTH - k :], k, cfg)[2] for k in (5, HAR_MONTH)]
        record = records[0]["geohar_pro_le"]
        assert records[1] == records[0]
        assert record["fits"] == 1
        assert {key: record[key] for key in record if key.startswith("procrustes_")} == {
            "procrustes_means": 2 * len(range(HAR_MONTH, len(series) + 1)),
            "procrustes_iterations": int(sum(i.sum() for i in iters)),
            "procrustes_unconverged": 0,
        }

    def test_forecasts_reproducible_bytewise(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert self.run_cli("train-forecast", path) == 0
        first = {
            p.name: p.read_bytes() for p in (out / "forecasts").glob("*.matbin")
        }
        assert self.run_cli("train-forecast", path) == 0
        for p in (out / "forecasts").glob("*.matbin"):
            assert p.read_bytes() == first[p.name]

    def test_evaluate_before_forecasts_fails(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert self.run_cli("evaluate", path) == 2
        assert "realized" in capsys.readouterr().err

    def test_report_with_nothing_to_report(self, tmp_path):
        path = write_config(tmp_path)
        assert self.run_cli("report", path) == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nseed = x\n")
        assert self.run_cli("simulate", path) == 2
        assert "config error" in capsys.readouterr().err

    def test_seed_override_changes_data(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert self.run_cli("simulate", path) == 0
        first = (out / "data" / "series.matbin").read_bytes()
        assert self.run_cli("simulate", path, "--seed", "6") == 0
        assert (out / "data" / "series.matbin").read_bytes() != first

    def test_simulate_requires_simulate_source(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(
            path.read_text().replace("source = simulate", "source = matbin\npath = x.matbin")
        )
        assert self.run_cli("simulate", path) == 2

    def test_negative_workers_override_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert self.run_cli("simulate", path, "--workers", "-3") == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "evaluate"])
    def test_negative_seed_override_exits_2(self, tmp_path, capsys, command):
        path = write_config(tmp_path)
        assert self.run_cli(command, path, "--seed", "-1") == 2
        assert capsys.readouterr().err == "spdcast: config error: --seed: must be >= 0, got -1\n"

    def test_workers_capped_at_the_roster_size(self, tmp_path, monkeypatch):
        # A stand-in pool that records its size and runs the models in one thread.
        import concurrent.futures

        sizes = []

        def pool(max_workers):
            sizes.append(max_workers)
            return concurrent.futures.ThreadPoolExecutor(1)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        path = write_config(tmp_path)
        assert self.run_cli("train-forecast", path, "--workers", "64") == 0
        assert sizes == [2]

    # The [train] and [evaluate] ranges, rejected when the config is read.
    RANGES = [
        ("train-forecast", "epochs = 2", "epochs = 0", "[train] epochs: must be >= 1, got 0"),
        ("train-forecast", "batch_size = 8", "batch_size = 0",
         "[train] batch_size: must be >= 1, got 0"),
        ("train-forecast", "epochs = 2", "epochs = 2\nlearning_rate = -0.1",
         "[train] learning_rate: must be >= 0, got -0.1"),
        ("train-forecast", "epochs = 2", "epochs = 2\nlr_decay = 0",
         "[train] lr_decay: must be in (0, 1], got 0.0"),
        ("train-forecast", "epochs = 2", "epochs = 2\neps_rectify = 0",
         "[train] eps_rectify: must be > 0, got 0.0"),
        ("train-forecast", "epochs = 2", "epochs = 2\neig_gap_floor = nan",
         "[train] eig_gap_floor: must be > 0, got nan"),
        ("evaluate", "replicates = 120", "replicates = 50",
         "[evaluate] replicates: must be >= 100, got 50"),
        ("evaluate", "replicates = 120", "replicates = 120\nblock_len = 0",
         "[evaluate] block_len: must be >= 1, got 0"),
        # Rejected when the command runs; the base config's source is simulate.
        ("train-forecast", "window = 40", "window = 70",
         "[forecast] window: 70 must be below the series length 70"),
        ("ingest", "source = simulate", "source = simulate",
         "[data] source: cmd_ingest requires source = intraday"),
    ]

    @pytest.mark.parametrize("command, old, new, message", RANGES)
    def test_out_of_range_exits_2(self, tmp_path, capsys, command, old, new, message):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace(old, new, 1))
        assert self.run_cli(command, path) == 2
        assert capsys.readouterr().err == f"spdcast: config error: {message}\n"

    def test_evaluate_drops_a_model_without_forecasts(self, tmp_path, capsys, caplog):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert self.run_cli("train-forecast", path) == 0
        (out / "forecasts" / "favar.matbin").unlink()
        with caplog.at_level(logging.WARNING, logger="spdcast.pipeline"):
            assert self.run_cli("evaluate", path) == 0
        assert caplog.messages == [f"no forecasts for model favar at "
                                   f"{out / 'forecasts' / 'favar.matbin'}; dropping it"]
        table = (out / "eval" / "losses_frobenius.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in table[1:]] == ["rw"]
        (out / "forecasts" / "rw.matbin").unlink()
        capsys.readouterr()
        assert self.run_cli("evaluate", path) == 2
        assert capsys.readouterr().err == (
            "spdcast: config error: no forecast files found; run train-forecast first\n")

    def test_disabled_portfolio_writes_nothing(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("enabled = true", "enabled = false"))
        assert self.run_cli("portfolio", path) == 0
        assert not (tmp_path / "out" / "portfolio").exists()
        assert not (tmp_path / "out" / "manifest_portfolio.json").exists()

    def test_unknown_log_level_is_named_and_ignored(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPDCAST_LOG", "chatty")
        path = write_config(tmp_path)
        assert self.run_cli("simulate", path) == 0
        assert capsys.readouterr().err == "spdcast: ignoring unknown SPDCAST_LOG level 'CHATTY'\n"
        assert (tmp_path / "out" / "data" / "series.matbin").exists()

    def test_range_boundaries_accepted(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace(
            "epochs = 2", "epochs = 1\nlearning_rate = 0\nlr_decay = 1").replace(
            "replicates = 120", "replicates = 100\nblock_len = 1"))
        cfg = load_config(path)
        assert (cfg.epochs, cfg.learning_rate, cfg.lr_decay) == (1, 0.0, 1.0)
        assert (cfg.replicates, cfg.block_len) == (100, 1)

    def test_bad_series_record_exits_1_naming_file_and_date(self, tmp_path, capsys):
        series, _ = simulate_market(3, 60, 0.8, 7, 1)
        save_series(series, tmp_path / "series.matbin")
        blob = bytearray((tmp_path / "series.matbin").read_bytes())
        # The first entry of record 7: a 20-byte header, then 8 + 72 bytes a record.
        start = 20 + 7 * 80 + 8
        blob[start : start + 8] = np.array([np.nan]).tobytes()
        (tmp_path / "series.matbin").write_bytes(bytes(blob))
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace(
            "source = simulate", f"source = matbin\npath = {tmp_path / 'series.matbin'}"))
        assert self.run_cli("train-forecast", path) == 1
        err = capsys.readouterr().err
        assert err == (f"spdcast: {tmp_path / 'series.matbin'}: date {series.dates[7]}: "
                       "matrix entries must be finite\n")

    def test_matrix_without_a_logarithm_exits_1_naming_metric_series_and_date(
            self, tmp_path, capsys):
        matrices = simulate_market(3, 60, 0.8, 7, 1)[0].data.copy()
        matrices[50, 2, :] = matrices[50, :, 2] = 0.0  # singular, on 2001-02-20
        dates = np.datetime64("2001-01-01") + np.arange(60)
        save_series(CovSeries(dates, matrices), tmp_path / "series.matbin")
        text = write_config(tmp_path).read_text().replace(
            "source = simulate", f"source = matbin\npath = {tmp_path / 'series.matbin'}").replace(
            "rw, favar:factors=2", "rw, favar:factors=2, respdnet:lags=1")
        alone = tmp_path / "alone.ini"  # the same run, scored on Frobenius losses only
        alone.write_text(text.replace(str(tmp_path / "out"), str(tmp_path / "alone")))
        path = tmp_path / "run.ini"
        path.write_text(text.replace("metrics = frobenius", "metrics = frobenius, log_euclidean"))
        for config in (path, alone):
            assert self.run_cli("train-forecast", config) == 0
        # A floored matrix has a Cholesky factor: FAVAR forecasts every date.
        assert not (tmp_path / "out" / "train" / "failures.csv").exists()
        capsys.readouterr()
        assert self.run_cli("evaluate", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("spdcast: log_euclidean loss of realized on 2001-02-20: matrix "
                              "logarithm requires strictly positive eigenvalues (smallest is ")
        assert err.count("\n") == 1 and "Traceback" not in err
        # The metric that can score every day is written as if it were scored alone.
        assert self.run_cli("evaluate", alone) == 0
        tables = [sorted(p.name for p in (tmp_path / out / "eval").glob("losses_*.csv"))
                  for out in ("out", "alone")]
        assert tables[0] == tables[1] and "losses_frobenius.csv" in tables[0]
        for name in tables[0]:
            assert ((tmp_path / "out" / "eval" / name).read_bytes()
                    == (tmp_path / "alone" / "eval" / name).read_bytes())

    def test_unwritable_out_exits_1_naming_the_file(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        path = write_config(tmp_path)
        assert self.run_cli("simulate", path, "--out", str(blocker / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"spdcast: {blocker / 'out'}")
        assert err.endswith(f": {os.strerror(errno.ENOTDIR)}\n")
        assert "Traceback" not in err

    def test_missing_data_file_exits_1_naming_it(self, tmp_path, capsys):
        path = write_config(tmp_path)
        absent = tmp_path / "absent.matbin"
        path.write_text(path.read_text().replace(
            "source = simulate", f"source = matbin\npath = {absent}"))
        assert self.run_cli("train-forecast", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("spdcast: [data] path") and str(absent) in err

    def test_missing_returns_file_exits_1_naming_it(self, tmp_path, capsys):
        series, _ = simulate_market(3, 70, 0.8, 7, 1)
        save_series(series, tmp_path / "series.matbin")
        absent = tmp_path / "absent.csv"
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace(
            "source = simulate",
            f"source = matbin\npath = {tmp_path / 'series.matbin'}\nreturns = {absent}"))
        assert self.run_cli("train-forecast", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("spdcast: [data] returns") and str(absent) in err

    def test_missing_returns_file_with_simulated_source_exits_1(self, tmp_path, capsys):
        absent = tmp_path / "absent.csv"
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("df = 7", f"df = 7\nreturns = {absent}"))
        assert self.run_cli("simulate", path) == 0
        assert self.run_cli("train-forecast", path) == 0
        capsys.readouterr()
        assert self.run_cli("portfolio", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("spdcast: [data] returns") and str(absent) in err

    BAD_RETURNS = [
        ("date,A00,A01,A02\n2000-01-03,0.1,0.2,abc\n", 2,
         "could not convert string to float: 'abc'"),
        ("date,A00,A01,A02\n2000-01-03,0.1,0.2\n", 2, "wrong field count"),
        ("day,A00,A01,A02\n", 1, "expected header date,<tickers>"),
        ("date,A00,A01,A02\n,0.5,0,0\n2000-01-03,0.1,0,0\n", 2, "bad date ''"),
        ("date,A00,A01,A02\n2000-01-03,0.1,nan,0.2\n", 2, "non-finite value 'nan'"),
        ("date,A00,A01,A02\n2000-01-03,0.1,0,0\n2000-01-04,0,0,inf\n", 3,
         "non-finite value 'inf'"),
        ("date,A00,A01,A02\n2000-01,0.1,0,0\n", 2, "bad date '2000-01'"),
        ("date,A00,A01,A02\n2000-01-03,0.1,0,0\n20000104,0,0,0\n", 3, "bad date '20000104'"),
        ("date,A00,A01,A02\n2000-01-03T10,0.1,0,0\n", 2, "bad date '2000-01-03T10'"),
    ]

    @pytest.mark.parametrize("text, line, reason", BAD_RETURNS)
    def test_malformed_configured_returns_file_exits_1(self, tmp_path, capsys, text, line, reason):
        bad = tmp_path / "bad_returns.csv"
        bad.write_text(text)
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("df = 7", f"df = 7\nreturns = {bad}"))
        assert self.run_cli("simulate", path) == 0
        assert self.run_cli("train-forecast", path) == 0
        capsys.readouterr()
        assert self.run_cli("portfolio", path) == 1
        assert capsys.readouterr().err == f"spdcast: returns file {bad}:{line}: {reason}\n"

    @pytest.mark.parametrize("text, line, reason", BAD_RETURNS)
    def test_malformed_stage_returns_file_exits_1(self, tmp_path, capsys, text, line, reason):
        path = write_config(tmp_path)
        assert self.run_cli("simulate", path) == 0
        assert self.run_cli("train-forecast", path) == 0
        returns = tmp_path / "out" / "data" / "returns.csv"
        returns.write_text(text)
        capsys.readouterr()
        assert self.run_cli("portfolio", path) == 1
        assert capsys.readouterr().err == f"spdcast: returns file {returns}:{line}: {reason}\n"

    def test_malformed_returns_date_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert self.run_cli("simulate", path) == 0
        assert self.run_cli("train-forecast", path) == 0
        returns = tmp_path / "out" / "data" / "returns.csv"
        returns.write_text("date,A00,A01,A02\n2000-01-03,0,0,0\nnot-a-date,0,0,0\n")
        capsys.readouterr()
        assert self.run_cli("portfolio", path) == 1
        assert capsys.readouterr().err.startswith(f"spdcast: returns file {returns}:3: ")

    def test_missing_tick_file_exits_1_naming_it(self, tmp_path, capsys):
        absent = tmp_path / "absent.csv"
        config = tmp_path / "ingest.ini"
        config.write_text(f"[data]\nsource = intraday\npath = {absent}\n")
        assert self.run_cli("ingest", config, "--out", str(tmp_path / "out")) == 1
        assert str(absent) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("2001-13-45,9:32,aaa,101.0", "bad date '2001-13-45'"),
            ("2001-01-02,9:32,aaa,nan", "non-finite price 'nan'"),
            ("2001-01-02,9:32,aaa,inf", "non-finite price 'inf'"),
        ],
    )
    def test_bad_tick_row_exits_1_naming_its_line(self, tmp_path, capsys, row, reason):
        ticks = tmp_path / "ticks.csv"
        ticks.write_text(
            "date,time,ticker,price\n2001-01-02,9:30,aaa,100.0\n2001-01-02,9:31,aaa,100.5\n"
            f"{row}\n2001-01-02,9:33,aaa,101.0\n"
        )
        config = tmp_path / "ingest.ini"
        config.write_text(f"[data]\nsource = intraday\npath = {ticks}\ngrid_seconds = 60\n")
        assert self.run_cli("ingest", config, "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"spdcast: {ticks}:4: {reason}\n"

    def test_ingest_chain(self, tmp_path):
        ticks = tmp_path / "ticks.csv"
        write_ticks(ticks, days=3)
        config = tmp_path / "ingest.ini"
        config.write_text(
            "[run]\nseed = 1\nout = {out}\n\n"
            "[data]\nsource = intraday\npath = {ticks}\ngrid_seconds = 60\n".format(
                out=tmp_path / "out", ticks=ticks
            )
        )
        assert self.run_cli("ingest", config) == 0
        series = load_series(tmp_path / "out" / "data" / "series.matbin")
        assert len(series) == 3
        assert series.dim == 2
        returns = (tmp_path / "out" / "data" / "returns.csv").read_text().splitlines()
        assert returns[0] == "date,aaa,bbb"
        assert len(returns) == 4


class TestSeriesReuse:
    """train-forecast reads the data stage's files when its manifest key matches."""

    SIM_ROSTER = "rw, respdnet:lags=1, geohar:metric=log_euclidean"

    def run_cli(self, command, config_path, *extra):
        return main([command, "--config", str(config_path), *extra])

    def simulate_config(self, tmp_path):
        return write_config(tmp_path, BASE_CONFIG.replace("rw, favar:factors=2", self.SIM_ROSTER))

    def intraday_config(self, tmp_path):
        ticks = tmp_path / "ticks.csv"
        write_ticks(ticks, days=40)
        config = tmp_path / "ingest.ini"
        config.write_text(
            f"[data]\nsource = intraday\npath = {ticks}\ngrid_seconds = 60\n\n"
            f"[models]\nroster = {self.SIM_ROSTER}\n\n[forecast]\nwindow = 30\n\n"
            "[train]\nepochs = 2\nbatch_size = 8\n"
        )
        return config, ticks

    @staticmethod
    def outputs(out):
        paths = sorted((out / "forecasts").glob("*.matbin"))
        paths += [out / "data" / "realized.matbin", out / "data" / "returns.csv"]
        return {p.relative_to(out).as_posix(): p.read_bytes() for p in paths}

    @staticmethod
    def series_from(out):
        return json.loads((out / "manifest_train_forecast.json").read_text())["series_from"]

    def check_reuse_matches_rebuild(self, config, data_stage, source, tmp_path):
        reuse, rebuild = tmp_path / "reuse", tmp_path / "rebuild"
        assert self.run_cli(data_stage, config, "--out", str(reuse)) == 0
        assert self.run_cli("train-forecast", config, "--out", str(reuse)) == 0
        assert self.run_cli("train-forecast", config, "--out", str(rebuild)) == 0
        assert self.series_from(reuse) == "data/series.matbin"
        assert self.series_from(rebuild) == source
        first = self.outputs(reuse)
        assert len(first) == 5
        assert first == self.outputs(rebuild)

    def test_simulate_reuse_and_rebuild_write_identical_files(self, tmp_path):
        config = self.simulate_config(tmp_path)
        self.check_reuse_matches_rebuild(config, "simulate", "simulate", tmp_path)

    def test_intraday_reuse_and_rebuild_write_identical_files(self, tmp_path):
        config, _ = self.intraday_config(tmp_path)
        self.check_reuse_matches_rebuild(config, "ingest", "intraday", tmp_path)

    def test_edited_tick_file_rebuilds(self, tmp_path):
        config, ticks = self.intraday_config(tmp_path)
        out = tmp_path / "out"
        assert self.run_cli("ingest", config, "--out", str(out)) == 0
        ingested = load_series(out / "data" / "series.matbin")
        lines = ticks.read_text().splitlines()
        date, time, ticker, price = lines[-1].split(",")
        lines[-1] = ",".join([date, time, ticker, f"{float(price) * 1.01:.6f}"])
        ticks.write_text("\n".join(lines) + "\n")
        assert self.run_cli("train-forecast", config, "--out", str(out)) == 0
        assert self.series_from(out) == "intraday"
        realized = load_series(out / "data" / "realized.matbin")
        assert not np.array_equal(realized[-1].data, ingested[-1].data)

    def test_train_section_edit_still_reuses(self, tmp_path, caplog):
        config = self.simulate_config(tmp_path)
        out = tmp_path / "out"
        assert self.run_cli("simulate", config) == 0
        config.write_text(config.read_text().replace("epochs = 2", "epochs = 1"))
        caplog.set_level(logging.INFO, logger="spdcast.pipeline")
        assert self.run_cli("train-forecast", config) == 0
        assert self.series_from(out) == "data/series.matbin"
        assert "from data/series.matbin" in caplog.text

    def test_seed_override_rebuilds_simulated_series(self, tmp_path):
        config = self.simulate_config(tmp_path)
        returns = tmp_path / "out" / "data" / "returns.csv"
        assert self.run_cli("simulate", config) == 0
        seed1_returns = returns.read_bytes()
        assert self.run_cli("train-forecast", config, "--seed", "6") == 0
        assert self.series_from(tmp_path / "out") == "simulate"
        assert returns.read_bytes() != seed1_returns
        # The seed-6 rebuild replaced returns.csv, so seed 1 may not reuse it.
        assert self.run_cli("train-forecast", config) == 0
        assert self.series_from(tmp_path / "out") == "simulate"
        assert returns.read_bytes() == seed1_returns

    def test_seed_override_rebuild_writes_that_seeds_data_stage(self, tmp_path):
        config = self.simulate_config(tmp_path)
        out = tmp_path / "out"
        assert self.run_cli("simulate", config) == 0
        assert self.run_cli("train-forecast", config, "--seed", "6") == 0
        assert self.series_from(out) == "simulate"
        cfg = load_config(config, seed_override=6)
        expected, returns = simulate_market(cfg.sim_n, cfg.sim_days, cfg.sim_persistence,
                                            cfg.sim_df, seed=6)
        stored = load_series(out / "data" / "series.matbin")
        assert stored.dates.tobytes() == expected.dates.tobytes()
        assert stored.data.tobytes() == expected.data.tobytes()
        dates, stored_returns, _ = pipeline._read_dated_csv(out / "data" / "returns.csv",
                                                            "returns")
        assert np.array_equal(dates, expected.dates)
        assert stored_returns.tobytes() == returns.tobytes()
        manifest = json.loads((out / "manifest_simulate.json").read_text())
        assert (manifest["seed"], manifest["data_key"]) == (6, pipeline._data_key(cfg))
        assert self.run_cli("train-forecast", config, "--seed", "6") == 0
        assert self.series_from(out) == "data/series.matbin"

    def test_matbin_run_does_not_read_a_simulated_stages_returns(self, tmp_path, capsys):
        sim_config = self.simulate_config(tmp_path)
        assert self.run_cli("simulate", sim_config) == 0
        series, _ = simulate_market(3, 70, 0.8, 7, 9)  # the simulated stage's dates
        save_series(series, tmp_path / "series.matbin")
        config = tmp_path / "matbin.ini"
        config.write_text(sim_config.read_text().replace(
            "source = simulate", f"source = matbin\npath = {tmp_path / 'series.matbin'}"))
        assert self.run_cli("train-forecast", config) == 0
        capsys.readouterr()
        assert self.run_cli("portfolio", config) == 2
        err = capsys.readouterr().err
        assert err.startswith("spdcast: config error: no daily returns available")
        assert not (tmp_path / "out" / "portfolio" / "report.csv").exists()

    def test_other_data_stage_in_same_directory_forces_rebuild(self, tmp_path):
        sim_config = self.simulate_config(tmp_path)
        ingest_config, _ = self.intraday_config(tmp_path)
        out = tmp_path / "shared"
        assert self.run_cli("simulate", sim_config, "--out", str(out)) == 0
        assert self.run_cli("ingest", ingest_config, "--out", str(out)) == 0
        assert not (out / "manifest_simulate.json").exists()
        assert self.run_cli("train-forecast", sim_config, "--out", str(out)) == 0
        assert self.series_from(out) == "simulate"
        rebuilt = tmp_path / "rebuilt"
        assert self.run_cli("train-forecast", sim_config, "--out", str(rebuilt)) == 0
        assert self.outputs(out) == self.outputs(rebuilt)

    def test_failed_data_stage_leaves_no_manifest(self, tmp_path, monkeypatch):
        config = self.simulate_config(tmp_path)
        out = tmp_path / "out"
        assert self.run_cli("simulate", config) == 0
        assert (out / "manifest_simulate.json").exists()

        def fail(*args, **kwargs):
            raise SeriesFormatError("disk full")

        monkeypatch.setattr(pipeline, "save_series", fail)
        assert self.run_cli("simulate", config, "--seed", "6") == 1
        assert not (out / "manifest_simulate.json").exists()
        monkeypatch.undo()
        assert self.run_cli("train-forecast", config) == 0
        assert self.series_from(out) == "simulate"


class TestRosterMessages:
    """Each roster rejection's exact message."""

    REJECTIONS = [
        ("respdnet:lags", "expected key=value in 'respdnet:lags', got 'lags'"),
        ("oracle", "unknown model kind 'oracle' (rw, favar, respdnet, geohar)"),
        ("Oracle", "unknown model kind 'Oracle' (rw, favar, respdnet, geohar)"),
        ("favar:factors=many", "favar factors must be an integer or 'auto', got 'many'"),
        ("respdnet:lags=two", "respdnet lags must be an integer"),
        ("respdnet:lags=0", "respdnet lags must be >= 1"),
        ("respdnet:lags=0:loss=hinge", "respdnet lags must be >= 1"),
        ("respdnet:loss=hinge", "unknown loss 'hinge' (mse, log_euclidean)"),
        ("geohar:loss=hinge", "unknown loss 'hinge' (mse, log_euclidean)"),
        ("geohar:metric=cosine", "unknown metric 'cosine' (log_euclidean, procrustes)"),
        ("geohar:loss=hinge:metric=cosine", "unknown metric 'cosine' (log_euclidean, procrustes)"),
        (" , ", "no models specified"),
        ("rw, rw", "duplicate model names ['rw', 'rw']"),
        ("rw, favar:name=rw", "duplicate model names ['rw', 'rw']"),
        ("rw:name=a/b", "model name 'a/b' is not a file stem "
         "(a letter or digit, then letters, digits, '_', '.' or '-')"),
        ("rw:name=", "model name '' is not a file stem "
         "(a letter or digit, then letters, digits, '_', '.' or '-')"),
        ("rw:name=.x", "model name '.x' is not a file stem "
         "(a letter or digit, then letters, digits, '_', '.' or '-')"),
    ]

    @pytest.mark.parametrize("roster, message", REJECTIONS)
    def test_message(self, roster, message):
        with pytest.raises(ConfigError) as err:
            _parse_roster(roster)
        assert str(err.value) == f"[models] roster: {message}"


class TestMissingDates:
    """Each command that matches rows of one file to the dates of another
    names what is missing, and exits 2."""

    def run_cli(self, command, config_path):
        return main([command, "--config", str(config_path)])

    @staticmethod
    def write_dated(path, header, dates, rows):
        lines = [",".join(header)]
        lines += [",".join([str(d)] + [f"{x:.17g}" for x in row]) for d, row in zip(dates, rows)]
        path.write_text("\n".join(lines) + "\n")

    def forecast(self, tmp_path):
        path = write_config(tmp_path)
        assert self.run_cli("simulate", path) == 0
        assert self.run_cli("train-forecast", path) == 0
        return path, tmp_path / "out"

    def test_matbin_series_date_without_a_return_row(self, tmp_path, capsys):
        series, returns = simulate_market(3, 70, 0.8, 7, 1)
        save_series(series, tmp_path / "series.matbin")
        keep = [k for k in range(70) if k not in (10, 20)]
        self.write_dated(tmp_path / "returns.csv", ["date", "a", "b", "c"],
                         series.dates[keep], returns[keep])
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace(
            "source = simulate", f"source = matbin\npath = {tmp_path / 'series.matbin'}\n"
            f"returns = {tmp_path / 'returns.csv'}"))
        assert self.run_cli("train-forecast", path) == 2
        assert capsys.readouterr().err == (
            f"spdcast: config error: [data] returns: no return row for date {series.dates[10]}\n")

    def test_returns_missing_forecast_dates(self, tmp_path, capsys):
        path, out = self.forecast(tmp_path)
        returns = out / "data" / "returns.csv"
        lines = returns.read_text().splitlines()
        returns.write_text("\n".join(lines[:46]) + "\n")  # the header and days 0..44
        realized = load_series(out / "data" / "realized.matbin")
        capsys.readouterr()
        assert self.run_cli("portfolio", path) == 2
        assert capsys.readouterr().err == (
            f"spdcast: config error: returns file {returns} is missing 25 forecast dates "
            f"(first: {realized.dates[5]})\n")

    def test_proxy_missing_evaluation_dates(self, tmp_path, capsys):
        path, out = self.forecast(tmp_path)
        realized = load_series(out / "data" / "realized.matbin")
        keep = [k for k in range(30) if k not in (3, 17)]
        proxy = tmp_path / "proxy.csv"
        self.write_dated(proxy, ["date", "value"], realized.dates[keep],
                         [[np.trace(realized[k].data)] for k in keep])
        path.write_text(path.read_text().replace(
            "replicates = 120", f"replicates = 120\nmarket_variance = {proxy}"))
        capsys.readouterr()
        assert self.run_cli("evaluate", path) == 2
        assert capsys.readouterr().err == (
            f"spdcast: config error: [evaluate] market_variance: 2 evaluation dates missing "
            f"from {proxy} (first: {realized.dates[3]})\n")

    def test_forecast_files_without_common_dates(self, tmp_path, capsys):
        path, out = self.forecast(tmp_path)
        favar = load_series(out / "forecasts" / "favar.matbin")
        save_series(CovSeries(favar.dates + 1000, favar.data), out / "forecasts" / "favar.matbin")
        capsys.readouterr()
        assert self.run_cli("evaluate", path) == 2
        assert capsys.readouterr().err == (
            "spdcast: config error: forecast files share no common dates\n")

    def test_one_forecast_date_leaves_no_portfolio(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG.replace("days = 70", "days = 30").replace(
            "window = 40", "window = 29"))
        for command in ("simulate", "train-forecast", "evaluate"):
            assert self.run_cli(command, path) == 0
        capsys.readouterr()
        assert self.run_cli("portfolio", path) == 2
        assert capsys.readouterr().err == (
            "spdcast: config error: [forecast] window: the forecast files share 1 date; "
            "a portfolio needs at least two\n")


class TestRosterValidation:
    """Each kind takes only its own parameters, and FAVAR's factor count is
    checked before a fit can fail on it."""

    @pytest.mark.parametrize("roster, message", [
        ("geohar:metrc=procrustes", "unknown geohar parameter 'metrc' (known: metric, loss, name)"),
        ("rw:lags=4", "unknown rw parameter 'lags' (known: name)"),
        ("favar:factor=3", "unknown favar parameter 'factor' (known: factors, name)"),
        ("rw, favar:factors=0", "favar factors must be >= 1, got 0"),
        ("favar:factors=-2", "favar factors must be >= 1, got -2"),
        ("geohar:metric=procrustes:Metric=log_euclidean",
         "repeated parameter 'metric' in 'geohar:metric=procrustes:Metric=log_euclidean'"),
        ("rw:name=a:name=b", "repeated parameter 'name' in 'rw:name=a:name=b'"),
    ])
    def test_rejected(self, roster, message):
        with pytest.raises(ConfigError) as err:
            _parse_roster(roster)
        assert str(err.value) == f"[models] roster: {message}"

    def test_parsed_parameters_and_default_names(self):
        specs = _parse_roster("rw, favar, favar:factors=2:name=f2, respdnet:loss=mse, "
                              "geohar:metric=procrustes")
        assert [(s.kind, s.name, s.params) for s in specs] == [
            ("rw", "rw", {}),
            ("favar", "favar", {"factors": None}),
            ("favar", "f2", {"factors": 2}),
            ("respdnet", "respdnet3_mse", {"lags": 3, "loss": "mse"}),
            ("geohar", "geohar_pro_le", {"metric": "procrustes", "loss": "log_euclidean"}),
        ]

    def test_zero_factors_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("favar:factors=2", "favar:factors=0"))
        assert main(["train-forecast", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "spdcast: config error: [models] roster: favar factors must be >= 1, got 0\n")

    def test_factors_that_leave_no_training_pairs_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("favar:factors=2", "favar:factors=39"))
        assert main(["train-forecast", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "spdcast: config error: [forecast] window: 40 leaves no training pairs for model "
            "'favar' (needs more than 40)\n")

    @pytest.mark.parametrize("factors", [None, 1, 2, 5])
    def test_min_history_is_what_a_fit_needs(self, tmp_path, factors):
        cfg = load_config(write_config(tmp_path))
        series, _ = simulate_market(3, 20, 0.8, 7, 1)
        spec = ModelSpec("favar", "favar", {"factors": factors})
        need = pipeline._FORECASTERS[spec.kind](cfg, **spec.params).min_history
        baselines.favar_fit(series, factors, slice(0, need + 1))
        with pytest.raises(ValueError):
            baselines.favar_fit(series, factors, slice(0, need))


class TestSeriesFileDates:
    """A series file date that is not its ISO day, or not after the one before
    it, is an error naming the file, not a traceback."""

    def run_cli(self, command, config_path):
        return main([command, "--config", str(config_path)])

    @pytest.mark.parametrize("text, message", [
        ("date,row,col,value\nabc,0,0,1.0\n", ":2: bad date 'abc'"),
        ("date,row,col,value\n2001-01-02,0,0,1.0\n2001-01-01,0,0,1.0\n",
         ": date 2001-01-01 is not after 2001-01-02"),
    ])
    def test_csvlong_series_dates(self, tmp_path, capsys, text, message):
        series = tmp_path / "series.csv"
        series.write_text(text)
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace(
            "source = simulate", f"source = csvlong\npath = {series}"))
        assert self.run_cli("train-forecast", path) == 1
        assert capsys.readouterr().err == f"spdcast: {series}{message}\n"


class TestUtf8Inputs:
    """An input file that is not UTF-8 is a typed error naming it."""

    def run_cli(self, command, config_path):
        return main([command, "--config", str(config_path)])

    def test_tick_file(self, tmp_path, capsys):
        ticks = tmp_path / "ticks.csv"
        ticks.write_bytes(b"date,time,ticker,price\n2001-01-02,9:30,a\xffa,100.0\n")
        config = tmp_path / "ingest.ini"
        config.write_text(f"[run]\nout = {tmp_path / 'out'}\n\n"
                          f"[data]\nsource = intraday\npath = {ticks}\n")
        assert self.run_cli("ingest", config) == 1
        assert capsys.readouterr().err == f"spdcast: {ticks}: not UTF-8 text (invalid start byte)\n"

    def test_csvlong_series_file(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_bytes(b"date,row,col,value\n2001-01-02,0,0,1\xff\n")
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace(
            "source = simulate", f"source = csvlong\npath = {series}"))
        assert self.run_cli("train-forecast", path) == 1
        assert capsys.readouterr().err == f"spdcast: {series}: not UTF-8 text (invalid start byte)\n"

    def test_returns_file(self, tmp_path, capsys):
        returns = tmp_path / "returns.csv"
        returns.write_bytes(b"date,A00,A01,A\xff02\n")
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("df = 7", f"df = 7\nreturns = {returns}"))
        assert self.run_cli("simulate", path) == 0
        assert self.run_cli("train-forecast", path) == 0
        capsys.readouterr()
        assert self.run_cli("portfolio", path) == 1
        assert capsys.readouterr().err == (
            f"spdcast: {returns}: not UTF-8 text (invalid start byte)\n")

    def test_market_variance_file(self, tmp_path, capsys):
        proxy = tmp_path / "proxy.csv"
        proxy.write_bytes(b"date,value\n2000-01-03,\xff\n")
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace(
            "replicates = 120", f"replicates = 120\nmarket_variance = {proxy}"))
        assert self.run_cli("simulate", path) == 0
        assert self.run_cli("train-forecast", path) == 0
        capsys.readouterr()
        assert self.run_cli("evaluate", path) == 1
        assert capsys.readouterr().err == f"spdcast: {proxy}: not UTF-8 text (invalid start byte)\n"

    def test_config_file(self, tmp_path, capsys):
        path = write_config(tmp_path)
        path.write_bytes(path.read_bytes().replace(b"seed = 5", b"seed = 5 # \xff"))
        assert self.run_cli("simulate", path) == 2
        assert capsys.readouterr().err == (
            f"spdcast: config error: {path}: not UTF-8 text (invalid start byte)\n")


class TestMarketVarianceFile:
    """A ``date,value`` proxy defines the regimes as the realized traces do."""

    def run_cli(self, command, config_path):
        return main([command, "--config", str(config_path)])

    def forecast(self, tmp_path):
        path = write_config(tmp_path)
        assert self.run_cli("simulate", path) == 0
        assert self.run_cli("train-forecast", path) == 0
        return path, tmp_path / "out"

    @staticmethod
    def use_proxy(path, proxy):
        path.write_text(path.read_text().replace(
            "replicates = 120", f"replicates = 120\nmarket_variance = {proxy}", 1))

    def test_file_of_traces_matches_trace(self, tmp_path):
        path, out = self.forecast(tmp_path)
        assert self.run_cli("evaluate", path) == 0
        by_trace = {p.name: p.read_bytes() for p in (out / "eval").glob("*.csv")}
        assert len(by_trace) == 4 and "losses_frobenius_turbulent.csv" in by_trace
        for p in (out / "eval").glob("*.csv"):
            p.unlink()
        realized = load_series(out / "data" / "realized.matbin")
        rows = [f"{d},{float(np.trace(m.data)):.17g}"
                for d, m in zip(realized.dates, realized)]
        # In another order, with a date the panel does not use.
        rows = rows[::-1] + [f"{realized.dates[0] - 1},1e9"]
        proxy = tmp_path / "proxy.csv"
        proxy.write_text("date,value\n" + "\n".join(rows) + "\n")
        self.use_proxy(path, proxy)
        assert self.run_cli("evaluate", path) == 0
        assert {p.name: p.read_bytes() for p in (out / "eval").glob("*.csv")} == by_trace

    def test_missing_file_exits_2(self, tmp_path, capsys):
        path, _ = self.forecast(tmp_path)
        absent = tmp_path / "absent.csv"
        self.use_proxy(path, absent)
        capsys.readouterr()
        assert self.run_cli("evaluate", path) == 2
        assert capsys.readouterr().err == (
            f"spdcast: config error: [evaluate] market_variance: expected 'trace' or a CSV path, "
            f"got '{absent}'\n")

    def test_unreadable_file_exits_1(self, tmp_path, capsys):
        path, _ = self.forecast(tmp_path)
        folder = tmp_path / "proxy.csv"
        folder.mkdir()
        self.use_proxy(path, folder)
        capsys.readouterr()
        assert self.run_cli("evaluate", path) == 1
        assert capsys.readouterr().err == (
            f"spdcast: [evaluate] market_variance: cannot read {folder}: Is a directory\n")

    @pytest.mark.parametrize("text, line, reason", [
        ("date,value\n2000-01-03,1.0\n2000-01-04,high\n", 3,
         "could not convert string to float: 'high'"),
        ("date,value\n2000-01-03,1.0,2.0\n", 2, "wrong field count"),
        ("date,level\n2000-01-03,1.0\n", 1, "expected header date,value"),
        ("day,value\n", 1, "expected header date,value"),
        ("", 1, "expected header date,value"),
        ("date,value\n,0.5\n2000-01-03,0.1\n", 2, "bad date ''"),
        ("date,value\nNaT,0.5\n2000-01-03,0.1\n", 2, "bad date 'NaT'"),
        ("date,value\n2000-01-03,nan\n", 2, "non-finite value 'nan'"),
        ("date,value\n2000-01-03,1.0\n2000-01-04,-inf\n", 3, "non-finite value '-inf'"),
        ("date,value\n2000-01,0.5\n", 2, "bad date '2000-01'"),
        ("date,value\n2000-01-03,1.0\n20000104,0.5\n", 3, "bad date '20000104'"),
        ("date,value\n2000-01-03T10,0.5\n", 2, "bad date '2000-01-03T10'"),
    ])
    def test_malformed_file_exits_1_naming_its_line(self, tmp_path, capsys, text, line, reason):
        path, _ = self.forecast(tmp_path)
        proxy = tmp_path / "proxy.csv"
        proxy.write_text(text)
        self.use_proxy(path, proxy)
        capsys.readouterr()
        assert self.run_cli("evaluate", path) == 1
        assert capsys.readouterr().err == f"spdcast: market_variance file {proxy}:{line}: {reason}\n"


class TestOneModelEvaluation:
    def test_single_model_keeps_itself_at_p_1(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG.replace("rw, favar:factors=2", "rw"))
        for command in ("simulate", "train-forecast", "evaluate"):
            assert main([command, "--config", str(path)]) == 0
        table = (tmp_path / "out" / "eval" / "losses_frobenius.csv").read_text().splitlines()
        assert table[1].split(",")[0] == "rw" and table[1].split(",")[2:] == ["1", "1", ""]


class TestRowsOf:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 30), max_size=40), st.lists(st.integers(0, 30), min_size=1,
                                                               max_size=20))
    def test_matches_a_dict_of_the_last_row(self, days, wanted_days):
        dates = np.datetime64("2001-01-01") + np.array(days, dtype="timedelta64[D]")
        wanted = np.datetime64("2001-01-01") + np.array(wanted_days, dtype="timedelta64[D]")
        last = {d: i for i, d in enumerate(dates)}
        absent = [d for d in wanted if d not in last]
        if absent:
            with pytest.raises(ConfigError) as err:
                pipeline._rows_of(dates, wanted, lambda count, first: ConfigError((count, first)))
            assert err.value.args[0] == (len(absent), absent[0])
        else:
            assert list(pipeline._rows_of(dates, wanted)) == [last[d] for d in wanted]


class TestPortfolioDataStage:
    """portfolio reads a data stage's returns only if train-forecast used that stage."""

    def run_cli(self, command, config_path, *extra):
        return main([command, "--config", str(config_path), *extra])

    def test_another_seeds_data_stage_is_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        report = out / "portfolio" / "report.csv"
        for command in ("simulate", "train-forecast", "portfolio"):
            assert self.run_cli(command, config) == 0
        first = report.read_bytes()
        manifest = json.loads((out / "manifest_train_forecast.json").read_text())
        assert manifest["data_key"] == pipeline._data_key(load_config(config))
        assert self.run_cli("simulate", config, "--seed", "6") == 0
        report.unlink()
        capsys.readouterr()
        assert self.run_cli("portfolio", config) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"spdcast: config error: {out / 'data' / 'returns.csv'} is not "
                              "from the data stage the forecasts were made from")
        assert "rerun train-forecast" in err
        assert not report.exists()
        assert self.run_cli("train-forecast", config) == 0
        assert self.run_cli("portfolio", config) == 0
        assert report.read_bytes() == first

    def test_a_manifest_without_a_key_is_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        for command in ("simulate", "train-forecast"):
            assert self.run_cli(command, config) == 0
        path = out / "manifest_train_forecast.json"
        manifest = json.loads(path.read_text())
        del manifest["data_key"]
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert self.run_cli("portfolio", config) == 2
        assert "rerun train-forecast" in capsys.readouterr().err

    def test_file_source_records_no_key(self, tmp_path):
        series, _ = simulate_market(3, 70, 0.8, 7, 1)
        save_series(series, tmp_path / "series.matbin")
        config = write_config(tmp_path)
        config.write_text(config.read_text().replace(
            "source = simulate", f"source = matbin\npath = {tmp_path / 'series.matbin'}"))
        assert self.run_cli("train-forecast", config) == 0
        manifest = json.loads((tmp_path / "out" / "manifest_train_forecast.json").read_text())
        assert manifest["data_key"] is None


class TestReturnsWidth:
    """A returns file must hold one column per asset of the series."""

    def test_both_commands_name_the_file_and_the_setting(self, tmp_path, capsys):
        series, returns = simulate_market(3, 70, 0.8, 7, 1)
        save_series(series, tmp_path / "series.matbin")
        path = tmp_path / "returns.csv"
        pipeline._write_dated_csv(path, ["a", "b", "c"], series.dates, returns)
        config = write_config(tmp_path)
        config.write_text(config.read_text().replace(
            "source = simulate", f"source = matbin\npath = {tmp_path / 'series.matbin'}\n"
            f"returns = {path}"))
        message = (f"spdcast: config error: [data] returns: {path} has 2 asset columns; "
                   "the series has 3\n")
        assert main(["train-forecast", "--config", str(config)]) == 0
        pipeline._write_dated_csv(path, ["a", "b"], series.dates, returns[:, :2])
        capsys.readouterr()
        assert main(["portfolio", "--config", str(config)]) == 2
        assert capsys.readouterr().err == message
        assert main(["train-forecast", "--config", str(config)]) == 2
        assert capsys.readouterr().err == message


class TestModelSeed:
    def test_seeds_a_multiple_of_2_31_apart_get_their_own_streams(self):
        assert _model_seed(0, "rw") != _model_seed(2**31, "rw")

    def test_seeds_below_2_31_keep_their_streams(self):
        assert _model_seed(0, "rw") == 3086433193
        assert _model_seed(2**31 - 1, "rw") == 3199689582


class TestFavarFactorReductions:
    """A FAVAR fit whose sample's rank cuts its factor count is counted in the
    manifest and logged once per model, never raised as a warning."""

    def test_rank_one_series_counts_its_reductions(self, tmp_path, caplog):
        rng = np.random.default_rng(4)
        scales = rng.uniform(0.5, 2.0, 40)
        base = np.array([[2.0, 0.5], [0.5, 1.0]])
        dates = np.datetime64("2001-01-01") + np.arange(40)
        save_series(CovSeries(dates, scales[:, None, None] * base), tmp_path / "rank1.matbin")
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\nout = {tmp_path / 'out'}\n[data]\nsource = matbin\n"
                        f"path = {tmp_path / 'rank1.matbin'}\n[models]\n"
                        "roster = rw, favar:factors=2\n[forecast]\nwindow = 30\n")
        caplog.set_level(logging.WARNING, logger="spdcast.pipeline")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train-forecast", "--config", str(path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest_train_forecast.json").read_text())
        assert manifest["training"] == {"favar": {"factor_reductions": 10}}
        assert [r.getMessage() for r in caplog.records if r.name == "spdcast.pipeline"] == [
            "model favar: the sample's rank cut the factor count of 10 fits"]

    def test_full_rank_fits_leave_no_record(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["train-forecast", "--config", str(path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest_train_forecast.json").read_text())
        assert "favar" not in manifest["training"]


class TestFavarLinAlgError:
    """A LAPACK failure in a FAVAR fit fails that window, as any library error does."""

    @pytest.mark.parametrize("solver", ["svd", "lstsq"])
    def test_a_solve_that_does_not_converge_fails_its_window(self, tmp_path, monkeypatch,
                                                            solver):
        path = write_config(tmp_path)
        original, calls = getattr(np.linalg, solver), []

        def failing_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise np.linalg.LinAlgError(f"{solver} did not converge")
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, solver, failing_once)
        assert main(["train-forecast", "--config", str(path)]) == 0
        out = tmp_path / "out"
        dates = load_series(out / "data" / "series.matbin").dates
        window = load_config(path).window
        rows = (out / "train" / "failures.csv").read_text().splitlines()
        assert rows == ["model,date,reason", f"favar,{dates[window]},fit: FAVAR fit on "
                        f"{dates[0]} to {dates[window - 1]}: {solver} did not converge"]
        favar = load_series(out / "forecasts" / "favar.matbin")
        assert np.array_equal(favar.dates, dates[window + 1 :])


class TestCommonDates:
    """evaluate and portfolio score every model on the dates all forecast files hold."""

    def test_a_forecast_file_missing_dates_restricts_every_model(self, tmp_path, caplog):
        path = write_config(tmp_path, BASE_CONFIG.replace("metrics = frobenius",
                                                          "metrics = frobenius, euclidean"))
        out = tmp_path / "out"
        assert main(["train-forecast", "--config", str(path)]) == 0
        favar = load_series(out / "forecasts" / "favar.matbin")
        keep = [k for k in range(len(favar)) if k not in (0, 7, 8, 29)]
        save_series(favar[keep], out / "forecasts" / "favar.matbin")
        caplog.set_level(logging.INFO, logger="spdcast.pipeline")
        for command in ("evaluate", "portfolio"):
            caplog.clear()
            assert main([command, "--config", str(path)]) == 0
            assert [r.getMessage() for r in caplog.records if r.name == "spdcast.pipeline"] == [
                "model rw: 4 dates outside the common panel"]

        common = favar.dates[keep]
        realized = load_series(out / "data" / "realized.matbin")
        rows = np.searchsorted(realized.dates, common)
        forecasts = {"rw": load_series(out / "forecasts" / "rw.matbin")[rows],
                     "favar": favar[keep]}
        for metric in ("frobenius", "euclidean"):
            panel = loss_panel(forecasts, realized[rows], metric)
            table = (out / "eval" / f"losses_{metric}.csv").read_text().splitlines()[1:]
            assert {line.split(",")[0]: line.split(",")[1] for line in table} == {
                name: f"{mean:.17g}" for name, mean in zip(panel.models, panel.losses.mean(0))}

        def dates_of(csv_path):
            return [line.split(",")[0] for line in csv_path.read_text().splitlines()[1:]]

        assert dates_of(out / "eval" / "regime_labels.csv") == [str(d) for d in common]
        weights = sorted((out / "portfolio").glob("weights_*.csv"))
        assert [w.stem for w in weights] == [f"weights_{model}_{variant}"
                                             for model in ("favar", "rw")
                                             for variant in ("gmv", "gmv_long")]
        for w in weights:
            assert dates_of(w) == [str(d) for d in common]


class TestStartup:
    def test_every_exported_name_resolves(self):
        import spdcast

        for name in spdcast.__all__:
            assert getattr(spdcast, name) is not None, name
        owners = {}  # name: the module whose __all__ holds it
        for module in spdcast._MODULES:
            for name in importlib.import_module(f"spdcast.{module}").__all__:
                assert owners.setdefault(name, module) == module, (name, owners[name], module)
        assert sorted(spdcast.__all__) == sorted(["__version__", *owners])
        with pytest.raises(AttributeError):
            spdcast.no_such_name

    def test_numpy_free_names_and_modules_load_no_numpy(self):
        """The package finds the names of its NumPy-free modules before it imports
        any other, and ``from spdcast import <module>`` imports that module alone."""
        import subprocess
        import sys

        import spdcast

        check = ("import sys\n"
                 "from spdcast import config, exceptions, ConfigError, RunConfig, load_config\n"
                 "import spdcast\n"
                 "try:\n"
                 "    spdcast._no_such_name\n"
                 "except AttributeError:\n"
                 "    print(sorted(m for m in sys.modules\n"
                 "                 if m.split('.')[0] in ('numpy', 'spdcast')))\n")
        src = str(Path(spdcast.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", check], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["['spdcast',", "'spdcast.config',", "'spdcast.exceptions']"]

    @staticmethod
    def run_console(*args: str) -> tuple[object, set[str]]:
        """Run ``spdcast *args`` as the console script runs it, in a fresh process, and
        which of ``numpy`` and ``importlib.metadata`` that process imported."""
        import subprocess
        import sys

        import spdcast

        check = ("import runpy, sys\n"
                 "try:\n"
                 "    runpy.run_module('spdcast.cli', run_name='__main__', alter_sys=True)\n"
                 "finally:\n"
                 "    loaded = {'numpy', 'importlib.metadata'} & set(sys.modules)\n"
                 "    print('loaded:', *sorted(loaded), file=sys.stderr)\n")
        src = str(Path(spdcast.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", check, *args],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        last = done.stderr.strip().splitlines()[-1].split()
        assert last[0] == "loaded:", done.stderr
        return done, set(last[1:])

    def test_report_runs_without_numpy(self, tmp_path):
        """``spdcast report`` run as the console script runs it never imports numpy."""
        config = write_config(tmp_path)
        (tmp_path / "out" / "eval").mkdir(parents=True)
        (tmp_path / "out" / "eval" / "losses_frobenius.csv").write_text("model,avg_loss\nrw,1\n")
        _, loaded = self.run_console("report", "--config", str(config))
        assert "numpy" not in loaded
        assert "| rw | 1 |" in (tmp_path / "out" / "report.md").read_text()
        manifest = json.loads((tmp_path / "out" / "manifest_report.json").read_text())
        assert manifest["numpy_version"] == np.__version__

    def test_a_computing_stage_stamps_the_numpy_it_loaded(self, tmp_path):
        """The manifest takes ``numpy.__version__``; the stage never imports package metadata."""
        _, loaded = self.run_console("simulate", "--config", str(write_config(tmp_path)))
        assert loaded == {"numpy"}
        manifest = json.loads((tmp_path / "out" / "manifest_simulate.json").read_text())
        assert manifest["numpy_version"] == np.__version__
