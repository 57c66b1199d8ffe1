"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` and in
failure output).  Budgets are wall-clock seconds measured inside the test.
"""

import time

import numpy as np

from conftest import random_orthogonal, random_spd, spd_from_spectrum
from spdcast import (
    LOSS_LOG_EUCLIDEAN,
    LOSS_MSE,
    CovSeries,
    LossPanel,
    Network,
    NetworkSpec,
    SpdMatrix,
    TrainConfig,
    WeightPath,
    avg_turnover,
    backward,
    blockdiag_spd,
    build_geohar_inputs,
    build_lagged_inputs,
    dist_log_euclidean,
    dist_procrustes,
    expm,
    forecast_rw,
    frechet_mean_log_euclidean,
    frechet_mean_procrustes,
    gmv_long_only,
    gmv_weights,
    load_config,
    load_series,
    logm,
    mcs,
    rolling_windows,
    simulate_market,
    sqrtm_psd,
    stiefel_error,
    stiefel_project,
    train,
)
from spdcast.optim import _grad_log_euclidean, _grad_mse
from spdcast.pipeline import cmd_train_forecast

TOL_SYMMETRY = 1e-10
TOL_ORTHONORMAL = 1e-8
TOL_TANGENT = 1e-9
TOL_GRADCHECK = 1e-4
MIN_EIG_GAP = 1e-2
TOL_EXPLOG = 1e-8
TOL_LE_MEAN = 1e-6
TOL_PROCRUSTES_GRID = 1e-3
TOL_LONG_ONLY = 2e-3
TOL_TURNOVER = 1e-15
MCS_DOMINATED_P = 0.01


def report(number, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"criterion {number} ({label}): {status} in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({label}) failed"
    assert elapsed <= budget, f"criterion {number} exceeded {budget:.0f}s: {elapsed:.2f}s"


def test_criterion_1_structural_shapes_and_task_count():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    n, k = 50, 3

    dates = np.datetime64("2000-01-03") + np.arange(23)
    mats = np.zeros((23, n, n))
    for m in mats:  # spectrum in [0.5, 2), random eigenbasis; one eigh, in CovSeries
        q = random_orthogonal(rng, n)
        m[:] = (q * rng.uniform(0.5, 2.0, size=n)) @ q.T
    series = CovSeries(dates, mats)
    lagged = build_lagged_inputs(series, k)
    geohar = build_geohar_inputs(series)
    ok = lagged.inputs.shape[1:] == (3 * n, 3 * n) and geohar.inputs.shape[1:] == (3 * n, 3 * n)
    ok = ok and lagged.targets[0].dim == n and geohar.targets[0].dim == n

    long_dates = np.datetime64("2000-01-03") + np.arange(3409)
    tiny = np.ones((3409, 1, 1))
    long_series = CovSeries(long_dates, tiny)
    tasks = list(rolling_windows(long_series, 2386))
    ok = ok and len(tasks) == 1023
    ok = ok and tasks[0][0] == slice(0, 2386) and tasks[0][1] == 2386

    report(1, "input shapes and rolling task count", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_network_output_stays_spd():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    ok = True
    for trial in range(1000):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, 4))
        net = Network.init_random(NetworkSpec.default(k * n, n), trial)
        x = blockdiag_spd(
            [random_spd(rng, n, lo=1e-3, hi=100.0) for _ in range(k)]
        )
        y = net.forward(x)
        if np.linalg.norm(y.data - y.data.T) > TOL_SYMMETRY:
            ok = False
            break
        if not (np.linalg.eigvalsh(y.data)[0] > 0.0):
            ok = False
            break
    report(2, "SPD preservation over 1000 random networks", ok, time.perf_counter() - start, 30.0)


def test_criterion_3_weights_stay_on_stiefel_after_500_steps():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    inputs = [random_spd(rng, 6, lo=0.2, hi=5.0) for _ in range(8)]
    targets = [random_spd(rng, 3, lo=0.5, hi=2.0) for _ in range(8)]
    net = Network.init_random(NetworkSpec.default(6, 3), 3)
    cfg = TrainConfig(learning_rate=5e-2, epochs=500, batch_size=8, seed=3)
    result = train(net, inputs, targets, cfg)

    ok = True
    for param in result.network.weights:
        if stiefel_error(param.value) > TOL_ORTHONORMAL:
            ok = False
        v = stiefel_project(param.value, param.grad_euclidean)
        skew = v @ param.value.T + param.value @ v.T
        if np.linalg.norm(skew) > TOL_TANGENT:
            ok = False
    report(3, "orthonormality and tangency after 500 updates", ok, time.perf_counter() - start, 60.0)


def _network_loss(net, x, target, loss):
    trace = net.forward_trace(x.data)
    if loss == LOSS_MSE:
        value, _ = _grad_mse(trace.output, target.data)
    else:
        value, _, _ = _grad_log_euclidean(trace.output, logm(target), 1e-6)
    return value


def _gradcheck_case(rng, spec, seed, loss):
    net = Network.init_random(spec, seed)
    if spec.input_dim == 3:
        x = spd_from_spectrum(rng, [1.7, 2.3, 3.1])
    else:
        values = np.linspace(0.4, 4.0, spec.input_dim)
        x = spd_from_spectrum(rng, values)
    target = random_spd(rng, spec.layer_dims[-1], lo=0.5, hi=2.0)

    trace = net.forward_trace(x.data)
    for pair in trace.rectify_eigs:
        gaps = np.abs(np.diff(pair.values))
        if gaps.size and gaps.min() < MIN_EIG_GAP:
            return None  # precondition not met; caller redraws

    if loss == LOSS_MSE:
        _, out_grad = _grad_mse(trace.output, target.data)
    else:
        _, out_grad, _ = _grad_log_euclidean(trace.output, logm(target), 1e-6)
    analytic = backward(net, trace, out_grad).weight_grads

    h = 1e-6
    worst = 0.0
    for p, param in enumerate(net.weights):
        base = param.value.copy()
        fd = np.zeros_like(base)
        for idx in np.ndindex(*base.shape):
            param.value = base.copy()
            param.value[idx] += h
            up = _network_loss(net, x, target, loss)
            param.value = base.copy()
            param.value[idx] -= h
            down = _network_loss(net, x, target, loss)
            fd[idx] = (up - down) / (2.0 * h)
        param.value = base
        rel = np.linalg.norm(analytic[p] - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    return worst


def test_criterion_4_full_network_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    cases = [
        (NetworkSpec(6, (4, 3), eps_rectify=1e-4), LOSS_MSE),
        (NetworkSpec(8, (5, 4), eps_rectify=1e-4), LOSS_LOG_EUCLIDEAN),
        (NetworkSpec(3, (4, 3), eps_rectify=1e-4), LOSS_MSE),
        (NetworkSpec(3, (4, 3), eps_rectify=1e-4), LOSS_LOG_EUCLIDEAN),
        (NetworkSpec(6, (6, 3, 3), eps_rectify=1e-4), LOSS_LOG_EUCLIDEAN),
    ]
    ok = True
    worst_overall = 0.0
    for seed, (spec, loss) in enumerate(cases):
        worst = None
        for attempt in range(10):
            worst = _gradcheck_case(rng, spec, 100 * seed + attempt, loss)
            if worst is not None:
                break
        if worst is None or worst > TOL_GRADCHECK:
            ok = False
            break
        worst_overall = max(worst_overall, worst)
    report(
        4,
        f"analytic vs central differences (worst rel err {worst_overall:.2e})",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_5_geometry_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    ok = True

    for n in (2, 10, 50):
        m = random_spd(rng, n, lo=0.01, hi=50.0)
        back = expm(logm(m))
        if np.linalg.norm(back.data - m.data) > TOL_EXPLOG * max(1.0, np.linalg.norm(m.data)):
            ok = False

    # iterative log-domain gradient descent as an independent minimizer
    sample = [random_spd(rng, 4) for _ in range(6)]
    logs = [logm(s) for s in sample]
    current = logs[0].copy()
    step = 0.1 / len(sample)
    for _ in range(600):
        grad = 2.0 * (len(sample) * current - sum(logs))
        current = current - step * grad
    iterative = expm(current)
    closed = frechet_mean_log_euclidean(sample)
    if np.linalg.norm(iterative.data - closed.data) > TOL_LE_MEAN:
        ok = False

    for _ in range(5):
        sample = [random_spd(rng, 3) for _ in range(5)]
        result = frechet_mean_procrustes(sample)
        trace = result.objective_trace
        if not all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1)):
            ok = False

    angles = np.linspace(0.0, 2.0 * np.pi, 7200, endpoint=False)
    for _ in range(5):
        a, b = random_spd(rng, 2), random_spd(rng, 2)
        l1, l2 = sqrtm_psd(a), sqrtm_psd(b)
        best = np.inf
        for theta in angles:
            c, s = np.cos(theta), np.sin(theta)
            for rot in (np.array([[c, -s], [s, c]]), np.array([[c, s], [s, -c]])):
                best = min(best, np.linalg.norm(l1 - l2 @ rot))
        if abs(dist_procrustes(a, b) - best) > TOL_PROCRUSTES_GRID:
            ok = False

    report(5, "spectral maps, means, and distances vs oracles", ok, time.perf_counter() - start, 60.0)


def test_criterion_6_trained_network_beats_references():
    start = time.perf_counter()
    window, lags, n, n_days = 500, 3, 5, 800
    wins = 0
    for seed in range(5):
        series, _ = simulate_market(n, n_days, 0.95, 12, seed)
        supervised = build_lagged_inputs(series[:window], lags)
        spec = NetworkSpec.default(lags * n, n)
        scores = {}
        for tag, loss in (("le", LOSS_LOG_EUCLIDEAN), ("mse", LOSS_MSE)):
            net = Network.init_random(spec, seed)
            train(net, supervised.inputs, supervised.targets, TrainConfig(loss=loss, seed=seed))
            errs = []
            for t in range(window, n_days):
                x = blockdiag_spd([series[t - j] for j in range(1, lags + 1)])
                errs.append(dist_log_euclidean(net.forward(x), series[t]))
            scores[tag] = float(np.mean(errs))
        rw = float(
            np.mean(
                [
                    dist_log_euclidean(forecast_rw(series, t), series[t])
                    for t in range(window, n_days)
                ]
            )
        )
        if scores["le"] < rw and scores["le"] < scores["mse"]:
            wins += 1
    report(
        6,
        f"geometry-aware training beats references ({wins}/5 seeds)",
        wins >= 4,
        time.perf_counter() - start,
        900.0,
    )


def test_criterion_7_confidence_set_behavior():
    start = time.perf_counter()
    eliminations = 0
    runs = 20
    for seed in range(runs):
        rng = np.random.default_rng(1000 + seed)
        n_obs = 150
        base = rng.uniform(0.9, 1.1, size=(n_obs, 2))
        diff_sd = np.sqrt(2.0) * np.std(rng.uniform(0.9, 1.1, size=4000))
        shift = 10.0 * diff_sd / np.sqrt(n_obs)
        bad = base[:, 0] + shift + 0.005 * rng.standard_normal(n_obs)
        losses = np.column_stack([base, bad])
        dates = np.datetime64("2002-01-01") + np.arange(n_obs)
        panel = LossPanel(["good_a", "good_b", "dominated"], dates, losses)
        result = mcs(panel, alpha=0.25, replicates=1000, seed=seed)
        if (
            "dominated" not in result.surviving
            and result.p_values["dominated"] < MCS_DOMINATED_P
        ):
            eliminations += 1
    ok = eliminations >= int(np.ceil(0.95 * runs))

    rng = np.random.default_rng(77)
    col = rng.uniform(0.5, 2.0, size=120)
    dates = np.datetime64("2002-01-01") + np.arange(120)
    panel = LossPanel(["a", "b", "c"], dates, np.column_stack([col, col, col]))
    tie = mcs(panel, alpha=0.25, replicates=1000, seed=0)
    ok = ok and tie.surviving == {"a", "b", "c"}
    ok = ok and all(p == 1.0 for p in tie.p_values.values())

    report(
        7,
        f"dominated model rejected ({eliminations}/{runs}), ties all survive",
        ok,
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_8_portfolio_rules():
    start = time.perf_counter()
    rng = np.random.default_rng(8)

    w = gmv_weights(SpdMatrix(np.diag([1.0, 4.0])))
    ok = w[0] == 0.8 and w[1] == 0.2

    steps = np.arange(0.0, 1.0 + 5e-4, 1e-3)
    g1, g2 = np.meshgrid(steps, steps, indexing="ij")
    g3 = 1.0 - g1 - g2
    keep = g3 >= -1e-12
    grid = np.column_stack([g1[keep], g2[keep], np.maximum(g3[keep], 0.0)])
    for _ in range(50):
        s = random_spd(rng, 3, lo=0.2, hi=3.0)
        w = gmv_long_only(s)
        variances = np.einsum("ki,ij,kj->k", grid, s.data, grid)
        best = grid[np.argmin(variances)]
        if np.max(np.abs(w - best)) > TOL_LONG_ONLY:
            ok = False
            break
        if w @ s.data @ w > best @ s.data @ best + 1e-9:
            ok = False
            break

    dates = np.datetime64("2002-01-01") + np.arange(2)
    tau = avg_turnover(
        WeightPath(dates, np.array([[0.5, 0.5], [0.6, 0.4]])), np.zeros((2, 2))
    )
    ok = ok and abs(tau - 0.2) <= TOL_TURNOVER

    static_dates = np.datetime64("2002-01-01") + np.arange(5)
    static = WeightPath(static_dates, np.tile([0.25, 0.75], (5, 1)))
    ok = ok and avg_turnover(static, np.zeros((5, 2))) == 0.0

    report(8, "closed forms, grid search, turnover identities", ok, time.perf_counter() - start, 30.0)


def test_criterion_9_forecast_files_reproducible(tmp_path):
    start = time.perf_counter()
    config = tmp_path / "run.ini"
    config.write_text(
        "[run]\n"
        "seed = 17\n"
        f"out = {tmp_path / 'out'}\n"
        "\n"
        "[data]\n"
        "source = simulate\n"
        "n = 3\n"
        "days = 90\n"
        "persistence = 0.9\n"
        "df = 8\n"
        "\n"
        "[models]\n"
        "roster = rw, favar, respdnet:lags=2:loss=log_euclidean\n"
        "\n"
        "[forecast]\n"
        "window = 60\n"
        "\n"
        "[train]\n"
        "epochs = 3\n"
        "batch_size = 16\n"
    )
    out = tmp_path / "out"

    assert cmd_train_forecast(load_config(config)) == 0
    files = sorted((out / "forecasts").glob("*.matbin")) + [out / "data" / "realized.matbin"]
    first = {p.name: p.read_bytes() for p in files}
    ok = len(first) == 4

    assert cmd_train_forecast(load_config(config)) == 0
    for p in files:
        if p.read_bytes() != first[p.name]:
            ok = False

    forecasts = load_series(out / "forecasts" / "respdnet2_le.matbin")
    ok = ok and len(forecasts) == 30

    report(9, "byte-identical forecasts across reruns", ok, time.perf_counter() - start, 120.0)
