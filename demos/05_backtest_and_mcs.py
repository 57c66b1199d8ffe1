"""Rolling one-step backtest with a statistical model comparison.

Three forecasters predict tomorrow's covariance from a rolling window:
a random walk, a factor model on vectorized Cholesky factors, and a
manifold network trained on stacked lags.  Their per-day losses feed a
model confidence set built on a circular block bootstrap.

Run with:  python3 demos/05_backtest_and_mcs.py   (about 30s)
"""

import numpy as np

from spdcast import (
    LossPanel,
    Network,
    NetworkSpec,
    TrainConfig,
    blockdiag_spd,
    build_lagged_inputs,
    dist_log_euclidean,
    favar_fit,
    favar_forecast,
    forecast_rw,
    mcs,
    simulate_market,
    train,
)

WINDOW = 250
LAGS = 3


def main():
    series, _ = simulate_market(n=4, n_days=400, persistence=0.94, df=10, seed=2)
    test_range = range(WINDOW, len(series))
    print(f"{len(series)} days simulated, {len(test_range)} one-step forecasts per model")

    print("fitting models on the first window...")
    favar = favar_fit(series, train=slice(0, WINDOW))

    sup = build_lagged_inputs(series[:WINDOW], LAGS)
    net = Network.init_random(NetworkSpec.default(LAGS * 4, 4), seed=2)
    result = train(net, sup.inputs, sup.targets,
                   TrainConfig(loss="log_euclidean", seed=2))
    net = result.network

    losses = {"rw": [], "favar": [], "respdnet": []}
    for t in test_range:
        actual = series[t]
        losses["rw"].append(dist_log_euclidean(forecast_rw(series, t), actual))
        losses["favar"].append(dist_log_euclidean(favar_forecast(favar, series, t), actual))
        x = blockdiag_spd([series[t - j] for j in range(1, LAGS + 1)])
        losses["respdnet"].append(dist_log_euclidean(net.forward(x), actual))

    print()
    print(f"{'model':<10} {'avg loss':>10}")
    for name, vals in losses.items():
        print(f"{name:<10} {np.mean(vals):>10.4f}")

    panel = LossPanel(
        list(losses),
        series.dates[WINDOW:],
        np.column_stack([losses[m] for m in losses]),
    )
    result = mcs(panel, alpha=0.25, replicates=2000, seed=0)

    print()
    print(f"{'model':<10} {'p-value':>8}  {'in set':>6}")
    for name in losses:
        mark = "yes" if name in result.surviving else "no"
        print(f"{name:<10} {result.p_values[name]:>8.3f}  {mark:>6}")
    print("elimination order:", result.elimination_order or "(none)")


if __name__ == "__main__":
    main()
