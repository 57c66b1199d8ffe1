"""From a covariance series to supervised learning sets.

Simulates a persistent covariance market, then builds the two input
conventions the forecasters consume: stacked recent lags, and
daily/weekly/monthly averages on the same block diagonal.

Run with:  python3 demos/03_market_inputs.py
"""

import numpy as np

from spdcast import build_geohar_inputs, build_lagged_inputs, simulate_market


def main():
    series, returns = simulate_market(n=4, n_days=120, persistence=0.9, df=10, seed=3)
    print(f"simulated {len(series)} days of {series.dim}x{series.dim} covariances")
    print("first date:", series.dates[0], " last:", series.dates[-1])
    print("returns panel shape:", returns.shape)

    traces = np.trace(series.data, axis1=1, axis2=2)  # series.data is (days, n, n)
    print(f"trace range: {traces.min():.3f} .. {traces.max():.3f}")

    print()
    # inputs is a (samples, d, d) stack of block diagonals; the target
    # series dates each sample
    lagged = build_lagged_inputs(series, lags=3)
    print(f"lagged inputs: stack of shape {lagged.inputs.shape}, "
          f"target dim {lagged.targets.dim}")
    print("first target date:", lagged.targets.dates[0])
    # block 0 of the first input is yesterday's matrix for that target
    first = lagged.inputs[0]
    yesterday = series[2].data
    print("top-left block is the most recent lag:",
          bool(np.array_equal(first[:4, :4], yesterday)))

    print()
    har = build_geohar_inputs(series)
    print(f"memory-average inputs: stack of shape {har.inputs.shape} "
          f"(needs a 22 day burn-in)")
    print("first target date:", har.targets.dates[0])
    block_traces = [np.trace(har.inputs[0][i * 4:(i + 1) * 4, i * 4:(i + 1) * 4])
                    for i in range(3)]
    print("block traces (daily, weekly, monthly):",
          [round(float(t), 4) for t in block_traces])


if __name__ == "__main__":
    main()
