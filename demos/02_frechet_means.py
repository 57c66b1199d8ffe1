"""Averaging covariance matrices two ways.

The arithmetic mean of SPD matrices inflates the determinant (swelling).
Averaging in the log domain, or averaging aligned square roots (the
Procrustes mean, the Bures-Wasserstein barycenter), avoids that.  Run with:  python3 demos/02_frechet_means.py
"""

import numpy as np

from spdcast import (
    FrechetConfig,
    SpdMatrix,
    frechet_mean_log_euclidean,
    frechet_mean_procrustes,
)


def random_spd(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    return SpdMatrix((q * rng.uniform(0.2, 4.0, n)) @ q.T)


def main():
    rng = np.random.default_rng(21)
    sample = [random_spd(rng, 3) for _ in range(20)]

    arithmetic = sum(s.data for s in sample) / len(sample)
    le_mean = frechet_mean_log_euclidean(sample)

    print("determinants")
    print("  geometric mean of sample dets:",
          np.exp(np.mean([np.linalg.slogdet(s.data)[1] for s in sample])).round(5))
    print("  arithmetic mean det:          ", np.linalg.det(arithmetic).round(5))
    print("  log-domain mean det:          ", np.linalg.det(le_mean.data).round(5))

    print()
    print("Procrustes mean (Bures-Wasserstein fixed point)")
    result = frechet_mean_procrustes(sample, FrechetConfig(tol=1e-12, max_iters=200))
    print("  converged:", result.converged, "after", result.n_iters, "iterations")
    print("  objective trace head:", [round(v, 6) for v in result.objective_trace[:5]])
    drops = np.diff(result.objective_trace)
    print("  objective ever increases:", bool((drops > 1e-12).any()))

    print()
    print("both means")
    procrustes = frechet_mean_procrustes(sample, FrechetConfig(metric="procrustes")).mean
    for metric, m in (("log_euclidean", le_mean), ("procrustes", procrustes)):
        print(f"  {metric} mean: trace {np.trace(m.data):.6f}")


if __name__ == "__main__":
    main()
