"""Training a covariance-to-covariance network on the manifold.

Every weight is kept row-orthonormal by projecting gradients to the
tangent space and retracting with a QR step, so the network output is
symmetric positive definite by construction at every point of training.

Run with:  python3 demos/04_train_network.py
"""

import numpy as np

from spdcast import (
    Network,
    NetworkSpec,
    TrainConfig,
    build_lagged_inputs,
    simulate_market,
    stiefel_error,
    train,
)


def main():
    series, _ = simulate_market(n=4, n_days=200, persistence=0.92, df=9, seed=11)
    supervised = build_lagged_inputs(series, lags=2)  # inputs: a (samples, 8, 8) stack
    print("training inputs:", supervised.inputs.shape)

    spec = NetworkSpec.default(input_dim=supervised.inputs.shape[-1], output_dim=4)
    print("layer dims:", spec.input_dim, "->", spec.layer_dims)
    net = Network.init_random(spec, seed=0)
    print("weight shapes:", [p.shape for p in net.weights])
    print("initial orthonormality error:",
          max(stiefel_error(p.value) for p in net.weights))

    cfg = TrainConfig(learning_rate=1e-2, epochs=20, batch_size=32,
                      loss="log_euclidean", seed=0)
    result = train(net, supervised.inputs, supervised.targets, cfg)

    print()
    print("epoch losses (every 4th):")
    for i in range(0, len(result.epoch_losses), 4):
        print(f"  epoch {i:3d}: {result.epoch_losses[i]:.6f}")
    print(f"  final:     {result.epoch_losses[-1]:.6f}")

    print()
    print("after training")
    print("  orthonormality error:",
          max(stiefel_error(p.value) for p in result.network.weights))
    print("  eigenvalue gap clamps hit:", result.gap_clamp_count)

    y = result.network.forward(supervised.inputs[0])  # one (8, 8) input
    print("  sample output eigenvalues:",
          np.round(np.linalg.eigvalsh(y.data), 5))


if __name__ == "__main__":
    main()
