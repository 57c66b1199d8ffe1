"""Layer maps, architecture shapes, Stiefel utilities.

The layer oracles below are the maps written out in plain NumPy, one
matrix at a time.
"""

import numpy as np
import pytest

from conftest import random_spd, spd_from_spectrum
from spdcast import (
    Network,
    NetworkSpec,
    SpdMatrix,
    StiefelParam,
    blockdiag_spd,
    random_stiefel,
    stiefel_error,
    stiefel_project,
    stiefel_retract,
)
from spdcast.network import _expand


def bimap(x, w):
    y = w @ x @ w.T
    return 0.5 * (y + y.T)


def reeig(x, eps):
    values, vectors = np.linalg.eigh(x)
    return (vectors * np.maximum(values, eps)) @ vectors.T


def expand(x, dim):
    z = np.eye(dim)
    z[: len(x), : len(x)] = x
    return z


def identity_net(dims, eps):
    """Square identity weights: the network reduces to its ReEig and expansion layers."""
    spec = NetworkSpec(dims[0], dims[1:], eps_rectify=eps)
    return Network(spec, [StiefelParam(np.eye(rows)) for rows, _ in spec.weight_shapes()])


class TestNetworkSpec:
    def test_weight_shapes_compressing(self):
        spec = NetworkSpec(9, (6, 3, 3))
        assert spec.weight_shapes() == [(6, 9), (3, 6), (3, 3)]

    def test_weight_shapes_with_expansion(self):
        spec = NetworkSpec(3, (5, 3))
        assert spec.weight_shapes() == [(5, 5), (3, 5)]

    def test_default_architecture(self):
        spec = NetworkSpec.default(150, 50)
        assert spec.layer_dims == (100, 50, 50)
        small = NetworkSpec.default(6, 3)
        assert small.layer_dims == (6, 3, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec(0, (3,))
        with pytest.raises(ValueError):
            NetworkSpec(4, ())
        with pytest.raises(ValueError):
            NetworkSpec(4, (3,), eps_rectify=0.0)


class TestStiefel:
    def test_random_stiefel_is_row_orthonormal(self, rng):
        for shape in ((3, 5), (4, 4), (1, 7)):
            w = random_stiefel(shape, rng)
            assert w.shape == shape
            assert stiefel_error(w) <= 1e-12

    def test_random_stiefel_seeded(self):
        a = random_stiefel((2, 4), np.random.default_rng(5))
        b = random_stiefel((2, 4), np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_project_lands_in_tangent_space(self, rng):
        # tangent at W: V W^T + W V^T = 0
        for _ in range(20):
            w = random_stiefel((3, 6), rng)
            g = rng.standard_normal((3, 6))
            v = stiefel_project(w, g)
            skew = v @ w.T + w @ v.T
            assert np.linalg.norm(skew) <= 1e-12

    def test_project_is_idempotent(self, rng):
        w = random_stiefel((2, 5), rng)
        g = rng.standard_normal((2, 5))
        v = stiefel_project(w, g)
        assert np.allclose(stiefel_project(w, v), v, atol=1e-12)

    def test_retract_stays_on_manifold(self, rng):
        for scale in (1e-6, 0.1, 10.0):
            w = random_stiefel((3, 5), rng)
            step = scale * rng.standard_normal((3, 5))
            moved = stiefel_retract(w, step)
            assert stiefel_error(moved) <= 1e-12

    def test_retract_zero_step_is_identity(self, rng):
        w = random_stiefel((3, 5), rng)
        assert np.allclose(stiefel_retract(w, np.zeros_like(w)), w, atol=1e-12)

    def test_retract_first_order(self, rng):
        # R(W, tV) = W + tV + O(t^2) along tangent directions
        w = random_stiefel((3, 6), rng)
        v = stiefel_project(w, rng.standard_normal((3, 6)))
        t = 1e-6
        moved = stiefel_retract(w, t * v)
        assert np.linalg.norm(moved - (w + t * v)) <= 1e-10

    def test_param_validation(self, rng):
        with pytest.raises(ValueError):
            StiefelParam(rng.standard_normal((3, 5)))
        with pytest.raises(ValueError):
            StiefelParam(np.eye(5)[:, :3])  # 5x3: more rows than columns


class TestLayers:
    def test_bimap_matches_direct_product(self, rng):
        w = random_stiefel((2, 4), rng)
        net = Network(NetworkSpec(4, (2,)), [StiefelParam(w)])
        x = random_spd(rng, 4)
        expected = w @ x.data @ w.T
        assert np.allclose(net.forward(x).data, 0.5 * (expected + expected.T), atol=1e-12)

    def test_bimap_preserves_spd(self, rng):
        for _ in range(20):
            net = Network(NetworkSpec(6, (3,)), [StiefelParam(random_stiefel((3, 6), rng))])
            x = random_spd(rng, 6, lo=0.01, hi=10.0)
            assert net.forward(x).eig.values[-1] > 0.0

    def test_reeig_clips_known_spectrum(self, rng):
        m = spd_from_spectrum(rng, [3.0, 1.0, 0.1])
        out = identity_net((3, 3, 3), eps=0.5).forward(m)
        assert np.allclose(np.sort(out.eig.values), [0.5, 1.0, 3.0], atol=1e-12)

    def test_reeig_noop_above_threshold(self, rng):
        m = random_spd(rng, 4, lo=1.0, hi=2.0)
        out = identity_net((4, 4, 4), eps=1e-4).forward(m)
        assert np.allclose(out.data, m.data, atol=1e-12)

    def test_expand_embeds_identity_block(self, rng):
        stack = np.stack([random_spd(rng, 3).data for _ in range(4)])
        out = _expand(stack, 5)
        assert out.shape == (4, 5, 5)
        for x, z in zip(stack, out):
            assert np.array_equal(z, expand(x, 5))

    def test_expand_same_dim_is_noop(self, rng):
        stack = np.stack([random_spd(rng, 3).data for _ in range(2)])
        trace = identity_net((3, 3), eps=1e-4).forward_trace(stack)
        assert np.array_equal(trace.layer_inputs[0], stack)


class TestNetworkForward:
    def test_matches_manual_layer_composition(self, rng):
        spec = NetworkSpec(6, (4, 3), eps_rectify=1e-3)
        net = Network.init_random(spec, 11)
        x = random_spd(rng, 6)
        manual = bimap(x.data, net.weights[0].value)
        manual = reeig(manual, 1e-3)
        manual = bimap(manual, net.weights[1].value)
        assert np.allclose(net.forward(x).data, manual, atol=1e-12)

    def test_expansion_path_composition(self, rng):
        spec = NetworkSpec(3, (5, 2), eps_rectify=1e-3)
        net = Network.init_random(spec, 7)
        x = random_spd(rng, 3)
        manual = bimap(expand(x.data, 5), net.weights[0].value)
        manual = reeig(manual, 1e-3)
        manual = bimap(manual, net.weights[1].value)
        assert np.allclose(net.forward(x).data, manual, atol=1e-12)

    @pytest.mark.parametrize("dims", [(6, 4, 3, 3), (3, 5, 3), (2, 4, 2)])
    def test_stack_matches_each_matrix_alone(self, rng, dims):
        # NumPy decomposes and multiplies a stack slice by slice, so every
        # recorded activation is bit for bit that of its matrix alone.
        net = Network.init_random(NetworkSpec(dims[0], dims[1:], eps_rectify=0.3), 4)
        stack = np.stack([random_spd(rng, dims[0], lo=0.01, hi=3.0).data for _ in range(7)])
        batched = net.forward_trace(stack)
        for k, x in enumerate(stack):
            alone = net.forward_trace(x[None])
            assert np.array_equal(batched.output[k], alone.output[0])
            for a, b in zip(batched.layer_inputs, alone.layer_inputs):
                assert np.array_equal(a[k], b[0])
            for a, b in zip(batched.rectify_eigs, alone.rectify_eigs):
                assert np.array_equal(a.values[k], b.values[0])
                assert np.array_equal(a.vectors[k], b.vectors[0])
            forecast = net.forward(SpdMatrix(x))
            assert np.array_equal(forecast.data, SpdMatrix(batched.output[k]).data)

    def test_output_dimension(self, rng):
        spec = NetworkSpec.default(9, 3)
        net = Network.init_random(spec, 0)
        assert net.forward(random_spd(rng, 9)).dim == 3

    def test_preserves_spd_in_bulk(self, rng):
        for trial in range(50):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 4))
            spec = NetworkSpec.default(k * n, n)
            net = Network.init_random(spec, trial)
            x = blockdiag_spd([random_spd(rng, n, lo=0.01, hi=50.0) for _ in range(k)])
            y = net.forward(x)
            assert np.linalg.norm(y.data - y.data.T) <= 1e-10
            assert y.eig.values[-1] > 0.0

    def test_wrong_input_dim_raises(self, rng):
        net = Network.init_random(NetworkSpec(4, (3,)), 0)
        with pytest.raises(Exception):
            net.forward(random_spd(rng, 5))

    def test_init_deterministic(self):
        spec = NetworkSpec(6, (4, 3))
        a = Network.init_random(spec, 3)
        b = Network.init_random(spec, 3)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa.value, wb.value)

    def test_rejects_mismatched_weights(self, rng):
        spec = NetworkSpec(6, (4, 3))
        weights = [StiefelParam(random_stiefel(s, rng)) for s in spec.weight_shapes()]
        weights[0] = StiefelParam(random_stiefel((4, 5), rng))
        with pytest.raises(ValueError):
            Network(spec, weights)
