"""Matrix type, spectral maps, and the four distances.

Oracles here avoid the library's own eigendecompositions: test matrices are
constructed from known spectra and eigenbases, so expected values follow
from the construction.
"""

import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_orthogonal, random_spd, spd_from_spectrum
from spdcast import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    SpdMatrix,
    dist_euclidean,
    dist_frobenius,
    dist_log_euclidean,
    dist_procrustes,
    expm,
    logm,
    procrustes_rotation,
    project_to_spd,
    sqrtm_psd,
    vech,
)
from spdcast.baselines import _series_chols, chol_vectorize
from spdcast.data import CovSeries, _series_logs, _series_roots
from spdcast.spd import (SPD_FLOOR, _row_norms, ensure_pd, ensure_pd_values, logm_stack,
                         validate_stack)


class TestSpdMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SpdMatrix(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SpdMatrix(np.zeros((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SpdMatrix([[1.0, 0.0], [0.0, np.inf]])

    def test_rejects_negative_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            SpdMatrix([[1.0, 0.0], [0.0, -1.0]])

    def test_symmetrizes_input(self):
        m = SpdMatrix([[2.0, 0.4], [0.0, 1.0]])
        assert np.array_equal(m.data, m.data.T)
        assert m.data[0, 1] == 0.2

    def test_eigenvalues_descending_and_reconstruct(self, rng):
        values = np.array([5.0, 2.5, 1.0, 0.2])
        m = spd_from_spectrum(rng, rng.permutation(values))
        assert np.allclose(m.eig.values, values, atol=1e-12)
        u, lam = m.eig.vectors, m.eig.values
        assert np.allclose(u @ np.diag(lam) @ u.T, m.data, atol=1e-12)

    def test_data_read_only(self, rng):
        m = random_spd(rng, 3)
        with pytest.raises(ValueError):
            m.data[0, 0] = 9.0

    def test_dim(self, rng):
        assert random_spd(rng, 4).dim == 4


def _one_by_one(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the constructor computes for one matrix, with its own eigh call."""
    sym = 0.5 * (a + a.T)
    values, vectors = np.linalg.eigh(sym)
    return sym, values[::-1], vectors[:, ::-1]


def _stack_case(seed: int, count: int, n: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q = random_orthogonal(rng, n)
        spectrum = rng.uniform(0.1, 3.0, n)
        if kind == "rank_deficient":
            spectrum[rng.integers(0, n, size=max(1, n // 2))] = 0.0
        elif kind == "subnormal":
            spectrum *= 1e-320
        elif kind == "floor_threshold":  # SPD_FLOOR * lambda_max around the smallest normal
            spectrum *= 1e-300
        elif kind == "huge":  # up to 1e307, with a zero eigenvalue or two
            spectrum[rng.integers(0, n, size=max(1, n // 4))] = 0.0
            spectrum *= 10.0 ** rng.uniform(150.0, 307.0) / 3.0
        a = q @ np.diag(spectrum) @ q.T
        if kind == "asymmetric":
            a += 1e-12 * rng.standard_normal((n, n))
        out.append(a)
    return np.stack(out)


class TestStackConstructor:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 12),
        n=st.integers(1, 6),
        kind=st.sampled_from(["full_rank", "rank_deficient", "subnormal", "asymmetric"]),
    )
    def test_equals_the_per_matrix_constructor_bitwise(self, seed, count, n, kind):
        stack = _stack_case(seed, count, n, kind)
        try:
            expected = [SpdMatrix(a) for a in stack]
        except NotPositiveDefiniteError as exc:  # round-off below the tolerance
            with pytest.raises(NotPositiveDefiniteError, match=re.escape(str(exc))):
                validate_stack(stack)
            return
        built = validate_stack(stack)
        assert all(len(b) == count for b in built)
        for a, one, *m in zip(stack, expected, *built):
            sym, values, vectors = _one_by_one(a)
            for got in ((one.data, *one.eig), m):
                assert got[0].tobytes() == sym.tobytes()
                assert got[1].tobytes() == values.tobytes()
                assert got[2].tobytes() == vectors.tobytes()
        assert not any(b.flags.writeable for b in built)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([[1.0, 0.0], [0.0, np.nan]], "matrix entries must be finite"),
            ([[1.0, 2.0], [2.0, 1.0]], "smallest eigenvalue -1.000000e+00 is below the PSD "
                                       "tolerance -3.000000e-10"),
        ],
    )
    def test_first_rejected_record_raises_its_own_error(self, bad, message):
        stack = np.stack([np.eye(2), np.eye(2), bad, [[1.0, 0.0], [0.0, np.inf]]])
        with pytest.raises(ValueError) as single:
            SpdMatrix(bad)
        with pytest.raises(type(single.value)) as err:
            validate_stack(stack)
        assert str(err.value) == str(single.value) == message

        def name(i, exc):
            return KeyError(f"record {i}: {exc}")

        with pytest.raises(KeyError) as err:
            validate_stack(stack, name)
        assert err.value.args[0] == f"record 2: {message}"
        assert err.value.__cause__ is not None

    def test_shapes(self):
        assert all(b.shape[0] == 0 for b in validate_stack(np.zeros((0, 3, 3))))
        with pytest.raises(DimensionMismatchError, match=r"got shape \(2, 3\)"):
            validate_stack(np.ones((4, 2, 3)))
        with pytest.raises(DimensionMismatchError, match="stack"):
            validate_stack(np.eye(3))


# Spectrum kinds of the series kernels' and the floor's properties.
SERIES_KINDS = st.lists(st.sampled_from(["full_rank", "rank_deficient", "subnormal", "huge",
                                         "zero", "underflowing_floor"]), min_size=1, max_size=3)


def _mixed_stack(seed: int, count: int, n: int, kinds: list[str]) -> np.ndarray:
    """The matrices of each kind (one for ``zero`` and ``underflowing_floor``), shuffled."""
    rng = np.random.default_rng(seed)
    parts = [_stack_case(int(rng.integers(2**32)), count, n, kind) for kind in kinds
             if kind not in ("zero", "underflowing_floor")]
    if "zero" in kinds:
        parts.append(np.zeros((1, n, n)))
    if "underflowing_floor" in kinds:  # lambda_max * SPD_FLOOR underflows to 0
        parts.append(np.diag([1e-320] + [0.0] * (n - 1))[None])
    data = np.concatenate(parts)
    return data[rng.permutation(len(data))]


class TestSeriesKernels:
    """The batched log, root and Cholesky stacks of a series are total: no row
    is NaN, and each is its per-matrix function bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 10), n=st.integers(1, 6),
           kinds=SERIES_KINDS)
    @example(seed=1, count=4, n=20, kinds=["full_rank", "rank_deficient", "huge"])
    @example(seed=2, count=3, n=50, kinds=["rank_deficient", "huge", "zero"])
    @example(seed=3, count=3, n=50, kinds=["subnormal", "underflowing_floor", "full_rank"])
    def test_are_total_and_equal_the_per_matrix_functions(self, seed, count, n, kinds):
        data = _mixed_stack(seed, count, n, kinds)
        try:
            series = CovSeries(np.datetime64("2001-01-01") + np.arange(len(data)), data)
        except NotPositiveDefiniteError:  # round-off below the PSD tolerance
            return
        for kernel, oracle in ((_series_logs, lambda m: logm(ensure_pd(m))),
                               (_series_roots, sqrtm_psd),
                               (_series_chols, chol_vectorize)):
            stack = kernel(series)
            assert not np.isnan(stack).any()
            for t, m in enumerate(series):
                assert stack[t].tobytes() == oracle(m).tobytes()


class TestSpectralMaps:
    def test_logm_matches_construction(self, rng):
        # built as Q diag(v) Q^T, so logm must be Q diag(log v) Q^T
        values = np.array([3.0, 1.2, 0.4])
        q = random_orthogonal(rng, 3)
        m = SpdMatrix(q @ np.diag(values) @ q.T)
        expected = q @ np.diag(np.log(values)) @ q.T
        assert np.allclose(logm(m), expected, atol=1e-12)

    def test_expm_matches_construction(self, rng):
        values = np.array([1.0, -0.5, 0.25])
        q = random_orthogonal(rng, 3)
        sym = q @ np.diag(values) @ q.T
        expected = q @ np.diag(np.exp(values)) @ q.T
        assert np.allclose(expm(sym).data, expected, atol=1e-12)

    def test_expm_logm_identity(self, rng):
        for _ in range(25):
            m = random_spd(rng, rng.integers(2, 8), lo=0.05, hi=20.0)
            back = expm(logm(m))
            assert np.linalg.norm(back.data - m.data) <= 1e-8 * max(
                1.0, np.linalg.norm(m.data)
            )

    def test_sqrtm_psd_squares_back(self, rng):
        m = random_spd(rng, 5)
        root = sqrtm_psd(m)
        assert np.allclose(root @ root, m.data, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(root) >= 0.0)

    def test_logm_rejects_singular(self):
        m = SpdMatrix(np.diag([1.0, 0.0]))  # PSD is accepted, log is not
        with pytest.raises(NotPositiveDefiniteError):
            logm(m)


class TestSubnormalScale:
    def test_subnormal_scale_matrix_is_psd(self):
        # A spectrum at subnormal scale: PSD_RTOL * lambda_max underflows, and
        # the round-off negatives of the product below are accepted.
        q = random_orthogonal(np.random.default_rng(0), 4)
        m = SpdMatrix(q @ np.diag([0.0, 1.5e-323, 0.0, 0.0]) @ q.T)
        fixed = ensure_pd(m)
        assert fixed.eig.values[-1] >= 0.0

    def test_negative_definite_matrix_is_rejected(self):
        # The absolute tolerance applies only when lambda_max > 0.
        with pytest.raises(NotPositiveDefiniteError):
            SpdMatrix(np.diag([-1e-310, -1e-310]))


class TestVech:
    def test_row_major_lower_triangle(self):
        m = SpdMatrix(np.array([[4.0, 1.0, 0.5], [1.0, 5.0, 2.0], [0.5, 2.0, 6.0]]))
        assert np.array_equal(vech(m), [4.0, 1.0, 5.0, 0.5, 2.0, 6.0])

    def test_length(self, rng):
        assert len(vech(random_spd(rng, 6))) == 21


class TestDistances:
    def test_frobenius_is_squared_norm(self, rng):
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        expected = float(np.sum((a.data - b.data) ** 2))
        assert np.isclose(dist_frobenius(a, b), expected, rtol=1e-14)

    def test_euclidean_counts_off_diagonals_once(self):
        a = SpdMatrix([[1.0, 0.0], [0.0, 1.0]])
        b = SpdMatrix([[1.0, 0.3], [0.3, 1.0]])
        # vech difference is (0, 0.3, 0), so the distance is exactly 0.3
        assert np.isclose(dist_euclidean(a, b), 0.3, rtol=1e-15)

    def test_euclidean_from_explicit_loop(self, rng):
        a, b = random_spd(rng, 5), random_spd(rng, 5)
        total = 0.0
        for i in range(5):
            for j in range(i + 1):
                total += (a.data[i, j] - b.data[i, j]) ** 2
        assert np.isclose(dist_euclidean(a, b), np.sqrt(total), rtol=1e-13)

    def test_log_euclidean_commuting_case(self):
        a = SpdMatrix(np.diag([1.0, 4.0, 9.0]))
        b = SpdMatrix(np.diag([2.0, 4.0, 3.0]))
        expected = np.sqrt(np.log(2.0) ** 2 + np.log(3.0) ** 2)
        assert np.isclose(dist_log_euclidean(a, b), expected, rtol=1e-12)

    def test_log_euclidean_zero_on_equal(self, rng):
        m = random_spd(rng, 4)
        assert dist_log_euclidean(m, m) <= 1e-12

    def test_procrustes_nuclear_norm_identity(self, rng):
        # min_R ||L1 - L2 R||_F^2 = ||L1||^2 + ||L2||^2 - 2 sum sv(L2^T L1)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            a, b = random_spd(rng, n), random_spd(rng, n)
            l1, l2 = sqrtm_psd(a), sqrtm_psd(b)
            gap = (
                np.sum(l1 * l1)
                + np.sum(l2 * l2)
                - 2.0 * np.sum(np.linalg.svd(l2.T @ l1, compute_uv=False))
            )
            expected = np.sqrt(max(gap, 0.0))
            assert np.isclose(dist_procrustes(a, b), expected, atol=1e-10)

    def test_procrustes_two_dim_grid(self, rng):
        # brute force over rotations and reflections of the plane
        angles = np.linspace(0.0, 2.0 * np.pi, 7200, endpoint=False)
        for _ in range(5):
            a, b = random_spd(rng, 2), random_spd(rng, 2)
            l1, l2 = sqrtm_psd(a), sqrtm_psd(b)
            best = np.inf
            for theta in angles:
                c, s = np.cos(theta), np.sin(theta)
                for rot in (
                    np.array([[c, -s], [s, c]]),
                    np.array([[c, s], [s, -c]]),
                ):
                    best = min(best, np.linalg.norm(l1 - l2 @ rot))
            assert abs(dist_procrustes(a, b) - best) <= 1e-3

    def test_procrustes_symmetry(self, rng):
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        assert np.isclose(dist_procrustes(a, b), dist_procrustes(b, a), atol=1e-10)

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(Exception):
            dist_frobenius(random_spd(rng, 2), random_spd(rng, 3))


class TestDistanceAxioms:
    """Each distance is a metric on the matrices it is defined for; ``dist_frobenius``
    is the square of one."""

    METRICS = {
        "frobenius": lambda a, b: np.sqrt(dist_frobenius(a, b)),
        "euclidean": dist_euclidean,
        "log_euclidean": dist_log_euclidean,
        "procrustes": dist_procrustes,
    }

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        decades=st.integers(0, 6),
        singular=st.booleans(),
    )
    def test_symmetry_identity_and_triangle_inequality(self, seed, n, decades, singular):
        rng = np.random.default_rng(seed)
        spectra = 10.0 ** rng.uniform(-decades, 0.0, (3, n))
        if singular:  # no logarithm: the other three metrics only
            spectra[:, rng.integers(n)] = 0.0
        a, b, c = (spd_from_spectrum(rng, values) for values in spectra)
        scale = max(np.linalg.norm(m.data) for m in (a, b, c))
        for name, dist in self.METRICS.items():
            if singular and name == "log_euclidean":
                continue
            # Procrustes takes an SVD whose round-off depends on the order of
            # its operands; the other three are exact in their operands.  A
            # singular matrix's zero eigenvalue comes out of eigh as round-off,
            # which the square root takes as zero.
            slack = 0.0 if name != "procrustes" else 1e-12 * scale
            for x, y in ((a, b), (b, c), (a, c)):
                assert dist(x, y) >= 0.0
                assert abs(dist(x, y) - dist(y, x)) <= slack, name
            for x in (a, b, c):
                assert dist(x, x) <= slack, name
            ab, bc, ac = dist(a, b), dist(b, c), dist(a, c)
            assert ac <= (ab + bc) * (1.0 + 1e-12) + slack, name
            assert ab <= (ac + bc) * (1.0 + 1e-12) + slack, name


class TestProcrustesRotation:
    def test_returns_orthogonal(self, rng):
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        r = procrustes_rotation(sqrtm_psd(a), sqrtm_psd(b))
        assert np.allclose(r.T @ r, np.eye(4), atol=1e-12)

    def test_achieves_the_minimum(self, rng):
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        l1, l2 = sqrtm_psd(a), sqrtm_psd(b)
        r = procrustes_rotation(l1, l2)
        achieved = np.linalg.norm(l1 - l2 @ r)
        for _ in range(200):
            other = random_orthogonal(rng, 3)
            assert achieved <= np.linalg.norm(l1 - l2 @ other) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        k=st.integers(1, 12),
        ranks=st.lists(st.integers(0, 8), min_size=12, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_per_slice_bitwise(self, n, k, ranks, seed):
        # Square roots of SPD and rank-deficient matrices (rank 0 included),
        # rotated onto the root of another such matrix.
        rng = np.random.default_rng(seed)

        def root(rank):
            factor = rng.standard_normal((n, min(rank, n)))
            return sqrtm_psd(SpdMatrix(factor @ factor.T))

        centers = np.stack([root(ranks[-1])] * k)
        stack = np.stack([root(r) for r in ranks[:k]])
        rotations = procrustes_rotation(centers, stack)
        assert rotations.shape == (k, n, n)
        for i in range(k):
            assert np.array_equal(rotations[i], procrustes_rotation(centers[i], stack[i]))

    def test_stacks_on_both_sides(self, rng):
        n, k = 4, 6
        l1 = np.stack([sqrtm_psd(random_spd(rng, n)) for _ in range(k)])
        l2 = np.stack([sqrtm_psd(random_spd(rng, n)) for _ in range(k)])
        rotations = procrustes_rotation(l1, l2)
        for i in range(k):
            assert np.array_equal(rotations[i], procrustes_rotation(l1[i], l2[i]))
        with pytest.raises(ValueError):
            procrustes_rotation(l1, l2[:3])
        # A matrix against a stack is a mismatch, on either side.
        for mixed in ((l1, l2[0]), (l1[0], l2)):
            with pytest.raises(DimensionMismatchError, match="stacks of one shape"):
                procrustes_rotation(*mixed)

    def test_rejects_mismatched_stack(self, rng):
        with pytest.raises(ValueError):
            procrustes_rotation(np.eye(3), np.zeros((4, 2, 2)))


class TestProjectToSpd:
    def test_clips_eigenvalues_at_floor(self, rng):
        q = random_orthogonal(rng, 3)
        sym = q @ np.diag([2.0, 1e-14, -0.5]) @ q.T
        floor = 1e-6
        fixed = project_to_spd(sym, floor)
        expected = q @ np.diag([2.0, floor, floor]) @ q.T
        assert np.allclose(fixed.data, expected, atol=1e-10)
        assert fixed.eig.values[-1] >= floor * (1.0 - 1e-12)

    def test_noop_above_floor(self, rng):
        m = random_spd(rng, 4, lo=1.0, hi=2.0)
        fixed = project_to_spd(m, 1e-8)
        assert np.allclose(fixed.data, m.data, atol=1e-14)

    def test_accepts_plain_arrays(self):
        fixed = project_to_spd(np.diag([1.0, -2.0]), 0.5)
        assert np.allclose(fixed.data, np.diag([1.0, 0.5]))


class TestEnsurePd:
    """``ensure_pd`` is the one relative SPD floor shared by losses, means, FAVAR and GMV."""

    @staticmethod
    def inline_rule(s):
        # The floor as each caller wrote it before it had one owner, raised to
        # the smallest normal double where SPD_FLOOR * lambda_max is below it.
        lmax = float(s.eig.values[0])
        floor = max(1e-8 * (lmax if lmax > 0.0 else 1.0), sys.float_info.min)
        if s.eig.values[-1] < floor:
            return project_to_spd(s, floor)
        return s

    def test_floor_constant(self):
        assert SPD_FLOOR == 1e-8

    @settings(max_examples=150, deadline=None)
    @given(
        relative=st.lists(
            st.one_of(st.sampled_from([0.0, 1e-12, 5e-9, 1e-8, 2e-8, 1.0]), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=6,
        ),
        scale=st.floats(1e-6, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_floor_properties(self, relative, scale, seed):
        s = spd_from_spectrum(np.random.default_rng(seed), scale * np.asarray(relative))
        lmax = float(s.eig.values[0])
        floor = max(SPD_FLOOR * (lmax if lmax > 0.0 else 1.0), sys.float_info.min)
        fixed = ensure_pd(s)
        assert (fixed is s) == (s.eig.values[-1] >= floor)
        assert fixed.eig.values[-1] >= floor
        assert ensure_pd(fixed) is fixed
        old = self.inline_rule(s)
        assert (old is s) == (fixed is s)
        assert np.array_equal(old.data, fixed.data)
        assert np.array_equal(old.eig.values, fixed.eig.values)
        assert np.array_equal(old.eig.vectors, fixed.eig.vectors)

    def test_an_underflowing_floor_is_the_smallest_normal_double(self):
        # SPD_FLOOR * 1e-320 underflows to 0; the floor is sys.float_info.min instead.
        data = np.stack([np.eye(3), np.diag([1e-320, 0.0, 0.0]), np.zeros((3, 3))])
        series = CovSeries(np.datetime64("2001-01-01") + np.arange(3), data)
        floored = ensure_pd_values(series.values)
        assert floored[1].tolist() == [sys.float_info.min] * 3
        assert floored[2].tolist() == [SPD_FLOOR] * 3
        logs, chols = _series_logs(series), _series_chols(series)
        assert np.isfinite(logs).all() and np.isfinite(chols).all()
        assert np.allclose(logs[1], np.log(sys.float_info.min) * np.eye(3), rtol=1e-15, atol=0)

    def test_logm_stack_is_nan_exactly_on_rows_without_a_logarithm(self, rng):
        # Unfloored spectra: a zero eigenvalue leaves its whole row without a logarithm.
        data = np.stack([random_spd(rng, 3).data, np.diag([1.0, 1.0, 0.0]), np.eye(3),
                         np.zeros((3, 3)), random_spd(rng, 3).data])
        series = CovSeries(np.datetime64("2001-01-01") + np.arange(len(data)), data)
        logs = logm_stack(series.values, series.vectors)
        failed = np.isnan(logs).any(axis=(1, 2))
        assert failed.tolist() == [False, True, False, True, False]
        assert np.isnan(logs[failed]).all()
        for t in np.flatnonzero(~failed):
            assert logs[t].tobytes() == logm(series[t]).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 10), n=st.integers(1, 6),
           kinds=SERIES_KINDS, threshold=st.booleans())
    def test_floor_is_relative_and_never_below_the_smallest_normal(self, seed, count, n, kinds,
                                                                   threshold):
        data = _mixed_stack(seed, count, n, kinds + ["floor_threshold"] * threshold)
        values, vectors = np.linalg.eigh(0.5 * (data + np.swapaxes(data, 1, 2)))
        values, vectors = values[:, ::-1].copy(), vectors[:, :, ::-1].copy()
        lmax = values[:, :1]
        relative = SPD_FLOOR * np.where(lmax > 0.0, lmax, 1.0)
        floored = ensure_pd_values(values)
        assert (floored >= sys.float_info.min).all()
        normal = relative[:, 0] >= sys.float_info.min
        assert floored[normal].tobytes() == np.maximum(values, relative)[normal].tobytes()
        assert (floored[~normal] == np.maximum(values, sys.float_info.min)[~normal]).all()
        assert np.isfinite(logm_stack(floored, vectors)).all()


@pytest.mark.parametrize("k", [1, 3, 6, 21, 64, 300, 2500])
def test_row_norms_equal_one_norm_per_row(k):
    rng = np.random.default_rng(k)
    for _ in range(5):
        rows = rng.standard_normal((4, k)) * 10.0 ** rng.uniform(-8, 8)
        assert np.array_equal(_row_norms(rows), [np.linalg.norm(row) for row in rows])
    mats = rng.standard_normal((3, 5, 5))
    assert np.array_equal(_row_norms(mats), [np.linalg.norm(m) for m in mats])
    assert _row_norms(np.zeros((0, 5, 5))).shape == (0,)
