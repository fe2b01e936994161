import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastjl import linalg
from fastjl.errors import ContractError, DimensionError, SingularMatrixError
from fastjl.randomness import BitSource


def dense_hadamard(n):
    """O(n^2) oracle: the orthonormal Hadamard matrix built recursively."""
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h / math.sqrt(n)


def _reference_fwht(v):
    """The in-place butterfly that fwht_normalized replaced: stage h adds
    the pairs (i, i + h) over the whole (n, m) array, lower index first."""
    a = np.array(v, dtype=float, copy=True, order="C")
    n = a.shape[0]
    flat_vector = a.ndim == 1
    if flat_vector:
        a = a[:, None]
    cols = a.shape[1]
    h = 1
    while h < n:
        pairs = a.reshape(n // (2 * h), 2, h, cols)
        top = pairs[:, 0]
        bot = pairs[:, 1]
        diff = top - bot
        top += bot
        bot[...] = diff
        h *= 2
    a /= math.sqrt(n)
    return a[:, 0] if flat_vector else a


@st.composite
def _fwht_inputs(draw):
    """A vector or matrix of power-of-two length in any layout and dtype."""
    n = 1 << draw(st.integers(0, 12))
    m = draw(st.none() | st.integers(0, 70))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64]))
    shape = (n,) if m is None else (n, m)
    base_shape = tuple(2 * d + 1 for d in shape) if layout == "strided" else shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype == np.int64:
        base = rng.integers(-1000, 1000, size=base_shape)
    else:
        base = rng.standard_normal(base_shape).astype(dtype)
    if layout == "F":
        base = np.asfortranarray(base)
    elif layout == "strided":
        base = base[tuple(slice(1, None, 2) for _ in shape)]
    return base


class TestFwht:
    def test_n1_identity(self):
        assert np.allclose(linalg.fwht_normalized(np.array([1.0])), [1.0])

    def test_w2_first_column(self):
        out = linalg.fwht_normalized(np.array([1.0, 0.0]))
        assert np.allclose(out, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_matches_dense_oracle(self):
        v = BitSource(3).draw_gaussian(8)
        expected = dense_hadamard(8) @ v
        assert np.abs(linalg.fwht_normalized(v) - expected).max() < 1e-12

    def test_non_power_of_two_rejected(self):
        with pytest.raises(DimensionError):
            linalg.fwht_normalized(np.ones(6))

    @pytest.mark.parametrize("log_n", range(1, 17))
    def test_involution_and_norm(self, log_n):
        n = 1 << log_n
        v = BitSource(log_n).draw_gaussian(n)
        w = linalg.fwht_normalized(v)
        assert np.abs(linalg.fwht_normalized(w) - v).max() < 1e-10
        assert abs(np.linalg.norm(w) - np.linalg.norm(v)) < 1e-10 * np.linalg.norm(v)

    @given(st.integers(min_value=1, max_value=8), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_involution_property(self, log_n, seed):
        v = BitSource(seed).draw_gaussian(1 << log_n)
        assert np.abs(linalg.fwht_normalized(linalg.fwht_normalized(v)) - v).max() < 1e-10

    @given(_fwht_inputs(), st.none() | st.integers(0, 9), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_bits_match_reference_butterfly(self, x, width, signed):
        """Same bytes as the stage-by-stage butterfly, in a fresh array, for
        any layout, dtype and column blocking, with and without signs; width
        0 asks for blocks smaller than one column, which still hold one."""
        before = x.copy()
        n = x.shape[0]
        signs = BitSource(n).draw_rademacher(n).astype(float) if signed else None
        with pytest.MonkeyPatch.context() as mp:
            if width is not None:
                mp.setattr(linalg, "_BLOCK_BYTES", 8 * n * width)
            out = linalg.fwht_normalized(x, signs)
        if signed:
            scaled = np.asarray(x, dtype=float)
            expected = _reference_fwht(scaled * (signs if x.ndim == 1 else signs[:, None]))
        else:
            expected = _reference_fwht(x)
        assert out.dtype == np.float64 and out.shape == x.shape
        assert out.flags.c_contiguous and out.flags.writeable
        assert not np.shares_memory(out, x)
        assert out.tobytes() == expected.tobytes()
        assert np.array_equal(x, before) and x.dtype == before.dtype

    def test_vector_input_not_written(self):
        # A vector's one-column block is already contiguous when transposed;
        # the butterfly must still work on its own copy.
        v = np.arange(8.0)
        out = linalg.fwht_normalized(v)
        assert np.array_equal(v, np.arange(8.0))
        assert not np.shares_memory(out, v)

    def test_other_ranks_rejected(self):
        for bad in (np.float64(1.0), np.ones((2, 2, 2))):
            with pytest.raises(DimensionError):
                linalg.fwht_normalized(bad)

    def test_signs_of_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            linalg.fwht_normalized(np.ones((4, 2)), np.ones(2))

    def test_memory_stays_near_output_size(self):
        # The (65536, 8) result is 4 MiB; the butterfly adds two column-block
        # buffers, not a temporary per stage.
        x = BitSource(4).draw_gaussian(65536 * 8).reshape(65536, 8)
        tracemalloc.start()
        try:
            linalg.fwht_normalized(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_batch_matches_columns(self):
        x = BitSource(5).draw_gaussian(32).reshape(16, 2)
        batch = linalg.fwht_normalized(x)
        for j in range(2):
            assert np.allclose(batch[:, j], linalg.fwht_normalized(x[:, j]))


class TestEigen:
    def test_identity(self):
        assert np.allclose(linalg.symmetric_eigenvalues(np.eye(3)), [1, 1, 1])

    def test_diagonal_sorted(self):
        assert np.allclose(linalg.symmetric_eigenvalues(np.diag([2.0, -1.0])), [-1, 2])

    def test_trace_and_determinant_oracle(self):
        g = BitSource(7).draw_gaussian(25).reshape(5, 5)
        m = 0.5 * (g + g.T)
        lam = linalg.symmetric_eigenvalues(m)
        assert abs(lam.sum() - np.trace(m)) < 1e-10 * np.linalg.norm(m)
        det = np.linalg.det(m)
        assert abs(np.prod(lam) - det) < 1e-8 * abs(det)

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            linalg.symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_trace_property(self, seed, n):
        g = BitSource(seed).draw_gaussian(n * n).reshape(n, n)
        m = g + g.T
        lam = linalg.symmetric_eigenvalues(m)
        assert abs(lam.sum() - np.trace(m)) <= 1e-10 * max(1.0, np.linalg.norm(m))


class TestSpectralExtremes:
    def test_identity(self):
        assert linalg.spectral_extremes(np.eye(4)) == pytest.approx((1.0, 1.0))

    def test_zero(self):
        assert linalg.spectral_extremes(np.zeros((3, 2))) == (0.0, 0.0)

    def test_orthogonal_columns_with_known_norms(self):
        m = np.zeros((4, 2))
        m[:2, 0] = [3.0 / math.sqrt(2)] * 2
        m[2:, 1] = [5.0 / math.sqrt(2)] * 2
        lo, hi = linalg.spectral_extremes(m)
        assert lo == pytest.approx(3.0, rel=1e-10)
        assert hi == pytest.approx(5.0, rel=1e-10)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionError):
            linalg.spectral_extremes(np.zeros((0, 3)))

    def test_gram_paths_agree(self):
        m = BitSource(9).draw_gaussian(24).reshape(4, 6)
        wide = linalg.spectral_extremes(m)
        tall = linalg.spectral_extremes(m.T)
        assert wide[0] == pytest.approx(tall[0], rel=1e-8, abs=1e-10)
        assert wide[1] == pytest.approx(tall[1], rel=1e-8)


class TestLeastSquares:
    def test_identity_system(self):
        b = BitSource(1).draw_gaussian(5)
        assert np.allclose(linalg.least_squares(np.eye(5), b), b)

    def test_overdetermined_mean(self):
        x = linalg.least_squares(np.ones((2, 1)), np.array([0.0, 2.0]))
        assert x[0] == pytest.approx(1.0)

    def test_residual_orthogonality(self):
        a = BitSource(2).draw_gaussian(36).reshape(12, 3)
        b = BitSource(3).draw_gaussian(12)
        x = linalg.least_squares(a, b)
        resid = a @ x - b
        bound = 1e-8 * np.linalg.norm(a) * np.linalg.norm(resid)
        assert np.abs(a.T @ resid).max() <= max(bound, 1e-9)

    def test_zero_columns_rejected(self):
        with pytest.raises(DimensionError):
            linalg.least_squares(np.zeros((3, 0)), np.ones(3))

    def test_rank_deficient_raises_with_condition(self):
        a = np.ones((4, 2))
        with pytest.raises(SingularMatrixError) as exc:
            linalg.least_squares(a, np.ones(4))
        assert exc.value.condition_estimate is None or exc.value.condition_estimate > 1e6


class TestCircularConvolve:
    def test_delta_identity(self):
        x = np.array([3.0, 1.0, 4.0, 1.0])
        delta = np.zeros(4)
        delta[0] = 1.0
        assert np.allclose(linalg.circular_convolve(delta, x), x)

    def test_shift(self):
        g = np.zeros(4)
        g[1] = 1.0
        e1 = np.zeros(4)
        e1[0] = 1.0
        out = linalg.circular_convolve(g, e1)
        expected = np.zeros(4)
        expected[1] = 1.0
        assert np.allclose(out, expected)

    def test_matches_circulant_matrix_oracle(self):
        g = BitSource(4).draw_gaussian(8)
        x = BitSource(5).draw_gaussian(8)
        circ = np.array([[g[(i - j) % 8] for j in range(8)] for i in range(8)])
        assert np.abs(linalg.circular_convolve(g, x) - circ @ x).max() < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.circular_convolve(np.ones(4), np.ones(5))

    def test_circulant_rows_match(self):
        g = BitSource(6).draw_gaussian(8)
        rows = linalg.circulant_rows(g, 3)
        for i in range(3):
            e = np.zeros(8)
            e[i] = 1.0
            shifted = np.array([g[(i - j) % 8] for j in range(8)])
            assert np.allclose(rows[i], shifted)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        m = BitSource(8).draw_gaussian(12).reshape(3, 4)
        path = tmp_path / "m.csv"
        linalg.save_matrix_csv(path, m)
        back = linalg.load_matrix_csv(path)
        assert back.shape == (3, 4)
        assert np.array_equal(back, m)

    def test_header(self, tmp_path):
        path = tmp_path / "m.csv"
        linalg.save_matrix_csv(path, np.zeros((2, 5)))
        assert path.read_text().splitlines()[0] == "2,5"
