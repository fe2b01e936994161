import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastjl import transforms as tr
from fastjl.errors import DimensionError, ParameterRangeError, ResourceError
from fastjl.linalg import fwht_normalized
from fastjl.randomness import BitSource, derive_stream

ALL_KINDS = [
    tr.TransformKind("new-rademacher"),
    tr.TransformKind("new-gaussian"),
    tr.TransformKind("new-sparse-g", eps=0.9, delta=0.9),
    tr.TransformKind("dense-gaussian"),
    tr.TransformKind("achlioptas-dense"),
    tr.TransformKind("achlioptas-sparse"),
    tr.TransformKind("fjlt", p=0.3),
    tr.TransformKind("subsampled-hadamard", bucket=2),
    tr.TransformKind("partial-circulant"),
    tr.TransformKind("hash-sparse"),
    tr.TransformKind("ailon-liberty", depth=3),
]


def _r_for(n):
    return max(2, math.isqrt(n) // 2)


class TestBuildAccounting:
    def test_new_rademacher_counts(self):
        src = BitSource(1)
        t = tr.build("new-rademacher", 16, 4, src, allow_large_r=True)
        assert t.factors["signs"].shape == (16,)
        assert sorted(t.factors["perm"].tolist()) == list(range(16))
        assert t.factors["block"].shape == (4, 4)
        assert t.draw_counts["signs"] == 16
        assert t.draw_counts["projection"] == 16
        assert src.gaussian_samples_consumed == 0

    def test_new_gaussian_sample_budget(self):
        # n signs + n permutation-driving bits + n Gaussians for P
        src = BitSource(1)
        tr.build("new-gaussian", 16, 4, src, allow_large_r=True)
        assert src.gaussian_samples_consumed == 16

    def test_dense_gaussian_samples(self):
        src = BitSource(1)
        tr.build("dense-gaussian", 16, 4, src)
        assert src.gaussian_samples_consumed == 64

    def test_draw_order_is_stable(self):
        t1 = tr.build("new-rademacher", 64, 4, BitSource(9))
        t2 = tr.build("new-rademacher", 64, 4, BitSource(9))
        assert np.array_equal(t1.factors["signs"], t2.factors["signs"])
        assert np.array_equal(t1.factors["perm"], t2.factors["perm"])
        assert np.array_equal(t1.factors["block"], t2.factors["block"])

    def test_r_must_divide_n(self):
        with pytest.raises(DimensionError):
            tr.build("new-rademacher", 64, 3, BitSource(1))

    def test_large_r_guard(self):
        with pytest.raises(ParameterRangeError):
            tr.build("new-rademacher", 64, 16, BitSource(1))
        tr.build("new-rademacher", 64, 16, BitSource(1), allow_large_r=True)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(DimensionError):
            tr.build("dense-gaussian", 48, 4, BitSource(1))


class TestOracleEquivalence:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.describe())
    @pytest.mark.parametrize("n", [16, 64])
    def test_apply_matches_dense(self, kind, n):
        src = BitSource(123, 5)
        t = tr.build(kind, n, _r_for(n), src)
        dense = tr.realize_dense(t)
        rng = BitSource(9, 1)
        for _ in range(20):
            x = rng.draw_gaussian(n)
            assert np.abs(tr.apply(t, x) - dense @ x).max() < 1e-10

    def test_zero_maps_to_zero(self):
        t = tr.build("new-gaussian", 64, 4, BitSource(2))
        assert np.allclose(tr.apply(t, np.zeros(64)), 0.0)

    def test_realized_rank_is_r(self):
        from fastjl.linalg import spectral_extremes

        for kind in ("new-rademacher", "new-gaussian"):
            t = tr.build(kind, 64, 4, BitSource(3))
            lo, _ = spectral_extremes(tr.realize_dense(t).T)
            assert lo > 1e-6

    def test_realize_guard(self):
        t = tr.build("new-rademacher", 2**15, 64, BitSource(1), allow_large_r=True)
        with pytest.raises(ResourceError):
            tr.realize_dense(t)

    def test_dense_gaussian_entry_moments(self):
        t = tr.build("dense-gaussian", 512, 64, BitSource(4), allow_large_r=True)
        entries = t.factors["dense"].ravel()
        assert abs(entries.mean()) < 0.02
        assert abs(entries.var() - 1.0) < 0.03
        assert t.scale == pytest.approx(1 / 8.0)


class TestImmutable:
    def test_fields_and_factors_read_only(self):
        t = tr.build("new-rademacher", 64, 4, BitSource(1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.n = 128
        with pytest.raises(ValueError):
            t.factors["signs"][0] = 5.0

    def test_kw11_signs_read_only(self):
        src = BitSource(2)
        t = tr.kw11_wrap(tr.build("hash-sparse", 64, 4, src), src)
        with pytest.raises(ValueError):
            t.kw11_signs[0] = 5.0


class TestPad:
    def test_already_power_of_two(self):
        x = np.arange(8.0)
        assert np.array_equal(tr.pad_to_pow2(x), x)

    def test_pads_with_zeros(self):
        out = tr.pad_to_pow2(np.ones(5))
        assert out.shape == (8,)
        assert np.allclose(out[5:], 0.0)

    @given(st.integers(1, 100), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_norm_preserved(self, length, seed):
        x = BitSource(seed).draw_gaussian(length)
        assert np.linalg.norm(tr.pad_to_pow2(x)) == pytest.approx(np.linalg.norm(x))


class TestKw11Wrap:
    def test_dimension_preserved(self):
        src = BitSource(5)
        t = tr.build(tr.TransformKind("subsampled-hadamard", bucket=2), 64, 8, src)
        wrapped = tr.kw11_wrap(t, src)
        assert wrapped.r == t.r and wrapped.n == t.n

    def test_definition(self):
        src = BitSource(6)
        t = tr.build("dense-gaussian", 32, 4, src)
        wrapped = tr.kw11_wrap(t, src)
        signs = wrapped.kw11_signs
        x = BitSource(7).draw_gaussian(32)
        assert np.allclose(tr.apply(wrapped, x), tr.apply(t, signs * x))

    def test_wrapped_srht_beats_twice_dense_jlp(self):
        # Restricted isometry composed with a fresh sign diagonal embeds
        # unit vectors about as well as the dense Gaussian baseline.
        from fastjl import harness as hz

        n, r, eps, trials = 1024, 128, 0.25, 4000
        kind = tr.TransformKind("subsampled-hadamard", bucket=2)
        fails = 0
        for i in range(trials):
            src = derive_stream(71, i)
            t = tr.kw11_wrap(tr.build(kind, n, r, src, allow_large_r=True), src)
            x = hz.make_family_vector("random-unit", n, src)
            y = tr.apply(t, x)
            fails += abs(float(y @ y) - 1.0) > eps
        dense = hz.jlp_failure_rate(
            "dense-gaussian", n, r, eps, "random-unit", trials, seed=71
        )
        assert fails / trials <= 2.0 * dense.failure_rate


class TestSparseG:
    def test_params_power_of_two_and_divides(self):
        p = tr.SparseGParams.compute(4096, 16, 0.5, 0.05)
        assert p.b & (p.b - 1) == 0
        assert 4096 % p.b == 0

    def test_fallback_to_r_squared(self):
        # Tiny n fails the transfer condition 1/a <= log(n/delta)/n.
        p = tr.SparseGParams.compute(256, 4, 0.99, 0.9)
        assert p.fallback
        assert p.b == 16

    def test_multi_block_structure(self):
        kind = tr.TransformKind("new-sparse-g", eps=0.99, delta=0.9)
        src = BitSource(11)
        t = tr.build(kind, 256, 4, src)
        params = t.factors["g_params"]
        assert params.b < 256
        dense = tr.realize_dense(t)
        x = BitSource(12).draw_gaussian(256)
        assert np.abs(tr.apply(t, x) - dense @ x).max() < 1e-10


class TestAttackTargetRecipes:
    def test_hash_column_sparsity_one(self):
        t = tr.build("hash-sparse", 32, 4, BitSource(7))
        h = t.factors["hash"]
        d = t.factors["hash_signs"]
        # realized H factor: column j has a single nonzero d_j at row h(j)
        hmat = np.zeros((4, 32))
        hmat[h, np.arange(32)] = d
        assert np.count_nonzero(hmat, axis=0).tolist() == [1] * 32

    def test_subsampled_rows_are_hadamard_combinations(self):
        n, r, bucket = 16, 2, 2
        src = BitSource(8)
        t = tr.build(tr.TransformKind("subsampled-hadamard", bucket=bucket), n, r, src)
        dense = tr.realize_dense(t)
        w = fwht_normalized(np.eye(n))
        rows = t.factors["rows"]
        sigma = t.factors["sigma"]
        scale = math.sqrt(n / (r * bucket))
        for b in range(r):
            expected = scale * sum(
                sigma[b, i] * w[rows[b * bucket + i]] for i in range(bucket)
            )
            assert np.abs(dense[b] - expected).max() < 1e-12

    def test_circulant_rows_are_shifted_convolutions(self):
        from fastjl.linalg import circular_convolve

        n, r = 16, 4
        t = tr.build("partial-circulant", n, r, BitSource(9))
        dense = tr.realize_dense(t)
        g = t.factors["generator"]
        signs = t.factors["signs"]
        for j in range(n):
            delta = np.zeros(n)
            delta[j] = signs[j]
            col = circular_convolve(g, delta)[:r] * t.scale
            assert np.abs(dense[:, j] - col).max() < 1e-12

    def test_fjlt_density(self):
        t = tr.build(tr.TransformKind("fjlt", p=0.25), 256, 8, BitSource(10))
        nnz = np.count_nonzero(t.factors["dense"])
        frac = nnz / t.factors["dense"].size
        assert abs(frac - 0.25) < 0.03


class TestIsometryInExpectation:
    @pytest.mark.parametrize(
        "tag", ["new-rademacher", "new-gaussian", "dense-gaussian", "achlioptas-dense"]
    )
    def test_mean_close_to_one(self, tag):
        # Quick version; the acceptance suite runs 10^4 seeds at (1024, 64).
        n, r, trials = 256, 8, 1500
        x = np.zeros(n)
        x[: math.isqrt(n)] = n**-0.25
        x /= np.linalg.norm(x)
        total = 0.0
        for i in range(trials):
            t = tr.build(tag, n, r, derive_stream(13, i))
            y = tr.apply(t, x)
            total += float(y @ y)
        assert abs(total / trials - 1.0) < 0.06


class TestTransposeApply:
    @pytest.mark.parametrize("tag", ["new-rademacher", "new-gaussian", "dense-gaussian"])
    def test_matches_dense_transpose(self, tag):
        t = tr.build(tag, 64, 4, BitSource(11))
        dense = tr.realize_dense(t)
        v = BitSource(12).draw_gaussian(4)
        assert np.abs(tr.apply_transpose_columns(t, v) - dense.T @ v).max() < 1e-10


class TestParseKind:
    def test_round_trips(self):
        assert tr.parse_kind("new-rademacher").tag == "new-rademacher"
        assert tr.parse_kind("fjlt:0.5").p == 0.5
        assert tr.parse_kind("subsampled-hadamard:4").bucket == 4
        assert tr.parse_kind("ailon-liberty:5").depth == 5
        k = tr.parse_kind("new-sparse-g:0.3,0.1")
        assert k.eps == 0.3 and k.delta == 0.1

    def test_rejects_unknown(self):
        with pytest.raises(ParameterRangeError):
            tr.parse_kind("mystery-transform")

    @pytest.mark.parametrize("text", ["fjlt:0.5", "fjlt", "new-sparse-g", "subsampled-hadamard:4"])
    def test_build_parses_kind_text(self, text):
        # build and apply_median_ns read a kind string as privacy and the
        # CLI do, parameters and defaults included.
        t = tr.build(text, 64, 8, BitSource(1), allow_large_r=True)
        same = tr.build(tr.parse_kind(text), 64, 8, BitSource(1), allow_large_r=True)
        assert t.kind == same.kind
        assert np.array_equal(tr.realize_dense(t), tr.realize_dense(same))
        assert len(tr.apply_median_ns(text, [64], 8, seed=1, reps=1, warmups=0)) == 1

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterRangeError):
            tr.TransformKind("fjlt", p=1.5)
        with pytest.raises(ParameterRangeError):
            tr.TransformKind("subsampled-hadamard", bucket=0)
