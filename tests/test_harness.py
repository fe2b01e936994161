import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastjl import harness as hz
from fastjl import transforms
from fastjl.errors import ContractError, DimensionError, ParameterRangeError
from fastjl.linalg import fwht_normalized
from fastjl.randomness import BitSource, derive_stream
from fastjl.reports import wilson_ci_95


class TestFamilies:
    def test_constant_n4(self):
        v = hz.make_family_vector("constant", 4, BitSource(1))
        assert np.allclose(v, 0.5)

    def test_spike_n16(self):
        v = hz.make_family_vector("spike", 16, BitSource(1))
        assert np.count_nonzero(v) == 4
        assert np.allclose(v[v != 0], 0.5)

    @pytest.mark.parametrize("family", hz.FAMILIES)
    def test_unit_norm(self, family):
        for n in (8, 64, 1024):
            v = hz.make_family_vector(family, n, BitSource(3))
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_unknown_family(self):
        with pytest.raises(ParameterRangeError):
            hz.make_family_vector("bogus", 8, BitSource(1))


class TestChunkedTrials:
    """The chunked block-kind loops against the per-trial reference.

    Trial counts that are not a multiple of the chunk leave a short last
    chunk; n = 16 leaves the sign bits mid-word.
    """

    @pytest.mark.parametrize("tag", ["new-rademacher", "new-gaussian"])
    @pytest.mark.parametrize(
        "n, r, family",
        [(16, 4, "random-unit"), (64, 8, "basis"), (128, 16, "spike"), (256, 4, "constant")],
    )
    def test_jlp_distortions_equal_per_trial(self, tag, n, r, family):
        trials = 2 * hz._CHUNK + 3
        for seed in (1, 2):
            chunked = hz._block_distortions(tag, n, r, family, trials, seed)
            reference = hz._trial_distortions(
                transforms.parse_kind(tag), n, r, family, trials, seed
            )
            assert chunked.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("family", ["random-unit", "basis"])
    def test_block_sq_norms_equal_per_trial(self, family):
        n, r, trials, seed = 64, 4, hz._CHUNK + 5, 9
        reference = np.empty((trials, r))
        for i in range(trials):
            src = derive_stream(seed, i)
            signs = src.draw_rademacher(n).astype(float)
            perm = src.sample_permutation(n)
            x = hz.make_family_vector(family, n, src)
            y = fwht_normalized(signs * x)[perm]
            reference[i] = (y.reshape(r, n // r) ** 2).sum(axis=1)
        got = hz._block_sq_norms(n, r, trials, seed, family)
        assert got.tobytes() == reference.tobytes()

    def test_infinity_norm_equals_per_trial(self):
        n, delta, trials, seed = 32, 0.1, hz._CHUNK + 7, 4
        maxima = np.empty(trials)
        for i in range(trials):
            src = derive_stream(seed, i)
            signs = src.draw_rademacher(n).astype(float)
            x = hz.make_family_vector("random-unit", n, src)
            maxima[i] = np.max(np.abs(fwht_normalized(signs * x)))
        curve = hz.infinity_norm_check(n, delta, trials, "random-unit", seed)
        expected = [float(np.mean(maxima > rho)) for rho in curve.thresholds]
        assert curve.empirical_exceedance == expected

    def test_errors_match_per_trial(self):
        for args, error in [
            (("new-gaussian", 12, 4, "basis"), DimensionError),
            (("new-gaussian", 16, 3, "basis"), DimensionError),
            (("new-rademacher", 16, 0, "basis"), ParameterRangeError),
            (("new-rademacher", 16, 4, "bogus"), ParameterRangeError),
        ]:
            with pytest.raises(error):
                hz.jlp_failure_rate(*args[:3], 0.5, args[3], 1000, 1)


class TestChiSquareOracle:
    def test_two_degrees_closed_form(self):
        # chi2_2 tails are plain exponentials, an independent cross-check
        for eps in (0.3, 0.7, 1.5):
            upper = math.exp(-(1.0 + eps))
            lower = (1.0 - math.exp(-(1.0 - eps) / 1.0)) if eps < 1 else 0.0
            expected = upper + lower
            assert hz.chi_square_interval_tail(2, eps) == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_eps(self):
        tails = [hz.chi_square_interval_tail(64, e) for e in (0.1, 0.3, 0.5, 1.0)]
        assert all(a > b for a, b in zip(tails, tails[1:]))


class TestJlpFailureRate:
    def test_huge_epsilon_never_fails(self):
        # ||Phi x||^2 <= t = n/r deterministically for the sign-block
        # construction, so distortion can never reach 10 at t = 8.
        rep = hz.jlp_failure_rate(
            "new-rademacher", 64, 8, 10.0, "random-unit", 1000, seed=5
        )
        assert rep.failure_count == 0
        assert rep.wilson_ci_95[0] == 0.0

    def test_trial_floor(self):
        with pytest.raises(ParameterRangeError):
            hz.jlp_failure_rate("new-rademacher", 64, 4, 0.5, "random-unit", 10, seed=1)

    def test_dense_matches_chi_square_tail(self):
        # Self-calibration at desk scale; the acceptance suite repeats this
        # at (1024, 64, 0.5) with 10^5 trials.
        rep = hz.jlp_failure_rate(
            "dense-gaussian", 256, 16, 0.5, "random-unit", 4000, seed=21
        )
        exact = hz.chi_square_interval_tail(16, 0.5)
        lo, hi = rep.wilson_ci_95
        assert lo <= exact <= hi

    def test_quantiles_nondecreasing(self):
        rep = hz.jlp_failure_rate(
            "new-gaussian", 256, 8, 0.5, "random-unit", 1000, seed=7
        )
        q = rep.distortion_quantiles
        assert q["50"] <= q["90"] <= q["99"] <= q["max"]


class TestInfinityNorm:
    def test_basis_vectors_are_flat(self):
        # Any Hadamard column has |entries| = 1/sqrt(n) exactly, below the
        # quoted threshold whenever delta < n/e.
        tc = hz.infinity_norm_check(64, 0.05, 200, "basis", seed=3)
        pivot_idx = tc.thresholds.index(tc.meta["pivot"])
        assert tc.empirical_exceedance[pivot_idx] == 0.0

    def test_constant_family_respects_union_bound(self):
        tc = hz.infinity_norm_check(1024, 0.01, 4000, "constant", seed=51)
        for emp, bound in zip(tc.empirical_exceedance, tc.bound_values):
            if bound < 0.5:
                assert emp <= bound
        rig_idx = tc.thresholds.index(tc.meta["rigorous_threshold"])
        assert tc.empirical_exceedance[rig_idx] <= 0.01

    def test_spike_family(self):
        tc = hz.infinity_norm_check(4096, 0.05, 2000, "spike", seed=61)
        pivot_idx = tc.thresholds.index(tc.meta["pivot"])
        # Monte-Carlo: exceedance at the quoted threshold stays below delta
        assert tc.empirical_exceedance[pivot_idx] <= 0.05

    def test_curve_nonincreasing(self):
        tc = hz.infinity_norm_check(256, 0.05, 500, "random-unit", seed=13)
        emp = tc.empirical_exceedance
        assert all(a >= b for a, b in zip(emp, emp[1:]))


class TestBlockNorm:
    def test_single_block_is_exact(self):
        # r = 1 keeps the whole unitary image: zero exceedance, any seed
        for seed in (1, 2, 3):
            tc = hz.block_norm_check(256, 1, 0.25, 100, seed=seed)
            assert all(e == 0.0 for e in tc.empirical_exceedance)

    def test_exceedance_below_overlay(self):
        tc = hz.block_norm_check(4096, 16, 0.5, 1000, seed=31)
        idx = tc.thresholds.index(0.5)
        assert tc.empirical_exceedance[idx] <= tc.bound_values[idx]

    def test_monotone_in_r(self):
        # more blocks => worse worst-block, checked where rates are visible
        t16 = hz.block_norm_check(4096, 16, 0.2, 1000, seed=81)
        t64 = hz.block_norm_check(4096, 64, 0.2, 1000, seed=81)
        idx = t16.thresholds.index(0.2)
        assert t64.empirical_exceedance[idx] > t16.empirical_exceedance[idx]

    def test_r_must_divide(self):
        with pytest.raises(Exception):
            hz.block_norm_check(64, 3, 0.5, 100, seed=1)


class TestBlockNonzero:
    def test_theta_zero_never_fires(self):
        tc = hz.block_nonzero_check(256, 4, 0.0, 200, seed=4)
        idx = tc.thresholds.index(0.0)
        assert tc.empirical_exceedance[idx] == 0.0

    def test_small_theta_no_failures(self):
        tc = hz.block_nonzero_check(1024, 8, 0.1, 1000, seed=41)
        idx = tc.thresholds.index(0.1)
        assert tc.empirical_exceedance[idx] == 0.0

    def test_large_theta_small_n_reports_nonzero(self):
        tc = hz.block_nonzero_check(64, 8, 0.99, 1000, seed=42)
        assert tc.empirical_exceedance[tc.thresholds.index(0.99)] > 0.0

    def test_theta_range(self):
        with pytest.raises(ParameterRangeError):
            hz.block_nonzero_check(64, 8, 1.5, 100, seed=1)


class TestBlockSpectral:
    def test_restricted_gram_concentrates(self):
        # (4096, 16): the 16-column slice of the rescaled block Gram stays
        # within 0.75 of the identity for at least 95 of 100 seeds.
        vals = hz.block_spectral_check(4096, 16, 16, 100, seed=12)
        assert np.mean(vals <= 0.75) >= 0.95

    def test_cols_capped_by_block_length(self):
        with pytest.raises(ParameterRangeError):
            hz.block_spectral_check(64, 8, 16, 1, seed=1)


class TestHansonWright:
    def test_zero_matrix(self):
        tc = hz.hanson_wright_check(np.zeros((4, 4)), 50, "gaussian", seed=1)
        assert all(e == 0.0 for e in tc.empirical_exceedance[1:])

    def test_identity_chi_square_moments(self):
        n, trials = 64, 10**5
        samples = np.empty(trials)
        from fastjl.randomness import derive_stream

        for i in range(trials):
            g = derive_stream(15, i).draw_gaussian(n)
            samples[i] = g @ g
        assert abs(samples.mean() - 64.0) < 0.5
        assert abs(samples.var() - 128.0) < 6.0

    def test_rademacher_cross_term_exhaustive(self):
        a = np.zeros((2, 2))
        a[0, 1] = a[1, 0] = 1.0
        # |g^T A g| = |2 g1 g2| = 2 for every sign pattern
        tc = hz.hanson_wright_check(a, 200, "rademacher", seed=2)
        assert tc.meta["trace"] == 0.0
        for th, emp in zip(tc.thresholds, tc.empirical_exceedance):
            assert emp == (1.0 if th < 2.0 else 0.0)

    def test_bound_dominates_empirical(self):
        a = np.eye(32)
        tc = hz.hanson_wright_check(a, 4000, "gaussian", seed=3)
        for emp, bound in zip(tc.empirical_exceedance, tc.bound_values):
            assert emp <= bound + 0.02

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            hz.hanson_wright_check(np.array([[0.0, 1.0], [0.0, 0.0]]), 10, "gaussian", 1)

    def test_ci_halves_when_trials_quadruple(self):
        lo1, hi1 = wilson_ci_95(50, 1000)
        lo2, hi2 = wilson_ci_95(200, 4000)
        assert (hi2 - lo2) < 0.6 * (hi1 - lo1)


class TestBoundEvaluators:
    def test_hoeffding_value(self):
        assert hz.hoeffding_bound(0.1, 1000, 1.0) == pytest.approx(
            2.0 * math.exp(-20.0), rel=1e-12
        )

    def test_serfling_sharper_and_full_sample_factor(self):
        h = hz.hoeffding_bound(0.1, 50, 1.0)
        s = hz.serfling_bound(0.1, 50, 50, 1.0)
        assert s < h
        # f* at n = N is 1/N: exponent scales by N
        expected = 2.0 * math.exp(-2.0 * 0.01 * 50 * 50)
        assert s == pytest.approx(expected, rel=1e-12)

    def test_hw_bound_at_zero(self):
        assert hz.hw_bound(0.0, 1.0, 1.0, 0.5, 0.5) == 2.0

    def test_hw_fit_dominates_exact(self):
        c1, c2 = hz.fit_hw_constants(64)
        for eta in (5.0, 20.0, 64.0, 200.0):
            exact = hz.chi_square_interval_tail(64, eta / 64.0)
            assert hz.hw_bound(eta, 8.0, 1.0, c1, c2) >= exact

    @given(st.floats(0.01, 0.9), st.integers(2, 100))
    @settings(max_examples=30, deadline=None)
    def test_serfling_never_exceeds_hoeffding(self, eps, n):
        big_n = n * 3
        assert hz.serfling_bound(eps, n, big_n, 1.0) <= hz.hoeffding_bound(eps, n, 1.0)
