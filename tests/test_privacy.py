import dataclasses
import math

import numpy as np
import pytest

from fastjl import privacy as pv
from fastjl import transforms as tr
from fastjl.errors import ContractError, DimensionError, ParameterRangeError
from fastjl.errors import PrivacyPreconditionError
from fastjl.linalg import least_squares, spectral_extremes
from fastjl.randomness import BitSource, derive_stream

NONPRIVATE = pv.DpParams(alpha=math.inf, beta=0.1, r=256, w=0.0)


class TestThreshold:
    def test_three_formulas_hand_evaluated(self):
        alpha, beta, r = 1.0, 0.1, 64
        parts = pv.w_threshold_parts(alpha, beta, r)
        root = math.sqrt(16 * r * math.log(2 / beta))
        assert parts["first_moment"] == pytest.approx(math.log(4 / beta) * root)
        assert parts["second_moment"] == pytest.approx(
            16 * r * math.log(2 / beta) * math.log(4 / beta)
        )
        assert parts["streaming"] == pytest.approx(root * math.log(16 * r / beta))
        assert pv.w_threshold(alpha, beta, r) == max(parts.values())

    def test_vanishes_as_alpha_grows(self):
        assert pv.w_threshold(math.inf, 0.1, 64) == 0.0
        assert pv.w_threshold(1e9, 0.1, 64) < 1e-3

    def test_monotone_grid(self):
        rs = [4, 16, 64, 256]
        vals = [pv.w_threshold(1.0, 0.1, r) for r in rs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        alphas = [0.5, 1.0, 2.0, 4.0]
        vals = [pv.w_threshold(a, 0.1, 64) for a in alphas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_param_validation(self):
        with pytest.raises(ParameterRangeError):
            pv.w_threshold(0.0, 0.1, 4)
        with pytest.raises(ParameterRangeError):
            pv.DpParams(alpha=1.0, beta=1.5, r=4)


class TestLift:
    def test_zero_matrix_floor_exact(self):
        p = pv.DpParams(alpha=1.0, beta=0.1, r=4, lift=True, w=5.0)
        lifted = pv.lift_matrix(np.zeros((2, 2)), p)
        lo, _ = spectral_extremes(lifted)
        assert lo == pytest.approx(5.0, abs=1e-12)

    def test_bottom_block_preserves_input(self):
        a = BitSource(1).draw_gaussian(8).reshape(2, 4)
        p = pv.DpParams(alpha=1.0, beta=0.1, r=4, lift=True, w=3.0)
        lifted = pv.lift_matrix(a, p)
        assert np.array_equal(lifted[-2:, :], a)
        assert lifted.shape == (2 * (4 + 2), 4)

    def test_floor_fuzz(self):
        p = pv.DpParams(alpha=1.0, beta=0.1, r=16, lift=True)
        w = p.resolved_w()
        for s in range(100):
            rows = 2 + s % 4
            cols = 2 + (s * 7) % 5
            a = BitSource(1000 + s).draw_gaussian(rows * cols).reshape(rows, cols)
            a *= (s % 9) / 3.0  # include near-zero spectra
            lo, _ = spectral_extremes(pv.lift_matrix(a, p))
            assert lo >= w - 1e-9


class TestPublish:
    def test_rejects_low_spectrum_without_lift(self):
        p = pv.DpParams(alpha=1.0, beta=0.1, r=4)
        thr = pv.w_threshold(1.0, 0.1, 4)
        with pytest.raises(PrivacyPreconditionError) as exc:
            pv.publish_first_moment(np.eye(4) * thr / 2, p, seed=1)
        assert exc.value.sigma_min < exc.value.threshold

    def test_precondition_fuzz(self):
        # random low-spectrum matrices never leak through
        p = pv.DpParams(alpha=1.0, beta=0.1, r=4)
        thr = pv.w_threshold(1.0, 0.1, 4)
        rejected = 0
        for s in range(200):
            a = BitSource(500 + s).draw_gaussian(12).reshape(3, 4)
            a *= 0.9 * thr / max(spectral_extremes(a)[1], 1e-9)
            with pytest.raises(PrivacyPreconditionError):
                pv.publish_first_moment(a, p, seed=s)
            rejected += 1
        assert rejected == 200

    def test_sketch_is_frozen(self):
        p = pv.DpParams(alpha=1.0, beta=0.1, r=4, lift=True)
        sk = pv.publish_first_moment(np.eye(4), p, seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sk.lifted = False

    def test_accepts_high_spectrum_and_is_deterministic(self):
        p = pv.DpParams(alpha=1.0, beta=0.1, r=4)
        thr = pv.w_threshold(1.0, 0.1, 4)
        a = np.eye(4) * 2 * thr
        s1 = pv.publish_first_moment(a, p, seed=7)
        s2 = pv.publish_first_moment(a, p, seed=7)
        assert np.array_equal(s1.data, s2.data)
        assert s1.data.shape == (4, 4)

    def test_rejects_sign_entried_kinds(self):
        p = pv.DpParams(alpha=math.inf, beta=0.1, r=4, w=0.0)
        for bad in ("new-rademacher", "achlioptas-dense", "hash-sparse"):
            with pytest.raises(ContractError):
                pv.publish_first_moment(np.eye(4), p, seed=1, kind=bad)

    def test_lift_below_threshold_rejected(self):
        p = pv.DpParams(alpha=1.0, beta=0.1, r=4, lift=True, w=1.0)
        with pytest.raises(PrivacyPreconditionError):
            pv.publish_first_moment(np.eye(4), p, seed=1)

    def test_first_moment_column_energy(self):
        # E||column||^2 of w Phi e_a is w^2 under the scaling convention
        p = pv.DpParams(alpha=1.0, beta=0.1, r=16)
        w = 2.0 * pv.w_threshold(1.0, 0.1, 16)
        a = np.eye(8) * w
        total = 0.0
        for s in range(300):
            sk = pv.publish_first_moment(a, p, seed=s, kind="dense-gaussian")
            total += float(np.mean((sk.data**2).sum(axis=0)))
        assert abs(total / 300 / w**2 - 1.0) < 0.05

    def test_second_moment_shape_and_determinism(self):
        p = pv.DpParams(alpha=1.0, beta=0.1, r=4)
        thr = pv.w_threshold(1.0, 0.1, 4)
        a = BitSource(3).draw_gaussian(12).reshape(3, 4) + 2 * thr * np.eye(3, 4)
        sk1 = pv.publish_second_moment(a, p, seed=5)
        sk2 = pv.publish_second_moment(a, p, seed=5)
        assert sk1.data.shape == (4, 3)
        assert np.array_equal(sk1.data, sk2.data)

    def test_second_moment_gram_identity_in_expectation(self):
        # mean of Phi^T Phi over seeds is the identity, entrywise within 5
        # standard errors
        n, r, seeds = 16, 8, 300
        acc = np.zeros((n, n))
        for s in range(seeds):
            t = tr.build("new-gaussian", n, r, BitSource(s), allow_large_r=True)
            acc += tr.apply_transpose_columns(t, tr.apply_columns(t, np.eye(n)))
        mean = acc / seeds
        err = np.abs(mean - np.eye(n))
        se = math.sqrt(2.0 / r) / math.sqrt(seeds)
        assert err.max() < 5 * max(se, 1.0 / math.sqrt(r * seeds)) + 0.05


class TestCovariance:
    def test_zero_direction(self):
        sk = pv.publish_first_moment(
            np.eye(4), NONPRIVATE, seed=1, kind="dense-gaussian"
        )
        assert pv.covariance_query(sk, np.zeros(4)) == 0.0

    def test_dimension_check(self):
        sk = pv.publish_first_moment(
            np.eye(4), NONPRIVATE, seed=1, kind="dense-gaussian"
        )
        with pytest.raises(DimensionError):
            pv.covariance_query(sk, np.zeros(5))

    def test_nonprivate_accuracy(self):
        p = pv.DpParams(alpha=math.inf, beta=0.1, r=512, w=0.0)
        a = BitSource(6).draw_gaussian(8 * 64).reshape(8, 64)
        sk = pv.publish_first_moment(a, p, seed=3, kind="dense-gaussian")
        gram = a @ a.T
        errs = []
        for i in range(100):
            u = BitSource(100 + i).draw_gaussian(8)
            u /= np.linalg.norm(u)
            exact = float(u @ gram @ u)
            errs.append(abs(pv.covariance_query(sk, u) - exact) / exact)
        assert np.quantile(errs, 0.9) <= 0.3

    def test_error_shrinks_as_r_grows(self):
        a = BitSource(16).draw_gaussian(8 * 64).reshape(8, 64)
        gram = a @ a.T

        def median_err(r):
            errs = []
            for s in range(50):
                p = pv.DpParams(alpha=math.inf, beta=0.1, r=r, w=0.0)
                sk = pv.publish_first_moment(a, p, seed=s, kind="dense-gaussian")
                u = derive_stream(17, s).draw_gaussian(8)
                u /= np.linalg.norm(u)
                exact = float(u @ gram @ u)
                errs.append(abs(pv.covariance_query(sk, u) - exact) / exact)
            return float(np.median(errs))

        assert median_err(128) / median_err(512) >= 1.5

    def test_lifted_identity_contribution(self):
        p = pv.DpParams(alpha=1.0, beta=0.05, r=256, lift=True)
        a = BitSource(7).draw_gaussian(16).reshape(4, 4)
        sk = pv.publish_first_moment(a, p, seed=4, kind="dense-gaussian")
        w = p.resolved_w()
        gram = a @ a.T
        for i in range(4):
            u = np.zeros(4)
            u[i] = 1.0
            exact_lifted = w * w + gram[i, i]
            est = pv.covariance_query(sk, u)
            assert abs(est - exact_lifted) < 0.5 * exact_lifted
            assert est > 0.25 * w * w  # the w^2 u_i^2 term is present


class TestCut:
    TRIANGLE = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]

    def test_exact_cut_examples(self):
        assert pv.exact_cut(self.TRIANGLE, 3, []) == 0.0
        assert pv.exact_cut(self.TRIANGLE, 3, [0]) == 2.0
        assert pv.exact_cut(self.TRIANGLE, 3, [0, 1, 2]) == 0.0

    def test_edge_matrix_rejects_self_loops(self):
        with pytest.raises(ContractError):
            pv.graph_edge_matrix([(1, 1, 1.0)], 4, NONPRIVATE)

    def test_unlifted_edge_matrix_reproduces_cuts(self):
        p = pv.DpParams(alpha=math.inf, beta=0.1, r=4, w=0.0)
        e = pv.graph_edge_matrix(self.TRIANGLE, 3, p)
        ind = np.array([1.0, 0.0, 0.0])
        assert float(np.sum((e @ ind) ** 2)) == pytest.approx(2.0)

    def test_empty_set(self):
        cs = pv.cut_sketch(self.TRIANGLE, 4, NONPRIVATE, seed=5, kind="dense-gaussian")
        assert pv.cut_query(cs, []) == 0.0

    def test_nonprivate_estimate_close(self):
        cs = pv.cut_sketch(self.TRIANGLE, 4, NONPRIVATE, seed=5, kind="dense-gaussian")
        assert abs(pv.cut_query(cs, [0]) - 2.0) < 0.5

    def test_private_error_grows_with_set_size(self):
        # |S|-scaling shape check on G(32, 1/2); constants are reported,
        # not asserted.
        n = 32
        edges = []
        rng = BitSource(77)
        bits = rng.draw_rademacher(n * (n - 1) // 2)
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                if bits[k] > 0:
                    edges.append((i, j, 1.0))
                k += 1
        params = pv.DpParams(alpha=1.0, beta=0.1, r=256)
        cs = pv.cut_sketch(edges, n, params, seed=9, kind="dense-gaussian")
        medians = []
        for size in (2, 4, 8, 16):
            errs = []
            for q in range(60):
                picks = derive_stream(33, size * 1000 + q).sample_permutation(n)[:size]
                est = pv.cut_query(cs, picks.tolist())
                exact = pv.exact_cut(edges, n, picks.tolist())
                errs.append(abs(est - exact))
            medians.append(float(np.median(errs)))
        assert all(m < math.inf for m in medians)
        assert medians[-1] > medians[0]


class TestStreamSketches:
    def test_mm_no_updates_is_zero(self):
        sk = pv.mm_sketch_init(NONPRIVATE, 4, 4, seed=1, kind="dense-gaussian")
        assert np.allclose(pv.mm_query(sk), 0.0)

    def test_mm_identity_product(self):
        sk = pv.mm_sketch_init(NONPRIVATE, 8, 8, seed=6, kind="dense-gaussian")
        for c in range(8):
            e = np.zeros(8)
            e[c] = 1.0
            pv.mm_sketch_update(sk, "A", c, e)
            pv.mm_sketch_update(sk, "B", c, e)
        assert np.abs(pv.mm_query(sk) - np.eye(8)).max() < 0.25

    def test_mm_replacement_semantics(self):
        sk = pv.mm_sketch_init(NONPRIVATE, 4, 4, seed=2, kind="dense-gaussian")
        pv.mm_sketch_update(sk, "A", 1, np.ones(4))
        pv.mm_sketch_update(sk, "B", 1, np.ones(4))
        first = pv.mm_query(sk)[1, 1]
        pv.mm_sketch_update(sk, "A", 1, np.zeros(4))
        assert abs(first - 4.0) < 2.0
        assert pv.mm_query(sk)[1, 1] == 0.0

    def test_mm_bad_side_and_index(self):
        sk = pv.mm_sketch_init(NONPRIVATE, 4, 4, seed=2, kind="dense-gaussian")
        with pytest.raises(ParameterRangeError):
            pv.mm_sketch_update(sk, "C", 0, np.ones(4))
        with pytest.raises(DimensionError):
            pv.mm_sketch_update(sk, "A", 9, np.ones(4))
        with pytest.raises(DimensionError):
            pv.mm_sketch_update(sk, "A", 0, np.ones((4, 1)))

    def test_sides_share_one_setup(self):
        sk = pv.mm_sketch_init(NONPRIVATE, 2, 3, seed=2, kind="dense-gaussian")
        assert sk.setup is None and sk.e_dim == 3
        pv.mm_sketch_update(sk, "B", 2, np.ones(5))
        n_rows, t = sk.setup
        pv.mm_sketch_update(sk, "A", 0, np.ones(5))
        assert n_rows == 5 and sk.setup[1] is t
        with pytest.raises(DimensionError):
            pv.mm_sketch_update(sk, "A", 1, np.ones(4))

    def test_failed_first_column_leaves_sketch_unset(self):
        # r=3 does not divide the padded height, so the first build fails.
        p = pv.DpParams(alpha=1.0, beta=0.1, r=3, lift=True)
        sk = pv.lr_sketch_init(p, 2, seed=1, kind="new-gaussian")
        with pytest.raises(DimensionError) as first:
            pv.lr_update(sk, 0, np.ones(4))
        with pytest.raises(DimensionError) as second:
            pv.lr_update(sk, 1, np.ones(4))
        assert str(second.value) == str(first.value)
        with pytest.raises(ContractError):
            pv.lr_query(sk, np.ones(4))
        mm = pv.mm_sketch_init(p, 2, 2, seed=1, kind="new-gaussian")
        for side in ("A", "B"):
            with pytest.raises(DimensionError, match="r=3 does not divide"):
                pv.mm_sketch_update(mm, side, 0, np.ones(4))
        assert sk.setup is None and mm.setup is None

    def test_lr_identity_recovers_b(self):
        sk = pv.lr_sketch_init(NONPRIVATE, 8, seed=7, kind="dense-gaussian")
        for c in range(8):
            e = np.zeros(8)
            e[c] = 1.0
            pv.lr_update(sk, c, e)
        b = BitSource(8).draw_gaussian(8)
        assert np.abs(pv.lr_query(sk, b) - b).max() < 1e-6

    def test_lr_residual_competitive(self):
        ratios = []
        for s in range(50):
            a = BitSource(1000 + s).draw_gaussian(64 * 8).reshape(64, 8)
            b = BitSource(2000 + s).draw_gaussian(64)
            sk = pv.lr_sketch_init(NONPRIVATE, 8, seed=3000 + s, kind="dense-gaussian")
            for c in range(8):
                pv.lr_update(sk, c, a[:, c])
            xh = pv.lr_query(sk, b)
            xstar = least_squares(a, b)
            ratios.append(
                np.linalg.norm(a @ xh - b) / np.linalg.norm(a @ xstar - b)
            )
        assert np.quantile(ratios, 0.9) <= 1.5

    def test_lr_query_requires_columns(self):
        sk = pv.lr_sketch_init(NONPRIVATE, 4, seed=1, kind="dense-gaussian")
        with pytest.raises(ContractError):
            pv.lr_query(sk, np.zeros(4))

    @pytest.mark.parametrize("query_index", [99, -1])
    def test_lr_query_index_out_of_range(self, query_index):
        sk = pv.lr_sketch_init(NONPRIVATE, 2, seed=1, kind="dense-gaussian")
        pv.lr_update(sk, 0, np.ones(4))
        with pytest.raises(DimensionError):
            pv.lr_query(sk, np.ones(4), query_index=query_index)

    def test_private_lr_deterministic(self):
        p = pv.DpParams(alpha=1.0, beta=0.1, r=64, lift=True)
        outs = []
        for _ in range(2):
            sk = pv.lr_sketch_init(p, 4, seed=11, kind="new-gaussian")
            for c in range(4):
                col = BitSource(40 + c).draw_gaussian(8)
                pv.lr_update(sk, c, col)
            outs.append(pv.lr_query(sk, BitSource(50).draw_gaussian(8)))
        assert np.array_equal(outs[0], outs[1])

    def test_stream_lift_below_threshold_rejected(self):
        # The floor a lifted publication checks holds for stream sketches,
        # which always lift.
        p = pv.DpParams(alpha=1.0, beta=0.1, r=16, lift=True, w=1.0)
        with pytest.raises(PrivacyPreconditionError):
            pv.publish_first_moment(np.eye(4), p, seed=1)
        with pytest.raises(PrivacyPreconditionError):
            pv.mm_sketch_init(p, 4, 3, seed=13, kind="new-gaussian")
        with pytest.raises(PrivacyPreconditionError):
            pv.lr_sketch_init(p, 4, seed=13, kind="dense-gaussian")

    def test_streaming_equals_batch_bit_for_bit(self):
        p = pv.DpParams(alpha=1.0, beta=0.1, r=64, lift=True)
        a = BitSource(9).draw_gaussian(6 * 4).reshape(6, 4)
        sk = pv.mm_sketch_init(p, 4, 4, seed=11, kind="new-gaussian")
        for c in range(4):
            pv.mm_sketch_update(sk, "A", c, a[:, c])
        batch = pv.publish_first_moment(a.T, p, seed=11, kind="new-gaussian")
        assert np.array_equal(sk.y_a, batch.data)


class TestCompose:
    def test_zero_mechanisms(self):
        assert pv.compose_privacy(0, 0.1, 0.01, 0.02) == (0.0, 0.02)

    def test_hand_evaluated_grid(self):
        grid = [
            (1, 0.1, 0.01, 0.01),
            (2, 0.2, 0.02, 0.05),
            (5, 0.05, 0.001, 0.1),
            (10, 0.3, 0.05, 0.02),
            (64, 0.01, 0.001, 0.001),
        ]
        for ell, a0, b0, bp in grid:
            alpha, beta = pv.compose_privacy(ell, a0, b0, bp)
            expect_alpha = math.sqrt(2 * ell * math.log(1 / bp)) * a0 + 2 * ell * a0 * a0
            assert abs(alpha - expect_alpha) < 1e-12
            assert abs(beta - (ell * b0 + bp)) < 1e-12

    def test_monotone_in_ell(self):
        vals = [pv.compose_privacy(ell, 0.1, 0.01, 0.01)[0] for ell in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_checks(self):
        with pytest.raises(ParameterRangeError):
            pv.compose_privacy(2, 1.5, 0.01, 0.01)
        with pytest.raises(ParameterRangeError):
            pv.compose_privacy(2, 0.1, 0.01, 0.0)
