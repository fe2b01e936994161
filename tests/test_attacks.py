import dataclasses
import math

import numpy as np
import pytest

from fastjl import attacks as atk
from fastjl import privacy as pv
from fastjl import transforms as tr
from fastjl.errors import ContractError, ParameterRangeError
from fastjl.linalg import fwht_normalized
from fastjl.randomness import derive_stream


class TestPairs:
    def test_bounded_orthonormal_displayed_blocks(self):
        pair = atk.pair_bounded_orthonormal(16, 7.0)
        assert np.allclose(pair.a[:2, :2], [[7.0, 1.0], [0.0, 7.0]])
        assert np.allclose(pair.a_tilde[:2, :2], [[7.0, 1.0], [1.0, 7.0]])

    def test_bounded_orthonormal_difference(self):
        pair = atk.pair_bounded_orthonormal(16, 3.0)
        diff = pair.a_tilde - pair.a
        expected = np.zeros((16, 16))
        expected[1, 0] = 1.0
        assert np.array_equal(diff, expected)
        assert np.linalg.norm(diff) == 1.0

    def test_bounded_orthonormal_spectrum(self):
        from fastjl.linalg import spectral_extremes

        pair = atk.pair_bounded_orthonormal(16, 5.0)
        for m in (pair.a, pair.a_tilde):
            lo, _ = spectral_extremes(m)
            assert lo >= 5.0 - 1.0 - 1e-9

    def test_hadamard_pair_with_identity_signs(self):
        # W D A with all-plus D reduces to w I; the perturbed world shows
        # sqrt(2)/sqrt(n) at the (0, 1) slot.
        n, w = 16, 4.0
        pair = atk.pair_hadamard(n, w)
        wd_a = fwht_normalized(pair.a)
        wd_at = fwht_normalized(pair.a_tilde)
        assert np.allclose(wd_a[:2, :2], [[w, 0.0], [0.0, w]], atol=1e-12)
        assert wd_at[0, 1] == pytest.approx(math.sqrt(2.0) / math.sqrt(n))
        assert wd_at[1, 1] == pytest.approx(w)

    def test_pair_norm_one(self):
        for pair in (
            atk.pair_hadamard(16, 2.0),
            atk.pair_circulant(16, 2.0),
            atk.pair_iterated(16, 2.0, 3),
        ):
            _, hi = __import__("fastjl.linalg", fromlist=["spectral_extremes"]).spectral_extremes(
                pair.a_tilde - pair.a
            )
            assert hi == pytest.approx(1.0)

    def test_symmetric_variant_certificate(self):
        pair = atk.pair_hadamard(16, 2.0, symmetric=True)
        diff = pair.a_tilde - pair.a
        assert np.allclose(diff, diff.T)
        _, hi = __import__("fastjl.linalg", fromlist=["spectral_extremes"]).spectral_extremes(diff)
        assert hi <= 1.0 + 1e-12

    def test_iterated_unwinds_under_dense_composition(self):
        n = 16
        w = fwht_normalized(np.eye(n))
        pair = atk.pair_iterated(n, 2.0, 3)
        assert np.abs(pair.a - 2.0 * (w.T @ w.T @ w.T)).max() < 1e-12

    def test_iterated_needs_odd_depth(self):
        with pytest.raises(ParameterRangeError):
            atk.pair_iterated(16, 2.0, 2)

    @pytest.mark.parametrize(
        "target, name",
        [
            ("subsampled-hadamard:2", "bounded-orthonormal"),
            ("hash-sparse", "hadamard-hash"),
            ("partial-circulant", "circulant"),
            ("ailon-liberty:5", "iterated-l5"),
        ],
    )
    def test_pair_for_attacked_kind(self, target, name):
        pair = atk.pair_for(tr.parse_kind(target), 16, 3.0)
        assert pair.name == name and pair.w == 3.0

    def test_pair_for_unattacked_kind(self):
        assert atk.pair_for(tr.parse_kind("dense-gaussian"), 16, 3.0) is None

    def test_certificate_violation_detected(self):
        pair = atk.pair_hadamard(16, 2.0)
        with pytest.raises(ContractError):
            dataclasses.replace(pair, a_tilde=pair.a_tilde + 1e-6)


class TestDistinguisher:
    def test_deterministic(self):
        pair = atk.pair_hadamard(64, 10.0)
        t = atk._build_mechanism(pair.target_kind, 64, 16, derive_stream(3, 0))
        out = tr.apply_columns(t, pair.a_tilde[:, :2])
        probe = atk._default_probe(pair, 16)
        g1 = atk.distinguisher(out, pair, probe, 16)
        g2 = atk.distinguisher(out, pair, probe, 16)
        assert g1 == g2 == atk.GUESS_ATILDE

    def test_gaussian_output_abstains(self):
        pair = atk.pair_hadamard(64, 10.0)
        probe = atk._default_probe(pair, 16)
        for i in range(50):
            t = tr.build("dense-gaussian", 64, 16, derive_stream(5, i))
            out = tr.apply_columns(t, pair.a[:, :2])
            assert atk.distinguisher(out, pair, probe, 16) == atk.ABSTAIN


class TestRunAttack:
    def test_degenerate_pair_no_advantage(self):
        pair = atk.pair_hadamard(64, 10.0)
        degenerate = dataclasses.replace(
            pair, a_tilde=pair.a.copy(), v=np.zeros(64), name="degenerate"
        )
        rep = atk.run_attack(degenerate, 1000, seed=5)
        assert rep.advantage <= 0.01
        assert rep.wilson_ci[0] <= 0.0 <= rep.wilson_ci[1]

    def test_hash_attack_quick(self):
        rep = atk.run_attack(atk.pair_hadamard(64, 10.0), 1000, seed=2)
        assert rep.advantage >= 0.2
        assert rep.fired_tilde_on_A == 0

    def test_circulant_attack_quick(self):
        rep = atk.run_attack(atk.pair_circulant(64, 10.0), 1000, seed=3)
        assert rep.wilson_ci[0] > 0.01

    def test_npw_attack_quick(self):
        rep = atk.run_attack(atk.pair_bounded_orthonormal(64, 10.0), 4000, seed=1)
        assert rep.fired_tilde_on_A == 0
        assert 0.01 <= rep.advantage <= 0.07
        assert rep.predicted_rate == pytest.approx(2.0**-5)

    def test_iterated_attack_quick(self):
        rep = atk.run_attack(atk.pair_iterated(64, 10.0, 3), 4000, seed=4, r=16)
        assert rep.predicted_rate == pytest.approx(16 / 256)
        assert 0.02 <= rep.advantage <= 0.15

    def test_w_invariance(self):
        # pattern events do not look at magnitudes beyond exact lattice
        # relations, so rates agree across w within Monte-Carlo noise
        rates = []
        for w in (2.0, 10.0, 100.0):
            rep = atk.run_attack(atk.pair_iterated(64, w, 3), 2000, seed=42)
            rates.append(rep.advantage)
        assert max(rates) - min(rates) < 0.03
        for w in (2.0, 10.0, 100.0):
            rep = atk.run_attack(atk.pair_hadamard(64, w), 1000, seed=43)
            assert rep.advantage > 0.9

    def test_trial_floor(self):
        with pytest.raises(ParameterRangeError):
            atk.run_attack(atk.pair_hadamard(64, 2.0), 10, seed=1)


class TestGaussianControl:
    PARAMS = pv.DpParams(alpha=1.0, beta=0.1, r=16)

    def _pair(self):
        w = math.ceil(pv.w_threshold(1.0, 0.1, 16)) + 1.0
        return atk.pair_hadamard(64, w)

    def test_no_event_fires(self):
        rep = atk.gaussian_control(self._pair(), "dense-gaussian", self.PARAMS, 500, seed=6)
        assert rep.fired_tilde_on_A == 0 and rep.fired_tilde_on_Atilde == 0
        assert rep.abstain_rate_A == 1.0 and rep.abstain_rate_Atilde == 1.0
        assert rep.wilson_ci[0] <= 0.0 <= rep.wilson_ci[1]

    def test_new_gaussian_control(self):
        rep = atk.gaussian_control(self._pair(), "new-gaussian", self.PARAMS, 500, seed=7)
        assert rep.fired_tilde_on_A == 0 and rep.fired_tilde_on_Atilde == 0

    def test_low_w_rejected(self):
        pair = atk.pair_hadamard(64, 2.0)
        with pytest.raises(pv.PrivacyPreconditionError):
            atk.gaussian_control(pair, "dense-gaussian", self.PARAMS, 500, seed=8)

    def test_sign_entried_mechanism_rejected(self):
        with pytest.raises(ContractError):
            atk.gaussian_control(self._pair(), "hash-sparse", self.PARAMS, 500, seed=9)
