"""Acceptance suite: one test per criterion, each printing a PASS line.

Every run is seeded and deterministic; tolerances are stated inline.
Run with `pytest tests/test_acceptance.py -v -s` (or scripts/run_acceptance.py)
to see the per-criterion lines.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fastjl import attacks as atk
from fastjl import harness as hz
from fastjl import privacy as pv
from fastjl import rip
from fastjl import transforms as tr
from fastjl.errors import PrivacyPreconditionError
from fastjl.linalg import fwht_normalized, spectral_extremes
from fastjl.randomness import derive_stream

SEED = 2024


def _report(tag, detail, t0):
    print(f"\nACCEPTANCE {tag} PASS ({time.time() - t0:.1f}s): {detail}")


def test_c01_unitarity_and_involution():
    t0 = time.time()
    worst_inv = worst_norm = 0.0
    for log_n in range(1, 17):
        n = 1 << log_n
        src = derive_stream(SEED, log_n)
        x = src.draw_gaussian(n * 100).reshape(n, 100)
        signs = src.draw_rademacher(n).astype(float)
        y = fwht_normalized(x)
        worst_inv = max(worst_inv, float(np.abs(fwht_normalized(y) - x).max()))
        wdx = fwht_normalized(x * signs[:, None])
        norms_in = np.linalg.norm(x, axis=0)
        norms_out = np.linalg.norm(wdx, axis=0)
        worst_norm = max(worst_norm, float(np.abs(norms_out - norms_in).max()))
    assert worst_inv < 1e-10
    assert worst_norm < 1e-10
    _report("C1", f"involution err {worst_inv:.2e}, norm err {worst_norm:.2e}", t0)


def test_c02_dense_oracle_equivalence():
    t0 = time.time()
    kinds = [
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
    worst = 0.0
    for n in (16, 64, 256):
        r = max(2, math.isqrt(n) // 2)
        xs = derive_stream(SEED, n).draw_gaussian(n * 100).reshape(n, 100)
        for idx, kind in enumerate(kinds):
            t = tr.build(kind, n, r, derive_stream(SEED, 7 * n + idx))
            dense = tr.realize_dense(t)
            diff = np.abs(tr.apply_columns(t, xs) - dense @ xs).max()
            worst = max(worst, float(diff))
    assert worst < 1e-10
    _report("C2", f"{len(kinds)} kinds x 3 sizes, worst apply/dense gap {worst:.2e}", t0)


def test_c03_isometry_in_expectation():
    t0 = time.time()
    n, r, trials = 1024, 64, 10**4
    results = {}
    for tag in ("new-gaussian", "new-rademacher"):
        for family in hz.FAMILIES:
            total = 0.0
            for i in range(trials):
                src = derive_stream(SEED + 1, i)
                t = tr.build(tag, n, r, src, allow_large_r=True)
                x = hz.make_family_vector(family, n, src)
                y = tr.apply(t, x)
                total += float(y @ y)
            mean = total / trials
            results[(tag, family)] = mean
            assert 0.99 <= mean <= 1.01, (tag, family, mean)
    spread = max(results.values()) - min(results.values())
    _report("C3", f"8 kind/family means all in [0.99, 1.01] (spread {spread:.4f})", t0)


def test_c04_jlp_failure_rate_vs_chi_square():
    t0 = time.time()
    n, r, eps, trials = 1024, 64, 0.5, 10**5
    dense = hz.jlp_failure_rate(
        "dense-gaussian", n, r, eps, "random-unit", trials, seed=SEED + 2
    )
    exact = hz.chi_square_interval_tail(r, eps)
    lo, hi = dense.wilson_ci_95
    assert lo <= exact <= hi, (dense.failure_rate, exact, dense.wilson_ci_95)
    newg = hz.jlp_failure_rate(
        "new-gaussian", n, r, eps, "random-unit", trials, seed=SEED + 2
    )
    assert newg.failure_rate <= 2.0 * dense.failure_rate, (
        newg.failure_rate,
        dense.failure_rate,
    )
    _report(
        "C4",
        f"dense {dense.failure_rate:.5f} (chi2 tail {exact:.5f} in CI), "
        f"new-gaussian {newg.failure_rate:.5f} <= 2x",
        t0,
    )


def test_c05_random_bit_budget():
    t0 = time.time()
    n, r = 1024, 16
    perm_bits = []
    for s in range(100):
        src = derive_stream(SEED + 3, s)
        t = tr.build("new-rademacher", n, r, src)
        assert t.draw_counts["signs"] == n
        assert t.draw_counts["projection"] == n
        perm_bits.append(t.draw_counts["permutation"])
        assert src.gaussian_samples_consumed == 0
    budget = 1.2 * n * math.ceil(math.log2(n))
    mean_bits = float(np.mean(perm_bits))
    assert mean_bits <= budget
    _report(
        "C5",
        f"signs+projection exactly 2n bits; perm bits mean {mean_bits:.0f} "
        f"<= budget {budget:.0f}",
        t0,
    )


def _bench_apply_one_thread(tag, sizes, r):
    """transforms.apply_median_ns in a fresh interpreter with BLAS pinned
    to one thread.

    OpenBLAS picks its gemv thread count by size (one thread at n=4096, two
    at n=8192 on a 2-core machine), which would time the thread switch
    rather than the apply; the count is fixed before numpy loads.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(Path(tr.__file__).parents[1]), env.get("PYTHONPATH", "")])
    code = (
        "import json; from fastjl import transforms; "
        f"print(json.dumps(transforms.apply_median_ns({tag!r}, {sizes!r}, {r}, {SEED + 4})))"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_c06_runtime_scaling():
    t0 = time.time()
    sizes = [1 << k for k in range(12, 17)]
    fast = _bench_apply_one_thread("new-rademacher", sizes, 64)
    fast_ratios = [fast[i + 1] / fast[i] for i in range(len(fast) - 1)]
    assert max(fast_ratios) <= 2.8, fast_ratios
    dense = _bench_apply_one_thread("dense-gaussian", sizes, 64)
    dense_ratios = [dense[i + 1] / dense[i] for i in range(len(dense) - 1)]
    # single steps wobble across cache boundaries; linear total work shows
    # in the geometric mean of the doubling ratios
    geomean = float(np.exp(np.mean(np.log(dense_ratios))))
    assert geomean >= 1.9, dense_ratios
    _report(
        "C6",
        f"new-rademacher ratios {['%.2f' % x for x in fast_ratios]} <= 2.8; "
        f"dense geomean {geomean:.2f} >= 1.9",
        t0,
    )


def test_c07_block_lemmas():
    t0 = time.time()
    curve = hz.block_norm_check(4096, 16, 0.5, 10**4, seed=SEED + 5, delta=0.05)
    idx = curve.thresholds.index(0.5)
    emp, bound = curve.empirical_exceedance[idx], curve.bound_values[idx]
    assert emp <= bound, (emp, bound)
    zero = hz.block_nonzero_check(1024, 8, 0.1, 10**4, seed=SEED + 6)
    zero_rate = zero.empirical_exceedance[zero.thresholds.index(0.1)]
    assert zero_rate == 0.0
    _report(
        "C7",
        f"block-norm exceedance {emp:.4f} <= overlay {bound:.4f}; "
        f"block-nonzero failures {zero_rate}",
        t0,
    )


def test_c08_rip_survey():
    t0 = time.time()
    n, r, k, seeds = 64, 32, 2, 20
    new = rip.rip_survey("new-rademacher", n, r, k, seeds, seed=SEED + 7)
    dense = rip.rip_survey("dense-gaussian", n, r, k, seeds, seed=SEED + 7)
    assert new.delta_quantiles["50"] <= 1.5 * dense.delta_quantiles["50"]
    # monotonicity of delta_k in k on realized matrices
    for s in range(3):
        t = tr.build("new-rademacher", n, r, derive_stream(SEED + 8, s), allow_large_r=True)
        m = tr.realize_dense(t)
        deltas = [rip.rip_constant(m, kk)[0] for kk in (1, 2, 3)]
        assert deltas[0] <= deltas[1] <= deltas[2]
    # brute force matches the closed-form 2x2 oracle
    from test_rip import two_by_two_delta

    g = derive_stream(SEED + 9, 0).draw_gaussian(4 * 8).reshape(4, 8) / 2.0
    brute, _ = rip.rip_constant(g, 2)
    assert brute == pytest.approx(two_by_two_delta(g), abs=1e-10)
    _report(
        "C8",
        f"median d2: new {new.delta_quantiles['50']:.3f} <= 1.5 x dense "
        f"{dense.delta_quantiles['50']:.3f}; monotone in k; 2x2 oracle matched",
        t0,
    )


def test_c09_attack_suite():
    t0 = time.time()
    hash_rep = atk.run_attack(atk.pair_hadamard(64, 10.0), 10**4, seed=SEED + 10)
    assert hash_rep.advantage >= 0.2

    npw = atk.run_attack(atk.pair_bounded_orthonormal(64, 10.0), 10**5, seed=SEED + 11)
    target = 2.0**-5
    assert 0.5 * target <= npw.advantage <= 2.0 * target, npw.advantage

    ail = atk.run_attack(atk.pair_iterated(64, 10.0, 3), 10**5, seed=SEED + 12, r=16)
    target_al = 16 / (4.0 * 64)
    assert 0.5 * target_al <= ail.advantage <= 2.0 * target_al, ail.advantage

    circ = atk.run_attack(atk.pair_circulant(64, 10.0), 10**4, seed=SEED + 13)
    assert circ.wilson_ci[0] > 0.01

    _report(
        "C9",
        f"hash {hash_rep.advantage:.3f}>=0.2; combined-rows {npw.advantage:.4f}"
        f"~{target}; iterated {ail.advantage:.4f}~{target_al}; "
        f"circulant CI low {circ.wilson_ci[0]:.3f}",
        t0,
    )


def test_c10_gaussian_control():
    t0 = time.time()
    params = pv.DpParams(alpha=1.0, beta=0.1, r=16)
    w = math.ceil(pv.w_threshold(1.0, 0.1, 16)) + 1.0
    pairs = [
        atk.pair_bounded_orthonormal(64, w),
        atk.pair_hadamard(64, w),
        atk.pair_circulant(64, w),
        atk.pair_iterated(64, w, 3),
    ]
    total_fires = 0
    for i, pair in enumerate(pairs):
        for mech in ("new-gaussian", "dense-gaussian"):
            rep = atk.gaussian_control(pair, mech, params, 10**4, seed=SEED + 14 + i)
            total_fires += rep.fired_tilde_on_A + rep.fired_tilde_on_Atilde
            assert rep.fired_tilde_on_A == 0 and rep.fired_tilde_on_Atilde == 0
            assert rep.wilson_ci[0] <= 0.0 <= rep.wilson_ci[1]
    _report("C10", f"8 pair/mechanism controls, {total_fires} deterministic fires", t0)


def test_c11_privacy_plumbing():
    t0 = time.time()
    params = pv.DpParams(alpha=1.0, beta=0.1, r=4)
    thr = pv.w_threshold(1.0, 0.1, 4)
    rejected = 0
    for s in range(10**3):
        src = derive_stream(SEED + 20, s)
        rows = 2 + s % 3
        cols = 2 + (s * 5) % 4
        a = src.draw_gaussian(rows * cols).reshape(rows, cols)
        a *= 0.95 * thr / max(spectral_extremes(a)[1], 1e-12)
        with pytest.raises(PrivacyPreconditionError):
            pv.publish_first_moment(a, params, seed=s)
        rejected += 1
    assert rejected == 10**3

    lift_params = pv.DpParams(alpha=1.0, beta=0.1, r=16, lift=True)
    w = lift_params.resolved_w()
    for s in range(200):
        src = derive_stream(SEED + 21, s)
        a = src.draw_gaussian(20).reshape(4, 5) * (s % 7)
        lo, _ = spectral_extremes(pv.lift_matrix(a, lift_params))
        assert lo >= w - 1e-9

    stream_params = pv.DpParams(alpha=1.0, beta=0.1, r=64, lift=True)
    a = derive_stream(SEED + 22, 0).draw_gaussian(6 * 4).reshape(6, 4)
    sk = pv.mm_sketch_init(stream_params, 4, 4, seed=31, kind="new-gaussian")
    for c in range(4):
        pv.mm_sketch_update(sk, "A", c, a[:, c])
    batch = pv.publish_first_moment(a.T, stream_params, seed=31, kind="new-gaussian")
    assert np.array_equal(sk.y_a, batch.data)

    for ell, a0, b0, bp in [
        (1, 0.1, 0.01, 0.01),
        (2, 0.2, 0.02, 0.05),
        (5, 0.05, 0.001, 0.1),
        (10, 0.3, 0.05, 0.02),
        (64, 0.01, 0.001, 0.001),
    ]:
        alpha, beta = pv.compose_privacy(ell, a0, b0, bp)
        expect = math.sqrt(2 * ell * math.log(1 / bp)) * a0 + 2 * ell * a0 * a0
        assert abs(alpha - expect) < 1e-12
        assert abs(beta - (ell * b0 + bp)) < 1e-12
    _report(
        "C11",
        "1000/1000 low-spectrum publishes rejected; lift floor holds; "
        "stream==batch bit-identical; composition grid exact",
        t0,
    )


def test_c12_sketch_utility():
    t0 = time.time()
    from fastjl.linalg import least_squares

    def lr_ratios(r):
        ratios = []
        for s in range(50):
            a = derive_stream(SEED + 23, s).draw_gaussian(64 * 8).reshape(64, 8)
            b = derive_stream(SEED + 24, s).draw_gaussian(64)
            params = pv.DpParams(alpha=math.inf, beta=0.1, r=r, w=0.0)
            sk = pv.lr_sketch_init(params, 8, seed=1000 + s, kind="dense-gaussian")
            for c in range(8):
                pv.lr_update(sk, c, a[:, c])
            xh = pv.lr_query(sk, b)
            xstar = least_squares(a, b)
            ratios.append(
                float(np.linalg.norm(a @ xh - b) / np.linalg.norm(a @ xstar - b))
            )
        return np.array(ratios)

    def mm_errors(r):
        errs = []
        for s in range(50):
            params = pv.DpParams(alpha=math.inf, beta=0.1, r=r, w=0.0)
            sk = pv.mm_sketch_init(params, 8, 8, seed=2000 + s, kind="dense-gaussian")
            for c in range(8):
                e = np.zeros(8)
                e[c] = 1.0
                pv.mm_sketch_update(sk, "A", c, e)
                pv.mm_sketch_update(sk, "B", c, e)
            errs.append(float(np.abs(pv.mm_query(sk) - np.eye(8)).max()))
        return np.array(errs)

    lr_small = lr_ratios(256)
    assert np.quantile(lr_small, 0.9) <= 1.5
    mm_small = mm_errors(256)
    assert np.quantile(mm_small, 0.9) <= 0.25

    lr_big = lr_ratios(1024)
    mm_big = mm_errors(1024)
    lr_shrink = np.median(lr_small - 1.0) / max(np.median(lr_big - 1.0), 1e-12)
    mm_shrink = np.median(mm_small) / np.median(mm_big)
    assert lr_shrink >= 1.5, lr_shrink
    assert mm_shrink >= 1.5, mm_shrink
    _report(
        "C12",
        f"lr ratio p90 {np.quantile(lr_small, 0.9):.3f}<=1.5, shrink {lr_shrink:.1f}x; "
        f"mm err p90 {np.quantile(mm_small, 0.9):.3f}<=0.25, shrink {mm_shrink:.1f}x",
        t0,
    )
