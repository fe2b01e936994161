"""Each correctness check fails on a corrupted result and names its workload.

    python3 -m pytest perfbench/test_checks.py

Run from the root of a fastjl checkout; fastjl is imported from src/.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from fastjl import attacks, harness, linalg, privacy, randomness, reports, rip, transforms  # noqa: E402

ALL_KINDS = (
    "new-rademacher",
    "new-gaussian",
    "new-sparse-g:0.9,0.9",
    "dense-gaussian",
    "achlioptas-dense",
    "achlioptas-sparse",
    "fjlt:0.3",
    "subsampled-hadamard:2",
    "partial-circulant",
    "hash-sparse",
    "ailon-liberty:3",
)


def fails(workload, fn, *args):
    with pytest.raises(checks.CheckFailed) as info:
        fn(*args)
    assert info.value.workload == workload
    assert info.value.check in str(info.value) and workload in str(info.value)
    return info.value


def build(spec, n=64, r=4, stream=0):
    return transforms.build(transforms.parse_kind(spec), n, r, randomness.derive_stream(5, stream))


# -- the independent recomputation itself -------------------------------------


def test_hadamard_matches_sylvester_matrix():
    from scipy.linalg import hadamard as sylvester

    x = np.random.default_rng(0).standard_normal((128, 3))
    assert np.allclose(checks.hadamard(x), sylvester(128) @ x / math.sqrt(128), atol=1e-12)


@pytest.mark.parametrize("spec", ALL_KINDS)
def test_reference_apply_matches_every_kind(spec):
    t = build(spec)
    x = np.random.default_rng(1).standard_normal((64, 3))
    checks.check_sketch_matches("apply", spec, transforms.apply_columns(t, x), checks.reference_apply(t, x))
    wrapped = transforms.kw11_wrap(t, randomness.derive_stream(6, 0))
    checks.check_sketch_matches("apply", spec, transforms.apply_columns(wrapped, x), checks.reference_apply(wrapped, x))


@pytest.mark.parametrize("spec", ALL_KINDS)
def test_rescaled_sketch_fails(spec):
    t = build(spec)
    x = np.random.default_rng(2).standard_normal(64)
    y = transforms.apply(t, x)
    fails("apply", checks.check_sketch_matches, "apply", spec, y * 1.001, checks.reference_apply(t, x))


def test_shape_mismatch_fails():
    fails("jlp", checks.check_sketch_matches, "jlp", "x", np.zeros(3), np.zeros(4))


# -- jlp ----------------------------------------------------------------------


def test_dense_failure_band():
    trials, r, eps = 1000, 64, 0.5
    p = checks.chi_square_tail(r, eps)
    assert p == pytest.approx(harness.chi_square_interval_tail(r, eps), rel=1e-9)
    checks.check_dense_failures(round(trials * p), trials, r, eps)
    # A sketch rescaled by 1.1 fails about 7% of trials instead of 0.6%.
    fails("jlp", checks.check_dense_failures, 70, trials, r, eps)


def _jlp_report(**changes):
    rep = reports.JlpReport(
        kind="dense-gaussian", n=64, r=8, epsilon=0.5, trials=1000, family="random-unit",
        failure_count=5, failure_rate=0.005, wilson_ci_95=(0.0, 0.1),
        distortion_quantiles={"50": 0.1, "90": 0.3, "99": 0.5, "max": 0.7}, seed=1,
    )
    return dataclasses.replace(rep, **changes)


def test_jlp_report_consistency():
    checks.check_jlp_report(_jlp_report(), 1000, "dense-gaussian")
    fails("jlp", checks.check_jlp_report, _jlp_report(failure_rate=0.05), 1000, "dense-gaussian")
    fails("jlp", checks.check_jlp_report, _jlp_report(trials=999), 1000, "dense-gaussian")
    bad_q = {"50": 0.4, "90": 0.3, "99": 0.5, "max": 0.7}
    fails("jlp", checks.check_jlp_report, _jlp_report(distortion_quantiles=bad_q), 1000, "dense-gaussian")


def test_distortion_above_reported_max_fails():
    y = np.full(4, 0.6)  # ||y||^2 = 1.44, distortion 0.44
    checks.check_distortion_in_report(y, _jlp_report(), "dense-gaussian")
    low = {"50": 0.1, "90": 0.2, "99": 0.3, "max": 0.4}
    fails("jlp", checks.check_distortion_in_report, y, _jlp_report(distortion_quantiles=low), "dense-gaussian")


def test_new_gaussian_draw_counts():
    t = transforms.build("new-gaussian", 1024, 64, randomness.derive_stream(3, 0), allow_large_r=True)
    checks.check_new_gaussian_draws(t.draw_counts, 1024)
    extra = dict(t.draw_counts, projection_gaussians=1025)
    fails("jlp", checks.check_new_gaussian_draws, extra, 1024)
    fails("jlp", checks.check_new_gaussian_draws, dict(t.draw_counts, signs=1023), 1024)


def _with_factors(t, **changes):
    return dataclasses.replace(t, factors=dict(t.factors, **changes))


@pytest.mark.parametrize("kind", ["new-rademacher", "new-gaussian"])
def test_new_factors(kind):
    t = transforms.build(kind, 1024, 64, randomness.derive_stream(3, 1), allow_large_r=True)
    checks.check_new_factors(kind, t)
    repeated = t.factors["perm"].copy()
    repeated[1] = repeated[0]
    fails("jlp", checks.check_new_factors, kind, _with_factors(t, perm=repeated))
    fails("jlp", checks.check_new_factors, kind, _with_factors(t, signs=2.0 * t.factors["signs"]))
    short = dataclasses.replace(t, draw_counts=dict(t.draw_counts, permutation=8000))  # log2(1024!) ~ 8770
    fails("jlp", checks.check_new_factors, kind, short)
    if kind == "new-rademacher":
        fails("jlp", checks.check_new_factors, kind, _with_factors(t, block=0.5 * t.factors["block"]))


def test_pooled_draw_properties():
    src = randomness.BitSource(11)
    signs = src.draw_rademacher(20000)
    checks.check_sign_balance("draw_rademacher", signs)
    fails("jlp", checks.check_sign_balance, "draw_rademacher", np.ones(20000))
    fails("jlp", checks.check_sign_balance, "draw_rademacher", np.where(np.arange(20000) % 3, 1, -1))

    perms = [randomness.derive_stream(11, i).sample_permutation(1024) for i in range(12)]
    checks.check_descents("sample_permutation", perms)
    fails("jlp", checks.check_descents, "sample_permutation", [np.arange(1024)] * 12)
    half_sorted = [np.concatenate([np.sort(p[:512]), p[512:]]) for p in perms]
    fails("jlp", checks.check_descents, "sample_permutation", half_sorted)

    g = src.draw_gaussian(20000)
    checks.check_gaussian_moments("draw_gaussian", g)
    fails("jlp", checks.check_gaussian_moments, "draw_gaussian", 1.1 * g)
    fails("jlp", checks.check_gaussian_moments, "draw_gaussian", g + 0.05)
    fails("jlp", checks.check_gaussian_moments, "draw_gaussian", np.abs(g))


# -- apply --------------------------------------------------------------------


@pytest.mark.parametrize("spec", checks.TRANSPOSE_KINDS)
def test_adjoint_identity(spec):
    t = build(spec)
    rng = np.random.default_rng(4)
    x, v = rng.standard_normal((64, 2)), rng.standard_normal((4, 2))
    phi_x = transforms.apply_columns(t, x)
    phit_v = transforms.apply_transpose_columns(t, v)
    checks.check_adjoint(spec, phi_x, v, x, phit_v)
    fails("apply", checks.check_adjoint, spec, phi_x, v, x, phit_v * 1.001)


def test_changed_output_between_rounds_fails():
    a = np.arange(4.0)
    checks.check_same_output("apply", "k", a, a.copy())
    b = a.copy()
    b[2] = np.nextafter(b[2], 10.0)
    fails("apply", checks.check_same_output, "apply", "k", a, b)


# -- attack -------------------------------------------------------------------


def _attack_report(**changes):
    rep = reports.AttackReport(
        target_kind="hash-sparse", pair_name="p", n=64, trials=1000, distinguisher_name="d",
        successes_on_A=1000, successes_on_Atilde=300, fired_tilde_on_A=0, fired_tilde_on_Atilde=300,
        advantage=0.3, wilson_ci=(0.25, 0.35), predicted_rate=None, abstain_rate_A=0.0,
        abstain_rate_Atilde=0.7, seed=1,
    )
    return dataclasses.replace(rep, **changes)


def test_world_a_accusation_fails():
    checks.check_rival("hash-sparse", _attack_report(), 1000)
    fails("attack", checks.check_rival, "hash-sparse", _attack_report(fired_tilde_on_A=1), 1000)
    fails("attack", checks.check_rival, "hash-sparse", _attack_report(successes_on_A=999), 1000)


def test_rate_bands():
    checks.check_rate_band("combined-rows", 0.03, 2.0**-5)
    fails("attack", checks.check_rate_band, "combined-rows", 0.015, 2.0**-5)
    fails("attack", checks.check_rate_band, "iterated", 0.13, 1 / 16)
    checks.check_hash_rate(_attack_report())
    fails("attack", checks.check_hash_rate, _attack_report(advantage=0.19))
    checks.check_circulant_rate(_attack_report())
    fails("attack", checks.check_circulant_rate, _attack_report(wilson_ci=(0.005, 0.02)))


def test_control_fire_fails():
    quiet = _attack_report(fired_tilde_on_Atilde=0, advantage=0.0)
    checks.check_control("dense-gaussian", quiet, 1000)
    fails("attack", checks.check_control, "dense-gaussian", dataclasses.replace(quiet, fired_tilde_on_Atilde=1), 1000)
    fails("attack", checks.check_control, "dense-gaussian", dataclasses.replace(quiet, fired_tilde_on_A=1), 1000)


def test_rival_report_from_program_passes():
    rep = attacks.run_attack(attacks.pair_hadamard(16, 10.0), 1000, seed=3, r=4)
    checks.check_rival("hash-sparse", rep, 1000)


# -- spectral -----------------------------------------------------------------


def _survey_deltas(kind, n, r, seeds, seed):
    per_seed = []
    for i in range(seeds):
        t = transforms.build(kind, n, r, randomness.derive_stream(seed, i), allow_large_r=True)
        per_seed.append(checks.two_by_two_deltas(checks.reference_apply(t, np.eye(n))))
    return per_seed


@pytest.mark.parametrize("kind", ["new-rademacher", "dense-gaussian"])
def test_rip_report_against_closed_form(kind):
    rep = rip.rip_survey(kind, 16, 8, 2, 3, seed=9)
    per_seed = _survey_deltas(kind, 16, 8, 3, 9)
    deltas = np.array([d.max() for d in per_seed])
    from itertools import combinations

    idx = list(combinations(range(16), 2)).index(tuple(rep.worst_support))
    at_worst = max(float(d[idx]) for d in per_seed)
    checks.check_rip_report(kind, rep, deltas, at_worst)
    moved = dict(rep.delta_quantiles, **{"50": rep.delta_quantiles["50"] + 1e-6})
    fails("spectral", checks.check_rip_report, kind, dataclasses.replace(rep, delta_quantiles=moved), deltas, at_worst)
    fails("spectral", checks.check_rip_report, kind, dataclasses.replace(rep, delta_k=rep.delta_k * 1.01), deltas, at_worst)


def test_closed_form_matches_brute_force():
    m = np.random.default_rng(5).standard_normal((4, 8)) / 2.0
    assert checks.two_by_two_deltas(m).max() == pytest.approx(rip.rip_constant(m, 2)[0], abs=1e-10)
    assert checks.delta_one(m) == pytest.approx(rip.rip_constant(m, 1)[0], abs=1e-10)


def test_non_monotone_deltas_fail():
    checks.check_monotone("dense-gaussian", 0.2, 0.3)
    fails("spectral", checks.check_monotone, "dense-gaussian", 0.31, 0.3)


def test_refused_publish_fails():
    params = privacy.DpParams(alpha=1.0, beta=0.1, r=16)
    w = params.resolved_w()
    a = 2.0 * w * np.eye(4, 16)
    checks.check_publish_accepted(privacy.publish_first_moment(a, params, seed=1), 2.0 * w)
    with pytest.raises(privacy.PrivacyPreconditionError) as refusal:
        privacy.publish_first_moment(0.4 * a, params, seed=1)
    fails("spectral", checks.check_publish_accepted, refusal.value, 0.8 * w)


def test_lift_floor():
    params = privacy.DpParams(alpha=1.0, beta=0.1, r=16, lift=True)
    w = params.resolved_w()
    lifted = privacy.lift_matrix(np.random.default_rng(6).standard_normal((16, 8)), params)
    checks.check_lift_floor(float(np.linalg.svd(lifted, compute_uv=False).min()), w)
    fails("spectral", checks.check_lift_floor, w * 0.999, w)


def test_least_squares_against_lstsq():
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((64, 8)), rng.standard_normal(64)
    x_np = np.linalg.lstsq(a, b, rcond=None)[0]
    checks.check_least_squares(linalg.least_squares(a, b), x_np)
    fails("spectral", checks.check_least_squares, x_np + 1e-6, x_np)


def test_lr_ratio_below_one_fails():
    checks.check_lr_ratio(1.0)
    fails("spectral", checks.check_lr_ratio, 0.999)


def test_stream_differs_from_batch_fails():
    a = np.random.default_rng(8).standard_normal((4, 4))
    checks.check_stream_equals_batch(a, a.copy())
    b = a.copy()
    b[1, 1] = np.nextafter(b[1, 1], np.inf)
    fails("spectral", checks.check_stream_equals_batch, a, b)


def test_cut_query_bias():
    params = privacy.DpParams(alpha=1.0, beta=0.1, r=16)
    edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (0, 3, 1.5)]
    cs = privacy.cut_sketch(edges, 4, params, seed=2)
    est = privacy.cut_query(cs, [0, 2])
    checks.check_cut_query(est, cs.sketch.data, (0, 2), cs.w_lift, 4)
    fails("spectral", checks.check_cut_query, est * (1 + 1e-6), cs.sketch.data, (0, 2), cs.w_lift, 4)


# -- tracing and the command --------------------------------------------------


def test_tracer_self_time_and_restore():
    original = transforms.build
    original_draw = randomness.BitSource.draw_gaussian
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert transforms.build is not original
        t = transforms.build("new-gaussian", 64, 4, randomness.derive_stream(1, 0))
        transforms.apply(t, np.ones(64))
    finally:
        tracer.uninstall()
    assert transforms.build is original
    assert randomness.BitSource.draw_gaussian is original_draw
    own = tracer.summary()
    assert own["transforms.build.new-gaussian"][1] == 1
    assert own["randomness.sample_permutation"][1] == 1
    assert own["linalg.fwht_normalized"][1] == 1
    total = sum(s for s, _ in own.values())
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    wall = sum(tracer.end[i] - tracer.start[i] for i in roots) / 1e9
    assert total == pytest.approx(wall, rel=1e-9)
    assert tracer.draws() == (t.draw_counts["signs"] + t.draw_counts["permutation"], 64)
    assert set(own) <= set(tracing.span_names())


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == tracing.metric_units()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "jlp", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
