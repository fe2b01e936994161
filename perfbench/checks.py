"""Correctness checks for the benchmark's workloads.

Every check compares the program's output with an independent computation
(a Kronecker-factored Walsh-Hadamard transform, numpy.fft, np.bincount,
plain matrix products, numpy.linalg, closed-form 2x2 eigenvalues) or with a
property the method must have.  None reads stored output and none uses
timings.  Statistical checks use exact binomial, normal and chi-square tails,
or Bernstein's inequality, at level CHECK_ALPHA, so a correct program fails
any one of them with probability below 1e-8.

A failed check raises CheckFailed naming its workload and the check.
"""

from __future__ import annotations

import math

import numpy as np

# Two-sided level of each statistical check.  A run makes at most a few
# dozen of them, so a correct program fails a run with probability < 1e-6.
CHECK_ALPHA = 1e-8
# Absolute agreement required between the program and a recomputation,
# relative to the size of the values compared.
MATCH_TOL = 1e-9

TRANSPOSE_KINDS = (
    "new-rademacher",
    "new-gaussian",
    "dense-gaussian",
    "achlioptas-dense",
    "achlioptas-sparse",
)


class CheckFailed(Exception):
    """A workload's output failed one of its correctness checks."""

    def __init__(self, workload: str, check: str, detail: str = ""):
        self.workload = workload
        self.check = check
        super().__init__(f"workload {workload}: check {check!r} failed: {detail}")


def require(ok, workload: str, check: str, detail: str = "") -> None:
    if not ok:
        raise CheckFailed(workload, check, detail)


def _close(a, b, tol: float = MATCH_TOL) -> tuple[bool, float]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False, math.inf
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return False, math.inf
    gap = float(np.max(np.abs(a - b))) if a.size else 0.0
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 0.0)
    return gap <= tol * scale, gap


# -- independent recomputation ------------------------------------------------


def hadamard(v: np.ndarray) -> np.ndarray:
    """Orthonormal Walsh-Hadamard transform of a vector or of each column.

    Uses H_n = H_a (x) H_b in Sylvester order: the length-n input is viewed
    as an (a, b) matrix V and transformed as H_a V H_b^T.  This shares no
    code with fastjl's in-place butterfly.
    """
    from scipy.linalg import hadamard as sylvester

    v = np.asarray(v, dtype=float)
    flat = v.ndim == 1
    cols = v.reshape(v.shape[0], -1)
    n, m = cols.shape
    a = 1 << ((n.bit_length() - 1) // 2)
    b = n // a
    ha = sylvester(a).astype(float)
    hb = sylvester(b).astype(float)
    left = (ha @ cols.reshape(a, b * m)).reshape(a, b, m)
    out = np.tensordot(left, hb, axes=([1], [1]))  # (a, m, b)
    out = np.moveaxis(out, 2, 1).reshape(n, m) / math.sqrt(n)
    return out[:, 0] if flat else out


def reference_apply(t, x: np.ndarray) -> np.ndarray:
    """Phi x recomputed from the transform's drawn factors.

    Uses hadamard() above, numpy.fft for the circulant, np.bincount for the
    hash and a plain product for the dense kinds; none of fastjl's apply code.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ndim == 1
    xs = x.reshape(t.n, -1)
    if t.kw11_signs is not None:
        xs = xs * t.kw11_signs[:, None]
    f = t.factors
    tag = t.kind.tag
    m = xs.shape[1]
    if tag in ("new-rademacher", "new-gaussian", "new-sparse-g"):
        z = xs * f["signs"][:, None]
        if tag == "new-sparse-g":
            b = f["g_params"].b
            blocks = np.moveaxis(z.reshape(t.n // b, b, m), 1, 0)
            z = hadamard(blocks.reshape(b, -1)).reshape(b, t.n // b, m)
            z = np.moveaxis(z, 0, 1).reshape(t.n, m)
        else:
            z = hadamard(z)
        z = z[f["perm"]].reshape(t.r, t.n // t.r, m)
        out = np.einsum("rt,rtm->rm", f["block"], z)
    elif tag in ("dense-gaussian", "achlioptas-dense", "achlioptas-sparse"):
        out = f["dense"] @ xs
    elif tag == "fjlt":
        out = f["dense"] @ hadamard(xs * f["signs"][:, None])
    elif tag == "subsampled-hadamard":
        z = hadamard(xs)[f["rows"]].reshape(t.r, t.kind.bucket, m)
        out = np.einsum("rb,rbm->rm", f["sigma"], z)
    elif tag == "partial-circulant":
        z = xs * f["signs"][:, None]
        conv = np.fft.ifft(np.fft.fft(f["generator"])[:, None] * np.fft.fft(z, axis=0), axis=0)
        out = conv.real[: t.r]
    elif tag == "hash-sparse":
        z = hadamard(xs * f["signs"][:, None]) * f["hash_signs"][:, None]
        out = np.stack(
            [np.bincount(f["hash"], weights=z[:, j], minlength=t.r) for j in range(m)],
            axis=1,
        )
    elif tag == "ailon-liberty":
        z = xs * f["layers"][-1][:, None]
        for layer in f["layers"][-2::-1]:
            z = hadamard(z) * layer[:, None]
        out = z[f["rows"]]
    else:
        raise ValueError(f"no reference for kind {tag}")
    out = out * t.scale
    return out[:, 0] if flat else out


def two_by_two_deltas(m: np.ndarray) -> np.ndarray:
    """Isometry deviation of every 2-column support, in lexicographic order.

    For columns i < j the Gram matrix is [[p, c], [c, q]], whose eigenvalues
    are (p+q)/2 -+ sqrt(((p-q)/2)^2 + c^2).
    """
    g = m.T @ m
    i, j = np.triu_indices(g.shape[0], k=1)
    p, q, c = g[i, i], g[j, j], g[i, j]
    mean = 0.5 * (p + q)
    rad = np.sqrt((0.5 * (p - q)) ** 2 + c * c)
    return np.maximum(mean + rad - 1.0, 1.0 - (mean - rad))


def delta_one(m: np.ndarray) -> float:
    """delta_1: the worst squared column norm's distance from 1."""
    return float(np.max(np.abs((m * m).sum(axis=0) - 1.0)))


def binomial_band(trials: int, p: float, alpha: float = CHECK_ALPHA) -> tuple[int, int]:
    """Counts [lo, hi] holding a Binomial(trials, p) draw with prob >= 1 - alpha."""
    from scipy.stats import binom

    lo = int(binom.ppf(alpha / 2.0, trials, p))
    hi = int(binom.isf(alpha / 2.0, trials, p))
    return lo, hi


def chi_square_tail(r: int, eps: float) -> float:
    """Pr[|X/r - 1| > eps] for X ~ chi-square(r), from scipy.stats.chi2."""
    from scipy.stats import chi2

    return float(chi2.sf(r * (1.0 + eps), r) + chi2.cdf(r * (1.0 - eps), r))


# -- jlp ----------------------------------------------------------------------


def check_jlp_report(rep, trials: int, kind: str) -> None:
    w = "jlp"
    require(rep.trials == trials, w, f"{kind} trial count", f"{rep.trials} != {trials}")
    require(
        0 <= rep.failure_count <= trials and rep.failure_rate == rep.failure_count / trials,
        w,
        f"{kind} failure rate is count/trials",
        f"{rep.failure_count}/{trials} reported as {rep.failure_rate}",
    )
    q = rep.distortion_quantiles
    require(
        0.0 <= q["50"] <= q["90"] <= q["99"] <= q["max"],
        w,
        f"{kind} distortion quantiles ordered",
        str(q),
    )


def check_dense_failures(failures: int, trials: int, r: int, eps: float) -> None:
    """The dense-gaussian failure count is Binomial(trials, chi-square tail)."""
    lo, hi = binomial_band(trials, chi_square_tail(r, eps))
    require(
        lo <= failures <= hi,
        "jlp",
        "dense-gaussian failure count within the binomial band of the chi-square tail",
        f"{failures} failures in {trials} trials, band [{lo}, {hi}]",
    )


def check_sketch_matches(workload: str, label: str, program, reference) -> None:
    ok, gap = _close(program, reference)
    require(ok, workload, f"{label} matches the recomputation from its factors", f"max gap {gap:.3e}")


def check_distortion_in_report(y: np.ndarray, rep, kind: str) -> None:
    d = abs(float(y @ y) - 1.0)
    require(
        d <= rep.distortion_quantiles["max"] * (1.0 + 1e-12) + 1e-15,
        "jlp",
        f"{kind} sampled trial distortion within the reported maximum",
        f"{d} > {rep.distortion_quantiles['max']}",
    )


def check_new_gaussian_draws(draw_counts: dict, n: int) -> None:
    require(
        draw_counts.get("signs") == n
        and draw_counts.get("projection") == 0
        and draw_counts.get("projection_gaussians") == n,
        "jlp",
        "new-gaussian build draws n sign bits and n Gaussians",
        str(draw_counts),
    )


def check_new_factors(kind: str, t) -> None:
    """A new-* build's drawn factors have the shape of their distribution:
    perm is a permutation of 0..n-1 drawn from at least log2(n!) bits, and
    signs (and new-rademacher's block) are +-1."""
    w = "jlp"
    f = t.factors
    require(np.array_equal(np.sort(f["perm"]), np.arange(t.n)), w, f"{kind} perm is a permutation of 0..n-1")
    require(bool(np.all(np.abs(f["signs"]) == 1.0)), w, f"{kind} signs are +-1")
    if kind == "new-rademacher":
        require(bool(np.all(np.abs(f["block"]) == 1.0)), w, f"{kind} block entries are +-1")
    entropy = math.lgamma(t.n + 1) / math.log(2.0)
    bits = t.draw_counts.get("permutation", 0)
    require(
        bits >= entropy,
        w,
        f"{kind} permutation draws at least log2(n!) bits",
        f"{bits} bits < {entropy:.1f}",
    )


def check_sign_balance(label: str, signs) -> None:
    """Pooled independent +-1 draws hold Binomial(count, 1/2) plus signs."""
    signs = np.asarray(signs).ravel()
    plus = int(np.count_nonzero(signs == 1))
    lo, hi = binomial_band(signs.size, 0.5)
    require(
        lo <= plus <= hi,
        "jlp",
        f"{label} share of +1 within the binomial band of 1/2",
        f"{plus} of {signs.size}, band [{lo}, {hi}]",
    )


def check_descents(label: str, perms) -> None:
    """Pooled descents of independent uniform permutations.

    The descents of a uniform permutation of n are distributed as a sum of
    independent Bernoulli variables (the Eulerian polynomials have real
    roots), with mean (n-1)/2 and variance (n+1)/12, so Bernstein's
    inequality bounds the pooled count's two-sided tail at CHECK_ALPHA.
    """
    descents = sum(int(np.count_nonzero(np.diff(p) < 0)) for p in perms)
    mean = sum((p.size - 1) / 2.0 for p in perms)
    var = sum((p.size + 1) / 12.0 for p in perms)
    log_term = math.log(2.0 / CHECK_ALPHA)
    band = log_term / 3.0 + math.sqrt(log_term**2 / 9.0 + 2.0 * log_term * var)
    require(
        abs(descents - mean) <= band,
        "jlp",
        f"{label} descents within the band of uniform permutations",
        f"{descents} descents in {len(perms)} permutations, expected {mean:.0f} +- {band:.1f}",
    )


def check_gaussian_moments(label: str, values) -> None:
    """Pooled independent N(0, 1) draws: the sum is N(0, count) and the sum
    of squares chi-square(count)."""
    from scipy.stats import chi2, norm

    v = np.asarray(values, dtype=float).ravel()
    z = abs(float(v.sum())) / math.sqrt(v.size)
    z_hi = float(norm.isf(CHECK_ALPHA / 4.0))
    ss = float(v @ v)
    ss_lo, ss_hi = float(chi2.ppf(CHECK_ALPHA / 4.0, v.size)), float(chi2.isf(CHECK_ALPHA / 4.0, v.size))
    require(
        z <= z_hi and ss_lo <= ss <= ss_hi,
        "jlp",
        f"{label} sum and sum of squares within the bands of N(0, 1) draws",
        f"|sum|/sqrt(count) {z:.3f} (max {z_hi:.3f}), sum of squares {ss:.1f} in [{ss_lo:.1f}, {ss_hi:.1f}]",
    )


# -- apply --------------------------------------------------------------------


def check_adjoint(label: str, phi_x: np.ndarray, v: np.ndarray, x: np.ndarray, phit_v: np.ndarray) -> None:
    """<Phi x, v> = <x, Phi^T v> for every pair of columns."""
    lhs = phi_x.T @ v
    rhs = x.T @ phit_v
    scale = np.linalg.norm(phi_x, axis=0)[:, None] * np.linalg.norm(v, axis=0)[None, :]
    scale = scale + np.linalg.norm(x, axis=0)[:, None] * np.linalg.norm(phit_v, axis=0)[None, :]
    gap = np.abs(lhs - rhs)
    require(
        bool(np.all(np.isfinite(gap))) and bool(np.all(gap <= MATCH_TOL * np.maximum(scale, 1.0))),
        "apply",
        f"{label} adjoint identity <Phi x, v> = <x, Phi^T v>",
        f"max gap {float(np.max(gap)):.3e}",
    )


def check_same_output(workload: str, label: str, first, again) -> None:
    require(
        np.array_equal(first, again),
        workload,
        f"{label} repeats bit for bit on the same input",
        "outputs differ between rounds",
    )


# -- attack -------------------------------------------------------------------


def check_rival(name: str, rep, trials: int) -> None:
    w = "attack"
    require(rep.trials == trials, w, f"{name} trial count", f"{rep.trials} != {trials}")
    require(rep.fired_tilde_on_A == 0, w, f"{name} never accuses world A", f"{rep.fired_tilde_on_A} accusations")
    require(
        rep.successes_on_A == trials,
        w,
        f"{name} identifies world A on every trial",
        f"{rep.successes_on_A} of {trials}",
    )


def check_rate_band(name: str, rate: float, target: float) -> None:
    require(
        0.5 * target <= rate <= 2.0 * target,
        "attack",
        f"{name} rate within [1/2, 2] x {target:.6g}",
        f"pooled rate {rate}",
    )


def check_hash_rate(rep) -> None:
    require(rep.advantage >= 0.2, "attack", "hash-sparse rate at least 0.2", f"rate {rep.advantage}")


def check_circulant_rate(rep) -> None:
    require(
        rep.wilson_ci[0] > 0.01,
        "attack",
        "partial-circulant Wilson lower bound above 0.01",
        f"interval {rep.wilson_ci}",
    )


def check_control(name: str, rep, trials: int) -> None:
    require(rep.trials == trials, "attack", f"{name} control trial count", f"{rep.trials} != {trials}")
    require(
        rep.fired_tilde_on_A == 0 and rep.fired_tilde_on_Atilde == 0,
        "attack",
        f"{name} control never fires",
        f"fired {rep.fired_tilde_on_A} on A, {rep.fired_tilde_on_Atilde} on A~",
    )


# -- spectral -----------------------------------------------------------------


def check_rip_report(kind: str, rep, deltas: np.ndarray, delta_at_worst: float) -> None:
    """The survey's quantiles equal those of the closed-form per-seed deltas."""
    ref = {
        "10": float(np.quantile(deltas, 0.10)),
        "50": float(np.quantile(deltas, 0.50)),
        "90": float(np.quantile(deltas, 0.90)),
        "max": float(deltas.max()),
    }
    gaps = [abs(rep.delta_quantiles[k] - v) for k, v in ref.items()]
    gaps.append(abs(rep.delta_k - ref["50"]))
    gaps.append(abs(delta_at_worst - ref["max"]))
    require(
        max(gaps) <= 1e-10,
        "spectral",
        f"{kind} delta_2 equals the closed-form 2x2 value over all supports",
        f"max gap {max(gaps):.3e}",
    )


def check_monotone(kind: str, d1: float, d2: float) -> None:
    require(d1 <= d2 + 1e-12, "spectral", f"{kind} delta_1 <= delta_2", f"{d1} > {d2}")


def check_publish_accepted(result, sigma_min: float) -> None:
    """An unlifted publish of a matrix above the floor returns a sketch."""
    require(
        not isinstance(result, Exception),
        "spectral",
        "unlifted publish accepts a matrix whose sigma_min is above the floor",
        f"{result}; constructed sigma_min {sigma_min:.6g}",
    )


def check_lift_floor(sigma_min: float, w: float) -> None:
    require(
        sigma_min >= w * (1.0 - 1e-12),
        "spectral",
        "lifted matrix has sigma_min >= w",
        f"sigma_min {sigma_min} < w {w}",
    )


def check_least_squares(x_program: np.ndarray, x_numpy: np.ndarray) -> None:
    ok, gap = _close(x_program, x_numpy, tol=1e-8)
    require(ok, "spectral", "least_squares agrees with numpy.linalg.lstsq", f"max gap {gap:.3e}")


def check_lr_ratio(ratio: float) -> None:
    require(
        ratio >= 1.0 - 1e-12,
        "spectral",
        "sketched LR residual ratio >= 1",
        f"ratio {ratio}",
    )


def check_stream_equals_batch(stream: np.ndarray, batch: np.ndarray) -> None:
    require(
        np.array_equal(stream, batch),
        "spectral",
        "streamed MM sketch equals the batch publish bit for bit",
        "sketches differ",
    )


def check_cut_query(estimate: float, data: np.ndarray, vertex_set, w_lift: float, n_vertices: int) -> None:
    u = np.zeros(n_vertices)
    u[list(vertex_set)] = 1.0
    raw = float(np.sum((data @ u) ** 2))
    s = len(vertex_set)
    expect = raw - w_lift / n_vertices * s * (n_vertices - s)
    require(
        math.isfinite(estimate) and abs(estimate - expect) <= 1e-12 * max(1.0, raw),
        "spectral",
        "cut_query is the sketched cut norm minus the lifting bias",
        f"{estimate} != {expect}",
    )
