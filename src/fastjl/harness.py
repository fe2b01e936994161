"""Statistical verification harness for the norm-preservation claims.

Each check runs independent seeded trials (one derived stream per trial),
counts exceedances of the relevant deterministic event, and reports the
empirical rate next to the closed-form bound it is supposed to respect.
Bounds are overlays: the harness never asserts them itself; tests freeze
the comparisons.

The block-kind loops (jlp_failure_rate for new-rademacher and
new-gaussian, the block-norm checks and infinity_norm_check) run their
trials in chunks of _CHUNK: each trial still derives its own stream, the
chunk draws every factor as rows (randomness.draw_*_rows) and applies one
Hadamard butterfly over its columns.  Each trial's numbers equal those of
the per-trial loop bit for bit; the per-trial loop stays the reference and
serves every other kind.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaincc

from .errors import ContractError, DimensionError, ParameterRangeError
from .linalg import fwht_normalized, is_power_of_two, symmetric_eigenvalues
from .randomness import (
    BitSource,
    derive_stream,
    draw_gaussian_rows,
    draw_rademacher_rows,
    sample_permutation_rows,
)
from .reports import JlpReport, TailCurve, wilson_ci_95
from . import transforms

FAMILIES = ("basis", "constant", "random-unit", "spike")

# Trials per chunk of the block-kind loops.  A chunk holds a few (K, n)
# arrays at once, so this bounds the loops' working set.
_CHUNK = 16


def make_family_vector(family: str, n: int, src: BitSource) -> np.ndarray:
    """A unit test vector from one of the four families.

    The spike family puts n^(-1/4) on the first floor(sqrt(n)) coordinates
    (the adversarial near-flat-support vector), renormalized to unit norm.
    """
    _check_family_n(n)
    if family == "basis":
        x = np.zeros(n)
        x[src.draw_uniform_index(n)] = 1.0
        return x
    if family == "constant":
        return np.full(n, 1.0 / math.sqrt(n))
    if family == "random-unit":
        g = src.draw_gaussian(n)
        return g / np.linalg.norm(g)
    if family == "spike":
        k = math.isqrt(n)
        x = np.zeros(n)
        x[:k] = n ** -0.25
        return x / np.linalg.norm(x)
    raise ParameterRangeError(f"unknown family {family!r}")


def _check_family_n(n: int) -> None:
    if not is_power_of_two(n):
        raise DimensionError(f"family vectors need power-of-two n, got {n}")


def _family_rows(family: str, n: int, sources: list[BitSource]) -> np.ndarray:
    """make_family_vector on each source, as the rows of a (K, n) array."""
    if family != "random-unit":
        return np.stack([make_family_vector(family, n, src) for src in sources])
    _check_family_n(n)
    g = draw_gaussian_rows(sources, n)
    # One norm per row, as make_family_vector takes it: a norm over axis 1
    # rounds differently.
    for row in g:
        row /= np.linalg.norm(row)
    return g


def _chunk_sources(seed: int, trials: int):
    """Each chunk's derived streams, one per trial, in trial order."""
    for start in range(0, trials, _CHUNK):
        yield start, [derive_stream(seed, i) for i in range(start, min(start + _CHUNK, trials))]


def _smoothed_rows(signs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Column k is W (signs_k * x_k), by one butterfly over K columns: (n, K).

    Overwrites x with signs * x.
    """
    x *= signs
    return fwht_normalized(x.T)


def _permuted_rows(w: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Column k of w gathered by perms[k], as a C-ordered (K, n) array."""
    return np.take_along_axis(w.T, perms, axis=1)


def _block_distortions(tag: str, n: int, r: int, family: str, trials: int, seed: int) -> np.ndarray:
    """The per-trial distortions of a new-rademacher or new-gaussian loop, by chunks.

    Trial i draws, from derive_stream(seed, i), what transforms.build and
    make_family_vector draw in the per-trial loop, in the same order:
    signs, permutation, block, family vector.
    """
    transforms.check_size(n, r)
    transforms.check_block_shape(n, r, allow_large_r=True)
    t = n // r
    out = np.empty(trials)
    for start, sources in _chunk_sources(seed, trials):
        signs = draw_rademacher_rows(sources, n).astype(np.int8)
        perms = sample_permutation_rows(sources, n).astype(np.int32)
        if tag == transforms.NEW_GAUSSIAN:
            block = draw_gaussian_rows(sources, n)
        else:
            block = draw_rademacher_rows(sources, n).astype(np.int8)
        x = _family_rows(family, n, sources)
        y = _permuted_rows(_smoothed_rows(signs, x), perms).reshape(-1, r, t)
        # Block sums reduce a contiguous last axis, as apply_columns does.
        y *= block.reshape(-1, r, t)
        sums = y.sum(axis=-1)
        for k, row in enumerate(sums):
            out[start + k] = abs(float(row @ row) - 1.0)
    return out


def _trial_distortions(kind, n: int, r: int, family: str, trials: int, seed: int) -> np.ndarray:
    """The per-trial reference loop: one build, family vector and apply per trial."""
    out = np.empty(trials)
    for i in range(trials):
        src = derive_stream(seed, i)
        t = transforms.build(kind, n, r, src, allow_large_r=True)
        x = make_family_vector(family, n, src)
        y = transforms.apply(t, x)
        out[i] = abs(float(y @ y) - 1.0)
    return out


def chi_square_interval_tail(r: int, eps: float) -> float:
    """Pr[|X/r - 1| > eps] for X ~ chi-square with r degrees of freedom.

    Exact via the regularized incomplete gamma function; this is the
    calibration oracle for the dense Gaussian sketch, whose squared image
    norm of a unit vector is exactly chi2_r / r.
    """
    upper = gammaincc(r / 2.0, r * (1.0 + eps) / 2.0)
    lower = gammainc(r / 2.0, r * (1.0 - eps) / 2.0) if eps < 1.0 else 0.0
    return float(upper + lower)


def jlp_failure_rate(
    kind,
    n: int,
    r: int,
    epsilon: float,
    family: str,
    trials: int,
    seed: int,
) -> JlpReport:
    """Empirical probability that | ||Phi x||^2 - 1 | exceeds epsilon.

    One fresh transform and one fresh family vector per trial, each from
    its own derived stream, so reports are reproducible.  The new-rademacher
    and new-gaussian trials run in chunks (see the module docstring).
    """
    if trials < 1000:
        raise ParameterRangeError("jlp_failure_rate needs at least 1000 trials")
    if isinstance(kind, str):
        kind = transforms.parse_kind(kind)
    if kind.tag in (transforms.NEW_RADEMACHER, transforms.NEW_GAUSSIAN):
        distortions = _block_distortions(kind.tag, n, r, family, trials, seed)
    else:
        distortions = _trial_distortions(kind, n, r, family, trials, seed)
    failures = int(np.count_nonzero(distortions > epsilon))
    distortions.sort()
    quantiles = {
        "50": float(np.quantile(distortions, 0.50)),
        "90": float(np.quantile(distortions, 0.90)),
        "99": float(np.quantile(distortions, 0.99)),
        "max": float(distortions[-1]),
    }
    return JlpReport(
        kind=kind.describe(),
        n=n,
        r=r,
        epsilon=epsilon,
        trials=trials,
        family=family,
        failure_count=failures,
        failure_rate=failures / trials,
        wilson_ci_95=wilson_ci_95(failures, trials),
        distortion_quantiles=quantiles,
        seed=seed,
    )


def infinity_norm_check(
    n: int, delta: float, trials: int, family: str, seed: int
) -> TailCurve:
    """Empirical tail of ||W D x||_inf against the smoothing bound.

    The threshold grid brackets sqrt(log(n/delta)/n); the overlay is the
    two-sided randomized-Hadamard bound 2n exp(-rho^2 n / 2).
    """
    if not is_power_of_two(n):
        raise DimensionError("n must be a power of two")
    pivot = math.sqrt(math.log(n / delta) / n)
    # pivot is the constant-free threshold as usually quoted; the union
    # bound only certifies exceedance <= delta at the rigorous level
    # sqrt(2 log(2n/delta)/n), which the grid also covers.
    rigorous = math.sqrt(2.0 * math.log(2.0 * n / delta) / n)
    thresholds = sorted(
        {pivot * f for f in (0.6, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5)} | {rigorous}
    )
    maxima = np.empty(trials)
    for start, sources in _chunk_sources(seed, trials):
        signs = draw_rademacher_rows(sources, n).astype(np.int8)
        x = _family_rows(family, n, sources)
        maxima[start : start + len(sources)] = np.abs(_smoothed_rows(signs, x)).max(axis=0)
    emp = [float(np.mean(maxima > rho)) for rho in thresholds]
    bounds = [min(1.0, 2.0 * n * math.exp(-rho * rho * n / 2.0)) for rho in thresholds]
    return TailCurve(
        name="infinity-norm",
        thresholds=thresholds,
        empirical_exceedance=emp,
        bound_values=bounds,
        trials=trials,
        seed=seed,
        meta={
            "n": n,
            "delta": delta,
            "family": family,
            "pivot": pivot,
            "rigorous_threshold": rigorous,
        },
    )


def _block_sq_norms(n: int, r: int, trials: int, seed: int, family: str) -> np.ndarray:
    """Per trial, the squared norms of the r blocks of perm(W D x): (trials, r)."""
    if n % r != 0:
        raise DimensionError(f"r={r} must divide n={n}")
    out = np.empty((trials, r))
    for start, sources in _chunk_sources(seed, trials):
        signs = draw_rademacher_rows(sources, n).astype(np.int8)
        perms = sample_permutation_rows(sources, n).astype(np.int32)
        x = _family_rows(family, n, sources)
        y = _permuted_rows(_smoothed_rows(signs, x), perms).reshape(-1, r, n // r)
        y *= y
        out[start : start + len(sources)] = y.sum(axis=-1)
    return out


def block_norm_check(
    n: int,
    r: int,
    epsilon: float,
    trials: int,
    seed: int,
    delta: float = 0.05,
    family: str = "random-unit",
) -> TailCurve:
    """Tail of the worst rescaled block norm of the permuted smoothed vector.

    Per trial: y = W D x, y' = perm(y), z_j = sqrt(r) * block_j(y');
    records max_j | ||z_j||^2 - 1 |.  Overlay: the sampling-without-
    replacement bound 2 r exp(-eps^2 t / log(n/delta)) with t = n/r.
    """
    t = n // r
    block_sq = r * _block_sq_norms(n, r, trials, seed, family)
    maxima = np.max(np.abs(block_sq - 1.0), axis=1)
    thresholds = [epsilon * f for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)]
    emp = [float(np.mean(maxima > e)) for e in thresholds]
    bounds = [
        min(1.0, 2.0 * r * math.exp(-e * e * t / math.log(n / delta)))
        for e in thresholds
    ]
    return TailCurve(
        name="block-norm",
        thresholds=thresholds,
        empirical_exceedance=emp,
        bound_values=bounds,
        trials=trials,
        seed=seed,
        meta={"n": n, "r": r, "epsilon": epsilon, "delta": delta, "family": family},
    )


def block_nonzero_check(
    n: int,
    r: int,
    theta: float,
    trials: int,
    seed: int,
    family: str = "random-unit",
) -> TailCurve:
    """Empirical Pr[min_j sqrt(r) ||block_j(perm(W D x))|| <= theta].

    The smallest rescaled block norm governs whether the block projection
    can see every direction; the overlay is r * 2^(-(1-theta)^2 n^(2/3)).
    """
    if not 0.0 <= theta < 1.0:
        raise ParameterRangeError("theta must lie in [0, 1)")
    minima = np.sqrt(r * _block_sq_norms(n, r, trials, seed, family).min(axis=1))
    thresholds = sorted({theta * f for f in (0.5, 1.0)} | {theta + 0.2, 0.9})
    emp = [float(np.mean(minima <= th)) for th in thresholds]
    bounds = [
        min(1.0, r * 2.0 ** (-((1.0 - th) ** 2) * n ** (2.0 / 3.0)))
        for th in thresholds
    ]
    return TailCurve(
        name="block-nonzero",
        thresholds=thresholds,
        empirical_exceedance=emp,
        bound_values=bounds,
        trials=trials,
        seed=seed,
        meta={"n": n, "r": r, "theta": theta, "family": family},
    )


def block_spectral_check(
    n: int, r: int, cols: int, seeds: int, seed: int
) -> np.ndarray:
    """Worst eigenvalue deviation of the restricted block Gram matrix.

    For each seed, form B = sqrt(r) * (first t rows of perm(W D)) and take
    the Gram matrix of its first `cols` columns; returns per-seed
    max |eigenvalue - 1|.  This is the spectral precondition the private
    mechanisms lean on, checked on a fixed `cols`-dimensional slice
    (the full n x n Gram is rank deficient, so a slice is the meaningful
    object; cols plays the role of the private matrix's row count).
    """
    if n % r != 0:
        raise DimensionError(f"r={r} must divide n={n}")
    t = n // r
    if cols > t:
        raise ParameterRangeError(f"cols={cols} must be at most t={t}")
    out = np.empty(seeds)
    for i in range(seeds):
        src = derive_stream(seed, i)
        signs = src.draw_rademacher(n).astype(float)
        perm = src.sample_permutation(n)
        # Columns j of W D are sign-flipped Hadamard columns; restrict to
        # the first block of t permuted rows without materializing W.
        basis = np.zeros((n, cols))
        basis[np.arange(cols), np.arange(cols)] = signs[:cols]
        wd_cols = fwht_normalized(basis)
        b = math.sqrt(r) * wd_cols[perm[:t]]
        lam = symmetric_eigenvalues(b.T @ b)
        out[i] = float(np.max(np.abs(lam - 1.0)))
    return out


def hoeffding_bound(epsilon: float, n: int, value_range: float) -> float:
    """Two-sided i.i.d. mean deviation bound: 2 exp(-2 eps^2 n / range^2)."""
    if epsilon <= 0 or n <= 0 or value_range <= 0:
        raise ParameterRangeError("hoeffding_bound needs positive arguments")
    return 2.0 * math.exp(-2.0 * epsilon * epsilon * n / (value_range * value_range))


def serfling_bound(epsilon: float, n: int, total: int, value_range: float) -> float:
    """Without-replacement sharpening: divide the exponent by f* = 1-(n-1)/N."""
    if epsilon <= 0 or n <= 0 or value_range <= 0:
        raise ParameterRangeError("serfling_bound needs positive arguments")
    if n > total:
        raise ParameterRangeError("sample size n cannot exceed population N")
    f_star = 1.0 - (n - 1) / total
    return 2.0 * math.exp(
        -2.0 * epsilon * epsilon * n / (f_star * value_range * value_range)
    )


def hw_bound(eta: float, frob: float, op: float, c1: float, c2: float) -> float:
    """Quadratic-form tail: 2 exp(-min(c1 eta^2 / ||A||_F^2, c2 eta / ||A||))."""
    if eta < 0 or frob <= 0 or op <= 0 or c1 <= 0 or c2 <= 0:
        raise ParameterRangeError("hw_bound needs nonnegative eta, positive rest")
    return 2.0 * math.exp(-min(c1 * eta * eta / (frob * frob), c2 * eta / op))


def fit_hw_constants(m: int = 64) -> tuple[float, float]:
    """Largest single constant c1 = c2 = c making hw_bound dominate the
    exact chi-square tail for A = I_m on a log-spaced deviation grid.

    The quadratic-form tail constants are not pinned down; the harness
    calibrates them once against the identity case and reuses them as
    overlay parameters only.
    """
    etas = np.geomspace(0.05 * m, 20.0 * m, 200)
    exact = np.array([chi_square_interval_tail(m, eta / m) for eta in etas])
    lo, hi = 1e-4, 4.0
    for _ in range(60):
        c = 0.5 * (lo + hi)
        bounds = np.array([hw_bound(eta, math.sqrt(m), 1.0, c, c) for eta in etas])
        if np.all(bounds >= exact):
            lo = c
        else:
            hi = c
    # 5% headroom: the bisection is tight at the binding grid point and the
    # bound must dominate between grid points too.
    return 0.95 * lo, 0.95 * lo


def hanson_wright_check(
    a: np.ndarray,
    trials: int,
    dist: str,
    seed: int,
    constants: tuple[float, float] | None = None,
) -> TailCurve:
    """Empirical tail of |g^T A g - Tr(A)| with the fitted bound overlay."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("hanson_wright_check needs a square matrix")
    if np.max(np.abs(a - a.T)) > 1e-10 * max(1.0, float(np.abs(a).max())):
        raise ContractError("matrix must be symmetric")
    if dist not in ("gaussian", "rademacher"):
        raise ParameterRangeError("dist must be 'gaussian' or 'rademacher'")
    n = a.shape[0]
    trace = float(np.trace(a))
    samples = np.empty(trials)
    for i in range(trials):
        src = derive_stream(seed, i)
        g = (
            src.draw_gaussian(n)
            if dist == "gaussian"
            else src.draw_rademacher(n).astype(float)
        )
        samples[i] = abs(float(g @ a @ g) - trace)
    frob = float(np.linalg.norm(a))
    op = max(abs(float(x)) for x in symmetric_eigenvalues(a)) if frob else 0.0
    if frob == 0.0:
        thresholds = [0.0, 1.0]
        emp = [float(np.mean(samples > th)) for th in thresholds]
        bounds = [1.0, 1.0]
    else:
        qs = np.quantile(samples, [0.25, 0.5, 0.75, 0.9, 0.99])
        thresholds = sorted(set(float(q) for q in qs) | {2.0 * float(samples.max())})
        c1, c2 = constants if constants is not None else fit_hw_constants(max(n, 2))
        emp = [float(np.mean(samples > th)) for th in thresholds]
        bounds = [min(1.0, hw_bound(max(th, 1e-300), frob, op, c1, c2)) for th in thresholds]
    return TailCurve(
        name="hanson-wright",
        thresholds=list(thresholds),
        empirical_exceedance=emp,
        bound_values=bounds,
        trials=trials,
        seed=seed,
        meta={"dist": dist, "trace": trace, "frobenius": frob, "operator": op},
    )
