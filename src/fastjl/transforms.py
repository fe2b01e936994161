"""The block-projection sketching transform and every rival it is compared to.

The main construction applies, in order: a random sign diagonal D, the
orthonormal Walsh-Hadamard transform W (or its sparse block-diagonal
variant G), a uniform permutation, and a block-diagonal projection P with
one subgaussian row per block of length t = n/r.  All factors are drawn
from a BitSource in the fixed order D, permutation, P so bit budgets are
reproducible.

Scaling convention: every kind is normalized so that E ||Phi x||^2 = ||x||^2
exactly over the factor randomness.  For the block construction this means
out_i = <P_i, block_i(perm(W D x))> with scale 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ContractError,
    DimensionError,
    ParameterRangeError,
    ResourceError,
)
from .linalg import (
    circular_convolve,
    fwht_normalized,
    is_power_of_two,
    next_power_of_two,
    require_finite,
)
from .randomness import BitSource, derive_stream

_REALIZE_LIMIT = 1 << 14
# Sign entries an ailon-liberty build may store (depth x n), 128 MiB as floats.
_LAYER_LIMIT = 1 << 24

NEW_RADEMACHER = "new-rademacher"
NEW_GAUSSIAN = "new-gaussian"
NEW_SPARSE_G = "new-sparse-g"
DENSE_GAUSSIAN = "dense-gaussian"
ACHLIOPTAS_DENSE = "achlioptas-dense"
ACHLIOPTAS_SPARSE = "achlioptas-sparse"
FJLT = "fjlt"
SUBSAMPLED_HADAMARD = "subsampled-hadamard"
PARTIAL_CIRCULANT = "partial-circulant"
HASH_SPARSE = "hash-sparse"
AILON_LIBERTY = "ailon-liberty"

ALL_TAGS = (
    NEW_RADEMACHER,
    NEW_GAUSSIAN,
    NEW_SPARSE_G,
    DENSE_GAUSSIAN,
    ACHLIOPTAS_DENSE,
    ACHLIOPTAS_SPARSE,
    FJLT,
    SUBSAMPLED_HADAMARD,
    PARTIAL_CIRCULANT,
    HASH_SPARSE,
    AILON_LIBERTY,
)

NEW_TAGS = (NEW_RADEMACHER, NEW_GAUSSIAN, NEW_SPARSE_G)
GAUSSIAN_ENTRIED = (NEW_GAUSSIAN, DENSE_GAUSSIAN)


@dataclass(frozen=True)
class TransformKind:
    """A transform family plus its family-specific parameters."""

    tag: str
    p: float | None = None        # fjlt: density of the sparse projection
    bucket: int | None = None     # subsampled-hadamard: rows per bucket B
    depth: int | None = None      # ailon-liberty: number of W D layers
    eps: float | None = None      # new-sparse-g accuracy parameter
    delta: float | None = None    # new-sparse-g confidence parameter

    def __post_init__(self):
        if self.tag not in ALL_TAGS:
            raise ParameterRangeError(f"unknown transform tag {self.tag!r}")
        if self.tag == FJLT and not (self.p and 0.0 < self.p <= 1.0):
            raise ParameterRangeError("fjlt requires density p in (0, 1]")
        if self.tag == SUBSAMPLED_HADAMARD and not (self.bucket and self.bucket >= 1):
            raise ParameterRangeError("subsampled-hadamard requires bucket B >= 1")
        if self.tag == AILON_LIBERTY and not (self.depth and self.depth >= 1):
            raise ParameterRangeError("ailon-liberty requires depth >= 1")
        if self.tag == NEW_SPARSE_G:
            if not (self.eps and 0.0 < self.eps < 1.0):
                raise ParameterRangeError("new-sparse-g requires eps in (0, 1)")
            if not (self.delta and 0.0 < self.delta < 1.0):
                raise ParameterRangeError("new-sparse-g requires delta in (0, 1)")

    def describe(self) -> str:
        extras = {
            FJLT: lambda: f"(p={self.p})",
            SUBSAMPLED_HADAMARD: lambda: f"(B={self.bucket})",
            AILON_LIBERTY: lambda: f"(l={self.depth})",
            NEW_SPARSE_G: lambda: f"(eps={self.eps},delta={self.delta})",
        }
        return self.tag + extras.get(self.tag, lambda: "")()


def parse_kind(text: str) -> TransformKind:
    """Parse CLI-style kind strings, e.g. "new-rademacher", "fjlt:0.25",
    "subsampled-hadamard:2", "ailon-liberty:3", "new-sparse-g:0.5,0.05"."""
    tag, _, rest = text.partition(":")
    try:
        if tag == FJLT:
            return TransformKind(tag, p=float(rest or 0.25))
        if tag == SUBSAMPLED_HADAMARD:
            return TransformKind(tag, bucket=int(rest or 2))
        if tag == AILON_LIBERTY:
            return TransformKind(tag, depth=int(rest or 3))
        if tag == NEW_SPARSE_G:
            if rest:
                eps_s, _, delta_s = rest.partition(",")
                return TransformKind(tag, eps=float(eps_s), delta=float(delta_s or 0.05))
            return TransformKind(tag, eps=0.5, delta=0.05)
    except ValueError as exc:
        raise ParameterRangeError(f"kind {text!r} has a malformed parameter") from exc
    if rest:
        raise ParameterRangeError(f"kind {tag!r} takes no parameter, got {rest!r}")
    return TransformKind(tag)


@dataclass(frozen=True)
class SparseGParams:
    """Block sizes of the sparse randomized-Hadamard substitute G.

    a and b follow the instantiated column-sparsity recipe with constants
    c1 = 16, c2 = 6; b is rounded up to a power of two (the block butterfly
    needs it) and capped at n.  When 1/a exceeds log(n/delta)/n the dense
    bound no longer transfers and b falls back to r^2.
    """

    a: int
    b: int
    fallback: bool

    @staticmethod
    def compute(n: int, r: int, eps: float, delta: float) -> "SparseGParams":
        try:
            a = math.ceil(16.0 / eps * math.log(1.0 / delta) * math.log(r / delta) ** 2)
            a = max(a, 2)
            if 1.0 / a <= math.log(n / delta) / n:
                b_raw = math.ceil(6.0 * a * math.log(a / delta))
                fallback = False
            else:
                b_raw = r * r
                fallback = True
        except OverflowError as exc:
            raise ParameterRangeError(
                f"new-sparse-g eps={eps}, delta={delta} overflow the block sizes"
            ) from exc
        b = min(next_power_of_two(b_raw), n)
        return SparseGParams(a=a, b=b, fallback=fallback)


@dataclass(frozen=True)
class JlTransform:
    """A realized sketching operator.

    Immutable: the fields cannot be reassigned and every factor array (and
    kw11_signs) is read-only, so apply is pure and one transform may be
    shared by any number of callers.
    """

    kind: TransformKind
    n: int
    r: int
    master_seed: int
    stream_id: int
    scale: float
    factors: dict = field(repr=False)
    draw_counts: dict = field(default_factory=dict)
    kw11_signs: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for value in (*self.factors.values(), self.kw11_signs):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def block_length(self) -> int:
        return self.n // self.r


def pad_to_pow2(x: np.ndarray) -> np.ndarray:
    """Zero-pad a vector to the next power-of-two length (norm preserved)."""
    x = require_finite(x, "vector")
    if x.ndim != 1:
        raise DimensionError("pad_to_pow2 expects a vector")
    n = next_power_of_two(x.shape[0]) if x.shape[0] else 1
    if n == x.shape[0]:
        return x.copy()
    out = np.zeros(n)
    out[: x.shape[0]] = x
    return out


def check_size(n: int, r: int) -> None:
    """The size checks every kind's build makes first."""
    if not is_power_of_two(n):
        raise DimensionError(f"input dimension must be a power of two, got {n}")
    if r < 1:
        raise ParameterRangeError("output dimension r must be >= 1")


def check_block_shape(n: int, r: int, allow_large_r: bool) -> None:
    """The block kinds' shape checks, made after check_size."""
    if n % r != 0:
        raise DimensionError(f"r={r} must divide n={n} for the block construction")
    if not allow_large_r and r > math.isqrt(n) // 2:
        raise ParameterRangeError(
            f"r={r} exceeds sqrt(n)/2={math.isqrt(n) // 2} at n={n}; the block-norm "
            "guarantee needs r <= n^(1/2-tau).  Pass allow_large_r=True to override."
        )


def _draw_distinct_indices(src: BitSource, n: int, count: int) -> np.ndarray:
    """count distinct uniform indices from {0..n-1} by partial Fisher-Yates."""
    if count > n:
        raise DimensionError(f"cannot draw {count} distinct indices from {n}")
    pool = np.arange(n)
    for i in range(count):
        j = i + src.draw_uniform_index(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:count].copy()


def build(
    kind: TransformKind | str,
    n: int,
    r: int,
    src: BitSource,
    allow_large_r: bool = False,
) -> JlTransform:
    """Draw all random factors of a transform from src, in a fixed order.

    For the block kinds the order is: sign diagonal, permutation,
    projection entries.  Construction needs O(n) draws and O(n log n)
    setup at most.
    """
    if isinstance(kind, str):
        kind = parse_kind(kind)
    check_size(n, r)

    tag = kind.tag
    factors: dict = {}
    counts: dict = {}
    bits0 = src.bits_consumed
    gauss0 = src.gaussian_samples_consumed

    def mark(phase: str) -> None:
        nonlocal bits0, gauss0
        counts[phase] = src.bits_consumed - bits0
        g = src.gaussian_samples_consumed - gauss0
        if g:
            counts[phase + "_gaussians"] = g
        bits0 = src.bits_consumed
        gauss0 = src.gaussian_samples_consumed

    scale = 1.0
    if tag in NEW_TAGS:
        check_block_shape(n, r, allow_large_r)
        if tag == NEW_SPARSE_G:
            params = SparseGParams.compute(n, r, kind.eps, kind.delta)
            if n % params.b != 0:
                raise DimensionError(
                    f"sparse-G block size b={params.b} does not divide n={n}"
                )
            factors["g_params"] = params
        factors["signs"] = src.draw_rademacher(n).astype(float)
        mark("signs")
        factors["perm"] = src.sample_permutation(n)
        mark("permutation")
        if tag == NEW_GAUSSIAN:
            block = src.draw_gaussian(n)
        else:
            block = src.draw_rademacher(n).astype(float)
        factors["block"] = block.reshape(r, n // r)
        mark("projection")
    elif tag == DENSE_GAUSSIAN:
        factors["dense"] = src.draw_gaussian(r * n).reshape(r, n)
        mark("projection")
        scale = 1.0 / math.sqrt(r)
    elif tag == ACHLIOPTAS_DENSE:
        factors["dense"] = src.draw_rademacher(r * n).astype(float).reshape(r, n)
        mark("projection")
        scale = 1.0 / math.sqrt(r)
    elif tag == ACHLIOPTAS_SPARSE:
        u = src.draw_uniform_indices(6, r * n)
        entries = np.zeros(r * n)
        entries[u == 0] = math.sqrt(3.0)
        entries[u == 5] = -math.sqrt(3.0)
        factors["dense"] = entries.reshape(r, n)
        mark("projection")
        scale = 1.0 / math.sqrt(r)
    elif tag == FJLT:
        factors["signs"] = src.draw_rademacher(n).astype(float)
        mark("signs")
        # Each entry is kept when its 64 drawn bits, read as an integer,
        # fall below p * 2^64; at p = 1 that bound exceeds uint64 and every
        # entry is kept, the bits still being drawn.
        threshold = int(kind.p * 2.0**64)
        words = src._take_words(r * n)
        if threshold < 2**64:
            mask = words < np.uint64(threshold)
        else:
            mask = np.ones(r * n, dtype=bool)
        mark("density_mask")
        values = np.zeros(r * n)
        nnz = int(mask.sum())
        values[mask] = src.draw_gaussian(nnz)
        factors["dense"] = values.reshape(r, n)
        mark("projection")
        scale = 1.0 / math.sqrt(r * kind.p)
    elif tag == SUBSAMPLED_HADAMARD:
        big = r * kind.bucket
        if big > n:
            raise DimensionError(f"rB={big} rows exceed the n={n} available")
        factors["rows"] = _draw_distinct_indices(src, n, big)
        mark("row_sample")
        factors["sigma"] = src.draw_rademacher(big).astype(float).reshape(r, kind.bucket)
        mark("bucket_signs")
        scale = math.sqrt(n / big)
    elif tag == PARTIAL_CIRCULANT:
        if r > n:
            raise DimensionError(f"r={r} rows exceed n={n}")
        factors["signs"] = src.draw_rademacher(n).astype(float)
        mark("signs")
        factors["generator"] = src.draw_rademacher(n).astype(float)
        mark("projection")
        scale = 1.0 / math.sqrt(r)
    elif tag == HASH_SPARSE:
        factors["signs"] = src.draw_rademacher(n).astype(float)
        mark("signs")
        factors["hash"] = src.draw_uniform_indices(r, n)
        mark("hash")
        factors["hash_signs"] = src.draw_rademacher(n).astype(float)
        mark("projection")
    elif tag == AILON_LIBERTY:
        if r > n:
            raise DimensionError(f"r={r} rows exceed n={n}")
        if kind.depth * n > _LAYER_LIMIT:
            raise ResourceError(
                f"ailon-liberty depth {kind.depth} at n={n} exceeds "
                f"{_LAYER_LIMIT} stored signs (memory guard)"
            )
        # The layers are consecutive n-sign draws, so one draw reads the same bits.
        factors["layers"] = src.draw_rademacher(kind.depth * n).astype(float).reshape(-1, n)
        mark("signs")
        factors["rows"] = _draw_distinct_indices(src, n, r)
        mark("row_sample")
        scale = math.sqrt(n / r)
    else:  # pragma: no cover
        raise ParameterRangeError(f"unhandled tag {tag}")

    return JlTransform(
        kind=kind,
        n=n,
        r=r,
        master_seed=src.master_seed,
        stream_id=src.stream_id,
        scale=scale,
        factors=factors,
        draw_counts=counts,
    )


def _sparse_g_multiply(x: np.ndarray, signs: np.ndarray, b: int) -> np.ndarray:
    """Block-diagonal randomized Hadamard: per-block signs then W_b."""
    n = x.shape[0]
    cols = x.shape[1]
    y = (x * signs[:, None]).reshape(n // b, b, cols)
    y = np.moveaxis(y, 1, 0).reshape(b, (n // b) * cols)
    y = fwht_normalized(y)
    y = np.moveaxis(y.reshape(b, n // b, cols), 0, 1).reshape(n, cols)
    return y


def apply_columns(t: JlTransform, x: np.ndarray) -> np.ndarray:
    """Apply the transform to each column of an (n, m) array; returns (r, m)."""
    x = require_finite(x, "input")
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if x.shape[0] != t.n:
        raise DimensionError(f"input length {x.shape[0]} != transform n {t.n}")
    if t.kw11_signs is not None:
        x = x * t.kw11_signs[:, None]
    tag = t.kind.tag
    f = t.factors
    m = x.shape[1]

    if tag in NEW_TAGS:
        if tag == NEW_SPARSE_G:
            y = _sparse_g_multiply(x, f["signs"], f["g_params"].b)
        else:
            y = fwht_normalized(x, f["signs"])
        y = y[f["perm"]]
        out = (y.reshape(t.r, t.block_length, m) * f["block"][:, :, None]).sum(axis=1)
    elif tag in (DENSE_GAUSSIAN, ACHLIOPTAS_DENSE, ACHLIOPTAS_SPARSE):
        out = f["dense"] @ x
    elif tag == FJLT:
        y = fwht_normalized(x, f["signs"])
        out = f["dense"] @ y
    elif tag == SUBSAMPLED_HADAMARD:
        y = fwht_normalized(x)[f["rows"]]
        out = (y.reshape(t.r, t.kind.bucket, m) * f["sigma"][:, :, None]).sum(axis=1)
    elif tag == PARTIAL_CIRCULANT:
        # A copy, so that the result does not keep all n convolved rows alive.
        out = circular_convolve(f["generator"], x * f["signs"][:, None])[: t.r].copy()
    elif tag == HASH_SPARSE:
        y = fwht_normalized(x, f["signs"])
        y *= f["hash_signs"][:, None]
        # bincount adds each row's entries in input order from 0.0, as
        # np.add.at does, at a fraction of its cost.
        out = np.empty((t.r, m))
        for c in range(m):
            out[:, c] = np.bincount(f["hash"], weights=y[:, c], minlength=t.r)
    elif tag == AILON_LIBERTY:
        # H W D1 W D2 ... W Dl with H a subsampled rescaled Hadamard; the
        # subsample's own rows collapse against the leading W, leaving a
        # row selection of the sign-layered chain.
        y = x
        for layer in f["layers"][:0:-1]:
            y = fwht_normalized(y, layer)
        out = y[f["rows"]] * f["layers"][0][f["rows"], None]
    else:  # pragma: no cover
        raise ParameterRangeError(f"unhandled tag {tag}")

    out *= t.scale
    return out[:, 0] if squeeze else out


def apply(t: JlTransform, x: np.ndarray) -> np.ndarray:
    """Phi @ x for a vector x of length n."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionError("apply expects a vector; use apply_columns for matrices")
    return apply_columns(t, x)


def apply_median_ns(
    kind: TransformKind | str,
    sizes: list[int],
    r: int,
    seed: int,
    reps: int = 50,
    warmups: int = 5,
) -> list[float]:
    """Median wall time of apply, in ns, at each n in sizes.

    The transform is built from BitSource(seed) and applied to a Gaussian
    vector from derive_stream(seed, 1): warmups untimed calls, then reps
    calls timed one by one with perf_counter_ns.
    """
    medians = []
    for n in sizes:
        t = build(kind, n, r, BitSource(seed), allow_large_r=True)
        x = derive_stream(seed, 1).draw_gaussian(n)
        for _ in range(warmups):
            apply(t, x)
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            apply(t, x)
            samples.append(time.perf_counter_ns() - t0)
        medians.append(float(np.median(samples)))
    return medians


def apply_transpose_columns(t: JlTransform, v: np.ndarray) -> np.ndarray:
    """Phi^T applied to each column of an (r, m) array; returns (n, m).

    Available for the kinds the private mechanisms use (block and dense
    Gaussian families).
    """
    v = require_finite(v, "input")
    squeeze = v.ndim == 1
    if squeeze:
        v = v[:, None]
    if v.shape[0] != t.r:
        raise DimensionError(f"input length {v.shape[0]} != transform r {t.r}")
    tag = t.kind.tag
    f = t.factors
    m = v.shape[1]
    if tag in (NEW_RADEMACHER, NEW_GAUSSIAN):
        y = (f["block"][:, :, None] * v[:, None, :]).reshape(t.n, m)
        inv = np.empty(t.n, dtype=np.int64)
        inv[f["perm"]] = np.arange(t.n)
        y = y[inv]
        out = fwht_normalized(y) * f["signs"][:, None]
    elif tag in (DENSE_GAUSSIAN, ACHLIOPTAS_DENSE, ACHLIOPTAS_SPARSE):
        out = f["dense"].T @ v
    else:
        raise ContractError(f"apply_transpose not supported for kind {tag}")
    out = out * t.scale
    if t.kw11_signs is not None:
        out = out * t.kw11_signs[:, None]
    return out[:, 0] if squeeze else out


def realize_dense(t: JlTransform) -> np.ndarray:
    """The explicit r x n matrix: the transform applied to each basis vector."""
    if t.n > _REALIZE_LIMIT:
        raise ResourceError(
            f"realize_dense refuses n={t.n} > {_REALIZE_LIMIT} (memory guard)"
        )
    return apply_columns(t, np.eye(t.n))


def kw11_wrap(t: JlTransform, src: BitSource) -> JlTransform:
    """Precompose with a fresh sign diagonal: x -> T(D' x).

    This is the standard route from a restricted-isometry matrix to a
    norm-preserving embedding.
    """
    signs = src.draw_rademacher(t.n).astype(float)
    if t.kw11_signs is not None:
        signs = signs * t.kw11_signs
    return replace(t, kw11_signs=signs)
