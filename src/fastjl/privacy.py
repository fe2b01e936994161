"""Differentially private publication built on the Gaussian-entried sketches.

The mechanisms publish Phi A^T (first moment) or Phi^T Phi A^T (second
moment) after checking that every singular value of the private matrix
clears the lifting threshold w, or after lifting the matrix so that it
does.  Three printed threshold formulas circulate for w; we take their
pointwise maximum and report all three.

Only Gaussian-entried transforms may publish: the privacy argument is
specific to Gaussian projection entries, and the attacks module shows the
sign-entried rivals leak.  The streaming sketches replay the exact batch
computation column by column, so streamed and batch publications are
bit-identical at equal seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractError,
    DimensionError,
    ParameterRangeError,
    PrivacyPreconditionError,
)
from .linalg import (
    least_squares,
    next_power_of_two,
    spectral_extremes,
    symmetric_eigenvalues,
)
from .randomness import BitSource
from . import transforms

FIRST_MOMENT = "first-moment"
SECOND_MOMENT = "second-moment"


@dataclass(frozen=True)
class DpParams:
    """Privacy budget (alpha, beta), sketch dimension r, optional lifting.

    w is the lifting magnitude / singular-value floor; None resolves to
    w_threshold(alpha, beta, r).  alpha = inf gives threshold 0, which is
    the non-private mode used for utility baselines.
    """

    alpha: float
    beta: float
    r: int
    lift: bool = False
    w: float | None = None

    def __post_init__(self):
        if self.alpha <= 0:
            raise ParameterRangeError("alpha must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ParameterRangeError("beta must lie in (0, 1)")
        if self.r < 1:
            raise ParameterRangeError("r must be >= 1")
        if self.w is not None and self.w < 0:
            raise ParameterRangeError("w must be nonnegative")

    def resolved_w(self) -> float:
        return self.w if self.w is not None else w_threshold(self.alpha, self.beta, self.r)


def w_threshold_parts(alpha: float, beta: float, r: int) -> dict:
    """The three printed singular-value floors at (alpha, beta, r).

    first_moment:  ln(4/b) sqrt(16 r ln(2/b)) / a
    second_moment: 16 r ln(2/b) ln(4/b) / a
    streaming:     sqrt(16 r ln(2/b)) ln(16 r / b) / a
    """
    if alpha <= 0 or not 0 < beta < 1 or r < 1:
        raise ParameterRangeError("w_threshold needs alpha > 0, beta in (0,1), r >= 1")
    if math.isinf(alpha):
        return {"first_moment": 0.0, "second_moment": 0.0, "streaming": 0.0}
    root = math.sqrt(16.0 * r * math.log(2.0 / beta))
    return {
        "first_moment": math.log(4.0 / beta) * root / alpha,
        "second_moment": 16.0 * r * math.log(2.0 / beta) * math.log(4.0 / beta) / alpha,
        "streaming": root * math.log(16.0 * r / beta) / alpha,
    }


def w_threshold(alpha: float, beta: float, r: int) -> float:
    """Conservative floor: the maximum of the three printed formulas."""
    return max(w_threshold_parts(alpha, beta, r).values())


def _lifted_height(e_dim: int, col_len: int) -> int:
    return 2 * (e_dim + col_len)


def _lift_columns(cols: np.ndarray, indices, e_dim: int, w: float) -> np.ndarray:
    """Column j of the result stacks w e_{indices[j]}, a zero block, and cols[:, j]."""
    col_len = cols.shape[0]
    out = np.zeros((_lifted_height(e_dim, col_len), cols.shape[1]))
    out[indices, np.arange(cols.shape[1])] = w
    out[e_dim + e_dim + col_len :] = cols
    return out


def lift_matrix(a: np.ndarray, params: DpParams) -> np.ndarray:
    """Augment A so its smallest singular value is at least w.

    Column j of the result stacks w e_j, a zero block, and A_{:,j};
    the Gram matrix becomes w^2 I + A^T A, so sigma_min >= w while the
    bottom block preserves A exactly.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    cols = a.shape[1]
    return _lift_columns(a, np.arange(cols), cols, params.resolved_w())


@dataclass(frozen=True)
class PrivateSketch:
    """An immutable published sketch plus the parameters that justified it."""

    data: np.ndarray
    params: DpParams
    mode: str
    transform_kind: str
    seed: int
    lifted: bool
    input_rows: int
    input_cols: int
    delta_structural: float
    threshold_parts: dict = field(default_factory=dict)


def _require_publishable(kind) -> transforms.TransformKind:
    if isinstance(kind, str):
        kind = transforms.parse_kind(kind)
    if kind.tag not in transforms.GAUSSIAN_ENTRIED:
        raise ContractError(
            f"kind {kind.tag!r} may not publish: privacy requires Gaussian "
            "projection entries"
        )
    return kind


def _build_for_columns(kind, height: int, r: int, seed: int):
    npad = next_power_of_two(height)
    if kind.tag in transforms.NEW_TAGS:
        npad = max(npad, next_power_of_two(r))
        if npad % r != 0:
            raise DimensionError(
                f"the block construction needs r | padded dimension; "
                f"r={r} does not divide {npad} (use a power-of-two r)"
            )
    src = BitSource(seed)
    t = transforms.build(kind, npad, r, src, allow_large_r=True)
    return t, npad


def _sketch_columns(t, npad: int, cols: np.ndarray) -> np.ndarray:
    padded = np.zeros((npad, cols.shape[1]))
    padded[: cols.shape[0]] = cols
    return transforms.apply_columns(t, padded)


def _delta_structural(kind: transforms.TransformKind, r: int, n_input: int) -> float:
    if kind.tag != transforms.NEW_GAUSSIAN:
        return 0.0
    return min(1.0, r * 2.0 ** (-(n_input ** (2.0 / 3.0))))


def _check_floor(a: np.ndarray, params: DpParams) -> None:
    sigma_min, _ = spectral_extremes(a)
    threshold = w_threshold(params.alpha, params.beta, params.r)
    if sigma_min < threshold - 1e-12:
        raise PrivacyPreconditionError(
            f"sigma_min = {sigma_min:.6g} is below the privacy floor "
            f"{threshold:.6g}; enable lifting or raise the spectrum",
            sigma_min=sigma_min,
            threshold=threshold,
        )


def _publish(
    a, params: DpParams, seed: int, kind, mode: str, lift: bool, check_floor=_check_floor
) -> PrivateSketch:
    """Lift A^T or check A's floor, then sketch the columns of A^T.

    The first moment publishes Phi A^T; the second moment maps it back
    through Phi^T and drops the padding rows.
    """
    kind = _require_publishable(kind)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if lift:
        w = params.resolved_w()
        thr = w_threshold(params.alpha, params.beta, params.r)
        if w < thr - 1e-12:
            raise PrivacyPreconditionError(
                f"lifting magnitude w={w:.6g} below threshold {thr:.6g}",
                sigma_min=w,
                threshold=thr,
            )
        cols = lift_matrix(a.T, params)
    else:
        check_floor(a, params)
        cols = a.T
    t, npad = _build_for_columns(kind, cols.shape[0], params.r, seed)
    data = _sketch_columns(t, npad, cols)
    if mode == SECOND_MOMENT:
        data = transforms.apply_transpose_columns(t, data)[: cols.shape[0]]
    return PrivateSketch(
        data=data,
        params=params,
        mode=mode,
        transform_kind=kind.describe(),
        seed=seed,
        lifted=lift,
        input_rows=a.shape[0],
        input_cols=a.shape[1],
        delta_structural=_delta_structural(kind, params.r, npad),
        threshold_parts=w_threshold_parts(params.alpha, params.beta, params.r),
    )


def publish_first_moment(
    a: np.ndarray,
    params: DpParams,
    seed: int,
    kind: str | transforms.TransformKind = transforms.NEW_GAUSSIAN,
) -> PrivateSketch:
    """Publish Phi A^T (one sketched column per row of A).

    Requires sigma_min(A) above the threshold, or lifting enabled (then
    the identity block is stacked first and the floor holds by
    construction).
    """
    return _publish(a, params, seed, kind, FIRST_MOMENT, params.lift)


def publish_second_moment(
    a: np.ndarray,
    params: DpParams,
    seed: int,
    kind: str | transforms.TransformKind = transforms.NEW_GAUSSIAN,
) -> PrivateSketch:
    """Publish Phi^T Phi A^T (the projected second-moment release)."""
    return _publish(a, params, seed, kind, SECOND_MOMENT, params.lift)


def covariance_query(sketch: PrivateSketch, u: np.ndarray) -> float:
    """||S u||^2 as the estimate of u^T A A^T u (plus w^2 ||u||^2 if lifted)."""
    if sketch.mode != FIRST_MOMENT:
        raise ContractError("covariance queries need a first-moment sketch")
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.shape[0] != sketch.data.shape[1]:
        raise DimensionError(
            f"query direction has length {u.shape}, sketch expects {sketch.data.shape[1]}"
        )
    v = sketch.data @ u
    return float(v @ v)


def compose_privacy(
    ell: int, alpha0: float, beta0: float, beta_prime: float
) -> tuple[float, float]:
    """Advanced composition of ell (alpha0, beta0) mechanisms.

    alpha = sqrt(2 ell ln(1/beta')) alpha0 + 2 ell alpha0^2,
    beta  = ell beta0 + beta'.
    """
    if ell < 0:
        raise ParameterRangeError("ell must be nonnegative")
    if not (0.0 < alpha0 < 1.0 and 0.0 < beta0 < 1.0):
        raise ParameterRangeError("alpha0 and beta0 must lie in (0, 1)")
    if beta_prime <= 0:
        raise ParameterRangeError("beta' must be positive")
    alpha = math.sqrt(2.0 * ell * math.log(1.0 / beta_prime)) * alpha0
    alpha += 2.0 * ell * alpha0 * alpha0
    return alpha, ell * beta0 + beta_prime


# -- graph cut queries -------------------------------------------------------


def graph_edge_matrix(
    edges: list[tuple[int, int, float]], n_vertices: int, params: DpParams
) -> np.ndarray:
    """Edge-incidence encoding with uniform lifting weight on every pair.

    Row (i, j) is sqrt(w_ij + w_lift/n) (e_i - e_j) over all pairs i < j in
    lexicographic order, with w_lift = w^2 so the Gram matrix (a graph
    Laplacian) clears the spectral floor on the cut-relevant subspace
    orthogonal to the all-ones vector.
    """
    weights = np.zeros((n_vertices, n_vertices))
    for i, j, wt in edges:
        if i == j:
            raise ContractError(f"self-loop at vertex {i}")
        if wt < 0:
            raise ContractError("edge weights must be nonnegative")
        if not (0 <= i < n_vertices and 0 <= j < n_vertices):
            raise DimensionError(f"edge ({i},{j}) outside vertex range")
        weights[i, j] = weights[j, i] = wt
    w_lift = params.resolved_w() ** 2
    rows = []
    for i in range(n_vertices):
        for j in range(i + 1, n_vertices):
            row = np.zeros(n_vertices)
            c = math.sqrt(weights[i, j] + w_lift / n_vertices)
            row[i] = c
            row[j] = -c
            rows.append(row)
    return np.array(rows)


def exact_cut(edges, n_vertices: int, vertex_set) -> float:
    """Weight of edges crossing the cut, computed directly."""
    inside = set(int(v) for v in vertex_set)
    total = 0.0
    for i, j, wt in edges:
        if (i in inside) != (j in inside):
            total += wt
    return total


@dataclass
class CutSketch:
    sketch: PrivateSketch
    n_vertices: int
    w_lift: float


def _check_cut_floor(a: np.ndarray, params: DpParams) -> None:
    """Floor check on A = E^T, E the lifted edge matrix.

    The all-ones direction of a Laplacian is always null, so the floor is
    checked on the complement: every other singular value must clear w.
    """
    w = params.resolved_w()
    if w > 0:
        e = a.T
        lam = symmetric_eigenvalues(e.T @ e)
        if lam[1] < w * w * (1.0 - 1e-9):
            raise PrivacyPreconditionError(
                "lifted edge matrix misses the spectral floor off the ones vector",
                sigma_min=math.sqrt(max(lam[1], 0.0)),
                threshold=w,
            )


def cut_sketch(
    edges,
    n_vertices: int,
    params: DpParams,
    seed: int,
    kind: str | transforms.TransformKind = transforms.DENSE_GAUSSIAN,
) -> CutSketch:
    """First-moment sketch of the lifted edge matrix.

    The edge matrix carries its own lifting, so params.lift is not applied
    again; the floor is checked off the all-ones vector.
    """
    e = graph_edge_matrix(edges, n_vertices, params)
    sk = _publish(e.T, params, seed, kind, FIRST_MOMENT, False, _check_cut_floor)
    w = params.resolved_w()
    return CutSketch(sketch=sk, n_vertices=n_vertices, w_lift=w * w)


def cut_query(cs: CutSketch, vertex_set) -> float:
    """Estimated cut weight: ||data 1_S||^2 minus the known lifting bias."""
    inside = sorted(set(int(v) for v in vertex_set))
    if not inside:
        return 0.0
    if inside[0] < 0 or inside[-1] >= cs.n_vertices:
        raise DimensionError("vertex set outside range")
    indicator = np.zeros(cs.n_vertices)
    indicator[inside] = 1.0
    raw = covariance_query(cs.sketch, indicator)
    s = len(inside)
    bias = cs.w_lift / cs.n_vertices * s * (cs.n_vertices - s)
    return raw - bias


# -- streaming sketches ------------------------------------------------------


def _check_width(m: int) -> None:
    if m < 0:
        raise DimensionError(f"a sketch cannot have {m} columns")


@dataclass
class StreamSketchMM:
    """Turnstile matrix-multiplication sketch with column replacement."""

    params: DpParams
    m1: int
    m2: int
    seed: int
    kind: transforms.TransformKind
    y_a: np.ndarray
    y_b: np.ndarray
    n_rows: int | None = None
    columns_seen_a: set = field(default_factory=set)
    columns_seen_b: set = field(default_factory=set)
    _transform: object = None
    _npad: int = 0

    @property
    def e_dim(self) -> int:
        return max(self.m1, self.m2)


def _sketch_stream_column(sk, e_dim: int, index: int, column: np.ndarray) -> np.ndarray:
    """Sketch one column lifted at index; the first column fixes the row
    count and draws the transform."""
    if sk.n_rows is None:
        sk.n_rows = column.shape[0]
        height = _lifted_height(e_dim, sk.n_rows)
        sk._transform, sk._npad = _build_for_columns(
            sk.kind, height, sk.params.r, sk.seed
        )
    elif column.shape[0] != sk.n_rows:
        raise DimensionError(
            f"column has {column.shape[0]} rows, sketch expects {sk.n_rows}"
        )
    lifted = _lift_columns(column[:, None], [index], e_dim, sk.params.resolved_w())
    return _sketch_columns(sk._transform, sk._npad, lifted)[:, 0]


def mm_sketch_init(
    params: DpParams,
    m1: int,
    m2: int,
    seed: int,
    kind: str | transforms.TransformKind = transforms.NEW_GAUSSIAN,
) -> StreamSketchMM:
    kind = _require_publishable(kind)
    _check_width(m1)
    _check_width(m2)
    return StreamSketchMM(
        params=params,
        m1=m1,
        m2=m2,
        seed=seed,
        kind=kind,
        y_a=np.zeros((params.r, m1)),
        y_b=np.zeros((params.r, m2)),
    )


def mm_sketch_update(
    sk: StreamSketchMM, side: str, col_index: int, column: np.ndarray
) -> None:
    """Replace one column of the named side with its lifted sketch."""
    column = np.asarray(column, dtype=float)
    if side not in ("A", "B"):
        raise ParameterRangeError("side must be 'A' or 'B'")
    limit = sk.m1 if side == "A" else sk.m2
    if not 0 <= col_index < limit:
        raise DimensionError(f"column index {col_index} out of range for side {side}")
    sketched = _sketch_stream_column(sk, sk.e_dim, col_index, column)
    if side == "A":
        sk.y_a[:, col_index] = sketched
        sk.columns_seen_a.add(col_index)
    else:
        sk.y_b[:, col_index] = sketched
        sk.columns_seen_b.add(col_index)


def mm_query(sk: StreamSketchMM) -> np.ndarray:
    """Y_A^T Y_B, the sketched estimate of A^T B (plus lift overlap)."""
    return sk.y_a.T @ sk.y_b


@dataclass
class StreamSketchLR:
    """Turnstile linear-regression sketch over a column-streamed design."""

    params: DpParams
    m: int
    seed: int
    kind: transforms.TransformKind
    y_a: np.ndarray
    n_rows: int | None = None
    columns_seen: set = field(default_factory=set)
    _transform: object = None
    _npad: int = 0


def lr_sketch_init(
    params: DpParams,
    m: int,
    seed: int,
    kind: str | transforms.TransformKind = transforms.NEW_GAUSSIAN,
) -> StreamSketchLR:
    kind = _require_publishable(kind)
    _check_width(m)
    return StreamSketchLR(
        params=params, m=m, seed=seed, kind=kind, y_a=np.zeros((params.r, m))
    )


def lr_update(sk: StreamSketchLR, col_index: int, column: np.ndarray) -> None:
    column = np.asarray(column, dtype=float)
    if not 0 <= col_index < sk.m:
        raise DimensionError(f"column index {col_index} out of range")
    sk.y_a[:, col_index] = _sketch_stream_column(sk, sk.m, col_index, column)
    sk.columns_seen.add(col_index)


def lr_query(sk: StreamSketchLR, b: np.ndarray, query_index: int = 0) -> np.ndarray:
    """argmin_x ||Y_A x - Y_b|| with b embedded through the same transform.

    b gets the same lifted layout as a data column (w e_{query_index} on
    the identity block), so the non-private mode reduces to plain
    sketch-and-solve.
    """
    if not sk.columns_seen:
        raise ContractError("lr_query needs at least one streamed column")
    if not 0 <= query_index < sk.m:
        raise DimensionError(f"query index {query_index} out of range")
    b = np.asarray(b, dtype=float)
    return least_squares(sk.y_a, _sketch_stream_column(sk, sk.m, query_index, b))
