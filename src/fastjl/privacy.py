"""Differentially private publication built on the Gaussian-entried sketches.

The mechanisms publish Phi A^T (first moment) or Phi^T Phi A^T (second
moment) after checking that every singular value of the private matrix
clears the lifting threshold w, or after lifting the matrix so that it
does.  Three printed threshold formulas circulate for w; we take their
pointwise maximum and report all three.

Only Gaussian-entried transforms may publish: the privacy argument is
specific to Gaussian projection entries, and the attacks module shows the
sign-entried rivals leak.  One stream sketch, with sides "A" and "B" for
matrix multiplication and "A" for linear regression, always lifts its
columns and replays the exact batch computation column by column, so
streamed and batch publications are bit-identical at equal seeds.
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
    return transforms.build(kind, npad, r, BitSource(seed), allow_large_r=True)


def _sketch_columns(t, cols: np.ndarray) -> np.ndarray:
    """Phi applied to cols zero-padded to the transform's height t.n."""
    padded = np.zeros((t.n, cols.shape[1]))
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


def _check_lift(params: DpParams) -> None:
    """Refuse a lifting magnitude below the privacy floor: the one rule
    for lifted publications and stream sketches, which always lift."""
    w = params.resolved_w()
    thr = w_threshold(params.alpha, params.beta, params.r)
    if w < thr - 1e-12:
        raise PrivacyPreconditionError(
            f"lifting magnitude w={w:.6g} below threshold {thr:.6g}",
            sigma_min=w,
            threshold=thr,
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
        _check_lift(params)
        cols = lift_matrix(a.T, params)
    else:
        check_floor(a, params)
        cols = a.T
    t = _build_for_columns(kind, cols.shape[0], params.r, seed)
    data = _sketch_columns(t, cols)
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
        delta_structural=_delta_structural(kind, params.r, t.n),
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


@dataclass
class StreamSketch:
    """Turnstile sketch with column replacement over named sides.

    MM keeps sides "A" and "B", LR keeps side "A"; each side is an
    (r, width) array of sketched columns.  Every column lifts into the same
    e_dim-wide identity block, so all sides share one set-up: the row count
    and the transform drawn for the lifted height, fixed by the first
    column sketched into any side.
    """

    params: DpParams
    seed: int
    kind: transforms.TransformKind
    sides: dict[str, np.ndarray]
    e_dim: int
    setup: tuple[int, transforms.JlTransform] | None = None

    @property
    def y_a(self) -> np.ndarray:
        return self.sides["A"]

    @property
    def y_b(self) -> np.ndarray:
        return self.sides["B"]


def _stream_init(params: DpParams, widths: dict, seed: int, kind) -> StreamSketch:
    kind = _require_publishable(kind)
    _check_lift(params)
    if min(widths.values()) < 0:
        raise DimensionError(f"a sketch cannot have {min(widths.values())} columns")
    sides = {side: np.zeros((params.r, m)) for side, m in widths.items()}
    return StreamSketch(params, seed, kind, sides, e_dim=max(widths.values()))


def _sketch_stream_column(sk: StreamSketch, index: int, column) -> np.ndarray:
    """Sketch one column lifted at index.  The first column fixes the row
    count and draws the transform; the pair is stored only once that
    column has been sketched, so a failed first column leaves no set-up."""
    column = np.asarray(column, dtype=float)
    if column.ndim != 1:
        raise DimensionError(f"a streamed column must be a vector, not {column.shape}")
    n_rows, t = sk.setup or (column.shape[0], None)
    if column.shape[0] != n_rows:
        raise DimensionError(f"column has {column.shape[0]} rows, sketch expects {n_rows}")
    if t is None:
        height = _lifted_height(sk.e_dim, n_rows)
        t = _build_for_columns(sk.kind, height, sk.params.r, sk.seed)
    lifted = _lift_columns(column[:, None], [index], sk.e_dim, sk.params.resolved_w())
    sketched = _sketch_columns(t, lifted)[:, 0]
    sk.setup = (n_rows, t)
    return sketched


def _stream_update(sk: StreamSketch, side: str, col_index: int, column) -> None:
    """Replace column col_index of the named side with its lifted sketch."""
    if side not in sk.sides:
        raise ParameterRangeError("side must be " + " or ".join(map(repr, sk.sides)))
    y = sk.sides[side]
    if not 0 <= col_index < y.shape[1]:
        where = f" for side {side}" if len(sk.sides) > 1 else ""
        raise DimensionError(f"column index {col_index} out of range{where}")
    y[:, col_index] = _sketch_stream_column(sk, col_index, column)


def mm_sketch_init(
    params: DpParams,
    m1: int,
    m2: int,
    seed: int,
    kind: str | transforms.TransformKind = transforms.NEW_GAUSSIAN,
) -> StreamSketch:
    """Sketch of A^T B: A's m1 columns stream into side "A", B's m2 into "B"."""
    return _stream_init(params, {"A": m1, "B": m2}, seed, kind)


def mm_sketch_update(
    sk: StreamSketch, side: str, col_index: int, column: np.ndarray
) -> None:
    """Replace one column of the named side with its lifted sketch."""
    _stream_update(sk, side, col_index, column)


def mm_query(sk: StreamSketch) -> np.ndarray:
    """Y_A^T Y_B, the sketched estimate of A^T B (plus lift overlap)."""
    return sk.y_a.T @ sk.y_b


def lr_sketch_init(
    params: DpParams,
    m: int,
    seed: int,
    kind: str | transforms.TransformKind = transforms.NEW_GAUSSIAN,
) -> StreamSketch:
    """Sketch of an m-column regression design streamed into side "A"."""
    return _stream_init(params, {"A": m}, seed, kind)


def lr_update(sk: StreamSketch, col_index: int, column: np.ndarray) -> None:
    _stream_update(sk, "A", col_index, column)


def lr_query(sk: StreamSketch, b: np.ndarray, query_index: int = 0) -> np.ndarray:
    """argmin_x ||Y_A x - Y_b|| with b embedded through the same transform.

    b gets the same lifted layout as a data column (w e_{query_index} on
    the identity block), so the non-private mode reduces to plain
    sketch-and-solve.
    """
    if sk.setup is None:
        raise ContractError("lr_query needs at least one streamed column")
    if not 0 <= query_index < sk.y_a.shape[1]:
        raise DimensionError(f"query index {query_index} out of range")
    return least_squares(sk.y_a, _sketch_stream_column(sk, query_index, b))
