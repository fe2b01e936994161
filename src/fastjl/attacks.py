"""Distinguishing attacks on the sign-entried rival sketches.

Each attack fixes a pair of neighbouring matrices (rank-1, unit-norm
difference), runs the rival mechanism on both, and looks for exact value
patterns in a designated probe of the output: entries sitting off the
base value lattice of the unperturbed world, exact equality of lattice
offsets, or the bucket-sum magnitude patterns of the combined-row
construction.  The events are deterministic functions of the output and
fire with measure zero for Gaussian-entried mechanisms, which is the
control arm.

Pattern tolerances are relative to w; the rival mechanisms emit values
from a discrete lattice whose gaps are not small, so the tolerance choice
is uncritical.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterRangeError
from .linalg import fwht_normalized, is_power_of_two
from .randomness import derive_stream
from .reports import AttackReport, newcombe_diff_ci_95
from . import privacy, transforms

GUESS_A = "A"
GUESS_ATILDE = "A_tilde"
ABSTAIN = "abstain"


@dataclass(frozen=True)
class NeighbourPair:
    """Two private matrices with a certified small difference."""

    name: str
    a: np.ndarray
    a_tilde: np.ndarray
    v: np.ndarray
    col_index: int
    symmetric: bool
    target_kind: transforms.TransformKind
    w: float
    n: int
    predicted_rate: float | None

    def __post_init__(self):
        diff = self.a_tilde - self.a
        if self.symmetric:
            ei = np.zeros(self.n)
            ei[self.col_index] = 1.0
            expected = 0.5 * (np.outer(self.v, ei) + np.outer(ei, self.v))
        else:
            expected = np.zeros_like(diff)
            expected[:, self.col_index] = self.v
        if np.abs(diff - expected).max() > 1e-12:
            raise ContractError("neighbour certificate violated: wrong difference")
        if np.linalg.norm(self.v) > 1.0 + 1e-12:
            raise ContractError("neighbour certificate violated: ||v|| > 1")


def _orthonormal_hadamard(n: int) -> np.ndarray:
    return fwht_normalized(np.eye(n))


def pair_bounded_orthonormal(n: int, w: float) -> NeighbourPair:
    """The 2x2-block pair for the combined-row subsampled construction.

    A = w I + e1 e2^T and A~ = A + e2 e1^T, whose top-left blocks are
    (w 1; 0 w) and (w 1; 1 w).
    """
    if not is_power_of_two(n) or w <= 0:
        raise ParameterRangeError("need power-of-two n and w > 0")
    a = w * np.eye(n)
    a[0, 1] = 1.0
    a_tilde = a.copy()
    a_tilde[1, 0] = 1.0
    v = np.zeros(n)
    v[1] = 1.0
    return NeighbourPair(
        name="bounded-orthonormal",
        a=a,
        a_tilde=a_tilde,
        v=v,
        col_index=0,
        symmetric=False,
        target_kind=transforms.TransformKind(transforms.SUBSAMPLED_HADAMARD, bucket=2),
        w=w,
        n=n,
        predicted_rate=2.0 ** (-2 - 3),
    )


def _hadamard_pair(n, w, target_kind, name, rate, symmetric=False) -> NeighbourPair:
    if not is_power_of_two(n) or w <= 0:
        raise ParameterRangeError("need power-of-two n and w > 0")
    wn = _orthonormal_hadamard(n)
    a = w * wn.T
    v = np.zeros(n)
    v[0] = v[1] = 1.0 / math.sqrt(2.0)
    if symmetric:
        ei = np.zeros(n)
        ei[1] = 1.0
        a_tilde = a + 0.5 * (np.outer(v, ei) + np.outer(ei, v))
    else:
        a_tilde = a.copy()
        a_tilde[:, 1] += v
    return NeighbourPair(
        name=name,
        a=a,
        a_tilde=a_tilde,
        v=v,
        col_index=1,
        symmetric=symmetric,
        target_kind=target_kind,
        w=w,
        n=n,
        predicted_rate=rate,
    )


def pair_hadamard(n: int, w: float, symmetric: bool = False) -> NeighbourPair:
    """A = w W^T, A~ = A + v e2^T for the hash-based sparse construction."""
    return _hadamard_pair(
        n,
        w,
        transforms.TransformKind(transforms.HASH_SPARSE),
        "hadamard-hash",
        0.25,
        symmetric,
    )


def pair_circulant(n: int, w: float, symmetric: bool = False) -> NeighbourPair:
    """The same bounded-orthonormal pair run against the circulant rows."""
    return _hadamard_pair(
        n,
        w,
        transforms.TransformKind(transforms.PARTIAL_CIRCULANT),
        "circulant",
        None,
        symmetric,
    )


def pair_iterated(n: int, w: float, ell: int = 3) -> NeighbourPair:
    """A = w (W^T)^ell against the iterated sign-layer construction."""
    if ell % 2 == 0:
        raise ParameterRangeError("the iterated pair needs odd depth ell")
    if not is_power_of_two(n) or w <= 0:
        raise ParameterRangeError("need power-of-two n and w > 0")
    wn = _orthonormal_hadamard(n)
    a = w * np.linalg.matrix_power(wn.T, ell)
    v = np.zeros(n)
    v[0] = v[1] = 1.0 / math.sqrt(2.0)
    a_tilde = a.copy()
    a_tilde[:, 1] += v
    return NeighbourPair(
        name=f"iterated-l{ell}",
        a=a,
        a_tilde=a_tilde,
        v=v,
        col_index=1,
        symmetric=False,
        target_kind=transforms.TransformKind(transforms.AILON_LIBERTY, depth=ell),
        w=w,
        n=n,
        predicted_rate=None,  # r/4n, filled in by run_attack once r is known
    )


def pair_for(kind: transforms.TransformKind, n: int, w: float) -> NeighbourPair | None:
    """The pair attacked when kind is the target, or None if no attack targets it.

    The subsampled-hadamard attack is built for bucket B=2 only; any other
    bucket raises ParameterRangeError.
    """
    if kind.tag == transforms.SUBSAMPLED_HADAMARD:
        if kind.bucket != 2:
            raise ParameterRangeError(
                f"the subsampled-hadamard attack supports only bucket B=2, not B={kind.bucket}"
            )
        return pair_bounded_orthonormal(n, w)
    if kind.tag == transforms.HASH_SPARSE:
        return pair_hadamard(n, w)
    if kind.tag == transforms.PARTIAL_CIRCULANT:
        return pair_circulant(n, w)
    if kind.tag == transforms.AILON_LIBERTY:
        return pair_iterated(n, w, kind.depth)
    return None


# -- lattice pattern helpers -------------------------------------------------


def _on_lattice(values: np.ndarray, step: float, tol: float) -> np.ndarray:
    q = values / step
    return np.abs(q - np.round(q)) * step <= tol


def _lattice_offsets(value: float, step_a: float, step_v: float, tol: float, kmax: int):
    """All k with value - k*step_v on the step_a lattice, |k| <= kmax."""
    ks = np.arange(-kmax, kmax + 1)
    shifted = value - ks * step_v
    return ks[_on_lattice(shifted, step_a, tol)]


def _lattice_steps(pair: NeighbourPair, r: int) -> tuple[float, float, int]:
    """(base-lattice step, offset step, max offset index) per target kind."""
    n, w = pair.n, pair.w
    tag = pair.target_kind.tag
    if tag == transforms.HASH_SPARSE:
        return w / n, math.sqrt(2.0) / math.sqrt(n), n
    if tag == transforms.PARTIAL_CIRCULANT:
        return w / math.sqrt(r * n), math.sqrt(2.0) / math.sqrt(r), 1
    if tag == transforms.AILON_LIBERTY:
        ell = pair.target_kind.depth
        step_a = w * n ** ((1 - ell) / 2.0) / math.sqrt(r)
        step_v = math.sqrt(2.0 / (r * n)) * n ** (-(ell - 3) / 2.0)
        return step_a, step_v, n
    raise ContractError(f"no lattice structure defined for {tag}")


def distinguisher(
    output: np.ndarray,
    pair: NeighbourPair,
    probe: tuple,
    r: int,
) -> str:
    """Deterministic pattern check on the designated probe submatrix.

    Returns GUESS_A, GUESS_ATILDE, or ABSTAIN.  probe is (rows, cols)
    into the mechanism output; the events are exact (tolerance relative
    to w), so continuous-output mechanisms abstain almost surely.
    """
    rows, cols = probe
    tag = pair.target_kind.tag
    w = pair.w
    # Value-pattern gaps are Omega(1) in lattice units, so the comparison
    # tolerance is uncritical; lattice membership uses a tighter level
    # (float error is ~1e-14 relative) to keep the union over candidate
    # offsets from ever firing on continuous outputs.
    tol = 1e-9 * max(1.0, w)
    tol_lattice = 1e-12 * max(1.0, w)

    if tag == transforms.SUBSAMPLED_HADAMARD:
        bucket = pair.target_kind.bucket
        kappa = 1.0 / math.sqrt(r * bucket)
        col0 = np.abs(output[list(rows), cols[0]]) / kappa
        hi = bucket * (w + 1.0)
        lo = bucket * (w - 1.0)
        shifted = (np.abs(col0 - hi) <= tol / kappa) | (np.abs(col0 - lo) <= tol / kappa)
        if shifted.all() and output[rows[0], cols[0]] > 0:
            return GUESS_ATILDE
        # Unperturbed bucket sums give |col0| = w |S| with |S| of the
        # bucket's parity.
        clean = np.zeros(len(rows), dtype=bool)
        for mult in range(bucket % 2, bucket + 1, 2):
            clean |= np.abs(col0 - mult * w) <= tol / kappa
        return GUESS_A if clean.all() else ABSTAIN

    if tag in (transforms.HASH_SPARSE, transforms.PARTIAL_CIRCULANT):
        step_a, step_v, kmax = _lattice_steps(pair, r)
        entries = output[np.ix_(list(rows), list(cols))].ravel()
        on_base = _on_lattice(entries, step_a, tol_lattice)
        if on_base.all():
            return GUESS_A
        displaced = 0
        for e in entries[~on_base]:
            ks = _lattice_offsets(float(e), step_a, step_v, tol_lattice, kmax)
            displaced += any(k != 0 for k in ks)
            if displaced >= 2:
                return GUESS_ATILDE
        return ABSTAIN

    if tag == transforms.AILON_LIBERTY:
        step_a, step_v, kmax = _lattice_steps(pair, r)
        offs = []
        for b in rows:
            ks = _lattice_offsets(
                float(output[b, cols[1]]), step_a, step_v, tol_lattice, kmax
            )
            if len(ks) != 1:
                return ABSTAIN
            offs.append(int(ks[0]))
        if all(k == 0 for k in offs):
            return GUESS_A
        if offs[0] > 0 and all(k == offs[0] for k in offs):
            return GUESS_ATILDE
        return ABSTAIN

    raise ContractError(f"no distinguisher defined for kind {tag}")


def _default_probe(pair: NeighbourPair, r: int) -> tuple:
    if pair.target_kind.tag in (transforms.SUBSAMPLED_HADAMARD, transforms.AILON_LIBERTY):
        return ((0, 1), (0, 1))
    # block events scan every output row of the two designated columns
    return (tuple(range(r)), (0, 1))


def _build_mechanism(kind, n, r, src):
    t = transforms.build(kind, n, r, src, allow_large_r=True)
    if kind.tag == transforms.SUBSAMPLED_HADAMARD:
        # The combined-row construction carries its norm-preserving sign
        # diagonal; the attack targets the full published operator.
        t = transforms.kw11_wrap(t, src)
    return t


def _run_trials(pair, mechanism, trials, seed, r, pair_name, predicted) -> AttackReport:
    """Run the distinguisher on both worlds, one derived stream per trial."""
    probe = _default_probe(pair, r)
    guesses = Counter()
    for i in range(trials):
        t = _build_mechanism(mechanism, pair.n, r, derive_stream(seed, i))
        for world, a in (("A", pair.a), ("A_tilde", pair.a_tilde)):
            out = transforms.apply_columns(t, a[:, :2])
            guesses[world, distinguisher(out, pair, probe, r)] += 1
    fired_a = guesses["A", GUESS_ATILDE]
    fired_at = guesses["A_tilde", GUESS_ATILDE]
    return AttackReport(
        target_kind=mechanism.describe(),
        pair_name=pair_name,
        n=pair.n,
        trials=trials,
        distinguisher_name=f"lattice-pattern@{pair.target_kind.tag}",
        successes_on_A=guesses["A", GUESS_A],
        successes_on_Atilde=fired_at,
        fired_tilde_on_A=fired_a,
        fired_tilde_on_Atilde=fired_at,
        advantage=abs(fired_at - fired_a) / trials,
        wilson_ci=newcombe_diff_ci_95(fired_at, trials, fired_a, trials),
        predicted_rate=predicted,
        abstain_rate_A=guesses["A", ABSTAIN] / trials,
        abstain_rate_Atilde=guesses["A_tilde", ABSTAIN] / trials,
        seed=seed,
    )


def run_attack(
    pair: NeighbourPair, trials: int, seed: int, r: int = 16
) -> AttackReport:
    """Estimate the distinguisher's identification rates on both worlds."""
    if trials < 10**3:
        raise ParameterRangeError("run_attack needs at least 10^3 trials")
    predicted = pair.predicted_rate
    if pair.target_kind.tag == transforms.AILON_LIBERTY:
        predicted = r / (4.0 * pair.n)
    return _run_trials(pair, pair.target_kind, trials, seed, r, pair.name, predicted)


def gaussian_control(
    pair: NeighbourPair,
    mechanism: str | transforms.TransformKind,
    params: privacy.DpParams,
    trials: int,
    seed: int,
    r: int = 16,
) -> AttackReport:
    """The same distinguisher against a Gaussian-entried mechanism.

    Requires the pair's w to clear the privacy floor; the deterministic
    events then never fire and the advantage interval straddles zero.
    """
    if isinstance(mechanism, str):
        mechanism = transforms.parse_kind(mechanism)
    if mechanism.tag not in transforms.GAUSSIAN_ENTRIED:
        raise ContractError("control arm needs a Gaussian-entried mechanism")
    threshold = privacy.w_threshold(params.alpha, params.beta, params.r)
    if pair.w < threshold:
        raise privacy.PrivacyPreconditionError(
            f"pair w={pair.w:.6g} below privacy floor {threshold:.6g}",
            sigma_min=pair.w,
            threshold=threshold,
        )
    return _run_trials(pair, mechanism, trials, seed, r, pair.name + "/control", None)
