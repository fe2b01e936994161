"""Brute-force restricted-isometry constants at desk scale.

delta_k is computed exactly by enumerating every support of size k,
forming the k x k Gram matrix of the restricted columns, and taking the
worst eigenvalue deviation from 1.  Supports of size exactly k suffice:
constants over nested supports are monotone, so smaller supports never
dominate.
"""

from __future__ import annotations

import math
from itertools import combinations, islice

import numpy as np

from .errors import ParameterRangeError, ResourceError
from .linalg import symmetric_eigenvalues
from .randomness import derive_stream
from .reports import RipReport
from . import transforms

_ENUM_LIMIT = 10**6
# Supports whose Gram matrices go to LAPACK in one stacked call.
_CHUNK = 1024


def rip_constant(m: np.ndarray, k: int) -> tuple[float, tuple[int, ...]]:
    """(delta_k, worst_support) for an explicit matrix.

    Enumeration is lexicographic and ties keep the first support found,
    so reports are deterministic.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ParameterRangeError("rip_constant expects a matrix")
    n = m.shape[1]
    if not 1 <= k <= n:
        raise ParameterRangeError(f"support size k={k} out of range for n={n}")
    count = math.comb(n, k)
    if count > _ENUM_LIMIT:
        raise ResourceError(
            f"C({n},{k}) = {count} supports exceed the {_ENUM_LIMIT} enumeration guard"
        )
    worst = -1.0
    worst_support: tuple[int, ...] = ()
    supports = combinations(range(n), k)
    while chunk := list(islice(supports, _CHUNK)):
        rows = m.T[np.array(chunk)]
        lam = symmetric_eigenvalues(rows @ np.swapaxes(rows, 1, 2))
        dev = np.maximum(lam[:, -1] - 1.0, 1.0 - lam[:, 0])
        # argmax keeps the first support among ties, as the scan did.
        j = int(np.argmax(dev))
        if dev[j] > worst:
            worst = float(dev[j])
            worst_support = chunk[j]
    return worst, worst_support


def rip_survey(kind, n: int, r: int, k: int, seeds: int, seed: int = 0) -> RipReport:
    """delta_k distribution of a transform ensemble over realized seeds."""
    if isinstance(kind, str):
        kind = transforms.parse_kind(kind)
    deltas = np.empty(seeds)
    worst_delta = -1.0
    worst_support: tuple[int, ...] = ()
    for i in range(seeds):
        src = derive_stream(seed, i)
        t = transforms.build(kind, n, r, src, allow_large_r=True)
        d, support = rip_constant(transforms.realize_dense(t), k)
        deltas[i] = d
        if d > worst_delta:
            worst_delta = d
            worst_support = support
    quantiles = {
        "10": float(np.quantile(deltas, 0.10)),
        "50": float(np.quantile(deltas, 0.50)),
        "90": float(np.quantile(deltas, 0.90)),
        "max": float(deltas.max()),
    }
    return RipReport(
        kind=kind.describe(),
        n=n,
        r=r,
        k=k,
        delta_k=float(np.median(deltas)),
        worst_support=list(worst_support),
        seeds_evaluated=seeds,
        delta_quantiles=quantiles,
        seed=seed,
    )
