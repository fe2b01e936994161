"""Dense matrix/vector kernels shared by every other module.

Everything here is deterministic and pure: the in-place fast Walsh-Hadamard
butterfly, symmetric eigenvalues, extreme singular values and least squares
through LAPACK (numpy.linalg), and circular convolution through the real FFT
(numpy.fft).

Hadamard matrices are never materialized; only the butterfly is exposed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DimensionError, SingularMatrixError


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def require_finite(a: np.ndarray, what: str = "input") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ContractError(f"{what} contains NaN or Inf entries")
    return a


def fwht_normalized(v: np.ndarray) -> np.ndarray:
    """Orthonormal Walsh-Hadamard transform W @ v, entries of W are +-1/sqrt(n).

    Accepts a vector of power-of-two length, or a matrix whose axis-0 length
    is a power of two (each column is transformed).  O(n log n) butterfly;
    the transform is an involution.
    """
    a = np.array(v, dtype=float, copy=True, order="C")
    n = a.shape[0]
    if not is_power_of_two(n):
        raise DimensionError(f"fwht length must be a power of two, got {n}")
    flat_vector = a.ndim == 1
    if flat_vector:
        a = a[:, None]
    cols = a.shape[1]
    h = 1
    while h < n:
        pairs = a.reshape(n // (2 * h), 2, h, cols)
        top = pairs[:, 0]
        bot = pairs[:, 1]
        diff = top - bot
        top += bot
        bot[...] = diff
        h *= 2
    a /= math.sqrt(n)
    return a[:, 0] if flat_vector else a


def symmetric_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending (LAPACK eigvalsh).

    Also takes a stack of matrices, shape (..., k, k), and returns their
    eigenvalues in shape (..., k).  Each matrix must be symmetric within
    1e-10 * max(1, ||M||_F); the symmetrized matrix is decomposed.
    """
    a = require_finite(m, "matrix")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    at = np.swapaxes(a, -1, -2)
    if a.size:
        scale = np.linalg.norm(a, axis=(-2, -1))
        if np.any(np.abs(a - at).max(axis=(-2, -1)) > 1e-10 * np.maximum(1.0, scale)):
            raise ContractError("matrix is not symmetric within 1e-10")
    return np.linalg.eigvalsh(0.5 * (a + at))


def spectral_extremes(m: np.ndarray) -> tuple[float, float]:
    """(sigma_min, sigma_max) of an arbitrary matrix, over its min(rows, cols)
    singular values (LAPACK, values only)."""
    a = np.atleast_2d(require_finite(m, "matrix"))
    if a.ndim != 2 or a.size == 0:
        raise DimensionError(f"expected a non-empty matrix, got shape {a.shape}")
    sigma = np.linalg.svd(a, compute_uv=False)
    return float(sigma[-1]), float(sigma[0])


def least_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin_x ||A x - b||_2 (LAPACK lstsq).

    A must have at least as many rows as columns and sigma_min(A) above
    1e-6 * sigma_max(A); rank-deficient systems raise SingularMatrixError
    carrying the condition estimate sigma_max / sigma_min (inf when
    sigma_min is 0).
    """
    a = require_finite(a, "matrix")
    b = require_finite(b, "right-hand side")
    if a.ndim != 2:
        raise DimensionError("A must be a matrix")
    if b.ndim != 1 or b.shape[0] != a.shape[0]:
        raise DimensionError(
            f"b has length {b.shape[0] if b.ndim == 1 else '?'}, expected {a.shape[0]}"
        )
    rows, cols = a.shape
    if cols == 0:
        raise DimensionError("least squares needs at least one column")
    if rows < cols:
        raise DimensionError(f"underdetermined system {rows}x{cols}")
    x, _, _, sigma = np.linalg.lstsq(a, b, rcond=None)
    if sigma[-1] <= 1e-6 * sigma[0]:
        cond = math.inf if sigma[-1] == 0 else float(sigma[0] / sigma[-1])
        raise SingularMatrixError(
            f"rank-deficient least-squares system (condition ~ {cond:.3e})",
            condition_estimate=cond,
        )
    return x


def circular_convolve(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y_i = sum_j g_{(i-j) mod n} x_j through the real FFT, O(n log n).

    x is a length-n vector or an (n, m) matrix convolved column by column.
    """
    g = require_finite(g, "generator")
    x = require_finite(x, "input")
    if g.ndim != 1 or x.ndim not in (1, 2) or not 0 < g.shape[0] == x.shape[0]:
        raise DimensionError(
            "circular_convolve requires a generator and an input of equal length"
        )
    n = g.shape[0]
    spectrum = np.fft.rfft(g)
    if x.ndim == 2:
        spectrum = spectrum[:, None]
    return np.fft.irfft(spectrum * np.fft.rfft(x, axis=0), n=n, axis=0)


def circulant_rows(g: np.ndarray, count: int) -> np.ndarray:
    """First `count` rows of the circulant matrix generated by g."""
    g = require_finite(g, "generator")
    n = g.shape[0]
    return g[(np.arange(count)[:, None] - np.arange(n)) % n]


def save_matrix_csv(path, m: np.ndarray) -> None:
    """Write a matrix as CSV: first line "rows,cols", then row-major values.

    Values are written with shortest round-trip notation (exact at 17
    significant digits).
    """
    a = np.atleast_2d(np.asarray(m, dtype=float))
    rows, cols = a.shape
    with open(path, "w") as fh:
        fh.write(f"{rows},{cols}\n")
        for i in range(rows):
            fh.write(",".join(repr(float(v)) for v in a[i]) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            rows, cols = (int(part) for part in header.split(","))
        except ValueError as exc:
            raise DimensionError(f"bad matrix header {header!r}") from exc
        values = []
        for line in fh:
            line = line.strip()
            if line:
                values.extend(float(tok) for tok in line.split(","))
    if len(values) != rows * cols:
        raise DimensionError(
            f"expected {rows * cols} values, found {len(values)}"
        )
    return np.array(values).reshape(rows, cols)
