"""Adapted triangular form and spectrum analysis of a contracting linear part.

Everything downstream assumes the linear part is upper triangular with
eigenvalue moduli nondecreasing along the diagonal and strictly inside the
unit disk.  This module produces that form (unitary Schur change of basis
plus stable diagonal reordering), groups coordinates into equal-modulus
blocks, and provides the diagonal rescaling that shrinks the nilpotent part
below a requested bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotContracting, NotTriangular, ValidationError

MAX_DIMENSION = 16

DEFAULT_BLOCK_TOL = 1e-9
DEFAULT_MARGIN = 1e-9

# Relative window inside which a log-moduli ratio is snapped to the nearest
# integer, so exact relations like |l1| = |ln|^3 survive floating point.
_RATIO_SNAP = 1e-9


def require_matrix(matrix) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {matrix.shape}")
    if matrix.shape[0] < 1 or matrix.shape[0] > MAX_DIMENSION:
        raise ValidationError(
            f"dimension {matrix.shape[0]} outside supported range 1..{MAX_DIMENSION}")
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("matrix has non-finite entries")
    return matrix


@dataclass(frozen=True, eq=False)
class SpectrumData:
    """Validated spectral data of an adapted contracting linear part.

    ``blocks`` partitions coordinate indices (0-based) into groups of equal
    eigenvalue modulus, ordered by increasing modulus; ``block_of`` maps each
    coordinate to its block.  ``c0`` is the ceiling of
    ``ln|l_1| / ln|l_n|`` and bounds the degrees that matter for the normal
    form; ``degree_bound`` is the floor of the same ratio and bounds the
    degree of any sub-resonant polynomial.
    """

    n: int
    T: np.ndarray
    diag: np.ndarray
    moduli: np.ndarray
    log_moduli: np.ndarray
    blocks: tuple[tuple[int, ...], ...]
    block_of: tuple[int, ...]
    c0: int
    degree_bound: int

    def __post_init__(self):
        for name in ("T", "diag", "moduli", "log_moduli"):
            getattr(self, name).setflags(write=False)

    def block_log_modulus(self, block_index: int) -> float:
        return float(self.log_moduli[self.blocks[block_index][0]])

    def __repr__(self):
        moduli = ", ".join(f"{m:.4g}" for m in self.moduli)
        return f"SpectrumData(n={self.n}, moduli=[{moduli}], c0={self.c0})"


def same_spectrum(a: SpectrumData, b: SpectrumData) -> bool:
    return a.n == b.n and np.array_equal(a.T, b.T)


def triangularize(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Unitary change of basis to upper triangular form with ordered diagonal.

    Returns ``(Q, T)`` with ``Q`` unitary, ``T = Q^H A Q`` upper triangular
    and ``|T[0,0]| <= ... <= |T[n-1,n-1]|``; equal moduli keep their
    first-seen order.
    """
    matrix = require_matrix(matrix)
    n = matrix.shape[0]
    if np.count_nonzero(np.tril(matrix, -1)) == 0:
        # Already triangular: only the stable reorder is needed.
        Q = np.eye(n, dtype=complex)
        T = matrix.copy()
    else:
        import scipy.linalg  # its only use here; deferred, as it dominates import time

        try:
            T, Q = scipy.linalg.schur(matrix, output="complex")
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - pathological
            raise NoConvergence(f"Schur iteration failed: {exc}") from exc
        T = np.asarray(T, dtype=complex)
        Q = np.asarray(Q, dtype=complex)
    _sort_triangular_inplace(Q, T)
    return Q, T


def _sort_triangular_inplace(Q: np.ndarray, T: np.ndarray) -> None:
    """Stable bubble sort of the diagonal by modulus via unitary swaps."""
    n = T.shape[0]
    for _ in range(n):
        swapped = False
        for k in range(n - 1):
            if abs(T[k + 1, k + 1]) < abs(T[k, k]):
                _swap_adjacent(Q, T, k)
                swapped = True
        if not swapped:
            break


def _swap_adjacent(Q: np.ndarray, T: np.ndarray, k: int) -> None:
    """Exchange diagonal entries k, k+1 of triangular T by a unitary rotation."""
    a = T[k, k]
    b = T[k + 1, k + 1]
    t = T[k, k + 1]
    # Eigenvector of [[a, t], [0, b]] for eigenvalue b.
    x = np.array([t, b - a], dtype=complex)
    norm = np.linalg.norm(x)
    if norm == 0:
        return  # equal diagonal entries; nothing to swap
    u = x / norm
    G = np.array([[u[0], -np.conj(u[1])], [u[1], np.conj(u[0])]], dtype=complex)
    idx = slice(k, k + 2)
    T[idx, :] = G.conj().T @ T[idx, :]
    T[:, idx] = T[:, idx] @ G
    Q[:, idx] = Q[:, idx] @ G
    T[k + 1, k] = 0.0

def analyze_spectrum(T, block_tol: float = DEFAULT_BLOCK_TOL) -> SpectrumData:
    """Spectrum data of an adapted upper-triangular contracting matrix."""
    T = require_matrix(T)
    n = T.shape[0]
    sub = np.tril(T, -1)
    if np.count_nonzero(sub) != 0:
        bad = np.argwhere(sub != 0)[0]
        raise NotTriangular(f"nonzero subdiagonal entry at ({bad[0] + 1}, {bad[1] + 1})")
    diag = np.array(np.diag(T), dtype=complex)
    moduli = np.abs(diag)
    if np.any(moduli <= DEFAULT_MARGIN):
        raise NotContracting("an eigenvalue modulus is zero or below the margin")
    if np.any(moduli >= 1.0 - DEFAULT_MARGIN):
        raise NotContracting(
            f"largest eigenvalue modulus {moduli.max():.6g} is not strictly below 1")
    for k in range(n - 1):
        if moduli[k] > moduli[k + 1] * (1.0 + block_tol):
            raise ValidationError(
                "diagonal moduli must be nondecreasing; re-run triangularize first")

    blocks: list[tuple[int, ...]] = []
    current = [0]
    for k in range(1, n):
        if abs(moduli[k] - moduli[current[0]]) <= block_tol * moduli[current[0]]:
            current.append(k)
        else:
            blocks.append(tuple(current))
            current = [k]
    blocks.append(tuple(current))
    block_of = [0] * n
    for b, coords in enumerate(blocks):
        for k in coords:
            block_of[k] = b

    log_moduli = np.log(moduli)
    ratio = float(log_moduli[0] / log_moduli[-1])
    nearest = round(ratio)
    if abs(ratio - nearest) <= _RATIO_SNAP * max(1.0, abs(ratio)):
        snapped = float(nearest)
    else:
        snapped = ratio
    return SpectrumData(
        n=n,
        T=T.copy(),
        diag=diag,
        moduli=moduli,
        log_moduli=log_moduli,
        blocks=tuple(blocks),
        block_of=tuple(block_of),
        c0=int(math.ceil(snapped)),
        degree_bound=int(math.floor(snapped)),
    )


def rescale_nilpotent(T, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal similarity shrinking all strictly-upper entries below ``eps``.

    Returns ``(S, T')`` with ``S = diag(d, d^2, ..., d^n)`` and
    ``T' = S^{-1} T S``; the diagonal of ``T`` is preserved exactly.
    """
    T = require_matrix(T)
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    n = T.shape[0]
    if np.count_nonzero(np.tril(T, -1)) != 0:
        raise NotTriangular("rescale_nilpotent expects an upper-triangular matrix")
    delta = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            a = abs(T[i, j])
            if a > eps:
                delta = min(delta, (eps / a) ** (1.0 / (j - i)))
    S = np.diag([complex(delta ** (k + 1)) for k in range(n)])
    scaled = T.copy()
    for i in range(n):
        for j in range(i + 1, n):
            scaled[i, j] = T[i, j] * delta ** (j - i)
    return S, scaled
