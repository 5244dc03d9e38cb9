"""Adapted triangular form and spectrum analysis of a contracting linear part.

Everything downstream assumes the linear part is upper triangular with
eigenvalue moduli nondecreasing along the diagonal and strictly inside the
unit disk.  This module produces that form (unitary Schur change of basis
plus stable diagonal reordering) and groups coordinates into equal-modulus
blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotContracting, NotTriangular, ValidationError

MAX_DIMENSION = 16

BLOCK_TOL = 1e-9   # relative gap within which two moduli count as equal
DEFAULT_MARGIN = 1e-9

# Slack of the sub-resonance test on its permissive side, in log modulus: an
# exact resonance whose rounded logarithms miss equality by a few ulps passes.
SR_TOL = 1e-9


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
    eigenvalue modulus within ``BLOCK_TOL``, ordered by increasing modulus.
    ``c0`` is the ceiling of ``ln|l_1| / ln|l_n| - slack`` and bounds the
    degrees that matter for the normal form; ``degree_bound``, the floor of the
    ratio plus ``slack``, is the largest degree of a sub-resonant monomial.
    ``slack = SR_TOL / -ln|l_n|`` is the sub-resonance slack in ratio units.
    """

    n: int
    T: np.ndarray
    diag: np.ndarray
    moduli: np.ndarray
    log_moduli: np.ndarray
    blocks: tuple[tuple[int, ...], ...]
    c0: int
    degree_bound: int

    def __post_init__(self):
        for name in ("T", "diag", "moduli", "log_moduli"):
            getattr(self, name).setflags(write=False)

    def __repr__(self):
        moduli = ", ".join(f"{m:.4g}" for m in self.moduli)
        return f"SpectrumData(n={self.n}, moduli=[{moduli}], c0={self.c0})"


def same_spectrum(a: SpectrumData, b: SpectrumData) -> bool:
    return a.n == b.n and np.array_equal(a.T, b.T)


def triangularize(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Unitary change of basis to upper triangular form with ordered diagonal.

    Returns ``(Q, T)`` with ``Q`` unitary, ``T = Q^H A Q`` upper triangular
    and ``|T[0,0]| <= ... <= |T[n-1,n-1]|``.  A final stable sort swaps only
    strictly decreasing neighbours.  So an already triangular input keeps
    equal moduli in their given order (and ``Q = I`` if it is ordered);
    otherwise eigenvalues are deflated smallest computed modulus first, an
    exact tie going to the one ``np.linalg.eig`` lists first, and equal
    moduli come out in the order their rounded moduli give.
    """
    matrix = require_matrix(matrix)
    n = matrix.shape[0]
    Q = np.eye(n, dtype=complex)
    T = matrix.copy()
    if np.count_nonzero(np.tril(matrix, -1)):
        # Schur form by deflation: a reflector H with H e_1 parallel to an
        # eigenvector of the trailing block zeroes column k below the diagonal.
        for k in range(n - 1):
            try:
                vals, vecs = np.linalg.eig(T[k:, k:])
            except np.linalg.LinAlgError as exc:
                raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
            w = vecs[:, np.argmin(np.abs(vals))]
            # w = v - alpha e_1, alpha = -|v| v[0] / |v[0]|: magnitudes add, nothing cancels
            w[0] += np.exp(1j * np.angle(w[0])) * np.linalg.norm(w)
            H = np.eye(n - k) - (2.0 / np.vdot(w, w).real) * np.outer(w, w.conj())
            T[k:, k:] = H @ T[k:, k:]
            T[:, k:] = T[:, k:] @ H
            Q[:, k:] = Q[:, k:] @ H
            T[k + 1:, k] = 0.0
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

def analyze_spectrum(T) -> SpectrumData:
    """Spectrum data of an adapted upper-triangular contracting matrix, whose
    moduli may decrease along the diagonal by at most ``BLOCK_TOL``."""
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
        if moduli[k] > moduli[k + 1] * (1.0 + BLOCK_TOL):
            raise ValidationError(
                "diagonal moduli must be nondecreasing; re-run triangularize first")

    blocks: list[tuple[int, ...]] = []
    current = [0]
    for k in range(1, n):
        if abs(moduli[k] - moduli[current[0]]) <= BLOCK_TOL * moduli[current[0]]:
            current.append(k)
        else:
            blocks.append(tuple(current))
            current = [k]
    blocks.append(tuple(current))

    log_moduli = np.log(moduli)
    low, high = float(log_moduli.min()), float(log_moduli.max())
    ratio, slack = low / high, SR_TOL / -high
    # the largest r with z_n^r e_1 sub-resonant: the closed form can round past
    # a boundary by one, so subresonance._subresonant_mask's own test decides
    degree_bound = math.floor(ratio + slack) + 1
    while low > degree_bound * high + SR_TOL:
        degree_bound -= 1
    return SpectrumData(
        n=n,
        T=T.copy(),
        diag=diag,
        moduli=moduli,
        log_moduli=log_moduli,
        blocks=tuple(blocks),
        c0=math.ceil(ratio - slack),
        degree_bound=degree_bound,
    )
