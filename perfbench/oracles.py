"""Reference computations the benchmark checks srnf's outputs against.

Nothing here imports srnf.  Polynomial maps are plain dicts
``{(exponents, component): coeff}`` with 0-based components, the same term
keys srnf uses, or, for composition, dense arrays over all monomials up to
a degree (:class:`Jets`).  Every routine is written from the definitions:
composition substitutes the inner components monomial by monomial,
evaluation sums ``c * z^I``, and the resonance tests read the eigenvalues
off ``diag(T)``.
"""

from __future__ import annotations

import math

import numpy as np


def poly_from_doc_terms(terms) -> dict:
    """Terms of a JSON document (1-based ``component``, ``[re, im]`` pairs)."""
    out = {}
    for t in terms:
        key = (tuple(t["exponents"]), t["component"] - 1)
        out[key] = complex(t["coeff"][0], t["coeff"][1])
    return out


def matrix_from_doc(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def linear_poly(matrix) -> dict:
    """The linear map ``z -> A z`` as a polynomial."""
    matrix = np.asarray(matrix, dtype=complex)
    n = matrix.shape[0]
    out = {}
    for j in range(n):
        for k in range(n):
            if matrix[j, k] != 0:
                out[(tuple(int(i == k) for i in range(n)), j)] = complex(matrix[j, k])
    return out


def linear_matrix(poly: dict, n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    for (index, comp), coeff in poly.items():
        if sum(index) == 1:
            out[comp, index.index(1)] += coeff
    return out


def nonlinear(poly: dict) -> dict:
    return {key: c for key, c in poly.items() if sum(key[0]) >= 2}


def abs_poly(poly: dict) -> dict:
    return {key: abs(c) for key, c in poly.items()}


class Jets:
    """Polynomial maps of ``n`` variables truncated at degree ``D``, as dense arrays.

    A map is an ``(n, M)`` complex array: row ``j`` holds component ``j``
    and column ``m`` the coefficient of ``monomials[m]``, all exponent tuples
    of total degree ``0..D`` in graded order.
    """

    def __init__(self, n: int, D: int):
        self.n, self.D = n, D
        self.monomials = [index for d in range(D + 1) for index in multi_indices(n, d)]
        self.rank = {index: m for m, index in enumerate(self.monomials)}
        self.degree = np.array([sum(index) for index in self.monomials])
        # (left, right, target) for every product of two monomials of degree sum <= D
        up_to = np.searchsorted(self.degree, np.arange(D + 1), side="right")
        left, right, target = [], [], []
        for a, ia in enumerate(self.monomials):
            for b in range(up_to[D - self.degree[a]]):
                left.append(a)
                right.append(b)
                target.append(self.rank[tuple(x + y for x, y in zip(ia, self.monomials[b]))])
        self._left, self._right = np.array(left), np.array(right)
        self._target = np.array(target)
        # each monomial of degree >= 1 as (monomial with one z_k fewer, k)
        self._parent = [None] + [
            (self.rank[index[:k] + (index[k] - 1,) + index[k + 1:]], k)
            for index in self.monomials[1:]
            for k in [next(k for k, e in enumerate(index) if e)]]

    def array(self, poly: dict, dtype=complex) -> np.ndarray:
        out = np.zeros((self.n, len(self.monomials)), dtype=dtype)
        for (index, comp), coeff in poly.items():
            if sum(index) <= self.D:
                out[comp, self.rank[tuple(index)]] += coeff
        return out

    def poly(self, arr: np.ndarray) -> dict:
        return {(self.monomials[m], j): complex(arr[j, m])
                for j, m in zip(*np.nonzero(arr))}

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated product of two scalar polynomials."""
        w = a[self._left] * b[self._right]
        size = len(self.monomials)
        if np.iscomplexobj(w):
            return (np.bincount(self._target, w.real, size)
                    + 1j * np.bincount(self._target, w.imag, size))
        return np.bincount(self._target, w, size)

    def compose(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """``f o g`` through degree D: every monomial ``z^I`` of ``f`` becomes ``prod g_k^{i_k}``.

        ``g`` must fix the origin (no constant column), so no term above D
        can feed back into degrees <= D.
        """
        if np.any(g[:, 0]):
            raise ValueError("the inner map must fix the origin")
        dtype = np.result_type(f, g)
        substituted = np.zeros((len(self.monomials), len(self.monomials)), dtype=dtype)
        substituted[0, 0] = 1
        for m in range(1, len(self.monomials)):
            parent, k = self._parent[m]
            substituted[m] = self.mul(substituted[parent], g[k])
        return f @ substituted


def evaluate(poly: dict, z, n: int) -> np.ndarray:
    """``sum c z^I e_j`` term by term; a key with all-zero exponents is a constant."""
    out = [0j] * n
    for (index, comp), coeff in poly.items():
        mono = coeff
        for zk, e in zip(z, index):
            if e:
                mono *= zk ** e
        out[comp] += mono
    return np.array(out, dtype=complex)


def abs_evaluate(poly: dict, z, n: int) -> np.ndarray:
    """``sum |c| |z|^I e_j``: bounds the size of every partial sum of :func:`evaluate`."""
    return np.abs(evaluate(abs_poly(poly), np.abs(np.asarray(z)), n))


def relative_gap(left: np.ndarray, right: np.ndarray, scale: np.ndarray):
    """Largest ``|left - right|`` and largest ``|left - right| / scale``, entrywise.

    ``scale`` holds, per coefficient, the size of the arithmetic that
    produced it, so the relative figure counts rounding units rather than
    stating the coefficients' own size.  A nonzero gap where the scale is
    zero is an infinite relative gap.
    """
    gap = np.abs(left - right)
    if not np.any(gap):
        return 0.0, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(gap > 0, gap / scale, 0.0)
    return float(gap.max()), float(rel.max())


def log_moduli(eigenvalues) -> np.ndarray:
    return np.log(np.abs(np.asarray(eigenvalues, dtype=complex)))


def is_resonant(eigenvalues, index, comp: int, tol: float) -> bool:
    """``|l^I - l_j| <= tol |l_j|``."""
    lam = np.asarray(eigenvalues, dtype=complex)
    lam_I = complex(np.prod(lam ** np.asarray(index)))
    return abs(lam_I - lam[comp]) <= tol * abs(lam[comp])


def is_subresonant(eigenvalues, index, comp: int, tol: float) -> bool:
    """``ln|l_j| <= sum_k i_k ln|l_k|``, with slack ``tol`` on the permissive side."""
    logs = log_moduli(eigenvalues)
    return logs[comp] <= float(np.dot(index, logs)) + tol


def degree_bound(eigenvalues, snap: float = 1e-9) -> int:
    """Largest degree a sub-resonant monomial can have: ``floor(ln|l_1| / ln|l_n|)``."""
    logs = log_moduli(eigenvalues)
    return int(math.floor(logs.min() / logs.max() + snap))


def subresonant_positions(eigenvalues, degree: int, tol: float) -> list:
    """Every sub-resonant ``(I, j)`` with ``|I| = degree``."""
    n = len(eigenvalues)
    return [(index, comp) for index in multi_indices(n, degree) for comp in range(n)
            if is_subresonant(eigenvalues, index, comp, tol)]


def multi_indices(n: int, degree: int):
    """All exponent tuples of ``n`` variables with the given total degree."""
    if n == 1:
        yield (degree,)
        return
    for head in range(degree, -1, -1):
        for tail in multi_indices(n - 1, degree - head):
            yield (head,) + tail
