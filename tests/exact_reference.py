"""Reference normal form and translation conjugate in 50-digit arithmetic,
sharing no code with srnf.

For a germ ``F`` in adapted coordinates (upper-triangular linear part
``T``), solves ``F o phi = phi o P`` degree by degree with the same
normalization as the pipeline: at degree ``q`` the error
``E = [F o phi - phi o P]_q`` splits as ``E = R + (h o T - T o h)``, where
``R`` lives on the resonant positions (``|l^I - l_j| <= RES_TOL |l_j|``) and
``h`` on the others.  In the monomial basis ordered with larger exponents on
later variables first (components ascending within a monomial) the operator
``h -> h o T - T o h`` is upper triangular, and back-substitution from the
last position down fixes ``R`` and ``h`` uniquely.

Everything here is naive on purpose: compositions recompute every power
from scratch in dictionaries of ``mpmath`` numbers, and the operator is
applied to each basis element by composition.  Jets are dictionaries
``{(exponents, component): coefficient}`` with 0-based components.

:func:`translate_conjugate` expands ``h(z + tau) - h(tau)`` binomially,
monomial by monomial.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import mpmath

DPS = 50

# The pipeline's default resonance cutoff (``RunConfig.res_tol``).
RES_TOL = 1e-9


def load_germ(path: Path) -> tuple[int, dict]:
    """Dimension and terms of a germ document (1-based components, ``[re, im]`` pairs)."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("coordinates", "adapted") != "adapted":
        raise ValueError("the reference takes germs in adapted coordinates only")
    terms = {(tuple(t["exponents"]), t["component"] - 1): complex(*t["coeff"])
             for t in doc["terms"]}
    return doc["dimension"], terms


def _degree(index) -> int:
    return sum(index)


def _multiply(a: dict, b: dict, cap: int) -> dict:
    """Product of scalar polynomials ``{exponents: coefficient}`` through degree ``cap``."""
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            index = tuple(x + y for x, y in zip(ia, ib))
            if _degree(index) <= cap:
                out[index] = out.get(index, 0) + ca * cb
    return out


def compose(f: dict, g: dict, n: int, cap: int) -> dict:
    """Terms of ``f o g`` of degree at most ``cap``."""
    scalar = [{index: c for (index, comp), c in g.items() if comp == k} for k in range(n)]
    one = {(0,) * n: mpmath.mpf(1)}
    out = {}
    for (index, comp), coeff in f.items():
        if _degree(index) > cap:
            continue
        product = one
        for k, e in enumerate(index):
            for _ in range(e):
                product = _multiply(product, scalar[k], cap)
        for mono, value in product.items():
            key = (mono, comp)
            out[key] = out.get(key, 0) + coeff * value
    return out


def _indices(n: int, q: int):
    if n == 1:
        return [(q,)]
    return [(head,) + tail for head in range(q, -1, -1) for tail in _indices(n - 1, q - head)]


def basis(n: int, q: int) -> list:
    """Degree-``q`` positions ``(exponents, component)`` in the operator's order."""
    indices = sorted(_indices(n, q), key=lambda index: tuple(-e for e in reversed(index)))
    return [(index, comp) for index in indices for comp in range(n)]


def _operator_column(T, n: int, index, comp) -> dict:
    """``h o T - T o h`` for ``h = z^index e_comp``."""
    linear = {(tuple(int(i == k) for i in range(n)), row): T[row][k]
              for row in range(n) for k in range(n) if T[row][k] != 0}
    column = compose({(index, comp): mpmath.mpf(1)}, linear, n, _degree(index))
    for row in range(n):
        if T[row][comp] != 0:
            column[(index, row)] = column.get((index, row), 0) - T[row][comp]
    return column


def normal_form(n: int, germ: dict, D: int) -> tuple[dict, dict]:
    """``(P, phi)`` through degree ``D``, nonzero terms only."""
    with mpmath.workdps(DPS):
        F = {key: mpmath.mpc(c.real, c.imag) for key, c in germ.items()}
        T = [[F.get((tuple(int(i == k) for i in range(n)), row), mpmath.mpc(0))
              for k in range(n)] for row in range(n)]
        if any(T[row][k] != 0 for row in range(n) for k in range(row)):
            raise ValueError("linear part is not upper triangular")
        lam = [T[k][k] for k in range(n)]
        P = {key: c for key, c in F.items() if _degree(key[0]) == 1}
        phi = {(tuple(int(i == k) for i in range(n)), k): mpmath.mpc(1) for k in range(n)}
        for q in range(2, D + 1):
            left, right = compose(F, phi, n, q), compose(phi, P, n, q)
            error = {key: left.get(key, 0) - right.get(key, 0)
                     for key in set(left) | set(right) if _degree(key[0]) == q}
            positions = basis(n, q)
            rank = {key: r for r, key in enumerate(positions)}
            residual = [error.get(key, mpmath.mpc(0)) for key in positions]
            for c in reversed(range(len(positions))):
                index, comp = positions[c]
                lam_index = mpmath.fprod(l ** e for l, e in zip(lam, index))
                if abs(lam_index - lam[comp]) <= RES_TOL * abs(lam[comp]):
                    if residual[c] != 0:
                        P[positions[c]] = residual[c]
                    continue
                column = _operator_column(T, n, index, comp)
                if any(rank[key] > c for key, v in column.items() if v != 0):
                    raise AssertionError("operator is not upper triangular")
                h = residual[c] / column[positions[c]]
                if h != 0:
                    phi[positions[c]] = h
                for key, value in column.items():
                    residual[rank[key]] -= h * value
        return P, phi


def translate_conjugate(terms: dict, tau) -> dict:
    """``z -> h(z + tau) - h(tau)`` for ``h`` with the given terms, nonzero terms only."""
    with mpmath.workdps(DPS):
        shift = [mpmath.mpc(t.real, t.imag) for t in tau]
        out = {}
        for (index, comp), coeff in terms.items():
            for sub in itertools.product(*(range(e + 1) for e in index)):
                if not any(sub):
                    continue  # a constant: part of h(tau)
                value = mpmath.mpc(coeff.real, coeff.imag)
                for e, m, t in zip(index, sub, shift):
                    value *= mpmath.binomial(e, m) * t ** (e - m)
                key = (sub, comp)
                out[key] = out.get(key, 0) + value
        return {key: value for key, value in out.items() if value != 0}


def distance(computed: dict, exact: dict) -> dict:
    """Per degree: largest gap over the largest exact coefficient, in units of 2**-52."""
    scale, gap = {}, {}
    for key in set(computed) | set(exact):
        q = _degree(key[0])
        value = exact.get(key, 0)
        scale[q] = max(scale.get(q, 0.0), float(abs(value)))
        gap[q] = max(gap.get(q, 0.0), float(abs(complex(computed.get(key, 0)) - value)))
    return {q: gap[q] / (scale[q] * 2.0 ** -52) if scale[q] else gap[q] for q in sorted(gap)}
