"""Homological operators on homogeneous polynomial maps.

For a fixed adapted triangular linear part ``T``, the degree-``q`` operator
sends ``h`` to ``h o T - T o h``.  In the monomial basis ordered so that
larger exponents on later variables come first, the operator is upper
triangular with diagonal ``l^I - l_j``; back-substitution on its sparse
columns splits any homogeneous part into a resonant piece (kept in the
normal form) plus an operator image (removable by conjugation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegreeMismatch, DegreeOutOfRange, IllConditionedResonance
from .linalg import SpectrumData
from .polymap import (
    HomogeneousPart,
    MultiIndex,
    PolyJet,
    TermKey,
    compose_truncated,
    monomial_order_key,
    multi_indices,
    term_sort_key,
)
from .subresonance import DEFAULT_SR_TOL, is_subresonant_monomial

DEFAULT_RES_TOL = 1e-9

# Divisors between the resonance cutoff and this relative size are reported
# as small-divisor warnings.
SMALL_DIVISOR_REL = 1e-6


def order_compare(a: TermKey, b: TermKey) -> int:
    """Compare two same-degree basis positions; returns -1, 0 or 1.

    Exponents are compared from the last variable down, larger first; full
    multi-index ties fall back to the component, smaller first.
    """
    (ia, ja), (ib, jb) = a, b
    if len(ia) != len(ib):
        raise DegreeMismatch(f"multi-indices {ia} and {ib} differ in dimension")
    if sum(ia) != sum(ib):
        raise DegreeMismatch(f"multi-indices {ia} and {ib} differ in degree")
    ka = (monomial_order_key(ia), ja)
    kb = (monomial_order_key(ib), jb)
    return -1 if ka < kb else (0 if ka == kb else 1)


@dataclass(frozen=True)
class BasisOrdering:
    """All degree-``q`` monomial basis positions in ascending order."""

    q: int
    n: int
    pairs: tuple[TermKey, ...]
    rank: dict[TermKey, int] = field(repr=False)

    def __len__(self):
        return len(self.pairs)


def basis_ordering(n: int, q: int) -> BasisOrdering:
    if q < 1:
        raise DegreeOutOfRange(f"degree must be >= 1, got {q}")
    pairs = sorted(
        ((index, comp) for index in multi_indices(n, q) for comp in range(n)),
        key=term_sort_key)
    rank = {pair: r for r, pair in enumerate(pairs)}
    return BasisOrdering(q=q, n=n, pairs=tuple(pairs), rank=rank)


def basis_dimension(n: int, q: int) -> int:
    """dim of the space of q-homogeneous maps: n * C(q + n - 1, n - 1)."""
    return n * math.comb(q + n - 1, n - 1)


def apply_M(spectrum: SpectrumData, h: HomogeneousPart) -> HomogeneousPart:
    """The operator value ``h o T - T o h``, computed by jet composition."""
    if h.n != spectrum.n:
        raise DegreeMismatch(f"map dimension {h.n} does not match n={spectrum.n}")
    if h.q < 2:
        raise DegreeOutOfRange(f"operator is defined for degree >= 2, got {h.q}")
    T_jet = PolyJet.from_linear(spectrum.T, 1)
    right = compose_truncated(h, T_jet, h.q, prune=False)
    left_terms: dict[TermKey, complex] = {}
    for (index, comp), coeff in h.terms.items():
        for i in range(spectrum.n):
            entry = spectrum.T[i, comp]
            if entry != 0:
                key = (index, i)
                left_terms[key] = left_terms.get(key, 0j) + entry * coeff
    diff = right - PolyJet(h.n, h.q, left_terms)
    return HomogeneousPart(h.n, h.q, diff.terms)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Matrix of the degree-``q`` operator in the ordered monomial basis."""

    q: int
    ordering: BasisOrdering
    entries: np.ndarray
    diag: np.ndarray  # the exact products l^I - l_j, position by position

    def apply(self, h: HomogeneousPart) -> HomogeneousPart:
        vec = coefficient_vector(h, self.ordering)
        return vector_to_part(self.entries @ vec, self.ordering)


def coefficient_vector(h: HomogeneousPart, ordering: BasisOrdering) -> np.ndarray:
    vec = np.zeros(len(ordering), dtype=complex)
    for key, coeff in h.terms.items():
        vec[ordering.rank[key]] = coeff
    return vec


def vector_to_part(vec: np.ndarray, ordering: BasisOrdering) -> HomogeneousPart:
    terms = {ordering.pairs[r]: vec[r] for r in range(len(ordering)) if vec[r] != 0}
    return HomogeneousPart(ordering.n, ordering.q, terms)


def _multiply(a: dict, b: dict) -> dict:
    """Product of two polynomials stored as ``{multi-index: coefficient}``."""
    out: dict[MultiIndex, complex] = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            key = tuple(x + y for x, y in zip(ia, ib))
            out[key] = out.get(key, 0j) + ca * cb
    return out


def operator_columns(spectrum: SpectrumData, q: int):
    """The degree-``q`` operator as sparse columns: ``(ordering, columns, diag)``.

    ``columns[c]`` is a pair ``(rows, values)`` of arrays, one entry per
    structural nonzero of column ``c``, diagonal entry first; ``diag`` holds
    the exact products ``l^I - l_j``.  Columns are expanded from powers of
    the linear forms ``(Tz)_t``, independently of :func:`apply_M`, so the two
    routes cross-check each other; ``(Tz)^I`` is expanded once per index,
    whose components are adjacent in the ordering.  Off-diagonal entries
    land at strictly smaller ranks: the operator is upper triangular.
    """
    if q < 2:
        raise DegreeOutOfRange(f"operator matrices start at degree 2, got {q}")
    n, T = spectrum.n, spectrum.T
    ordering = basis_ordering(n, q)
    columns, diag = [], np.zeros(len(ordering), dtype=complex)
    linear_forms = [{tuple(int(i == k) for i in range(n)): complex(T[t, k])
                     for k in range(t, n) if T[t, k] != 0} for t in range(n)]
    one: dict[MultiIndex, complex] = {(0,) * n: 1.0 + 0j}
    powers = [[one] for _ in range(n)]  # powers[t][e] = (Tz)_t ** e, filled on demand
    for start in range(0, len(ordering), n):
        index = ordering.pairs[start][0]
        # (Tz)^I, expanded as a product of cached linear-form powers.
        acc = one
        for t, e in enumerate(index):
            if e == 0:
                continue
            while len(powers[t]) <= e:
                powers[t].append(_multiply(powers[t][-1], linear_forms[t]))
            acc = _multiply(acc, powers[t][e])
        # Diagonal monomial first; 0j + keeps the signed zeros of a dense sum.
        monos = [index] + [mono for mono in acc if mono != index]
        base = np.array([ordering.rank[(mono, 0)] for mono in monos])
        expanded = 0j + np.array([acc.get(mono, 0j) for mono in monos], dtype=complex)
        lam_I = np.prod(spectrum.diag ** np.array(index))
        for comp in range(n):
            rows, values = base + comp, expanded.copy()
            # minus T o (z^I e_comp): same multi-index, components above comp.
            above = [i for i in range(comp) if T[i, comp] != 0]
            values[0] -= T[comp, comp]
            if above:
                rows = np.concatenate([rows, start + np.array(above)])
                values = np.concatenate([values, [0j - T[i, comp] for i in above]])
            columns.append((rows, values))
            diag[start + comp] = lam_I - spectrum.diag[comp]
    return ordering, columns, diag


def build_matrix(spectrum: SpectrumData, q: int) -> OperatorMatrix:
    """The dense operator matrix, filled from :func:`operator_columns`."""
    ordering, columns, diag = operator_columns(spectrum, q)
    entries = np.zeros((len(ordering), len(ordering)), dtype=complex)
    for col, (rows, values) in enumerate(columns):
        entries[rows, col] = values
    return OperatorMatrix(q=q, ordering=ordering, entries=entries, diag=diag)


@dataclass(frozen=True)
class SplitResult:
    """Decomposition ``H = resonant + M(eliminated)`` of a homogeneous part."""

    resonant: HomogeneousPart
    eliminated: HomogeneousPart
    divisors: tuple[tuple[TermKey, float], ...]
    resonant_positions: tuple[TermKey, ...]
    warnings: tuple[str, ...]

    @property
    def divisor_min(self) -> float:
        nonres = [d for _, d in self.divisors if d > 0]
        return min(nonres) if nonres else float("inf")


def split_homogeneous(spectrum: SpectrumData, H: HomogeneousPart,
                      res_tol: float = DEFAULT_RES_TOL,
                      sr_tol: float = DEFAULT_SR_TOL) -> SplitResult:
    """Split ``H`` into a resonant part plus an operator image.

    Back-substitution walks the ordered basis from the largest rank down;
    non-resonant positions divide the residual by the diagonal and subtract
    its sparse column, resonant positions move the residual into the
    kept part.  The kept part is supported on resonant positions only, the
    minimal (classical) choice.
    """
    if H.n != spectrum.n:
        raise DegreeMismatch(f"map dimension {H.n} does not match n={spectrum.n}")
    ordering, columns, diag = operator_columns(spectrum, H.q)
    residual = coefficient_vector(H, ordering)
    kept = np.zeros(len(ordering), dtype=complex)
    removed = np.zeros(len(ordering), dtype=complex)
    divisors = []
    resonant_positions = []
    warnings = []
    for r in range(len(ordering) - 1, -1, -1):
        index, comp = ordering.pairs[r]
        divisor = abs(diag[r])
        scale = abs(spectrum.diag[comp])
        divisors.append(((index, comp), float(divisor)))
        if divisor <= res_tol * scale:
            if not is_subresonant_monomial(index, comp, spectrum, sr_tol):
                raise IllConditionedResonance(
                    f"divisor {divisor:.3g} at {(index, comp)} is resonantly small "
                    "but the position is not sub-resonant; res_tol and the "
                    "log-space tolerance are inconsistent for this spectrum")
            resonant_positions.append((index, comp))
            kept[r] = residual[r]
            residual[r] = 0.0
            continue
        if divisor <= SMALL_DIVISOR_REL * scale:
            warnings.append(
                f"small divisor {divisor:.3g} at position {(index, comp)}")
        if residual[r] != 0:
            rows, values = columns[r]
            removed[r] = residual[r] / values[0]
            residual[rows] -= removed[r] * values
            residual[r] = 0.0
    return SplitResult(
        resonant=vector_to_part(kept, ordering),
        eliminated=vector_to_part(removed, ordering),
        divisors=tuple(reversed(divisors)),
        resonant_positions=tuple(reversed(resonant_positions)),
        warnings=tuple(warnings),
    )


def resonant_positions(spectrum: SpectrumData, q: int,
                       res_tol: float = DEFAULT_RES_TOL) -> tuple[TermKey, ...]:
    """Basis positions of degree ``q`` with ``|l^I - l_j| <= res_tol |l_j|``."""
    out = []
    for index in multi_indices(spectrum.n, q):
        lam_I = np.prod(spectrum.diag ** np.array(index))
        for comp in range(spectrum.n):
            if abs(lam_I - spectrum.diag[comp]) <= res_tol * abs(spectrum.diag[comp]):
                out.append((index, comp))
    out.sort(key=term_sort_key)
    return tuple(out)
