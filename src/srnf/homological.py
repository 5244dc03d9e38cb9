"""Homological operators on homogeneous polynomial maps.

For a fixed adapted triangular linear part ``T``, the degree-``q`` operator
sends ``h`` to ``h o T - T o h``.  In the monomial basis ordered so that
larger exponents on later variables come first, the operator is upper
triangular with diagonal ``l^I - l_j``; back-substitution on its sparse
columns splits any homogeneous part into a resonant piece (kept in the
normal form) plus an operator image (removable by conjugation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegreeOutOfRange, DimensionMismatch, IllConditionedResonance
from .linalg import SpectrumData
from .polymap import (
    BasisOrdering,
    HomogeneousPart,
    PolyJet,
    TermKey,
    _left_multiply,
    _linear_terms,
    _PowerTable,
    basis_ordering,
    compose_truncated,
)
from .subresonance import DEFAULT_SR_TOL, _subresonant_mask

DEFAULT_RES_TOL = 1e-9

# Divisors between the resonance cutoff and this relative size are reported
# as small-divisor warnings.
SMALL_DIVISOR_REL = 1e-6


def apply_M(spectrum: SpectrumData, h: HomogeneousPart) -> HomogeneousPart:
    """The operator value ``h o T - T o h``, computed by jet composition."""
    if h.n != spectrum.n:
        raise DimensionMismatch(f"map dimension {h.n} does not match n={spectrum.n}")
    if h.q < 2:
        raise DegreeOutOfRange(f"operator is defined for degree >= 2, got {h.q}")
    right = compose_truncated(h, PolyJet.from_linear(spectrum.T, 1), h.q, prune=False)
    diff = right - PolyJet(h.n, h.q, _left_multiply(spectrum.T, h.terms))
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
    if h.terms:
        indices = map(tuple, ordering.exponents.tolist())
        start = dict(zip(indices, range(0, len(ordering), ordering.n)))
        vec[[start[index] + comp for index, comp in h.terms]] = list(h.terms.values())
    return vec


def vector_to_part(vec: np.ndarray, ordering: BasisOrdering) -> HomogeneousPart:
    ranks = np.flatnonzero(vec)
    terms = dict(zip(ordering.positions(ranks), vec[ranks].tolist()))
    return HomogeneousPart._trusted(ordering.n, ordering.q, terms)


def operator_columns(spectrum: SpectrumData, q: int):
    """The degree-``q`` operator: ``(ordering, diagonal, divisors, off)``.

    ``diagonal`` holds the operator's diagonal entries and ``divisors`` the
    exact products ``l^I - l_j``, one value per position.  ``off`` maps each
    column with entries off the diagonal, in ascending rank, to a pair
    ``(rows, values)`` of arrays over its structural nonzeros, diagonal
    entry first; it is empty when ``T`` is diagonal.  For a triangular
    ``T`` only the diagonal factors reach ``z^I`` in ``(Tz)^I``, so its
    leading coefficient is the chain of products a power table over ``T``
    makes: ``l_k^e = l_k^{e-1} l_k``, then ``I``'s variables in increasing
    order.  The other columns are read from the powers ``(Tz)^I`` in one
    power table over the linear forms of ``T``, made only when ``T`` has
    entries off the diagonal; the components of one index are adjacent in
    the ordering.  :func:`apply_M` composes with the same kernel, so
    neither is an oracle for the other.  Off-diagonal entries land at
    strictly smaller ranks: the operator is upper triangular.
    """
    if q < 2:
        raise DegreeOutOfRange(f"operator matrices start at degree 2, got {q}")
    n, T = spectrum.n, spectrum.T
    ordering = basis_ordering(n, q)
    exponents = ordering.exponents
    # Python complex products, as the power table makes them: numpy's may round differently.
    chains = []
    for k in range(n):
        chain = [None, complex(T[k, k])]
        for _ in range(2, q + 1):
            chain.append(0j + chain[-1] * chain[1])
        chains.append(chain)
    leading = [None] * len(exponents)
    at_row, at_var = np.nonzero(exponents)  # row-major: each row's variables in increasing order
    for r, k, e in zip(at_row.tolist(), at_var.tolist(), exponents[at_row, at_var].tolist()):
        v = leading[r]
        leading[r] = chains[k][e] if v is None else 0j + v * chains[k][e]
    # minus T o (z^I e_comp) adds entries at the same index, components above comp.
    above = [np.flatnonzero(T[:comp, comp]) for comp in range(n)]
    off = {}
    if any(rows.size for rows in above):
        table = _PowerTable(n, q)
        table.reveal(_linear_terms(T))
        # Packed codes fit in int64: (q + 1)^n >= 2^63 only for bases far beyond memory.
        codes = (exponents @ np.array(table.radix)).tolist()
        starts = range(0, len(ordering), n)
        start_of = dict(zip(codes, starts))
        coupling = [0j - T[rows, comp] for comp, rows in enumerate(above)]
        for index, code, start in zip(map(tuple, exponents.tolist()), codes, starts):
            power = table.power(index, q)[q]
            monos = [code] + [mono for mono in power if mono != code]
            # 0j + keeps the signed zeros of a dense sum.
            base = np.array([start_of[mono] for mono in monos])
            expanded = 0j + np.array([power.get(mono, 0j) for mono in monos], dtype=complex)
            for comp in range(n):
                if len(monos) == 1 and not above[comp].size:
                    continue
                rows, values = base + comp, expanded.copy()
                values[0] -= T[comp, comp]
                if above[comp].size:
                    rows = np.concatenate([rows, start + above[comp]])
                    values = np.concatenate([values, coupling[comp]])
                off[start + comp] = (rows, values)
    lam = np.prod(spectrum.diag ** exponents, axis=1)
    diagonal = (np.array(leading, dtype=complex)[:, None] - np.diagonal(T)).ravel()
    divisors = (lam[:, None] - spectrum.diag).ravel()
    return ordering, diagonal, divisors, off


def build_matrix(spectrum: SpectrumData, q: int) -> OperatorMatrix:
    """The dense operator matrix, filled from :func:`operator_columns`."""
    ordering, diagonal, divisors, off = operator_columns(spectrum, q)
    entries = np.diag(diagonal)
    for col, (rows, values) in off.items():
        entries[rows, col] = values
    return OperatorMatrix(q=q, ordering=ordering, entries=entries, diag=divisors)


@dataclass(frozen=True)
class SplitResult:
    """Decomposition ``H = resonant + M(eliminated)`` of a homogeneous part.

    ``divisor_min`` is the smallest positive ``|l^I - l_j|`` of the degree.
    """

    resonant: HomogeneousPart
    eliminated: HomogeneousPart
    resonant_positions: tuple[TermKey, ...]
    warnings: tuple[str, ...]
    divisor_min: float

    @property
    def q(self) -> int:
        return self.resonant.q


def split_homogeneous(spectrum: SpectrumData, H: HomogeneousPart,
                      res_tol: float = DEFAULT_RES_TOL,
                      sr_tol: float = DEFAULT_SR_TOL) -> SplitResult:
    """Split ``H`` into a resonant part plus an operator image.

    Back-substitution walks the columns with off-diagonal entries from the
    largest rank down, dividing the residual by the diagonal and
    subtracting the column; upper-triangularity leaves every other
    non-resonant position to one division by its diagonal entry, and the
    resonant positions keep the residual.  The kept part is supported on
    resonant positions only, the minimal (classical) choice.
    """
    if H.n != spectrum.n:
        raise DimensionMismatch(f"map dimension {H.n} does not match n={spectrum.n}")
    ordering, diagonal, exact, off = operator_columns(spectrum, H.q)
    # Python's complex abs is libm's hypot, as np.hypot is; numpy's complex abs
    # can differ in the last ulp.
    divisors = np.hypot(exact.real, exact.imag)
    scale = np.tile([abs(l) for l in spectrum.diag], len(ordering) // spectrum.n)
    resonant = divisors <= res_tol * scale
    resonant_ranks = np.flatnonzero(resonant)
    rows, comps = np.divmod(resonant_ranks, spectrum.n)
    failed = resonant_ranks[~_subresonant_mask(ordering.exponents[rows], comps, spectrum, sr_tol)]
    if failed.size:
        [position] = ordering.positions(failed[-1:])
        raise IllConditionedResonance(
            f"divisor {divisors[failed[-1]]:.3g} at {position} is "
            "resonantly small but the position is not sub-resonant; res_tol and the "
            "log-space tolerance are inconsistent for this spectrum")
    positions = ordering.positions(resonant_ranks)
    small_ranks = np.flatnonzero(~resonant & (divisors <= SMALL_DIVISOR_REL * scale))[::-1]
    residual = coefficient_vector(H, ordering)
    removed = np.zeros(len(ordering), dtype=complex)
    for c in reversed(off):
        if resonant[c] or residual[c] == 0:
            continue
        rows, values = off[c]
        removed[c] = residual[c] / values[0]
        residual[rows] -= removed[c] * values
        residual[c] = 0.0
    rest = ~resonant & (residual != 0)
    removed[rest] = residual[rest] / diagonal[rest]
    positive = divisors[divisors > 0]
    return SplitResult(
        resonant=vector_to_part(np.where(resonant, residual, 0), ordering),
        eliminated=vector_to_part(removed, ordering),
        resonant_positions=tuple(positions),
        warnings=tuple(f"small divisor {divisors[r]:.3g} at position {position}"
                       for r, position in zip(small_ranks, ordering.positions(small_ranks))),
        divisor_min=float(positive.min()) if positive.size else float("inf"),
    )
