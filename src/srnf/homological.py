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
from itertools import islice

import numpy as np

from .errors import DegreeOutOfRange, DimensionMismatch, IllConditionedResonance
from .linalg import SpectrumData
from .polymap import (
    BasisOrdering,
    PolyJet,
    _linear_terms,
    _PowerTable,
    _term_arrays,
    basis_ordering,
)
from .subresonance import _subresonant_mask

DEFAULT_RES_TOL = 1e-9

# Divisors between the resonance cutoff and this relative size are reported
# as small-divisor warnings.
SMALL_DIVISOR_REL = 1e-6


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Matrix of the degree-``q`` operator in the ordered monomial basis."""

    q: int
    ordering: BasisOrdering
    entries: np.ndarray


def coefficient_vector(h: PolyJet, ordering: BasisOrdering) -> np.ndarray:
    vec = np.zeros(len(ordering), dtype=complex)
    if h.terms:
        exps, comps = _term_arrays(h.terms, h.n)
        off = np.flatnonzero(exps.sum(axis=1) != ordering.q)   # would pack to other rows' codes
        if off.size:
            key = next(islice(h.terms, int(off[0]), None))
            raise DegreeOutOfRange(f"term {key} has degree {sum(key[0])}, not {ordering.q}")
        vec[ordering.rows(ordering.pack(exps)) * ordering.n + comps] = list(h.terms.values())
    return vec


def vector_to_part(vec: np.ndarray, ordering: BasisOrdering) -> PolyJet:
    ranks = np.flatnonzero(vec)
    terms = dict(zip(ordering.positions(ranks), vec[ranks].tolist()))
    return PolyJet._trusted(ordering.n, ordering.q, terms)


def operator_columns(spectrum: SpectrumData, q: int):
    """The degree-``q`` operator: ``(ordering, divisors, off)``.

    ``divisors`` is the operator's diagonal, ``l^I - l_j`` at each position:
    for a triangular ``T`` only the diagonal factors reach ``z^I`` in
    ``(Tz)^I``.  ``off`` holds the entries off the diagonal as compressed
    columns ``(cols, indptr, rows, values)``: column ``cols[k]``, in
    ascending rank, has its entries at ``rows[indptr[k]:indptr[k + 1]]``;
    ``T`` diagonal leaves no columns.  The entries are read from the powers
    ``(Tz)^I`` in one power table over the linear forms of ``T``, made only
    when ``T`` has entries off the diagonal; the components of one index
    are adjacent in the ordering.  Off-diagonal entries land at strictly
    smaller ranks: the operator is upper triangular.
    """
    if q < 2:
        raise DegreeOutOfRange(f"operator matrices start at degree 2, got {q}")
    n, T = spectrum.n, spectrum.T
    ordering = basis_ordering(n, q)
    exponents = ordering.exponents
    lam = np.prod(spectrum.diag ** exponents, axis=1)
    divisors = (lam[:, None] - spectrum.diag).ravel()
    # minus T o (z^I e_comp) adds entries at the same index, components above comp.
    above = [np.flatnonzero(T[:comp, comp]).tolist() for comp in range(n)]
    cols, indptr, rows, values = [], [0], [], []
    if any(above):
        table = _PowerTable(n, q)
        table.reveal(_linear_terms(T))
        codes = ordering.codes.tolist()
        powers = [table.power(index, q)[q] for index in map(tuple, exponents.tolist())]
        # one lookup for the monomials off the diagonal of every power
        found = iter((ordering.rows([mono for power, code in zip(powers, codes)
                                     for mono in power if mono != code]) * n).tolist())
        coupling = [(0j - T[rows_above, comp]).tolist() for comp, rows_above in enumerate(above)]
        for start, code, power in zip(range(0, len(ordering), n), codes, powers):
            # 0j + keeps the signed zeros of a dense sum.
            expanded = [0j + coeff for mono, coeff in power.items() if mono != code]
            bases = list(islice(found, len(expanded)))
            for comp in range(n):
                if bases or above[comp]:
                    cols.append(start + comp)
                    rows += [base + comp for base in bases]
                    rows += [start + i for i in above[comp]]
                    values += expanded
                    values += coupling[comp]
                    indptr.append(len(rows))
    # each long list is freed before the next array is made
    rows = np.array(rows, dtype=np.intp)
    values = np.array(values, dtype=complex)
    off = (np.array(cols, dtype=np.intp), np.array(indptr, dtype=np.intp), rows, values)
    return ordering, divisors, off


def build_matrix(spectrum: SpectrumData, q: int) -> OperatorMatrix:
    """The dense operator matrix, filled from :func:`operator_columns`."""
    ordering, divisors, (cols, indptr, rows, values) = operator_columns(spectrum, q)
    entries = np.diag(divisors)
    entries[rows, np.repeat(cols, np.diff(indptr))] = values
    return OperatorMatrix(q=q, ordering=ordering, entries=entries)


@dataclass(frozen=True)
class SplitResult:
    """Decomposition ``H = resonant + M(eliminated)`` of a homogeneous part.

    ``divisor_min`` is the smallest positive ``|l^I - l_j|`` of the degree.
    """

    resonant: PolyJet
    eliminated: PolyJet
    warnings: tuple[str, ...]
    divisor_min: float

    @property
    def q(self) -> int:
        return self.resonant.degree


def split_homogeneous(spectrum: SpectrumData, H: PolyJet,
                      res_tol: float = DEFAULT_RES_TOL) -> SplitResult:
    """Split ``H`` of one degree, ``H.degree``, into a resonant part plus an operator image.

    Back-substitution walks the columns with off-diagonal entries from the
    largest rank down, dividing the residual by the divisor ``l^I - l_j``
    and subtracting the column's other entries; upper-triangularity leaves
    every other non-resonant position to one division by its divisor, and the
    resonant positions keep the residual.  The kept part is supported on
    resonant positions only, the minimal (classical) choice.
    """
    if H.n != spectrum.n:
        raise DimensionMismatch(f"map dimension {H.n} does not match n={spectrum.n}")
    ordering, divisors, (cols, indptr, rows, values) = operator_columns(spectrum, H.degree)
    # Python's complex abs is libm's hypot, as np.hypot is; numpy's complex abs
    # can differ in the last ulp.
    moduli = np.hypot(divisors.real, divisors.imag)
    scale = np.tile([abs(l) for l in spectrum.diag], len(ordering) // spectrum.n)
    resonant = moduli <= res_tol * scale
    resonant_ranks = np.flatnonzero(resonant)
    indices, comps = np.divmod(resonant_ranks, spectrum.n)
    failed = resonant_ranks[~_subresonant_mask(ordering.exponents[indices], comps, spectrum)]
    if failed.size:
        [position] = ordering.positions(failed[-1:])
        raise IllConditionedResonance(
            f"divisor {moduli[failed[-1]]:.3g} at {position} is "
            "resonantly small but the position is not sub-resonant; res_tol and the "
            "log-space tolerance are inconsistent for this spectrum")
    small_ranks = np.flatnonzero(~resonant & (moduli <= SMALL_DIVISOR_REL * scale))[::-1]
    residual = coefficient_vector(H, ordering)
    removed = np.zeros(len(ordering), dtype=complex)
    bounds = indptr.tolist()
    for c, lo, hi in reversed(list(zip(cols.tolist(), bounds, bounds[1:]))):
        if resonant[c] or residual[c] == 0:
            continue
        removed[c] = residual[c] / divisors[c]
        residual[rows[lo:hi]] -= removed[c] * values[lo:hi]
        residual[c] = 0.0
    rest = ~resonant & (residual != 0)
    removed[rest] = residual[rest] / divisors[rest]
    positive = moduli[moduli > 0]
    return SplitResult(
        resonant=vector_to_part(np.where(resonant, residual, 0), ordering),
        eliminated=vector_to_part(removed, ordering),
        warnings=tuple(f"small divisor {moduli[r]:.3g} at position {position}"
                       for r, position in zip(small_ranks, ordering.positions(small_ranks))),
        divisor_min=float(positive.min()) if positive.size else float("inf"),
    )
