"""Sub-resonant polynomial maps relative to a contracting spectrum.

A monomial ``z^I e_j`` is sub-resonant when
``ln|l_j| <= sum_k i_k ln|l_k|`` (equivalently the block-grouped form of the
same inequality, since moduli are constant on blocks).  Sub-resonant maps
with invertible linear part form a group under composition; this module
provides the monomial classifier, the per-degree basis enumeration, the
certification of whole maps, and the composition/inversion operations of
that group; an inverse is the jet inverse through the degree bound, which
is exact because the group consists of polynomials of bounded degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificationFailure,
    DegreeOutOfRange,
    DimensionMismatch,
    SpectrumMismatch,
)
from .linalg import SpectrumData, same_spectrum
from .polymap import (
    MAX_DEGREE,
    MultiIndex,
    PolyJet,
    TermKey,
    basis_ordering,
    compose_truncated,
    jet_inverse,
    term_sort_key,
)

DEFAULT_SR_TOL = 1e-9

# Coefficients above this magnitude where the group law forces zero (beyond
# the degree bound of a composition, nonlinear in ``F o F^{-1}``) mean a
# genuine defect rather than rounding noise.
_EXCESS_TOL = 1e-10


def monomial_type(index: MultiIndex, spectrum: SpectrumData) -> tuple[int, ...]:
    """Block-grouped exponent profile of a monomial."""
    if len(index) != spectrum.n:
        raise DimensionMismatch(f"multi-index {index} does not match n={spectrum.n}")
    if sum(index) < 1:
        raise DegreeOutOfRange("monomials have degree >= 1")
    profile = [0] * len(spectrum.blocks)
    for k, e in enumerate(index):
        profile[spectrum.block_of[k]] += e
    return tuple(profile)


def _subresonant_mask(exponents: np.ndarray, comps: np.ndarray, spectrum: SpectrumData,
                      tol: float) -> np.ndarray:
    """Whether each position ``(exponents[i], comps[i])`` is sub-resonant:
    ``ln|l_comp| <= sum_k i_k ln|l_k| + tol``, the one place this is evaluated.

    The slack is on the permissive side only, so exact resonances (equality)
    are never lost to rounding.  Each weight is its own row-times-vector
    product: a matrix-vector product may sum in another order, and the answer
    at a margin within an ulp of ``tol`` would then depend on which rows were
    asked about together.
    """
    log_moduli = spectrum.log_moduli
    weights = (exponents[..., None, :] @ log_moduli)[..., 0]
    return log_moduli[comps] <= weights + tol


def is_subresonant_monomial(index: MultiIndex, comp: int, spectrum: SpectrumData,
                            tol: float = DEFAULT_SR_TOL) -> bool:
    """Whether the monomial ``z^index e_comp`` is sub-resonant (see :func:`_subresonant_mask`)."""
    if len(index) != spectrum.n:
        raise DimensionMismatch(f"multi-index {index} does not match n={spectrum.n}")
    if any(e < 0 for e in index):
        raise ValueError(f"negative exponent in multi-index {index}")
    if not 1 <= sum(index) <= MAX_DEGREE:
        raise DegreeOutOfRange(f"monomial degree must be in 1..2**63 - 1, got {sum(index)}")
    if not 0 <= comp < spectrum.n:
        raise DimensionMismatch(f"component {comp} outside 0..{spectrum.n - 1}")
    return bool(_subresonant_mask(np.array([index], dtype=np.int64), np.array([comp]),
                                  spectrum, tol)[0])


def enumerate_subresonant_basis(spectrum: SpectrumData, r: int,
                                tol: float = DEFAULT_SR_TOL) -> tuple[TermKey, ...]:
    """All sub-resonant monomial positions of degree ``r``, in canonical order."""
    ordering = basis_ordering(spectrum.n, r)
    # each row's weight against every component: ranks in row-major order
    mask = _subresonant_mask(ordering.exponents[:, None, :], np.arange(spectrum.n),
                             spectrum, tol)
    return tuple(ordering.positions(np.flatnonzero(mask)))


def subresonant_offenders(jet: PolyJet, spectrum: SpectrumData,
                          tol: float = DEFAULT_SR_TOL) -> list[TermKey]:
    """Stored monomial positions of ``jet`` that fail the sub-resonance test."""
    if jet.n != spectrum.n:
        raise DimensionMismatch(f"jet dimension {jet.n} does not match n={spectrum.n}")
    keys = list(jet.terms)
    exponents = np.array([index for index, _ in keys], dtype=np.int64).reshape(-1, jet.n)
    comps = np.array([comp for _, comp in keys], dtype=np.int64)
    failed = np.flatnonzero(~_subresonant_mask(exponents, comps, spectrum, tol))
    return sorted((keys[i] for i in failed.tolist()), key=term_sort_key)


@dataclass(frozen=True, eq=False)
class SubResonantMap:
    """A jet whose every stored monomial passed the sub-resonance test."""

    jet: PolyJet
    spectrum: SpectrumData

    def __eq__(self, other):
        if not isinstance(other, SubResonantMap):
            return NotImplemented
        return self.jet == other.jet and same_spectrum(self.spectrum, other.spectrum)

    def linear_part(self) -> np.ndarray:
        return self.jet.linear_part()

    def evaluate(self, z) -> np.ndarray:
        return self.jet.evaluate(z)

    def max_degree(self) -> int:
        return self.jet.max_degree()

    def __repr__(self):
        return f"SubResonantMap(n={self.jet.n}, terms={len(self.jet.terms)})"


def certify_subresonant(jet: PolyJet, spectrum: SpectrumData,
                        tol: float = DEFAULT_SR_TOL):
    """Certify every stored monomial of ``jet``.

    Returns a :class:`SubResonantMap` on success and the complete list of
    offending ``(multi-index, component)`` positions otherwise; failure is a
    value, not an exception.
    """
    offenders = subresonant_offenders(jet, spectrum, tol)
    if offenders:
        return offenders
    return SubResonantMap(jet=jet, spectrum=spectrum)


def _certify_or_raise(jet: PolyJet, spectrum: SpectrumData, tol: float,
                      context: str) -> SubResonantMap:
    result = certify_subresonant(jet, spectrum, tol)
    if isinstance(result, SubResonantMap):
        return result
    raise CertificationFailure(
        f"{context}: result failed sub-resonance certification at {result[:4]}"
        f"{'...' if len(result) > 4 else ''}",
        offenders=result)


def sr_compose(F: SubResonantMap, G: SubResonantMap,
               tol: float = DEFAULT_SR_TOL) -> SubResonantMap:
    """Composition ``F o G`` inside the sub-resonant algebra.

    Closure is a theorem, so the composition is computed without a
    truncation cap; any surviving term beyond the degree bound, or any
    certification failure, signals a defect rather than a runtime state.
    """
    if not same_spectrum(F.spectrum, G.spectrum):
        raise SpectrumMismatch("operands are relative to different spectra")
    spectrum = F.spectrum
    cap = max(1, F.jet.max_degree()) * max(1, G.jet.max_degree())
    composed = compose_truncated(F.jet, G.jet, cap)
    bound = spectrum.degree_bound
    excess = {key: c for key, c in composed.terms.items() if sum(key[0]) > bound}
    worst = max((abs(c) for c in excess.values()), default=0.0)
    if worst > _EXCESS_TOL:
        raise CertificationFailure(
            f"composition produced degree > {bound} terms of size {worst:.3g}",
            offenders=sorted(excess, key=term_sort_key))
    return _certify_or_raise(composed.truncated(max(bound, 1)), spectrum, tol, "sr_compose")


def sr_inverse(F: SubResonantMap, tol: float = DEFAULT_SR_TOL) -> SubResonantMap:
    """Exact polynomial inverse: the jet inverse through the degree bound.

    The inverse of a sub-resonant map is a sub-resonant polynomial, so its
    degree is at most the degree bound and the degree-by-degree jet inverse
    truncated there is exact.  The result is certified, and ``F o F^{-1}``
    must carry no nonlinear term above ``_EXCESS_TOL``.
    """
    inverse = _certify_or_raise(jet_inverse(F.jet, max(1, F.spectrum.degree_bound)),
                                F.spectrum, tol, "sr_inverse")
    leftover = max((abs(c) for key, c in sr_compose(F, inverse, tol).jet.terms.items()
                    if sum(key[0]) > 1), default=0.0)
    if leftover > _EXCESS_TOL:
        raise CertificationFailure(f"inverse left nonlinear residue of size {leftover:.3g}")
    return inverse


def is_linear_subresonant(matrix, spectrum: SpectrumData) -> bool:
    """Whether a matrix preserves each subspace spanned by small-modulus blocks.

    Equivalent to being block upper triangular in the modulus-block
    partition, and to every nonzero entry ``A[j, k]`` (the monomial
    ``z_k e_j``) passing the sub-resonance test.  Entries are compared to
    exact zero, matching the canonical sparse semantics of jets.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (spectrum.n, spectrum.n):
        raise DimensionMismatch(
            f"matrix shape {matrix.shape} does not match n={spectrum.n}")
    for j in range(spectrum.n):
        for k in range(spectrum.n):
            if matrix[j, k] != 0 and spectrum.block_of[j] > spectrum.block_of[k]:
                return False
    return True
