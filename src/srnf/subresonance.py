"""Sub-resonant polynomial maps relative to a contracting spectrum.

A monomial ``z^I e_j`` is sub-resonant when
``ln|l_j| <= sum_k i_k ln|l_k|`` (equivalently the block-grouped form of the
same inequality, since moduli are constant on blocks).  Sub-resonant maps
with invertible linear part form a group under composition; this module
provides the per-degree basis enumeration, the certification of whole maps,
and the composition/inversion operations of that group; an inverse is the
jet inverse through the degree bound, which is exact because the group
consists of polynomials of bounded degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificationFailure,
    DimensionMismatch,
    SpectrumMismatch,
)
from .linalg import SR_TOL, SpectrumData, same_spectrum
from .polymap import (
    PolyJet,
    TermKey,
    _term_arrays,
    basis_ordering,
    compose_truncated,
    jet_inverse,
)

# Coefficients above this magnitude where the group law forces zero (beyond
# the degree bound of a composition, nonlinear in ``F o F^{-1}``) mean a
# genuine defect rather than rounding noise.
_EXCESS_TOL = 1e-10

# Second stage for ``F o F^{-1}`` when the absolute test fails: each nonlinear
# residue is rounding if it is below this multiple of the same coefficient of
# ``|F| o |F^{-1}|``, the sum of the magnitudes of every product that made it.
_EXCESS_RTOL = 1e-12


def _subresonant_mask(exponents: np.ndarray, comps: np.ndarray,
                      spectrum: SpectrumData) -> np.ndarray:
    """Whether each position ``(exponents[i], comps[i])`` is sub-resonant:
    ``ln|l_comp| <= sum_k i_k ln|l_k| + SR_TOL``, the one place this is evaluated.

    The slack is on the permissive side only, so exact resonances (equality)
    are never lost to rounding.  Each weight is its own row-times-vector
    product: a matrix-vector product may sum in another order, and the answer
    at a margin within an ulp of ``SR_TOL`` would then depend on which rows
    were asked about together.
    """
    log_moduli = spectrum.log_moduli
    weights = (exponents[..., None, :] @ log_moduli)[..., 0]
    return log_moduli[comps] <= weights + SR_TOL


def enumerate_subresonant_basis(spectrum: SpectrumData, r: int) -> tuple[TermKey, ...]:
    """All sub-resonant monomial positions of degree ``r``, in canonical order."""
    ordering = basis_ordering(spectrum.n, r)
    # each row's weight against every component: ranks in row-major order
    mask = _subresonant_mask(ordering.exponents[:, None, :], np.arange(spectrum.n), spectrum)
    return tuple(ordering.positions(np.flatnonzero(mask)))


def subresonant_offenders(jet: PolyJet, spectrum: SpectrumData) -> list[TermKey]:
    """Stored monomial positions of ``jet`` that fail the sub-resonance test, in term order."""
    if jet.n != spectrum.n:
        raise DimensionMismatch(f"jet dimension {jet.n} does not match n={spectrum.n}")
    keys = list(jet.terms)
    failed = np.flatnonzero(~_subresonant_mask(*_term_arrays(jet.terms, jet.n), spectrum))
    return [keys[i] for i in failed.tolist()]


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

    def __repr__(self):
        return f"SubResonantMap(n={self.jet.n}, terms={len(self.jet.terms)})"


def certify_subresonant(jet: PolyJet, spectrum: SpectrumData):
    """Certify every stored monomial of ``jet``.

    Returns a :class:`SubResonantMap` on success and the complete list of
    offending ``(multi-index, component)`` positions otherwise; failure is a
    value, not an exception.
    """
    offenders = subresonant_offenders(jet, spectrum)
    if offenders:
        return offenders
    return SubResonantMap(jet=jet, spectrum=spectrum)


def _certify_or_raise(jet: PolyJet, spectrum: SpectrumData, context: str) -> SubResonantMap:
    result = certify_subresonant(jet, spectrum)
    if isinstance(result, SubResonantMap):
        return result
    raise CertificationFailure(
        f"{context}: result failed sub-resonance certification at {result[:4]}"
        f"{'...' if len(result) > 4 else ''}",
        offenders=result)


def sr_compose(F: SubResonantMap, G: SubResonantMap, *, shift=None) -> SubResonantMap:
    """Composition ``F o G`` inside the sub-resonant algebra.

    With a translation ``shift`` it is ``z -> F(shift + G(z)) - F(shift)``,
    the map part of the group product ``(tau, F) (shift, G)`` in one composition.
    Closure is a theorem, so the composition is computed without a
    truncation cap; any surviving term beyond the degree bound, or any
    certification failure, signals a defect rather than a runtime state.
    """
    if not same_spectrum(F.spectrum, G.spectrum):
        raise SpectrumMismatch("operands are relative to different spectra")
    spectrum = F.spectrum
    cap = max(1, F.jet.max_degree()) * max(1, G.jet.max_degree())
    composed = compose_truncated(F.jet, G.jet, cap, shift=shift)
    bound = spectrum.degree_bound
    excess = {key: c for key, c in composed.terms.items() if sum(key[0]) > bound}
    worst = max((abs(c) for c in excess.values()), default=0.0)
    if worst > _EXCESS_TOL:
        raise CertificationFailure(
            f"composition produced degree > {bound} terms of size {worst:.3g}",
            offenders=list(excess))
    return _certify_or_raise(composed.truncated(bound), spectrum, "sr_compose")


def sr_inverse(F: SubResonantMap) -> SubResonantMap:
    """Exact polynomial inverse: the jet inverse through the degree bound.

    The inverse of a sub-resonant map is a sub-resonant polynomial, so its
    degree is at most the degree bound and the degree-by-degree jet inverse
    truncated there is exact.  The result is certified, and ``F o F^{-1}``
    must carry no nonlinear term above ``_EXCESS_TOL``, or failing that none
    above ``_EXCESS_RTOL`` times the same term of ``|F| o |F^{-1}|``: large
    coefficients leave rounding residues above any absolute bound.
    """
    bound = F.spectrum.degree_bound
    inverse = _certify_or_raise(jet_inverse(F.jet, bound), F.spectrum, "sr_inverse")
    excess = {key: abs(c) for key, c in sr_compose(F, inverse).jet.terms.items()
              if sum(key[0]) > 1 and abs(c) > _EXCESS_TOL}
    if excess:
        scale = compose_truncated(_magnitudes(F.jet), _magnitudes(inverse.jet), bound,
                                  prune=False).terms
        if any(a > _EXCESS_RTOL * abs(scale.get(key, 0.0)) for key, a in excess.items()):
            raise CertificationFailure(
                f"inverse left nonlinear residue of size {max(excess.values()):.3g}")
    return inverse


def _magnitudes(jet: PolyJet) -> PolyJet:
    return PolyJet._trusted(jet.n, jet.degree, {key: abs(c) for key, c in jet.terms.items()})
