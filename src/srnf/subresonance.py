"""Sub-resonant polynomial maps relative to a contracting spectrum.

A monomial ``z^I e_j`` is sub-resonant when
``ln|l_j| <= sum_k i_k ln|l_k|`` (equivalently the block-grouped form of the
same inequality, since moduli are constant on blocks).  Sub-resonant maps
with invertible linear part form a group under composition; this module
provides the monomial classifier, the per-degree basis enumeration, the
certification of whole maps, and the composition/inversion operations of
that group, including the finite degree-by-degree elimination that yields
exact polynomial inverses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificationFailure,
    DegreeOutOfRange,
    DimensionMismatch,
    SingularLinearPart,
    SpectrumMismatch,
)
from .linalg import SpectrumData, same_spectrum
from .polymap import (
    COND_CAP,
    MultiIndex,
    PolyJet,
    TermKey,
    _check_invertible,
    compose_truncated,
    homogeneous_part,
    multi_indices,
    term_sort_key,
)

DEFAULT_SR_TOL = 1e-9

# Coefficients above this magnitude beyond the degree bound mean a genuine
# closure violation rather than rounding noise.
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


def is_subresonant_monomial(index: MultiIndex, comp: int, spectrum: SpectrumData,
                            tol: float = DEFAULT_SR_TOL) -> bool:
    """Test ``ln|l_comp| <= sum_k i_k ln|l_k|`` with one-sided slack ``tol``.

    The slack is applied on the permissive side only, so exact resonances
    (equality) are never lost to rounding.
    """
    if len(index) != spectrum.n:
        raise DimensionMismatch(f"multi-index {index} does not match n={spectrum.n}")
    if sum(index) < 1:
        raise DegreeOutOfRange("monomials have degree >= 1")
    if not 0 <= comp < spectrum.n:
        raise DimensionMismatch(f"component {comp} outside 0..{spectrum.n - 1}")
    weight = float(np.dot(index, spectrum.log_moduli))
    return spectrum.log_moduli[comp] <= weight + tol


def enumerate_subresonant_basis(spectrum: SpectrumData, r: int,
                                tol: float = DEFAULT_SR_TOL) -> tuple[TermKey, ...]:
    """All sub-resonant monomial positions of degree ``r``, in canonical order."""
    if r < 1:
        raise DegreeOutOfRange(f"degree must be >= 1, got {r}")
    found = [
        (index, comp)
        for index in multi_indices(spectrum.n, r)
        for comp in range(spectrum.n)
        if is_subresonant_monomial(index, comp, spectrum, tol)
    ]
    found.sort(key=term_sort_key)
    return tuple(found)


def subresonant_offenders(jet: PolyJet, spectrum: SpectrumData,
                          tol: float = DEFAULT_SR_TOL) -> list[TermKey]:
    """Stored monomial positions of ``jet`` that fail the sub-resonance test."""
    if jet.n != spectrum.n:
        raise DimensionMismatch(f"jet dimension {jet.n} does not match n={spectrum.n}")
    offenders = [key for key in jet.terms
                 if not is_subresonant_monomial(key[0], key[1], spectrum, tol)]
    offenders.sort(key=term_sort_key)
    return offenders


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
    composed = compose_truncated(F.jet, G.jet, max(cap, 1))
    bound = spectrum.degree_bound
    excess = {key: c for key, c in composed.terms.items() if sum(key[0]) > bound}
    if excess:
        worst = max(abs(c) for c in excess.values())
        if worst > _EXCESS_TOL:
            raise CertificationFailure(
                f"composition produced degree > {bound} terms of size {worst:.3g}",
                offenders=sorted(excess, key=term_sort_key))
        composed = PolyJet(composed.n, max(bound, 1),
                           {k: c for k, c in composed.terms.items() if k not in excess})
    else:
        composed = composed.truncated(max(bound, 1))
    return _certify_or_raise(composed, spectrum, tol, "sr_compose")


def sr_inverse(F: SubResonantMap, tol: float = DEFAULT_SR_TOL,
               cond_cap: float = COND_CAP) -> SubResonantMap:
    """Exact polynomial inverse via finite degree-by-degree elimination.

    First compose on the right with the inverse of the linear part, then
    repeatedly remove the lowest surviving nonlinear homogeneous block
    ``S`` by composing with ``id - S``; the degree bound forces termination
    and the accumulated right factors compose to the inverse.
    """
    spectrum = F.spectrum
    linear = F.linear_part()
    _check_invertible(linear, cond_cap, SingularLinearPart, "linear part")
    inv_linear = _invert_flag_preserving(linear, spectrum)
    bound = max(1, spectrum.degree_bound)
    first = _certify_or_raise(PolyJet.from_linear(inv_linear, bound),
                              spectrum, tol, "sr_inverse linear stage")
    inverse = first
    remainder = sr_compose(F, first, tol)
    for _ in range(bound + 1):
        lowest = _lowest_nonlinear_degree(remainder.jet)
        if lowest is None:
            break
        block = homogeneous_part(remainder.jet, lowest)
        step_jet = PolyJet.identity(remainder.jet.n, bound) - block
        step = _certify_or_raise(step_jet, spectrum, tol, "sr_inverse elimination step")
        remainder = sr_compose(remainder, step, tol)
        inverse = sr_compose(inverse, step, tol)
    leftover = max((abs(c) for key, c in remainder.jet.terms.items()
                    if sum(key[0]) > 1), default=0.0)
    if leftover > _EXCESS_TOL:
        raise CertificationFailure(
            f"elimination left nonlinear residue of size {leftover:.3g}")
    return inverse


def _lowest_nonlinear_degree(jet: PolyJet):
    """Lowest degree >= 2 still carrying real content.

    Degrees whose entire content is cancellation noise are skipped; they are
    the rounding left behind by an earlier elimination step, and acting on
    them would burn iterations without progress.
    """
    noise = 1e-13 * max(1.0, jet.max_abs_coeff())
    degrees = sorted(d for d in jet.degrees() if d >= 2)
    for d in degrees:
        if any(abs(c) > noise for (index, _), c in jet.terms.items()
               if sum(index) == d):
            return d
    return None


def _invert_flag_preserving(linear: np.ndarray, spectrum: SpectrumData) -> np.ndarray:
    """Inverse of a flag-preserving matrix, with its structural zeros restored.

    The inverse of a block-upper-triangular matrix is block upper
    triangular; entries below the block structure in the computed inverse
    are pure roundoff and are removed so certification sees exact zeros.
    """
    inv = np.linalg.inv(linear)
    scale = np.max(np.abs(inv))
    for j in range(spectrum.n):
        for k in range(spectrum.n):
            if spectrum.block_of[j] > spectrum.block_of[k] and inv[j, k] != 0:
                if abs(inv[j, k]) > 1e-10 * scale:
                    raise CertificationFailure(
                        "inverse of linear part does not preserve the modulus flag")
                inv[j, k] = 0.0
    return inv


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
