"""The affine extension of the sub-resonant group, and holonomy generators.

Elements are pairs ``(tau, h)`` acting as ``z -> tau + h(z)`` with ``h``
sub-resonant and invertible at the origin; the translation part is a normal
subgroup.  The normal form of a contracting germ gives the generator
``(0, P)`` whose cyclic action on punctured space defines the associated
quotient manifold.  :func:`orbit` returns an orbit's points and norms and
certifies nothing: neither a contraction ratio nor a fundamental domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, SingularLinearPart, ValidationError
from .normal_form import NormalFormResult, _row_norms
from .polymap import PolyJet, _check_invertible, compose_truncated
from .subresonance import SubResonantMap, certify_subresonant, sr_compose, sr_inverse


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Affine-sub-resonant map ``z -> tau + h(z)`` in canonical form."""

    tau: np.ndarray
    h: SubResonantMap

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=complex)
        if tau.shape != (self.h.jet.n,):
            raise DimensionMismatch(
                f"translation shape {tau.shape} does not match n={self.h.jet.n}")
        _check_invertible(self.h.jet.linear_part(), SingularLinearPart, "group element map part")
        object.__setattr__(self, "tau", tau)
        self.tau.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return np.array_equal(self.tau, other.tau) and self.h == other.h

    @property
    def n(self) -> int:
        return self.h.jet.n

    def evaluate(self, z) -> np.ndarray:
        return self.tau + self.h.jet.evaluate(z)

    def __repr__(self):
        return f"GroupElement(n={self.n}, |tau|={np.linalg.norm(self.tau):.3g})"


def translate_conjugate(h: SubResonantMap, tau) -> SubResonantMap:
    """The map ``z -> h(z + tau) - h(tau)``, certified sub-resonant.

    It is the map part of the group product ``(0, h) (tau, id)``: one
    composition of ``h`` with ``tau + z``, whose constant ``h(tau)`` is
    dropped.  Every surviving monomial divides one of ``h`` and inherits its
    sub-resonance inequality, so re-certification can only fail on a defect.
    """
    jet = compose_truncated(h.jet, PolyJet.identity(h.jet.n), h.jet.degree,
                            prune=False, shift=tau)
    return certify_subresonant(jet, h.spectrum, "translate_conjugate")


def group_mul(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Canonical form ``(tau1 + h1(tau2), h1(tau2 + h2) - h1(tau2))`` of ``z -> g1(g2(z))``;
    its map part is one :func:`sr_compose` shifted by ``tau2``."""
    h = sr_compose(g1.h, g2.h, shift=g2.tau)   # refuses a shift that overflows
    return GroupElement(tau=g1.tau + g1.h.jet.evaluate(g2.tau), h=h)


def group_inv(g: GroupElement) -> GroupElement:
    """Canonical form of the functional inverse ``z -> h^{-1}(z - tau)``."""
    h_inv = sr_inverse(g.h)
    h = translate_conjugate(h_inv, -g.tau)   # refuses a shift that overflows
    return GroupElement(tau=h_inv.jet.evaluate(-g.tau), h=h)


def holonomy_generator(result: NormalFormResult) -> GroupElement:
    """Holonomy generator ``(0, P)`` of the quotient defined by the germ of
    ``result``, in adapted coordinates."""
    return GroupElement(tau=np.zeros(result.spectrum.n, dtype=complex), h=result.normal_form)


def orbit(g: GroupElement, z, k: int):
    """Points ``z, g(z), ..., g^k(z)`` and their norms, as ``(points, norms)``:
    an array of ``k + 1`` rows and a tuple of ``k + 1`` floats.  An orbit that
    leaves the float range is refused, not returned."""
    if k < 0:
        raise ValidationError(f"iteration count must be >= 0, got {k}")
    z = np.asarray(z, dtype=complex)
    if z.shape != (g.n,):
        raise DimensionMismatch(f"point shape {z.shape} does not match n={g.n}")
    points = [z]
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is refused below
        for _ in range(k):
            points.append(g.evaluate(points[-1]))
        points_arr = np.array(points)
        norms = tuple(_row_norms(points_arr))
    # the first point that is not finite, else the first finite point whose norm is not
    for finite in (np.isfinite(points_arr).all(axis=1), np.isfinite(norms)):
        if not finite.all():
            raise NoConvergence(f"the orbit left the float range at step "
                                f"{int(finite.argmin())} of {k}")
    return points_arr, norms
