"""The affine extension of the sub-resonant group, and holonomy generators.

Elements are pairs ``(tau, h)`` acting as ``z -> tau + h(z)`` with ``h``
sub-resonant and invertible at the origin; the translation part is a normal
subgroup.  The normal form of a contracting germ gives the generator
``(0, P)`` whose cyclic action on punctured space defines the associated
quotient manifold; orbit diagnostics check the contraction at the level of
sampled points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import DimensionMismatch, NoConvergence, SingularLinearPart, ValidationError
from .normal_form import GermInput, NormalFormResult, _row_norms, poincare_dulac
from .polymap import PolyJet, _check_invertible, compose_truncated
from .subresonance import SubResonantMap, _certify_or_raise, sr_compose, sr_inverse

# Number of seeded points at which orbit's annulus check samples the annulus.
ANNULUS_SAMPLES = 64


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
        _check_invertible(self.h.linear_part(), SingularLinearPart, "group element map part")
        object.__setattr__(self, "tau", tau)
        self.tau.setflags(write=False)

    @classmethod
    def identity(cls, spectrum) -> "GroupElement":
        ident = PolyJet.identity(spectrum.n, max(1, spectrum.degree_bound))
        return cls(tau=np.zeros(spectrum.n, dtype=complex),
                   h=SubResonantMap(jet=ident, spectrum=spectrum))

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return np.array_equal(self.tau, other.tau) and self.h == other.h

    @property
    def n(self) -> int:
        return self.h.jet.n

    def evaluate(self, z) -> np.ndarray:
        return self.tau + self.h.evaluate(z)

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
    return _certify_or_raise(jet, h.spectrum, "translate_conjugate")


def group_mul(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Canonical form ``(tau1 + h1(tau2), h1(tau2 + h2) - h1(tau2))`` of ``z -> g1(g2(z))``;
    its map part is one :func:`sr_compose` shifted by ``tau2``."""
    h = sr_compose(g1.h, g2.h, shift=g2.tau)   # refuses a shift that overflows
    return GroupElement(tau=g1.tau + g1.h.evaluate(g2.tau), h=h)


def group_inv(g: GroupElement) -> GroupElement:
    """Canonical form of the functional inverse ``z -> h^{-1}(z - tau)``."""
    h_inv = sr_inverse(g.h)
    h = translate_conjugate(h_inv, -g.tau)   # refuses a shift that overflows
    return GroupElement(tau=h_inv.evaluate(-g.tau), h=h)


def hopf_holonomy(germ: GermInput,
                  cfg: RunConfig = RunConfig()) -> tuple[GroupElement, NormalFormResult]:
    """Holonomy generator ``(0, P)`` of the quotient defined by the germ.

    Outputs are in adapted coordinates; the unitary basis change is carried
    by the attached normal-form result.
    """
    result = poincare_dulac(germ, cfg)
    generator = GroupElement(tau=np.zeros(germ.n, dtype=complex),
                             h=result.normal_form)
    return generator, result


@dataclass(frozen=True)
class AnnulusCheck:
    inner: float
    outer: float
    max_image_norm: float
    separated: bool
    certified: bool  # contraction ratio alone already forces separation


@dataclass(frozen=True)
class OrbitDiagnostics:
    norms: tuple[float, ...]
    entered_ball_at: int | None
    ratio_bound: float
    ratios_after_entry: tuple[float, ...]
    ratio_certified: bool
    annulus: AnnulusCheck | None


def orbit(g: GroupElement, z, k: int, *, ball_radius: float | None = None,
          annulus: tuple[float, float] | None = None, seed: int = 0):
    """Points ``z, g(z), ..., g^k(z)`` with contraction diagnostics.

    Norm ratios are compared against ``(1 + |l_n|)/2`` once the orbit is
    inside the given ball.  When an annulus ``(r, R)`` is given, the image
    of ``ANNULUS_SAMPLES`` seeded points of the annulus is checked to miss
    the annulus, so that distinct orbit points cannot collide there; this is
    reported evidence, not a proof.
    """
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

    ratio_bound = (1.0 + float(g.h.spectrum.moduli[-1])) / 2.0
    entered = next((i for i, norm in enumerate(norms) if norm <= ball_radius), None) \
        if ball_radius is not None and ball_radius > 0 else None
    start = len(norms) if entered is None else entered
    ratios = tuple(norms[i + 1] / norms[i] for i in range(start, len(norms) - 1) if norms[i] > 0)
    ratio_certified = all(r <= ratio_bound * (1 + 1e-12) for r in ratios)

    annulus_check = None
    if annulus is not None:
        inner, outer = annulus
        if not 0 < inner < outer:
            raise ValidationError("annulus radii must satisfy 0 < r < R")
        rng = np.random.default_rng(seed)
        grid = []
        for _ in range(ANNULUS_SAMPLES):
            direction = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
            direction /= np.linalg.norm(direction)
            radius = rng.uniform(inner, outer)
            grid.append(radius * direction)
        with np.errstate(over="ignore", invalid="ignore"):
            image_norms = _row_norms(g.evaluate(np.array(grid)))
        finite = np.isfinite(image_norms)
        if not finite.all():
            raise NoConvergence(f"the annulus image left the float range at sample "
                                f"{int(finite.argmin())} of {ANNULUS_SAMPLES}")
        worst = max(image_norms)
        annulus_check = AnnulusCheck(inner=inner, outer=outer, max_image_norm=worst,
                                     separated=worst < inner,
                                     certified=ratio_bound * outer < inner)
    return points_arr, OrbitDiagnostics(
        norms=norms, entered_ball_at=entered, ratio_bound=ratio_bound, ratios_after_entry=ratios,
        ratio_certified=ratio_certified, annulus=annulus_check)
