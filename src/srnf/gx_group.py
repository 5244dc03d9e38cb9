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
from .errors import (
    DimensionMismatch,
    SingularLinearPart,
    SpectrumMismatch,
    ValidationError,
)
from .linalg import same_spectrum
from .normal_form import GermInput, NormalFormResult, _row_norms, poincare_dulac
from .polymap import PolyJet, _check_invertible, _linear_terms, _PowerTable
from .subresonance import (
    DEFAULT_SR_TOL,
    SubResonantMap,
    _certify_or_raise,
    sr_compose,
    sr_inverse,
)


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

    def coeff_distance(self, other: "GroupElement") -> float:
        """Largest gap across the translation and the map coefficients."""
        gap = float(np.max(np.abs(self.tau - other.tau))) if self.n else 0.0
        return max(gap, self.h.jet.max_coeff_diff(other.h.jet))

    def __repr__(self):
        return f"GroupElement(n={self.n}, |tau|={np.linalg.norm(self.tau):.3g})"


def translate_conjugate(h: SubResonantMap, tau,
                        tol: float = DEFAULT_SR_TOL) -> SubResonantMap:
    """The map ``z -> h(z + tau) - h(tau)``, certified sub-resonant.

    ``h`` is composed with ``z + tau`` in one power table and the constant
    terms, which make up ``h(tau)``, are dropped.  Every surviving monomial
    divides one of ``h`` and inherits its sub-resonance inequality, so
    re-certification can only fail on a defect.
    """
    tau = np.asarray(tau, dtype=complex)
    n = h.jet.n
    if tau.shape != (n,):
        raise DimensionMismatch(f"translation shape {tau.shape} does not match n={n}")
    origin = (0,) * n
    table = _PowerTable(n, h.jet.degree)
    table.reveal(_linear_terms(np.eye(n)))
    table.reveal({(origin, k): t for k, t in enumerate(tau.tolist()) if t != 0})
    out = table.compose(h.jet)
    for k in range(n):
        out.pop((origin, k), None)
    jet = PolyJet._trusted(n, h.jet.degree, out)
    return _certify_or_raise(jet, h.spectrum, tol, "translate_conjugate")


def group_mul(g1: GroupElement, g2: GroupElement,
              tol: float = DEFAULT_SR_TOL) -> GroupElement:
    """Canonical form of the composition ``z -> g1(g2(z))``."""
    if not same_spectrum(g1.h.spectrum, g2.h.spectrum):
        raise SpectrumMismatch("group elements are relative to different spectra")
    tau = g1.tau + g1.h.evaluate(g2.tau)
    shifted = translate_conjugate(g1.h, g2.tau, tol)
    return GroupElement(tau=tau, h=sr_compose(shifted, g2.h, tol))


def group_inv(g: GroupElement, tol: float = DEFAULT_SR_TOL) -> GroupElement:
    """Canonical form of the functional inverse ``z -> h^{-1}(z - tau)``."""
    h_inv = sr_inverse(g.h, tol)
    tau = h_inv.evaluate(-g.tau)
    return GroupElement(tau=tau, h=translate_conjugate(h_inv, -g.tau, tol))


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
          annulus: tuple[float, float] | None = None,
          annulus_samples: int = 64, seed: int = 0):
    """Points ``z, g(z), ..., g^k(z)`` with contraction diagnostics.

    Norm ratios are compared against ``(1 + |l_n|)/2`` once the orbit is
    inside the given ball.  When an annulus ``(r, R)`` is given, the image
    of a sampled point grid of the annulus is checked to miss the annulus,
    so that distinct orbit points cannot collide there; this is reported
    evidence, not a proof.
    """
    if k < 0:
        raise ValidationError(f"iteration count must be >= 0, got {k}")
    z = np.asarray(z, dtype=complex)
    if z.shape != (g.n,):
        raise DimensionMismatch(f"point shape {z.shape} does not match n={g.n}")
    points = [z]
    for _ in range(k):
        points.append(g.evaluate(points[-1]))
    points_arr = np.array(points)
    norms = tuple(float(np.linalg.norm(p)) for p in points)

    lam_max = float(g.h.spectrum.moduli[-1])
    ratio_bound = (1.0 + lam_max) / 2.0
    entered = None
    if ball_radius is not None and ball_radius > 0:
        for i, val in enumerate(norms):
            if val <= ball_radius:
                entered = i
                break
    ratios = tuple(norms[i + 1] / norms[i]
                   for i in range((entered if entered is not None else len(norms)),
                                  len(norms) - 1)
                   if norms[i] > 0)
    ratio_certified = all(r <= ratio_bound * (1 + 1e-12) for r in ratios)

    annulus_check = None
    if annulus is not None:
        inner, outer = annulus
        if not 0 < inner < outer:
            raise ValidationError("annulus radii must satisfy 0 < r < R")
        rng = np.random.default_rng(seed)
        grid = []
        for _ in range(annulus_samples):
            direction = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
            direction /= np.linalg.norm(direction)
            radius = rng.uniform(inner, outer)
            grid.append(radius * direction)
        images = g.evaluate(np.array(grid).reshape(-1, g.n))
        worst = max([0.0, *_row_norms(images)])
        annulus_check = AnnulusCheck(
            inner=inner,
            outer=outer,
            max_image_norm=worst,
            separated=worst < inner,
            certified=ratio_bound * outer < inner,
        )
    diagnostics = OrbitDiagnostics(
        norms=norms,
        entered_ball_at=entered,
        ratio_bound=ratio_bound,
        ratios_after_entry=ratios,
        ratio_certified=ratio_certified,
        annulus=annulus_check,
    )
    return points_arr, diagnostics
