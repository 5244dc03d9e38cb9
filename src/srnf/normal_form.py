"""Polynomial normal form of a contracting germ, solved degree by degree.

From ``phi = id`` and ``P = T``, the pipeline splits the degree-``q`` error
``[F o phi - phi o P]_q`` into a resonant part, added to ``P``, and an image
``h o T - T o h`` of the homological operator, whose preimage ``h`` is added
to ``phi``.  After degree ``c0 + 1`` every remaining tail term is absorbed by
the straightening limit ``z -> lim_p P^{-(p)}(F^{(p)}(z))``, so the output
normal form ``P`` is a polynomial with resonant (hence sub-resonant)
nonlinear support, with the conjugating jet and residual diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import (
    DegreeOutOfRange,
    DimensionMismatch,
    NoConvergence,
    ValidationError,
)
from .homological import SplitResult, split_homogeneous
from .linalg import (
    SpectrumData,
    analyze_spectrum,
    rescale_nilpotent,
    require_matrix,
    triangularize,
)
from .polymap import (
    HomogeneousPart,
    PolyJet,
    _PowerTable,
    compose_truncated,
    jet_inverse,
    linear_conjugate,
)
from .subresonance import SubResonantMap, _certify_or_raise, sr_inverse

COORDINATE_FRAMES = ("original", "adapted")


@dataclass(frozen=True)
class GermInput:
    """A germ fixing the origin, with its declared coordinate frame."""

    jet: PolyJet
    coordinates: str = "adapted"

    def __post_init__(self):
        if self.coordinates not in COORDINATE_FRAMES:
            raise ValidationError(
                f"coordinates must be one of {COORDINATE_FRAMES}, got {self.coordinates!r}")

    @property
    def n(self) -> int:
        return self.jet.n


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Residuals of the computed conjugacy; ``pointwise`` holds the polynomial
    residual at each row of ``sample_points``."""

    coefficient_max: float
    pointwise_max: float
    pointwise_mean: float
    sample_radius: float
    sample_count: int
    pointwise: tuple[float, ...]
    sample_points: np.ndarray


@dataclass(frozen=True, eq=False)
class NormalFormResult:
    """``steps`` holds each degree's split: its ``resonant`` part is added to
    ``P``, its ``eliminated`` part to ``phi``."""

    spectrum: SpectrumData
    normal_form: SubResonantMap
    steps: tuple[SplitResult, ...]
    phi: PolyJet
    residuals: ResidualReport
    basis_change: np.ndarray
    germ_adapted: PolyJet
    contraction_radius: float
    contraction_ratio: float
    trunc_degree: int

    @property
    def warnings(self) -> tuple[str, ...]:
        return tuple(w for step in self.steps for w in step.warnings)


def ingest(germ: GermInput, cfg: RunConfig = RunConfig()):
    """Validate a germ and move it to adapted coordinates.

    Returns ``(spectrum, adapted_jet, Q)`` where ``Q`` is the unitary basis
    change (identity when the germ was already adapted).
    """
    linear = require_matrix(germ.jet.linear_part())
    if germ.coordinates == "adapted":
        # must already be upper triangular with ordered moduli
        spectrum = analyze_spectrum(linear, cfg.block_tol)
        return spectrum, germ.jet, np.eye(germ.n, dtype=complex)
    Q, T = triangularize(linear)
    spectrum = analyze_spectrum(T, cfg.block_tol)
    adapted = linear_conjugate(germ.jet, Q, germ.jet.degree)
    # replace the numerically conjugated linear part with the exact T
    terms = {k: c for k, c in adapted.terms.items() if sum(k[0]) > 1}
    adapted = PolyJet(germ.n, adapted.degree, terms) + PolyJet.from_linear(T, 1)
    return spectrum, adapted, Q


def contraction_ball(spectrum: SpectrumData, jet: PolyJet) -> tuple[float, float]:
    """Radius and one-step norm ratio certified for orbits of the germ.

    Bounds come from the nilpotent-rescaled frame: with strictly-upper
    entries below ``eps`` and nonlinear coefficient mass ``C`` there,
    points with ``||z|| <= r0`` satisfy ``||F(z)|| <= ||z|| (1+|l_n|)/2``.
    The radius is pulled back conservatively to the adapted frame.
    """
    lam_max = float(spectrum.moduli[-1])
    eps_request = min(0.05, (1.0 - lam_max) / 8.0)
    S, scaled_T = rescale_nilpotent(spectrum.T, eps_request)
    delta = float(np.real(S[0, 0]))
    eps_achieved = float(np.max(np.abs(np.triu(scaled_T, 1)))) if spectrum.n > 1 else 0.0
    # Nonlinear coefficient mass in the rescaled frame: the coefficient of
    # z^I e_j picks up the factor delta^(w(I) - (j+1)), w(I) = sum (k+1) i_k.
    mass = np.zeros(spectrum.n)
    for (index, comp), coeff in jet.terms.items():
        d = sum(index)
        if d < 2:
            continue
        weight = sum((k + 1) * e for k, e in enumerate(index))
        mass[comp] += abs(coeff) * delta ** (weight - (comp + 1))
    C = float(np.linalg.norm(mass))
    numerator = 1.0 - lam_max - 2.0 * eps_achieved
    if numerator <= 0:
        return 0.0, 1.0
    if C <= 1e-15:
        r_scaled = 1.0
    else:
        r_scaled = min(1.0, numerator / (2.0 * C))
    radius = r_scaled * delta ** spectrum.n
    ratio = (1.0 + lam_max) / 2.0
    return radius, ratio


def conjugate_step(F: PolyJet, f_q: HomogeneousPart, degree: int, *,
                   prune: bool = True) -> PolyJet:
    """Conjugate ``F`` by ``id + f_q`` and truncate at ``degree``.

    Degrees below ``q`` pass through unchanged and the degree-``q`` part
    becomes ``H_q - (f_q o L - L o f_q)``.  Not used by :func:`poincare_dulac`;
    the tests check the direct scheme against an iteration of this step.
    """
    if F.n != f_q.n:
        raise DimensionMismatch("germ and correction have different dimensions")
    if f_q.q < 2:
        raise DegreeOutOfRange("conjugation corrections start at degree 2")
    if not f_q.terms:
        return F.truncated(degree)
    psi = PolyJet.identity(F.n, degree) + f_q
    psi_inv = jet_inverse(psi, degree)
    return compose_truncated(psi_inv, compose_truncated(F, psi, degree, prune=prune),
                             degree, prune=prune)


def poincare_dulac(germ: GermInput, cfg: RunConfig = RunConfig()) -> NormalFormResult:
    """Compute the polynomial normal form and the conjugating jet.

    Solves ``F o phi = phi o P`` for ``q = 2..D``: the error
    ``[F o phi - phi o P]_q``, read from power tables of ``phi`` and ``P``
    that make each degree block once, splits into a resonant part added to
    ``P`` and an operator image whose preimage is added to ``phi``.  The
    blocks read at ``q`` involve only degrees below ``q``, so adding ``h_q``
    and ``R_q`` afterwards leaves them valid.  ``D`` defaults to ``c0 + 1``;
    larger values refine the conjugator but add no resonant terms.
    """
    spectrum, adapted_full, Q = ingest(germ, cfg)
    D = cfg.trunc_degree if cfg.trunc_degree is not None else spectrum.c0 + 1
    if D < spectrum.c0 + 1:
        raise ValidationError(
            f"trunc_degree {D} is below c0+1 = {spectrum.c0 + 1} for this spectrum")

    phi = PolyJet.identity(germ.n, D)
    normal_jet = PolyJet.from_linear(spectrum.T, max(1, spectrum.degree_bound))
    # powers of phi (under F) and of P (under phi), extended as h_q and R_q arrive
    phi_powers, normal_powers = _PowerTable(germ.n, D), _PowerTable(germ.n, D)
    phi_powers.reveal(phi.terms)
    normal_powers.reveal(normal_jet.terms)
    steps: list[SplitResult] = []
    for q in range(2, D + 1):
        error = phi_powers.compose_block(adapted_full, q, prune=cfg.prune)
        for key, coeff in normal_powers.compose_block(phi, q, prune=cfg.prune).items():
            error[key] = error.get(key, 0j) - coeff
        split = split_homogeneous(spectrum, HomogeneousPart._trusted(germ.n, q, error),
                                  cfg.res_tol, cfg.sr_tol)
        steps.append(split)
        if split.eliminated.terms:
            phi = phi + split.eliminated
            phi_powers.reveal(split.eliminated.terms)
        if split.resonant.terms:
            normal_jet = normal_jet + split.resonant
            normal_powers.reveal(split.resonant.terms)
    del phi_powers, normal_powers   # free the blocks before the residual recomposes

    normal_form = _certify_or_raise(normal_jet, spectrum, cfg.sr_tol,
                                    "normal form output")

    radius, ratio = contraction_ball(spectrum, adapted_full)
    residuals = _residual_report(adapted_full, phi, normal_form.jet, D, radius, cfg)
    return NormalFormResult(
        spectrum=spectrum,
        normal_form=normal_form,
        steps=tuple(steps),
        phi=phi,
        residuals=residuals,
        basis_change=Q,
        germ_adapted=adapted_full,
        contraction_radius=radius,
        contraction_ratio=ratio,
        trunc_degree=D,
    )


def _residual_report(adapted_full: PolyJet, phi: PolyJet, P_jet: PolyJet,
                     D: int, radius: float, cfg: RunConfig) -> ResidualReport:
    coeff_res = conjugacy_coefficient_residual(adapted_full, phi, P_jet, D)
    r, points = _sample_points(adapted_full.n, radius, cfg)
    values = pointwise_conjugacy_residual(adapted_full, phi, P_jet, points)
    return ResidualReport(
        coefficient_max=coeff_res,
        pointwise_max=max(values) if values else 0.0,
        pointwise_mean=float(np.mean(values)) if values else 0.0,
        sample_radius=r,
        sample_count=len(values),
        pointwise=tuple(values),
        sample_points=points,
    )


def conjugacy_coefficient_residual(F: PolyJet, phi: PolyJet, P_jet: PolyJet,
                                   degree: int) -> float:
    """Largest coefficient gap between ``F o phi`` and ``phi o P`` through ``degree``."""
    left = compose_truncated(F, phi, degree, prune=False)
    right = compose_truncated(phi, P_jet, degree, prune=False)
    return left.max_coeff_diff(right)


def pointwise_conjugacy_residual(F: PolyJet, phi: PolyJet, P_jet: PolyJet,
                                 z) -> float | list[float]:
    """Polynomial residual ``||F(phi(z)) - phi(P(z))||`` at a point, or its list over rows."""
    z = np.asarray(z, dtype=complex)
    gap = F.evaluate(phi.evaluate(z)) - phi.evaluate(P_jet.evaluate(z))
    return _row_norms(gap) if gap.ndim == 2 else float(np.linalg.norm(gap))


def _row_norms(rows: np.ndarray) -> list[float]:
    """The 1-D norm of each row (``norm(axis=1)`` reduces in another order)."""
    return [float(np.linalg.norm(row)) for row in rows]


def _sample_points(n: int, contraction_radius: float, cfg: RunConfig) -> tuple[float, np.ndarray]:
    """Radius and seeded sample points ``(cfg.sample_count, n)`` of the pointwise checks."""
    radius = min(cfg.sample_radius, 0.5 * contraction_radius) if contraction_radius > 0 \
        else cfg.sample_radius
    rng = np.random.default_rng(cfg.seed)
    points = np.zeros((cfg.sample_count, n), dtype=complex)
    for point in points:
        direction = rng.normal(size=n) + 1j * rng.normal(size=n)
        norm = np.linalg.norm(direction)
        if norm == 0:
            direction = np.ones(n, dtype=complex)
            norm = np.linalg.norm(direction)
        point[:] = radius * direction / norm
    return radius, points


def phi_numeric(F: PolyJet, P: SubResonantMap, z, *, p_max: int = RunConfig.p_max,
                cauchy_tol: float = RunConfig.cauchy_tol) -> np.ndarray:
    """Straightening value ``lim_p P^{-(p)}(F^{(p)}(z))``.

    The limit ``phi`` sends orbits of ``F`` to orbits of ``P``:
    ``phi(F(z)) = P(phi(z))``, ``phi(0) = 0``, ``phi'(0) = id``.  Requires
    ``F`` and ``P`` to agree through degree ``c0`` and ``z`` inside the
    contraction ball; iterates until the update gap falls below
    ``cauchy_tol * max(1, ||z||)``.
    """
    values, _, (gap,) = _straightening_iterate(
        F, sr_inverse(P).jet, np.asarray(z, dtype=complex)[None], p_max, cauchy_tol)
    if gap is None:
        return values[0]
    raise NoConvergence(
        f"straightening did not stabilize in {p_max} iterations (last gap {gap:.3g})",
        last_gap=gap, iterations=p_max)


def _straightening_iterate(F: PolyJet, P_inv: PolyJet, Z: np.ndarray,
                           p_max: int, cauchy_tol: float, *, pullback: PolyJet = None):
    """Straightening limit at every row of ``Z`` ``(m, n)``, given ``P_inv = P^{-1}``.

    With ``pullback`` given, computes ``lim_p P^{-(p)}(pullback(F^{(p)}(z)))``,
    the straightening of ``pullback^{-1} o F o pullback``-conjugated germs
    evaluated through the polynomial stage.  A row leaves the batch once its
    update gap is at most ``cauchy_tol * max(1, ||z||)``.  Returns the values,
    the ``p`` each row stopped at, and per row ``None`` or its last gap.
    """
    if F.n != P_inv.n or Z.ndim != 2 or Z.shape[1] != F.n:
        raise DimensionMismatch("dimensions of germ, normal form and points differ")
    tol = [cauchy_tol * max(1.0, norm) for norm in _row_norms(Z)]
    values = np.empty_like(Z)
    stopped_at, gaps = [p_max] * len(Z), [float("inf")] * len(Z)
    active = np.arange(len(Z))
    forward = Z
    for p in range(p_max + 1):
        w = pullback.evaluate(forward) if pullback is not None else forward
        for _ in range(p):
            w = P_inv.evaluate(w)
        if p:
            for row, gap in zip(active, _row_norms(w - values[active])):
                gaps[row], stopped_at[row] = (None, p) if gap <= tol[row] else (gap, p_max)
        values[active] = w
        keep = [gaps[row] is not None for row in active]
        active = active[keep]
        if not len(active) or p == p_max:
            break
        forward = F.evaluate(forward[keep])
    return values, stopped_at, gaps


@dataclass(frozen=True)
class ConjugacyReport:
    """Coefficient- and point-level evidence for one computed conjugacy.

    A straightened residual is ``None`` where the straightening iteration did
    not stabilize within ``p_max`` steps at that sample.
    """

    coefficient_max: float
    polynomial_pointwise: tuple[float, ...]
    straightened_pointwise: tuple[float | None, ...]
    sample_points: tuple[tuple[complex, ...], ...]
    amplification_estimate: float

    @property
    def polynomial_max(self) -> float:
        return max(self.polynomial_pointwise, default=0.0)

    @property
    def straightened_max(self) -> float | None:
        """Largest straightened residual over the converged samples (``None`` if none)."""
        converged = [v for v in self.straightened_pointwise if v is not None]
        return max(converged, default=None if self.unconverged else 0.0)

    @property
    def unconverged(self) -> int:
        return self.straightened_pointwise.count(None)


def verify_conjugacy(germ: GermInput, result: NormalFormResult,
                     cfg: RunConfig = RunConfig()) -> ConjugacyReport:
    """Check ``F o phi = phi o P`` in coefficients and at sample points.

    The coefficient gap and the polynomial-stage residual
    ``||F(phi(z)) - phi(P(z))||`` at each sample point are read from
    ``result.residuals``, as :func:`poincare_dulac` computed them at the
    points its configuration drew.  This function adds the straightened
    residual ``||g(F(z)) - P(g(z))||`` at the same points, in adapted
    coordinates, where ``g`` composes the inverse of the polynomial stage
    with the numeric straightening limit.  Of ``cfg`` only ``p_max`` and
    ``cauchy_tol`` are read; pass the configuration given to
    :func:`poincare_dulac`.
    """
    spectrum = result.spectrum
    F = result.germ_adapted
    P = result.normal_form
    Z = result.residuals.sample_points
    m = len(Z)
    straightened = [None] * m
    p_used = 0
    if m:
        # rows i and m + i straighten z_i and F(z_i)
        G, stopped_at, gaps = _straightening_iterate(
            F, sr_inverse(P).jet, np.concatenate([Z, F.evaluate(Z)]), cfg.p_max,
            cfg.cauchy_tol, pullback=jet_inverse(result.phi, result.trunc_degree))
        ok = [i for i in range(m) if gaps[i] is None and gaps[m + i] is None]
        residuals = _row_norms(G[[m + i for i in ok]] - P.jet.evaluate(G[ok]))
        for i, value in zip(ok, residuals):
            straightened[i] = value
            p_used = max(p_used, stopped_at[i], stopped_at[m + i])
    amplification = float(spectrum.moduli[0] ** (-p_used)) if p_used else 1.0
    return ConjugacyReport(
        coefficient_max=result.residuals.coefficient_max,
        polynomial_pointwise=result.residuals.pointwise,
        straightened_pointwise=tuple(straightened),
        sample_points=tuple(tuple(z) for z in Z),
        amplification_estimate=amplification,
    )
