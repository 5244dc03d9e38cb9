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

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import (
    MAX_REQUEST_BYTES,
    DegreeOutOfRange,
    DimensionMismatch,
    NoConvergence,
    ValidationError,
    check_size,
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
    NonFiniteCoefficient,
    PolyJet,
    _nonlinear,
    _PowerTable,
    _sum_terms,
    compose_truncated,
    jet_inverse,
    linear_conjugate,
)
from .subresonance import SubResonantMap, _certify_or_raise, sr_inverse

COORDINATE_FRAMES = ("original", "adapted")

# Largest number of basis positions, summed over degrees 2..D, that
# poincare_dulac splits: a sparse resonant germ at n = 16, D = 9 (32.7 M
# positions) peaks at 1.9 GB RSS; D = 10 (85.0 M positions) is refused.
MAX_SPLIT_POSITIONS = 2**25

# Largest number of basis positions, summed over degrees 2..d, through which
# ingest conjugates an original germ's nonlinear terms: one degree-7 term at
# n = 16 (3.9 M positions) peaks at 1.15 GB RSS; degree 8 (11.8 M) is refused.
MAX_CONJUGATED_POSITIONS = 2**22

# Peak of a verification per sample coordinate: the samples, the residual and
# straightening arrays, the document and its text (tracemalloc over ``srnf
# verify``, 2,000-10,000 samples: 562 bytes at n = 2 on the Hopf germ, 1,325 at
# n = 16 on a germ with 16 quadratic terms).  Evaluating a jet adds a temporary
# of at most ``polymap.EVALUATION_CHUNK_BYTES``, or one sample's powers, whatever
# the sample count.
SAMPLE_BYTES_PER_COORDINATE = 1400



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


@dataclass(frozen=True)
class ResidualReport:
    """Residual of the computed conjugacy: the largest coefficient gap between
    ``F o phi`` and ``phi o P`` through the working degree."""

    coefficient_max: float


@dataclass(frozen=True, eq=False)
class NormalFormResult:
    """``steps`` holds each degree's split: its ``resonant`` part is added to
    ``P``, its ``eliminated`` part to ``phi``; ``germ`` is the germ as given."""

    spectrum: SpectrumData
    normal_form: SubResonantMap
    steps: tuple[SplitResult, ...]
    phi: PolyJet
    residuals: ResidualReport
    basis_change: np.ndarray
    germ: GermInput
    germ_adapted: PolyJet
    contraction_radius: float
    contraction_ratio: float
    trunc_degree: int


def germ_frame(germ: GermInput) -> tuple[SpectrumData, np.ndarray]:
    """The spectrum of a germ's linear part and the unitary basis change ``Q``
    to adapted coordinates (identity when the germ was already adapted)."""
    linear = require_matrix(germ.jet.linear_part())
    if germ.coordinates == "adapted":
        # must already be upper triangular with ordered moduli
        return analyze_spectrum(linear), np.eye(germ.n, dtype=complex)
    Q, T = triangularize(linear)
    return analyze_spectrum(T), Q


def ingest(germ: GermInput):
    """Validate a germ and move it to adapted coordinates: ``(spectrum,
    adapted_jet, Q)``, with ``spectrum`` and ``Q`` from :func:`germ_frame`."""
    spectrum, Q = germ_frame(germ)
    if germ.coordinates == "adapted":
        return spectrum, germ.jet, Q
    d = germ.jet.max_degree()
    check_size(split_positions(germ.n, d), MAX_CONJUGATED_POSITIONS,
               f"the conjugation through degree {d} for n={germ.n}", "ingest", "positions")
    # conjugate only the nonlinear terms: the linear part is exactly T
    adapted = linear_conjugate(_nonlinear(germ.jet), Q, germ.jet.degree)
    return spectrum, adapted + PolyJet.from_linear(spectrum.T, 1), Q


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
    for (index, comp), coeff in _nonlinear(jet).terms.items():
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


def split_positions(n: int, D: int) -> int:
    """Basis positions of degrees 2..D, the sum of ``basis_dimension(n, q)``:
    ``n * (C(D + n, n) - 1 - n)`` by the hockey-stick identity."""
    return n * (math.comb(D + n, n) - 1 - n)


def conjugate_step(F: PolyJet, f_q: PolyJet, degree: int, *,
                   prune: bool = True) -> PolyJet:
    """Conjugate ``F`` by ``id + f_q``, whose terms have degree ``q = f_q.degree``,
    and truncate at ``degree``.

    Degrees below ``q`` pass through unchanged and the degree-``q`` part
    becomes ``H_q - (f_q o L - L o f_q)``.  Not used by :func:`poincare_dulac`;
    the tests check the direct scheme against an iteration of this step.
    """
    if F.n != f_q.n:
        raise DimensionMismatch("germ and correction have different dimensions")
    if f_q.degree < 2:
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
    and ``R_q`` afterwards leaves them valid; ``D = c0 + 1``.  Of ``cfg`` only
    ``res_tol`` and ``prune`` are read, and no random number is drawn.  A
    request of more than ``MAX_SPLIT_POSITIONS`` positions is refused before
    the degree loop; a coefficient that leaves the float range raises
    ``NoConvergence``.
    """
    return _poincare_dulac(germ, ingest(germ), cfg)


def _poincare_dulac(germ: GermInput, ingested: tuple, cfg: RunConfig) -> NormalFormResult:
    """:func:`poincare_dulac` of a germ with ``ingested = ingest(germ)``."""
    spectrum, adapted_full, Q = ingested
    D = spectrum.c0 + 1
    phi = PolyJet.identity(spectrum.n, D)
    check_size(split_positions(spectrum.n, D), MAX_SPLIT_POSITIONS,
               f"the split through degree {D} for n={spectrum.n}", "normal form", "positions")
    normal_jet = PolyJet.from_linear(spectrum.T, spectrum.degree_bound)
    # powers of phi (under F) and of P (under phi), extended as h_q and R_q arrive
    phi_powers, normal_powers = _PowerTable(spectrum.n, D), _PowerTable(spectrum.n, D)
    phi_powers.reveal(phi.terms)
    normal_powers.reveal(normal_jet.terms)
    # only nonlinear terms of F add to a degree-q block, and phi's linear
    # terms add nothing while P's degree-q block is not yet revealed
    nonlinear = _nonlinear(adapted_full)
    steps: list[SplitResult] = []
    with _float_range(lambda: f"the normal form left the float range at degree {q} of {D}"):
        for q in range(2, D + 1):
            error = _sum_terms(phi_powers.compose_block(nonlinear, q, prune=cfg.prune),
                               {key: -c for key, c in
                                normal_powers.compose_block(phi, q, prune=cfg.prune).items()})
            split = split_homogeneous(spectrum, PolyJet._trusted(spectrum.n, q, error),
                                      cfg.res_tol)
            steps.append(split)
            if split.eliminated.terms:
                phi = phi + split.eliminated
                phi_powers.reveal(split.eliminated.terms)
            if split.resonant.terms:
                normal_jet = normal_jet + split.resonant
                normal_powers.reveal(split.resonant.terms)
    del phi_powers, normal_powers   # free the blocks before the residual recomposes

    normal_form = _certify_or_raise(normal_jet, spectrum, "normal form output")

    with _float_range(lambda: f"the residual check through degree {D} left the float range"):
        radius, ratio = contraction_ball(spectrum, adapted_full)
        residuals = ResidualReport(
            conjugacy_coefficient_residual(adapted_full, phi, normal_form.jet, D))
    return NormalFormResult(
        spectrum=spectrum,
        normal_form=normal_form,
        steps=tuple(steps),
        phi=phi,
        residuals=residuals,
        basis_change=Q,
        germ=germ,
        germ_adapted=adapted_full,
        contraction_radius=radius,
        contraction_ratio=ratio,
        trunc_degree=D,
    )


@contextmanager
def _float_range(message):
    """Raise ``NoConvergence(message())`` where a coefficient inside leaves the
    float range, non-finite or with an overflowing modulus; numpy's overflow
    warnings are silenced, since the overflow is refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            yield
        except (NonFiniteCoefficient, OverflowError) as exc:
            raise NoConvergence(message()) from exc


def conjugacy_coefficient_residual(F: PolyJet, phi: PolyJet, P_jet: PolyJet,
                                   degree: int) -> float:
    """Largest coefficient gap between ``F o phi`` and ``phi o P`` through ``degree``."""
    left = compose_truncated(F, phi, degree, prune=False)
    right = compose_truncated(phi, P_jet, degree, prune=False)
    return left.max_coeff_diff(right)


def pointwise_conjugacy_residual(F: PolyJet, phi: PolyJet, P_jet: PolyJet,
                                 Z: np.ndarray) -> list[float]:
    """Polynomial residual ``||F(phi(z)) - phi(P(z))||`` at each row ``z`` of ``Z``."""
    return _row_norms(F.evaluate(phi.evaluate(Z)) - phi.evaluate(P_jet.evaluate(Z)))


def _row_norms(rows: np.ndarray) -> list[float]:
    """The norm of each row, bit for bit as ``np.linalg.norm(row)`` takes it:
    ``sqrt(re . re + im . im)``, each dot a ``(1, n) @ (n, 1)`` product
    (``norm(axis=1)`` reduces in another order)."""
    re, im = rows.real[:, None], rows.imag[:, None]
    return np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)).ravel().tolist()


def _sample_points(n: int, contraction_radius: float, cfg: RunConfig) -> tuple[float, np.ndarray]:
    """Radius and seeded sample points ``(cfg.sample_count, n)`` of the pointwise checks."""
    radius = min(cfg.sample_radius, 0.5 * contraction_radius) if contraction_radius > 0 \
        else cfg.sample_radius
    # per point, n real parts then n imaginary parts of one seeded stream
    draws = np.random.default_rng(cfg.seed).normal(size=(cfg.sample_count, 2, n))
    directions = draws[:, 0] + 1j * draws[:, 1]
    return radius, radius * directions / np.array(_row_norms(directions))[:, None]


def _straighten(F: PolyJet, P_inv: PolyJet, pullback: PolyJet, Y: np.ndarray,
                p_max: int, cauchy_tol: float):
    """Straightening limit ``lim_p P^{-(p)}(pullback(F^{(p)}(y)))`` at each row
    ``y`` of ``Y``, given ``P_inv = P^{-1}``.  A row iterates ``w_p =
    P_inv^p(pullback(F^p(y)))`` and stops at the first ``p >= 1`` whose gap
    ``||w_p - w_(p-1)||`` is at most ``cauchy_tol * max(1, ||y||)``.  Returns
    each row's last ``w_p`` and the ``p`` it stopped at, ``None`` if it did not.
    """
    tol = cauchy_tol * np.maximum(1.0, _row_norms(Y))
    values, stopped = pullback.evaluate(Y), np.full(len(Y), None)
    active, forward = np.arange(len(Y)), Y
    for p in range(1, p_max + 1):
        if not len(active):
            break
        forward = F.evaluate(forward)
        w = pullback.evaluate(forward)
        for _ in range(p):
            w = P_inv.evaluate(w)
        done = np.array(_row_norms(w - values[active])) <= tol[active]   # NaN is not done
        values[active] = w
        stopped[active[done]] = p
        active, forward = active[~done], forward[~done]
    return values, stopped.tolist()


@dataclass(frozen=True, eq=False)
class ConjugacyReport:
    """Coefficient- and point-level evidence for one computed conjugacy.

    ``residuals`` is the normal form's own report, the coefficient gap.
    ``pointwise`` and ``straightened_pointwise`` hold the residuals at each
    row of ``sample_points``, drawn at ``sample_radius``; a straightened
    residual is ``None`` where the straightening iteration did not stabilize
    within ``p_max`` steps at that sample.
    """

    residuals: ResidualReport
    sample_radius: float
    sample_points: np.ndarray
    pointwise: tuple[float, ...]
    straightened_pointwise: tuple[float | None, ...]
    amplification_estimate: float

    @property
    def pointwise_max(self) -> float:
        return max(self.pointwise, default=0.0)

    @property
    def straightened_max(self) -> float | None:
        """Largest straightened residual over the converged samples (``None`` if none)."""
        converged = [v for v in self.straightened_pointwise if v is not None]
        return max(converged, default=None if self.unconverged else 0.0)

    @property
    def unconverged(self) -> int:
        return self.straightened_pointwise.count(None)


def check_sample_count(n: int, cfg: RunConfig) -> None:
    """Refuse ``cfg.sample_count`` samples in dimension ``n`` above ``MAX_REQUEST_BYTES``."""
    check_size(SAMPLE_BYTES_PER_COORDINATE * cfg.sample_count * n, MAX_REQUEST_BYTES,
               f"a sample count of {cfg.sample_count} for n={n}", "verify")


def verify_conjugacy(germ: GermInput, result: NormalFormResult,
                     cfg: RunConfig = RunConfig()) -> ConjugacyReport:
    """Check ``F o phi = phi o P`` in coefficients and at sample points.

    The report holds ``result.residuals``, the coefficient gap.  This
    function draws ``cfg.sample_count`` seeded points and adds, at each, the
    polynomial-stage residual ``||F(phi(z)) - phi(P(z))||`` and the
    straightened residual ``||g(F(z)) - P(g(z))||``, in adapted coordinates,
    where ``g`` composes the inverse of the polynomial stage with the
    numeric straightening limit.  Of ``cfg`` only ``sample_count``,
    ``sample_radius``, ``seed``, ``p_max`` and ``cauchy_tol`` are read.
    ``germ`` must be the germ of ``result``: another dimension raises
    ``DimensionMismatch``, and a germ other than ``result.germ`` that
    :func:`ingest` does not move to ``result.germ_adapted`` ``ValidationError``.
    Samples above ``MAX_REQUEST_BYTES`` are refused before they are drawn; a
    polynomial residual or an amplification estimate ``|l_1|^-p_used`` that
    leaves the float range raises ``NoConvergence``.
    """
    spectrum = result.spectrum
    F = result.germ_adapted
    P = result.normal_form
    m = cfg.sample_count
    if germ.n != spectrum.n:
        raise DimensionMismatch(f"germ dimension {germ.n} does not match n={spectrum.n}")
    if germ != result.germ and ingest(germ)[1] != F:
        raise ValidationError(f"the {germ.coordinates} germ is not the germ of this normal form")
    check_sample_count(spectrum.n, cfg)
    radius, Z = _sample_points(F.n, result.contraction_radius, cfg)
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is refused below
        pointwise = pointwise_conjugacy_residual(F, result.phi, P.jet, Z)
    if not np.isfinite(pointwise).all():
        raise NoConvergence(
            f"the pointwise residual check at radius {radius:g} left the float range")
    straightened = [None] * m
    p_used = 0
    if m:
        # rows i and m + i straighten z_i and F(z_i)
        G, stopped = _straighten(
            F, sr_inverse(P).jet, jet_inverse(result.phi, result.trunc_degree),
            np.concatenate([Z, F.evaluate(Z)]), cfg.p_max, cfg.cauchy_tol)
        ok = [i for i in range(m) if stopped[i] is not None and stopped[m + i] is not None]
        residuals = _row_norms(G[[m + i for i in ok]] - P.jet.evaluate(G[ok]))
        for i, value in zip(ok, residuals):
            straightened[i] = value
            p_used = max(p_used, stopped[i], stopped[m + i])
    with _float_range(lambda: f"the amplification estimate |l_1|^-p_used left the float "
                              f"range at p_used = {p_used}"):
        amplification = float(spectrum.moduli[0]) ** -p_used if p_used else 1.0
    return ConjugacyReport(residuals=result.residuals, sample_radius=radius, sample_points=Z,
                           pointwise=tuple(pointwise),
                           straightened_pointwise=tuple(straightened),
                           amplification_estimate=amplification)
