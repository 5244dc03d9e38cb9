"""Checks of srnf's outputs against the reference computations in :mod:`oracles`.

Each check returns a list of problems; an empty list means the output is
correct.  Tolerances are relative to the size of the arithmetic that made
the numbers (the same computation on absolute values), so they count
rounding units and do not depend on how large the coefficients grow.
"""

from __future__ import annotations

import math

import numpy as np

import oracles

RES_TOL = 1e-9          # srnf's default resonance tolerance
BLOCK_TOL = 1e-9        # srnf's default tolerance for equal moduli
SR_TOL = 1e-9           # srnf's default log-space sub-resonance slack
# Largest accepted gap, in units of the absolute-value computation.  Rounding
# in the checked runs stays below 1e-12 of it; a wrong coefficient or a
# wrong point gives a gap of order one.
REL_TOL = 1e-9
# Reported residuals are themselves rounding noise; they must agree with
# the recomputation within this share of the arithmetic's size.
REPORT_TOL = 1e-12


class Adapted:
    """What a normal-form result claims, read from its document or its object."""

    def __init__(self, T, Q, P: dict, phi: dict, D: int):
        self.T = np.asarray(T, dtype=complex)
        self.Q = np.asarray(Q, dtype=complex)
        self.P, self.phi, self.D = P, phi, D

    @classmethod
    def from_document(cls, doc: dict) -> "Adapted":
        return cls(oracles.matrix_from_doc(doc["spectrum"]["matrix"]),
                   oracles.matrix_from_doc(doc["basis_change"]),
                   oracles.poly_from_doc_terms(doc["normal_form"]["terms"]),
                   oracles.poly_from_doc_terms(doc["phi"]["terms"]),
                   doc["trunc_degree"])

    @classmethod
    def from_result(cls, result) -> "Adapted":
        return cls(result.spectrum.T, result.basis_change, dict(result.normal_form.jet.terms),
                   dict(result.phi.terms), result.trunc_degree)


def adapted_germ(germ_doc: dict, claim: Adapted, jets: oracles.Jets):
    """The input germ moved to the claimed frame: ``Q^H F(Q z)`` with linear part ``T``.

    Returns the germ and the same construction on absolute values, which
    bounds the rounding of the basis change.
    """
    F = oracles.poly_from_doc_terms(germ_doc["terms"])
    if "linear_matrix" in germ_doc:
        F = {**oracles.nonlinear(F),
             **oracles.linear_poly(oracles.matrix_from_doc(germ_doc["linear_matrix"]))}
    F = jets.array(F)
    Q = claim.Q
    inner = jets.array(oracles.linear_poly(Q))
    G = Q.conj().T @ jets.compose(F, inner)
    G_abs = np.abs(Q.conj().T) @ jets.compose(np.abs(F), np.abs(inner))
    T = jets.array(oracles.linear_poly(claim.T))
    linear = jets.degree == 1
    G[:, linear] = T[:, linear]
    G_abs[:, linear] = np.abs(T[:, linear])
    return G, G_abs


class Conjugacy:
    """Both sides of ``F o phi = phi o P`` through the working degree, made by the oracle.

    ``F`` is the input germ moved to the claimed frame; ``size`` holds the
    same compositions made on absolute values.
    """

    def __init__(self, germ_doc: dict, claim: Adapted, jets_for):
        self.n = germ_doc["dimension"]
        self.jets = jets = jets_for(self.n, claim.D)
        self.F, self.F_abs = adapted_germ(germ_doc, claim, jets)
        phi, P = jets.array(claim.phi), jets.array(claim.P)
        self.left = jets.compose(self.F, phi)
        self.right = jets.compose(phi, P)
        self.size = jets.compose(self.F_abs, np.abs(phi)) + jets.compose(np.abs(phi), np.abs(P))


def check_normal_form(germ_doc: dict, claim: Adapted, conj: Conjugacy) -> list[str]:
    """Linear part, frame, resonant support, conjugator and conjugacy of one result."""
    problems = []
    n = germ_doc["dimension"]
    T, Q = claim.T, claim.Q
    lam = np.diag(T)
    if np.any(np.tril(T, -1)):
        problems.append("T is not upper triangular")
    if np.any(np.abs(lam[:-1]) > np.abs(lam[1:]) * (1 + BLOCK_TOL)):
        problems.append("moduli of diag(T) decrease")
    logs = oracles.log_moduli(lam)
    c0 = math.ceil(logs[0] / logs[-1] - 1e-9)
    if claim.D != c0 + 1:
        problems.append(f"working degree {claim.D}, expected c0 + 1 = {c0 + 1}")

    A = oracles.linear_matrix(oracles.poly_from_doc_terms(germ_doc["terms"]), n)
    if "linear_matrix" in germ_doc:
        A = oracles.matrix_from_doc(germ_doc["linear_matrix"])
    scale = np.linalg.norm(A)
    if np.linalg.norm(Q.conj().T @ Q - np.eye(n)) > 1e-12:
        problems.append("basis change is not unitary")
    if np.linalg.norm(Q.conj().T @ A @ Q - T) > 1e-12 * scale:
        problems.append("Q^H A Q differs from T")
    remaining = list(np.linalg.eigvals(A))
    for value in lam:
        nearest = min(range(len(remaining)), key=lambda i: abs(remaining[i] - value))
        if abs(remaining[nearest] - value) > 1e-10 * scale:
            problems.append(f"eigenvalue {value:.6g} of T is not an eigenvalue of A")
        remaining.pop(nearest)

    if np.any(oracles.linear_matrix(claim.P, n) != T):
        problems.append("linear part of P differs from T")
    for (index, comp) in oracles.nonlinear(claim.P):
        if not oracles.is_resonant(lam, index, comp, RES_TOL):
            problems.append(f"P has a term at the non-resonant position {(index, comp)}")
    if np.any(oracles.linear_matrix(claim.phi, n) != np.eye(n)):
        problems.append("linear part of phi is not the identity")

    _, rel = oracles.relative_gap(conj.left, conj.right, conj.size)
    if not rel <= REL_TOL:
        problems.append(f"F o phi - phi o P is {rel:.3g} of its arithmetic size")
    return problems


def check_report(claim: Adapted, conj: Conjugacy, report: dict, sample_count: int) -> list[str]:
    """The numbers a conjugacy report gives, recomputed at its own sample points.

    The pointwise residuals include the O(|z|^(D+1)) truncation error by
    design, so they are compared with the recomputation, never with zero.
    """
    problems = []
    n = conj.n
    gap = np.abs(conj.left - conj.right).max()
    if abs(report["coefficient_max"] - gap) > REPORT_TOL * conj.size.max():
        problems.append(f"coefficient_max {report['coefficient_max']:.3g} but recomputed "
                        f"{gap:.3g}")
    points = [np.array([complex(re, im) for re, im in z]) for z in report["sample_points"]]
    if len(points) != sample_count or len(report["polynomial_pointwise"]) != sample_count:
        problems.append(f"expected {sample_count} samples, got {len(points)}")
    F, F_abs, phi, P = conj.jets.poly(conj.F), conj.jets.poly(conj.F_abs), claim.phi, claim.P
    for z, value in zip(points, report["polynomial_pointwise"]):
        expect = np.linalg.norm(oracles.evaluate(F, oracles.evaluate(phi, z, n), n)
                                - oracles.evaluate(phi, oracles.evaluate(P, z, n), n))
        bound = (np.linalg.norm(oracles.abs_evaluate(F_abs, oracles.abs_evaluate(phi, z, n), n))
                 + np.linalg.norm(oracles.abs_evaluate(phi, oracles.abs_evaluate(P, z, n), n)))
        if abs(value - expect) > REPORT_TOL * bound:
            problems.append(f"polynomial residual {value:.3g} at a sample, recomputed "
                            f"{expect:.3g}")
            break
    straightened = report["straightened_pointwise"]
    if len(straightened) != sample_count or not all(math.isfinite(v) for v in straightened):
        problems.append("a straightened residual is missing or not finite")
    return problems


def check_subresonant(poly: dict, lam) -> list[str]:
    bound = oracles.degree_bound(lam)
    bad = [key for key in poly
           if sum(key[0]) > bound or not oracles.is_subresonant(lam, key[0], key[1], SR_TOL)]
    return [f"{len(bad)} terms fail the sub-resonance test, e.g. {bad[0]}"] if bad else []


def close_points(got, want, size, what: str) -> list[str]:
    """``|got - want| <= REL_TOL * size`` at every point."""
    for g, w, s in zip(got, want, size):
        if np.linalg.norm(np.asarray(g) - np.asarray(w)) > REL_TOL * s:
            return [f"{what}: {np.linalg.norm(np.asarray(g) - np.asarray(w)):.3g} off "
                    f"at a point of size {s:.3g}"]
    return []


class Affine:
    """``z -> tau + h(z)`` evaluated by the oracle."""

    def __init__(self, tau, h: dict, n: int):
        self.tau, self.h, self.n = np.asarray(tau, dtype=complex), h, n

    @classmethod
    def from_document(cls, doc: dict) -> "Affine":
        return cls([complex(re, im) for re, im in doc["tau"]],
                   oracles.poly_from_doc_terms(doc["map"]["terms"]), doc["dimension"])

    @classmethod
    def from_element(cls, g) -> "Affine":
        return cls(np.array(g.tau), dict(g.h.jet.terms), len(g.tau))

    def __call__(self, z):
        return self.tau + oracles.evaluate(self.h, z, self.n)

    def size(self, z_size):
        """Bound on every partial sum of the evaluation at a point of entrywise size ``z_size``."""
        return np.abs(self.tau) + oracles.abs_evaluate(self.h, z_size, self.n)


def check_group_mul(product, factors: list[Affine], lam, points) -> list[str]:
    """``product`` is the composition of the oracle maps ``factors``, outermost first."""
    got = Affine.from_element(product)
    problems = check_subresonant(got.h, lam)
    want, size = [], []
    for z in points:
        w, w_size = z, np.abs(z)
        for g in reversed(factors):
            w, w_size = g(w), g.size(w_size)
        want.append(w)
        size.append(np.linalg.norm(w_size))
    return problems + close_points([got(z) for z in points], want, size, "group_mul")


def check_group_inv(inverse, g: Affine, lam, points) -> list[str]:
    inv = Affine.from_element(inverse)
    problems = check_subresonant(inv.h, lam)
    for outer, inner in ((g, inv), (inv, g)):
        size = [np.linalg.norm(outer.size(inner.size(np.abs(z)))) for z in points]
        problems += close_points([outer(inner(z)) for z in points], points, size, "group_inv")
    return problems


def check_identity(element, lam, points, size) -> list[str]:
    e = Affine.from_element(element)
    return check_subresonant(e.h, lam) + close_points([e(z) for z in points], points, size,
                                                      "g g^-1")


def check_translate(result, h: dict, tau, lam, points) -> list[str]:
    n = len(tau)
    got = dict(result.jet.terms)
    problems = check_subresonant(got, lam)
    h_tau = oracles.evaluate(h, tau, n)
    want = [oracles.evaluate(h, z + tau, n) - h_tau for z in points]
    size = [np.linalg.norm(oracles.abs_evaluate(h, np.abs(z) + np.abs(tau), n)) * 2
            for z in points]
    return problems + close_points([oracles.evaluate(got, z, n) for z in points], want, size,
                                   "translate_conjugate")


def check_sr_compose(result, f: dict, g: dict, lam, jets_for) -> list[str]:
    """Coefficients of ``f o g`` through the degree bound.

    ``f`` and ``g`` are sub-resonant, so every monomial of ``f o g`` is too
    and none exceeds the degree bound: truncating there loses nothing.
    """
    got = dict(result.jet.terms)
    problems = check_subresonant(got, lam)
    jets = jets_for(len(lam), oracles.degree_bound(lam))
    F, G = jets.array(f), jets.array(g)
    _, rel = oracles.relative_gap(jets.array(got), jets.compose(F, G),
                                  jets.compose(np.abs(F), np.abs(G)))
    if not rel <= REL_TOL:
        problems.append(f"sr_compose differs from f o g by {rel:.3g} of its size")
    return problems


def check_sr_inverse(result, f: dict, lam, jets_for) -> list[str]:
    got = dict(result.jet.terms)
    problems = check_subresonant(got, lam)
    jets = jets_for(len(lam), oracles.degree_bound(lam))
    F, G = jets.array(f), jets.array(got)
    identity = jets.array(oracles.linear_poly(np.eye(len(lam))))
    for outer, inner in ((F, G), (G, F)):
        _, rel = oracles.relative_gap(jets.compose(outer, inner), identity,
                                      jets.compose(np.abs(outer), np.abs(inner)))
        if not rel <= REL_TOL:
            problems.append(f"sr_inverse composed with its map is {rel:.3g} off the identity")
    return problems


def check_orbit(output, g: Affine, start, k: int) -> list[str]:
    """``output`` is orbit's ``(points, diagnostics)``; the points must follow ``g``."""
    points = np.asarray(output[0])
    if points.shape != (k + 1, g.n):
        return [f"orbit has shape {points.shape}, expected {(k + 1, g.n)}"]
    want, size = [np.asarray(start, dtype=complex)], [np.linalg.norm(start)]
    z, z_size = want[0], np.abs(want[0])
    for _ in range(k):
        z, z_size = g(z), g.size(z_size)
        want.append(z)
        size.append(np.linalg.norm(z_size))
    return close_points(points, want, size, "orbit")
