"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

from srnf.germio import terms_to_json
from srnf.gx_group import GroupElement
from srnf.linalg import SpectrumData, analyze_spectrum
from srnf.polymap import PolyJet
from srnf.subresonance import certify_subresonant, enumerate_subresonant_basis


def multi_indices(n: int, degree: int):
    """All multi-indices of the given total degree in n variables, largest
    first exponent first."""
    if n == 1:
        yield (degree,)
        return
    for head in range(degree, -1, -1):
        for tail in multi_indices(n - 1, degree - head):
            yield (head,) + tail


def canonical_key(key) -> tuple:
    """Sort key of ``(index, comp)`` within one degree: larger exponents on
    later variables first, then the component."""
    index, comp = key
    return tuple(-e for e in reversed(index)), comp


def resonant_positions(spectrum: SpectrumData, q: int, res_tol: float = 1e-9) -> tuple:
    """Degree-``q`` positions with ``|l^I - l_j| <= res_tol |l_j|``, in the
    canonical order (larger exponents on later variables first, then the
    component), walked from the eigenvalues alone."""
    out = []
    for index in multi_indices(spectrum.n, q):
        lam_I = np.prod(spectrum.diag ** np.array(index))
        for comp in range(spectrum.n):
            if abs(lam_I - spectrum.diag[comp]) <= res_tol * abs(spectrum.diag[comp]):
                out.append((index, comp))
    out.sort(key=canonical_key)
    return tuple(out)


def naive_compose(f: PolyJet, g: PolyJet, degree: int) -> dict:
    """Brute-force substitution oracle, independent of the library kernel."""
    n = f.n

    def mul(a, b):
        prod = {}
        for ia, ca in a.items():
            for ib, cb in b.items():
                key = tuple(x + y for x, y in zip(ia, ib))
                if sum(key) <= degree:
                    prod[key] = prod.get(key, 0j) + ca * cb
        return prod

    components = [{} for _ in range(n)]
    for (index, j), c in g.terms.items():
        components[j][index] = c
    out = {}
    for (index, j), c in f.terms.items():
        acc = {(0,) * n: 1.0 + 0j}
        for k, e in enumerate(index):
            for _ in range(e):
                acc = mul(acc, components[k])
        for mono, v in acc.items():
            if sum(mono) >= 1 and v != 0:
                key = (mono, j)
                out[key] = out.get(key, 0j) + c * v
    return {k: v for k, v in out.items() if v != 0}


def coefficient(jet: PolyJet, index, comp: int) -> complex:
    """The coefficient of ``z^index e_comp`` in ``jet`` (0 where it has no term)."""
    return jet.terms.get((tuple(index), comp), 0j)


def degree_part(f: PolyJet, q: int) -> PolyJet:
    """Exactly the degree-``q`` terms of ``f``, as a jet of degree ``q``."""
    return PolyJet(f.n, q, {key: c for key, c in f.terms.items() if sum(key[0]) == q})


def naive_operator(T: np.ndarray, h: PolyJet) -> PolyJet:
    """``h o T - T o h`` for ``h`` of one degree, ``h.degree``, from :func:`naive_compose`,
    independent of the library kernel."""
    n = h.n
    linear = PolyJet(n, 1, {(tuple(int(i == k) for i in range(n)), row): T[row, k]
                            for row in range(n) for k in range(n) if T[row, k] != 0})
    out = naive_compose(h, linear, h.degree)
    for (index, comp), c in h.terms.items():
        for row in range(n):
            key = (index, row)
            out[key] = out.get(key, 0j) - T[row, comp] * c
    return PolyJet(n, h.degree, out)


def block_of(spectrum: SpectrumData) -> list[int]:
    """The index of each coordinate's block in ``spectrum.blocks``."""
    return [b for k in range(spectrum.n) for b, block in enumerate(spectrum.blocks) if k in block]


def coeff_distance(g, h) -> float:
    """Largest gap across two group elements' translations and map coefficients."""
    return max(float(np.max(np.abs(g.tau - h.tau))), g.h.jet.max_coeff_diff(h.h.jet))


def identity_element(spectrum: SpectrumData) -> GroupElement:
    """The identity ``(0, id)`` of the group for ``spectrum``."""
    ident = PolyJet.identity(spectrum.n, max(1, spectrum.degree_bound))
    return GroupElement(tau=np.zeros(spectrum.n, dtype=complex),
                        h=certify_subresonant(ident, spectrum, "identity"))


def jet_document(jet: PolyJet, coordinates: str = "adapted") -> dict:
    """The germ document of ``jet``, as ``germio.parse_germ_document`` reads it."""
    return {
        "dimension": jet.n,
        "degree": jet.degree,
        "coordinates": coordinates,
        "terms": terms_to_json(jet),
    }


def linear_matrix_json(doc: dict) -> list:
    """The linear part of the germ document ``doc`` as a JSON matrix ``[[[re, im], ...], ...]``."""
    n = doc["dimension"]
    matrix = [[[0.0, 0.0]] * n for _ in range(n)]
    for term in doc["terms"]:
        if sum(term["exponents"]) == 1:
            matrix[term["component"] - 1][term["exponents"].index(1)] = term["coeff"]
    return matrix


def element_document(doc: dict, spectrum_matrix: list | None = None, tau=None) -> dict:
    """The group element ``(tau, h)`` of the map ``h`` that the adapted germ
    document ``doc`` holds: ``tau`` is zero and ``spectrum_matrix`` is h's
    linear part unless given."""
    n = doc["dimension"]
    return {"dimension": n, "tau": [[0.0, 0.0]] * n if tau is None else tau,
            "map": {"degree": doc["degree"], "terms": doc["terms"]},
            "spectrum_matrix": linear_matrix_json(doc) if spectrum_matrix is None
            else spectrum_matrix}


def translation_document(tau: list, spectrum_matrix: list) -> dict:
    """The group element ``(tau, id)`` against ``spectrum_matrix``."""
    n = len(tau)
    identity = {"dimension": n, "degree": 1,
                "terms": [{"exponents": [int(i == k) for i in range(n)], "component": k + 1,
                           "coeff": [1.0, 0.0]} for k in range(n)]}
    return element_document(identity, spectrum_matrix, tau)


def char_poly_coeffs(matrix: np.ndarray) -> np.ndarray:
    """Coefficients of det(xI - A) via the Faddeev-LeVerrier trace recursion.

    Independent of any eigenvalue solver, so it can cross-check one.
    """
    A = np.asarray(matrix, dtype=complex)
    n = A.shape[0]
    coeffs = [1.0 + 0j]
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ (M + coeffs[-1] * np.eye(n))
        coeffs.append(-np.trace(M) / k)
    return np.array(coeffs)


def divisors_separated(diag: np.ndarray, qmax: int) -> bool:
    """Reject spectra whose divisors or log-margins sit in a numerically
    ambiguous window, so classification thresholds are never borderline."""
    diag = np.asarray(diag)
    moduli = np.abs(diag)
    logs = np.log(moduli)
    n = len(diag)
    for q in range(1, qmax + 1):
        for index in multi_indices(n, q):
            lam_I = np.prod(diag ** np.array(index))
            weight = float(np.dot(index, logs))
            for j in range(n):
                gap = abs(lam_I - diag[j])
                if 1e-12 < gap < 1e-5 * moduli[j]:
                    return False
                margin = abs(weight - logs[j])
                if 1e-12 < margin < 1e-6:
                    return False
    return True


def random_spectrum(rng: np.random.Generator, n: int, *, max_ratio: float = 3.4,
                    qmax: int = 6, coupling: float = 0.3,
                    diagonal: bool = False) -> SpectrumData:
    """Random adapted contracting spectrum with well-separated divisors.

    The extreme log-moduli realize the drawn ratio exactly, so spectra with
    a nontrivial degree bound (nonlinear sub-resonant terms) appear often.
    """
    for _ in range(500):
        lam_top = rng.uniform(0.45, 0.7)
        ratio = rng.uniform(1.15, max_ratio)
        top_log = np.log(lam_top)
        if n == 1:
            logs = np.array([top_log])
        else:
            interior = rng.uniform(ratio * top_log, top_log, size=n - 2)
            logs = np.sort(np.concatenate([[ratio * top_log], interior, [top_log]]))
        moduli = np.exp(logs)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        diag = moduli * np.exp(1j * phases)
        if not divisors_separated(diag, qmax):
            continue
        T = np.diag(diag).astype(complex)
        if not diagonal and coupling > 0:
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.7:
                        T[i, j] = coupling * (rng.normal() + 1j * rng.normal())
        return analyze_spectrum(T)
    raise RuntimeError("could not draw an acceptable spectrum")


def random_sr_map(rng: np.random.Generator, spectrum: SpectrumData, *,
                  density: float = 0.7, coeff_scale: float = 0.5):
    """Random certified element of the sub-resonant group (as a raw jet)."""
    n, blocks = spectrum.n, block_of(spectrum)
    A = np.zeros((n, n), dtype=complex)
    for j in range(n):
        A[j, j] = (0.6 + 0.8 * rng.random()) * np.exp(2j * np.pi * rng.random())
    for j in range(n):
        for k in range(n):
            if j != k and blocks[j] <= blocks[k] \
                    and rng.random() < 0.5:
                A[j, k] = 0.3 * (rng.normal() + 1j * rng.normal())
    terms = {}
    for j in range(n):
        for k in range(n):
            if A[j, k] != 0:
                index = tuple(1 if i == k else 0 for i in range(n))
                terms[(index, j)] = complex(A[j, k])
    for q in range(2, spectrum.degree_bound + 1):
        for index, comp in enumerate_subresonant_basis(spectrum, q):
            if rng.random() < density:
                terms[(index, comp)] = coeff_scale * complex(rng.normal(), rng.normal())
    return PolyJet(n, max(1, spectrum.degree_bound), terms)


def random_jet(rng: np.random.Generator, n: int, degree: int, *,
               density: float = 0.5, scale: float = 0.6,
               invertible_linear: bool = True) -> PolyJet:
    """Random jet with bounded coefficients (and an invertible linear part)."""
    terms = {}
    if invertible_linear:
        for j in range(n):
            index = tuple(1 if i == j else 0 for i in range(n))
            terms[(index, j)] = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
        for j in range(n):
            for k in range(n):
                if j != k and rng.random() < 0.4:
                    index = tuple(1 if i == k else 0 for i in range(n))
                    terms[(index, j)] = 0.25 * complex(rng.normal(), rng.normal())
    for d in range(2 if invertible_linear else 1, degree + 1):
        for index in multi_indices(n, d):
            for j in range(n):
                if rng.random() < density:
                    terms[(index, j)] = scale * complex(rng.normal(), rng.normal())
    return PolyJet(n, degree, terms)


def random_point(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    direction = rng.normal(size=n) + 1j * rng.normal(size=n)
    return radius * direction / np.linalg.norm(direction)
