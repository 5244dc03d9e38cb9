"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

from srnf.linalg import SpectrumData, analyze_spectrum
from srnf.polymap import PolyJet
from srnf.subresonance import enumerate_subresonant_basis


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
    n = spectrum.n
    A = np.zeros((n, n), dtype=complex)
    for j in range(n):
        A[j, j] = (0.6 + 0.8 * rng.random()) * np.exp(2j * np.pi * rng.random())
    for j in range(n):
        for k in range(n):
            if j != k and spectrum.block_of[j] <= spectrum.block_of[k] \
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
