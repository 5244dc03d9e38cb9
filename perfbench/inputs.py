"""Seeded inputs of the four workloads, as srnf JSON documents.

Every generator takes a ``numpy.random.Generator``; the same seed gives the
same documents.  Spectra are redrawn until no divisor ``l^I - l_j`` and no
sub-resonance margin sits in the window where srnf's tolerances would make
a borderline call, so no drawn input can fail for a reason that depends on
rounding.
"""

from __future__ import annotations

import numpy as np

import oracles

HOPF_TERMS = {
    ((1, 0), 0): 0.25, ((1, 1), 0): 1.0, ((0, 2), 0): 1.0,
    ((0, 1), 1): 0.5, ((2, 0), 1): 1.0,
}

# Divisors |l^I - l_j| strictly between these multiples of |l_j| (and
# log-margins between these absolute sizes) are too close to srnf's 1e-9
# tolerances to classify reliably; such spectra are redrawn.
_DIVISOR_WINDOW = (1e-12, 1e-5)
_MARGIN_WINDOW = (1e-12, 1e-6)


def pair(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def terms_doc(poly: dict) -> list[dict]:
    return [{"exponents": list(index), "component": comp + 1, "coeff": pair(coeff)}
            for (index, comp), coeff in sorted(poly.items(), key=lambda kv: (sum(kv[0][0]),
                                                                           kv[0]))]


def matrix_doc(matrix) -> list:
    return [[pair(complex(v)) for v in row] for row in np.asarray(matrix)]


def germ_doc(T, nonlinear: dict, degree: int, basis=None) -> dict:
    """Germ ``z -> T z + N(z)`` in adapted coordinates or, with a unitary
    ``basis`` U, ``z -> A z + N(z)`` with ``A = U T U^H`` in original ones."""
    doc = {"dimension": len(T), "degree": degree}
    if basis is None:
        doc.update(coordinates="adapted",
                   terms=terms_doc({**oracles.linear_poly(T), **nonlinear}))
    else:
        doc.update(coordinates="original", linear_matrix=matrix_doc(basis @ T @ basis.conj().T),
                   terms=terms_doc(nonlinear))
    return doc


def separated(diag, qmax: int) -> bool:
    """No divisor or sub-resonance margin of degree <= qmax is borderline."""
    diag = np.asarray(diag, dtype=complex)
    logs = np.log(np.abs(diag))
    for q in range(1, qmax + 1):
        idx = np.array(list(oracles.multi_indices(len(diag), q)))
        lam_I = np.prod(diag[None, :] ** idx, axis=1)
        weight = idx @ logs
        gaps = np.abs(lam_I[:, None] - diag[None, :]) / np.abs(diag)[None, :]
        margins = np.abs(weight[:, None] - logs[None, :])
        if np.any((gaps > _DIVISOR_WINDOW[0]) & (gaps < _DIVISOR_WINDOW[1])):
            return False
        if np.any((margins > _MARGIN_WINDOW[0]) & (margins < _MARGIN_WINDOW[1])):
            return False
    return True


def phases(rng, size) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(size))


def moduli(n: int, top: float, ratio: float) -> np.ndarray:
    """Nondecreasing moduli from ``top**ratio`` up to ``top``.

    The interior exponents are drawn once per (n, ratio), not per seed, so
    every seed gets the same moduli and the same amount of work.
    """
    shape = np.random.default_rng([n, round(100 * ratio)])
    inner = np.sort(shape.uniform(1.0, ratio, n - 2))[::-1]
    return top ** np.concatenate([[ratio], inner, [1.0]])


def spectrum(rng, n: int, top: float, ratio: float, qmax: int) -> np.ndarray:
    """Eigenvalues with fixed moduli and seeded phases, redrawn until well separated."""
    for _ in range(1000):
        diag = moduli(n, top, ratio) * phases(rng, n)
        if separated(diag, qmax):
            return diag
    raise RuntimeError("no well-separated spectrum found")


def coupled(rng, diag, coupling: float = 0.3) -> np.ndarray:
    """Upper triangular, with ``diag`` on the diagonal and entries of size ``coupling`` above."""
    n = len(diag)
    return np.diag(diag) + np.triu(coupling * phases(rng, (n, n)), 1)


def random_unitary(rng, n: int) -> np.ndarray:
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def dense_terms(rng, n: int, low: int, high: int, scale: float) -> dict:
    """Every monomial of degree low..high in every component, coefficients ``scale * e^(i t)``."""
    keys = [(index, comp) for q in range(low, high + 1)
            for index in oracles.multi_indices(n, q) for comp in range(n)]
    return dict(zip(keys, scale * phases(rng, len(keys))))


def dense_germ(rng, n: int, c0: int, coordinates: str) -> dict:
    """Coupled triangular spectrum with ``ceil(ln|l_1|/ln|l_n|) = c0``; all terms up to c0+1."""
    D = c0 + 1
    T = coupled(rng, spectrum(rng, n, 0.6, c0 - 0.5, D))
    basis = random_unitary(rng, n) if coordinates == "original" else None
    return germ_doc(T, dense_terms(rng, n, 2, D, 0.3), D, basis)


def resonant_germ(rng, n: int, c0: int, terms_per_component: int = 3) -> dict:
    """Diagonal spectrum ``l_k = w^{e_k}`` with integer ``e_k`` from c0 down to 1.

    Every ``z^I e_j`` with ``sum i_k e_k = e_j`` is an exact resonance, so
    the operator of each degree has many zero divisors.  The nonlinear part
    is sparse: a few monomials per component.  The exponents and the
    monomials depend on (n, c0) only; the seed sets the phases.
    """
    D = c0 + 1
    shape = np.random.default_rng([n, c0])
    exps = np.sort(np.concatenate([[c0], shape.integers(1, c0 + 1, size=n - 2), [1]]))[::-1]
    diag = (0.6 * phases(rng, 1)[0]) ** exps
    keys = set()
    for comp in range(n):
        while sum(1 for key in keys if key[1] == comp) < terms_per_component:
            q = int(shape.integers(2, D + 1))
            keys.add((tuple(int(e) for e in shape.multinomial(q, np.full(n, 1.0 / n))), comp))
    keys = sorted(keys)
    return germ_doc(np.diag(diag), dict(zip(keys, 0.5 * phases(rng, len(keys)))), D)


def hopf_germ() -> dict:
    """``(z1/4 + z1 z2 + z2^2, z2/2 + z1^2)``: spectrum (1/4, 1/2), one resonance."""
    return {"dimension": 2, "degree": 3, "coordinates": "adapted",
            "terms": terms_doc(HOPF_TERMS)}


def two_dim_germ(rng, c0: int, resonant: bool) -> dict:
    """n=2 with ``l_1 = l_2^c0`` exactly, or ``|l_1| = |l_2|^(c0 - 1/2)``."""
    mu = 0.6 * phases(rng, 1)[0]
    lam1 = mu ** c0 if resonant else abs(mu) ** (c0 - 0.5) * phases(rng, 1)[0]
    T = coupled(rng, np.array([lam1, mu]))
    return germ_doc(T, dense_terms(rng, 2, 2, c0 + 1, 0.3), c0 + 1)


def sr_jet(rng, shape, diag, A, terms_per_degree: int, scale: float) -> dict:
    """Linear part ``A`` plus a few sub-resonant monomials of each degree 2..bound.

    ``shape`` picks the monomials, ``rng`` their coefficients.
    """
    poly = oracles.linear_poly(A)
    for q in range(2, oracles.degree_bound(diag) + 1):
        positions = oracles.subresonant_positions(diag, q, 0.0)
        chosen = shape.choice(len(positions), size=min(terms_per_degree, len(positions)),
                              replace=False)
        for r, coeff in zip(sorted(chosen), scale * phases(rng, len(chosen))):
            poly[positions[r]] = coeff
    return poly


def group_element_doc(T, tau, poly: dict) -> dict:
    n = len(T)
    return {"dimension": n, "tau": [pair(complex(t)) for t in tau],
            "map": {"degree": max(1, oracles.degree_bound(np.diag(T))),
                    "terms": terms_doc(poly)},
            "spectrum_matrix": matrix_doc(T)}


def group_family(rng, n: int, bound: int) -> dict:
    """A spectrum with the given degree bound, three generators and a contracting element.

    Generators ``z -> tau + h(z)`` have an invertible flag-preserving
    linear part (moduli near 1, not contracting) and a few sub-resonant
    terms per degree.  The contracting element ``(0, h)`` has linear part
    ``T`` itself, so its orbits fall towards the origin.  Moduli and the
    chosen monomials depend on (n, bound) only; the seed sets phases.
    """
    shape = np.random.default_rng([n, bound])
    diag = spectrum(rng, n, 0.7, bound + 0.5, bound)
    T = coupled(rng, diag)
    generators = []
    for _ in range(3):
        A = coupled(rng, np.linspace(0.8, 1.2, n) * phases(rng, n), coupling=0.2)
        tau = 0.1 * phases(rng, n)
        generators.append(group_element_doc(T, tau, sr_jet(rng, shape, diag, A, 2, 0.3)))
    contracting = group_element_doc(T, np.zeros(n), sr_jet(rng, shape, diag, T, 2, 0.3))
    return {"generators": generators, "contracting": contracting,
            "start": 0.2 / np.sqrt(n) * phases(rng, n),
            "shift": 0.1 * phases(rng, n)}
