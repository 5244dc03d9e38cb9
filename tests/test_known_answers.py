"""Germs whose normal form is known, at dimensions the exact reference does not reach.

Each case picks three pieces:

- ``T`` upper triangular, with exact resonances ``l_j = l^I``;
- ``P = T`` plus random coefficients on every resonant position
  ``|l^I - l_j| <= res_tol |l_j|`` of degrees 2..D;
- ``Phi = id`` plus random coefficients on every other position of degrees 2..D;

and builds ``F = Phi o P o Phi^{-1}`` truncated at ``D = c0 + 1``.  srnf keeps
its normal form on the resonant positions and its conjugator on the others.
In the triangular monomial basis the operator's diagonal vanishes exactly at
the resonant positions, so back-substitution makes that split unique degree
by degree: srnf must return this ``P`` and this ``Phi``, up to rounding.

``coupled-n3-original`` gives the coupled germ in original coordinates
``x = U z``, ``U`` a seeded unitary, so that srnf's Schur step runs.  The
eigenvalues are distinct, so srnf's basis change ``Q`` is ``U`` up to a
torus: ``D = Q^H U`` is diagonal up to rounding, and srnf must return the
chosen ``P`` and ``Phi`` conjugated by it, ``D P(D^H z)`` and ``D Phi(D^H z)``;
its seeded draw reads at most 14 of the units below.

``F`` is built with ``perfbench/oracles.Jets`` (dense arrays summed by
``np.bincount``), which shares no code with srnf.  ``Phi^{-1}`` is the fixed
point ``psi = id - (Phi - id) o psi``: ``Phi - id`` starts at degree 2, so each
pass from ``psi = id`` makes ``psi`` right through one more degree.

**Tolerance.**  A coefficient of degree ``d`` may lie at most ``K = 1024``
units of ``u * max|F_d|`` from the construction, where ``u = 2**-52`` and
``max|F_d|`` is the largest degree-``d`` coefficient of ``F``.  Both sides round
each product and sum by about ``u`` of the coefficients involved, which are
of the size of ``F``'s (all chosen nonlinear coefficients have modulus 0.3),
and srnf divides by divisors that :func:`well_separated` keeps above 1e-3 of
``|l_j|``.  Over 80 seeds of the diagonal n = 8 and the coupled n = 3 family
the largest distance was 126 of these units, so ``K`` is 8 times the rounding
seen.  Changing one coefficient of modulus 0.3 by a relative 1e-10 moves it
by ``3e-11``, which is more than 4e4 units wherever ``max|F_d| < 3`` (it was
at most 2.1 in those draws), 40 times ``K``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from oracles import Jets, linear_poly  # noqa: E402
from srnf.normal_form import GermInput, poincare_dulac  # noqa: E402
from srnf.polymap import PolyJet  # noqa: E402

U = 2.0 ** -52
K = 1024
RES_TOL = 1e-9      # the pipeline's default resonance cutoff
COEFF = 0.3         # modulus of every chosen nonlinear coefficient


def phases(rng, size):
    return np.exp(2j * np.pi * rng.random(size))


def divisors(diag, jets: Jets) -> np.ndarray:
    """``|l^I - l_j| / |l_j|`` for every monomial of ``jets`` (rows) and component."""
    lam = np.prod(diag ** np.array(jets.monomials), axis=1)
    return np.abs(lam[:, None] - diag[None, :]) / np.abs(diag)


def well_separated(diag, jets: Jets) -> bool:
    """Every nonlinear divisor is an exact resonance or at least 1e-3 of ``|l_j|``."""
    gaps = divisors(diag, jets)[jets.degree >= 2]
    return not np.any((gaps > RES_TOL) & (gaps < 1e-3))


def diagonal_spectrum(rng, n: int, jets: Jets) -> np.ndarray:
    """``n // 3 + 1`` eigenvalues of modulus 0.6, half the rest of modulus
    0.6**1.5, and the others products of two of the first: ``c0 = 2``."""
    while True:
        top = 0.6 * phases(rng, n // 3 + 1)
        mid = 0.6 ** 1.5 * phases(rng, (n - len(top)) // 2)
        pairs = rng.integers(0, len(top), size=(n - len(top) - len(mid), 2))
        diag = np.concatenate([top[pairs[:, 0]] * top[pairs[:, 1]], mid, top])
        if well_separated(diag, jets):
            return np.diag(diag)


def coupled_spectrum(rng, n: int, jets: Jets) -> np.ndarray:
    """``l = (mu^3, mu^2, mu)`` with couplings of size 0.3 above the diagonal: ``c0 = 3``."""
    mu = 0.7 * phases(rng, 1)[0]
    diag = np.array([mu ** 3, mu ** 2, mu])
    assert well_separated(diag, jets)
    return np.diag(diag) + np.triu(0.3 * phases(rng, (n, n)), 1)


# name: (n, c0, spectrum)
CASES = {
    "diagonal-n8": (8, 2, diagonal_spectrum),
    "diagonal-n12": (12, 2, diagonal_spectrum),
    "diagonal-n16": (16, 2, diagonal_spectrum),
    "coupled-n3": (3, 3, coupled_spectrum),
}


def construct(name: str):
    """``(jets, F, P, Phi)`` of one case, as :class:`Jets` arrays."""
    n, c0, spectrum = CASES[name]
    jets = Jets(n, c0 + 1)
    rng = np.random.default_rng([14, n])
    T = spectrum(rng, n, jets)
    nonlinear = np.broadcast_to(jets.degree >= 2, (n, len(jets.monomials)))
    resonant = nonlinear & (divisors(np.diag(T), jets).T <= RES_TOL)
    P = jets.array(linear_poly(T))
    P[resonant] = COEFF * phases(rng, np.count_nonzero(resonant))
    ident = jets.array(linear_poly(np.eye(n)))
    Phi = ident.copy()
    Phi[nonlinear & ~resonant] = COEFF * phases(rng, np.count_nonzero(nonlinear & ~resonant))
    psi = ident
    for _ in range(jets.D - 1):
        psi = ident - jets.compose(Phi - ident, psi)
    return jets, jets.compose(Phi, jets.compose(P, psi)), P, Phi


def distances(jets: Jets, got: dict, chosen: np.ndarray, F: np.ndarray) -> list[float]:
    """Per degree, the largest ``|got - chosen|`` in units of ``u * max|F_d|``."""
    gap = np.abs(jets.array(got) - chosen)
    return [float(gap[:, jets.degree == d].max() / (U * np.abs(F[:, jets.degree == d]).max()))
            for d in range(1, jets.D + 1)]


def original_twin(jets: Jets, F: np.ndarray, P: np.ndarray, Phi: np.ndarray):
    """srnf's result for ``x -> U F(U^H x)`` and ``(F, P, Phi)`` conjugated by
    the torus ``D = Q^H U`` of srnf's basis change ``Q``."""
    n = jets.n
    U = np.linalg.qr(np.random.default_rng([14, n, 1]).normal(size=(n, n, 2)) @ [1, 1j])[0]
    G = jets.compose(jets.array(linear_poly(U)),
                     jets.compose(F, jets.array(linear_poly(U.conj().T))))
    result = poincare_dulac(GermInput(jet=PolyJet(n, jets.D, jets.poly(G)),
                                      coordinates="original"))
    D = result.basis_change.conj().T @ U
    assert np.abs(D - np.diag(np.diag(D))).max() < 1e-12
    d = np.diag(D) / np.abs(np.diag(D))
    torus, torus_inv = (jets.array(linear_poly(np.diag(t))) for t in (d, d.conj()))
    return tuple(jets.compose(torus, jets.compose(A, torus_inv)) for A in (F, P, Phi)), result


@pytest.fixture(scope="module", params=[*CASES, "coupled-n3-original"])
def case(request):
    jets, F, P, Phi = construct(request.param.removesuffix("-original"))
    if request.param.endswith("-original"):
        (F, P, Phi), result = original_twin(jets, F, P, Phi)
    else:
        result = poincare_dulac(GermInput(jet=PolyJet(jets.n, jets.D, jets.poly(F))))
    return jets, F, P, Phi, result


def test_srnf_finds_the_chosen_supports(case):
    jets, F, P, Phi, result = case
    assert result.trunc_degree == jets.D
    assert set(result.normal_form.jet.terms) == set(jets.poly(P))
    assert set(result.phi.terms) == set(jets.poly(Phi))


def test_P_and_Phi_are_the_construction(case):
    jets, F, P, Phi, result = case
    assert max(distances(jets, result.normal_form.jet.terms, P, F)) <= K
    assert max(distances(jets, result.phi.terms, Phi, F)) <= K


def test_one_scaled_coefficient_fails_the_check(case):
    jets, F, P, Phi, result = case
    terms = dict(result.normal_form.jet.terms)
    key = max((key for key in terms if sum(key[0]) >= 2), key=lambda key: abs(terms[key]))
    terms[key] *= 1 + 1e-10
    assert max(distances(jets, terms, P, F)) > K
