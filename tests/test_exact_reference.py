"""The pipeline's P and phi, ``translate_conjugate`` and ``group_mul``, against
the 50-digit reference of ``exact_reference``.

Measured distances, in units of 2**-52 times each degree's largest exact
coefficient (largest over degrees): Hopf P 0, phi 0.2; ``coupled_n3`` P 7.8,
phi 6.4 (max |phi| 425); diag(1/8, 1/4, 1/2) P 0.4, phi 1.3 (max |phi| 560);
diag(1/16, 1/4, 1/2) P 0.9, phi 1.3 (max |phi| 4.6e5); coupled ``l = (w^2, w)``
P 0.7, phi 1.8; coupled ``l = (w^3, w^2, w)`` P 1.2, phi 2.1 (max |phi| 1,590);
``translate_conjugate`` at most 6.3 over 1,000 seeded draws like those of its
test below; ``group_mul``'s map part at most 5.7 (median 0.48) over 1,000
draws like those of the last test.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_reference
from conftest import random_jet, random_spectrum, random_sr_map
from srnf import germio
from srnf.gx_group import GroupElement, group_mul, translate_conjugate
from srnf.normal_form import GermInput, poincare_dulac
from srnf.polymap import PolyJet
from srnf.subresonance import certify_subresonant, sr_compose

DATA = Path(__file__).parent / "data"

# Allowed distance from the reference, in units of 2**-52 times the largest
# exact coefficient of the same degree.
ULPS = 16


def resonant_coupled(exponents):
    """``l_k = w^{e_k}``, exact resonances such as ``l_1 = l_2^2``, coupled above the diagonal."""
    w = 0.6 * np.exp(0.7j)
    n = len(exponents)
    return np.diag(w ** np.array(exponents)) + np.triu(np.full((n, n), 0.3 - 0.2j), 1)


def document_case(name):
    n, terms = exact_reference.load_germ(DATA / f"{name}.json")
    germ = germio.parse_germ_document(json.loads((DATA / f"{name}.json").read_text()))
    assert germ.n == n
    return germ, terms


def jet_case(T, degree, seed=7):
    """Linear part ``T`` plus random terms of degrees 2 through ``degree``."""
    rng = np.random.default_rng(seed)
    jet = random_jet(rng, len(T), degree, density=0.6, scale=0.5, invertible_linear=False)
    terms = {k: c for k, c in jet.terms.items() if sum(k[0]) >= 2}
    jet = PolyJet.from_linear(np.asarray(T, dtype=complex), 1) + PolyJet(len(T), degree, terms)
    return GermInput(jet=jet), {key: complex(c) for key, c in jet.terms.items()}


CASES = {
    "hopf": lambda: document_case("hopf"),
    "coupled_n3": lambda: document_case("coupled_n3"),
    # resonances at degrees 2 and 3
    "diag-8-4-2": lambda: jet_case(np.diag([1 / 8, 1 / 4, 1 / 2]), 4),
    # resonances at degrees 2 to 4; seed 1 keeps a term at each of the four
    "diag-16-4-2": lambda: jet_case(np.diag([1 / 16, 1 / 4, 1 / 2]), 5, seed=1),
    # coupled columns at exact resonances
    "coupled-w2-w": lambda: jet_case(resonant_coupled([2, 1]), 3),
    "coupled-w3-w2-w": lambda: jet_case(resonant_coupled([3, 2, 1]), 4),
}


@pytest.mark.parametrize("name", CASES)
def test_normal_form_matches_exact_reference(name):
    germ, terms = CASES[name]()
    result = poincare_dulac(germ)
    P, phi = exact_reference.normal_form(germ.n, terms, result.trunc_degree)
    assert set(result.normal_form.jet.terms) == set(P)
    assert any(sum(index) > 1 for index, _ in P)
    for computed, exact in ((result.normal_form.jet.terms, P), (result.phi.terms, phi)):
        distance = exact_reference.distance(computed, exact)
        assert max(distance.values()) <= ULPS, distance


def test_hopf_normal_form_by_hand():
    # F = (z1/4 + z1 z2 + z2^2, z2/2 + z1^2): only z2^2 e1 is resonant (l1 = l2^2),
    # and nothing at degree 2 feeds back into it, so P = (z1/4 + z2^2, z2/2).
    n, terms = exact_reference.load_germ(DATA / "hopf.json")
    P, _ = exact_reference.normal_form(n, terms, 3)
    assert P == {((1, 0), 0): 0.25, ((0, 1), 1): 0.5, ((0, 2), 0): 1}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5), st.sampled_from(["real", "complex", "zero"]))
def test_translate_conjugate_matches_exact_reference(seed, n, kind):
    rng = np.random.default_rng(seed)
    # degree bounds up to 5
    s = random_spectrum(rng, n, max_ratio=5.4, qmax=5)
    h = certify_subresonant(random_sr_map(rng, s), s, "test map")
    tau = {"real": 0.6 * rng.normal(size=n),
           "complex": 0.6 * (rng.normal(size=n) + 1j * rng.normal(size=n)),
           "zero": np.zeros(n)}[kind].astype(complex)
    computed = translate_conjugate(h, tau).jet.terms
    exact = exact_reference.translate_conjugate(h.jet.terms, tau)
    assert set(computed) == set(exact)
    if kind == "zero":
        assert computed == h.jet.terms
    distance = exact_reference.distance(computed, exact)
    assert max(distance.values()) <= ULPS, distance


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5), st.sampled_from(["real", "complex", "zero"]))
def test_group_mul_matches_exact_reference(seed, n, kind):
    rng = np.random.default_rng(seed)
    s = random_spectrum(rng, n, max_ratio=5.4, qmax=5)
    h1, h2 = (certify_subresonant(random_sr_map(rng, s), s, "test map") for _ in range(2))
    tau1, tau2 = ({"real": 0.6 * rng.normal(size=n),
                   "complex": 0.6 * (rng.normal(size=n) + 1j * rng.normal(size=n)),
                   "zero": np.zeros(n)}[kind].astype(complex) for _ in range(2))
    computed = group_mul(GroupElement(tau1, h1), GroupElement(tau2, h2)).h.jet.terms
    exact = exact_reference.group_mul(h1.jet.terms, tau2, h2.jet.terms, n)
    assert set(computed) <= set(exact)
    if kind == "zero":
        assert list(computed.items()) == list(sr_compose(h1, h2).jet.terms.items())
    distance = exact_reference.distance(computed, exact)
    assert max(distance.values()) <= ULPS, distance
