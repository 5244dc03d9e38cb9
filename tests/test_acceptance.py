"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line when its criterion holds (run with ``-s`` to
see them).  Criterion 7's translation-normality sub-check is recorded as an
expected failure: conjugating a translation by a group element with a
nonlinear map part provably does not give a translation (see
TestCriterion07 for the exact counterexample), so the stated check cannot
hold; everything else about criterion 7 passes.
"""

import json

import numpy as np
import pytest

from conftest import (
    block_of,
    coeff_distance,
    coefficient,
    identity_element,
    jet_document,
    multi_indices,
    naive_compose,
    naive_operator,
    random_point,
    random_spectrum,
    random_sr_map,
)
from srnf.cli import main
from srnf.germio import dump_json, parse_germ_document
from srnf.gx_group import GroupElement, group_inv, group_mul
from srnf.homological import build_matrix, coefficient_vector
from srnf.normal_form import (
    GermInput,
    poincare_dulac,
    pointwise_conjugacy_residual,
    verify_conjugacy,
)
from srnf.polymap import PolyJet, basis_dimension
from srnf.subresonance import (
    certify_subresonant,
    enumerate_subresonant_basis,
    sr_compose,
    sr_inverse,
    subresonant_offenders,
)

HOPF_GERM = PolyJet(2, 3, {
    ((1, 0), 0): 0.25, ((1, 1), 0): 1.0, ((0, 2), 0): 1.0,
    ((0, 1), 1): 0.5, ((2, 0), 1): 1.0,
})


def certified(jet, spectrum):
    return certify_subresonant(jet, spectrum, "test map")


def test_criterion_01_resonant_normal_form():
    result = poincare_dulac(GermInput(jet=HOPF_GERM))
    P = result.normal_form.jet
    assert set(P.terms) == {((1, 0), 0), ((0, 1), 1), ((0, 2), 0)}
    assert abs(coefficient(P, (0, 2), 0) - 1.0) <= 1e-12

    # conjugacy residual through degree 3, with the naive composition oracle
    left = naive_compose(HOPF_GERM, result.phi, 3)
    right = naive_compose(result.phi, P, 3)
    keys = set(left) | set(right)
    residual = max(abs(left.get(k, 0j) - right.get(k, 0j)) for k in keys)
    assert residual < 1e-10
    print(f"ACCEPTANCE 1: PASS resonant normal form (residual {residual:.2e})")


def test_criterion_02_one_dimensional_linearization():
    rng = np.random.default_rng(2024)
    P_expected = PolyJet(1, 1, {((1,), 0): 0.5})
    worst = 0.0
    for _ in range(50):
        coeffs = {((1,), 0): 0.5}
        for q in (2, 3):
            a = rng.uniform(0.05, 1.0) * np.exp(2j * np.pi * rng.random())
            coeffs[((q,), 0)] = a
        germ = GermInput(jet=PolyJet(1, 3, coeffs))
        result = poincare_dulac(germ)
        assert result.normal_form.jet == P_expected
        # every sample straightens: ||phi(F(z)) - P(phi(z))|| at each
        report = verify_conjugacy(germ, result)
        assert report.unconverged == 0
        worst = max(worst, report.straightened_max)
    assert worst < 1e-8
    print(f"ACCEPTANCE 2: PASS 1-d linearization (worst residual {worst:.2e})")


def test_criterion_03_triangularity_and_oracle():
    rng = np.random.default_rng(3)
    worst_diag, worst_action = 0.0, 0.0
    for trial in range(100):
        n = 2 + trial % 2
        s = random_spectrum(rng, n, qmax=5)
        for q in range(2, 6):
            m = build_matrix(s, q)
            assert np.count_nonzero(np.tril(m.entries, -1)) == 0
            for r, (index, comp) in enumerate(m.ordering.pairs):
                lam_I = np.prod(s.diag ** np.array(index))
                worst_diag = max(worst_diag, abs(m.entries[r, r] - (lam_I - s.diag[comp])))
            terms = {}
            for index in multi_indices(n, q):
                for j in range(n):
                    if rng.random() < 0.5:
                        terms[(index, j)] = complex(rng.normal(), rng.normal())
            h = PolyJet(n, q, terms)
            action = m.entries @ coefficient_vector(h, m.ordering)
            expected = coefficient_vector(naive_operator(s.T, h), m.ordering)
            worst_action = max(worst_action, np.abs(action - expected).max())
    assert worst_diag < 1e-12
    assert worst_action < 1e-12
    print(f"ACCEPTANCE 3: PASS triangularity/diagonal law "
          f"(diag {worst_diag:.2e}, action {worst_action:.2e})")


def test_criterion_04_rank_identity():
    rng = np.random.default_rng(4)
    for trial in range(100):
        n = 2 + trial % 2
        s = random_spectrum(rng, n)
        for q in range(2, s.c0 + 2):
            m = build_matrix(s, q)
            dim = basis_dimension(n, q)
            rank = {pair: r for r, pair in enumerate(m.ordering.pairs)}
            cols = [m.entries]
            for key in enumerate_subresonant_basis(s, q):
                e = np.zeros((dim, 1), dtype=complex)
                e[rank[key], 0] = 1.0
                cols.append(e)
            rank = np.linalg.matrix_rank(np.hstack(cols), tol=1e-10)
            assert rank == dim, f"rank {rank} != {dim} at degree {q}"
    print("ACCEPTANCE 4: PASS span identity (sub-resonant basis + operator image)")


def test_criterion_05_operator_preserves_classification():
    rng = np.random.default_rng(5)
    done_sr = 0
    while done_sr < 200:
        n = int(rng.integers(2, 4))
        s = random_spectrum(rng, n)
        q = int(rng.integers(2, max(3, s.degree_bound + 1)))
        basis = enumerate_subresonant_basis(s, q)
        if not basis:
            continue
        terms = {key: complex(rng.normal(), rng.normal())
                 for key in basis if rng.random() < 0.8}
        if not terms:
            terms = {basis[0]: 1.0 + 0j}
        image = naive_operator(s.T, PolyJet(n, q, terms))
        assert not subresonant_offenders(image, s)
        done_sr += 1

    done_bad = 0
    while done_bad < 200:
        n = int(rng.integers(2, 4))
        s = random_spectrum(rng, n)
        q = int(rng.integers(2, 6))
        basis = enumerate_subresonant_basis(s, q)
        clear_margin = [
            (index, j) for index in multi_indices(n, q) for j in range(n)
            if (index, j) not in basis
            and float(np.dot(index, s.log_moduli)) < s.log_moduli[j] - 0.05]
        if not clear_margin:
            continue
        terms = {clear_margin[int(rng.integers(len(clear_margin)))]:
                 complex(0.5 + rng.random(), rng.normal())}
        for key in basis:
            if rng.random() < 0.4:
                terms.setdefault(key, complex(rng.normal(), rng.normal()))
        image = naive_operator(s.T, PolyJet(n, q, terms))
        assert subresonant_offenders(image, s)
        done_bad += 1
    print("ACCEPTANCE 5: PASS operator image classification, 200 + 200 trials")


def test_criterion_06_subresonant_group_axioms():
    rng = np.random.default_rng(6)
    elements = []
    for trial in range(100):
        n = 2 + trial % 2
        s = random_spectrum(rng, n, max_ratio=2.6)
        elements.append(certified(random_sr_map(rng, s), s))
    worst = 0.0
    for i, F in enumerate(elements):
        G = elements[i - 1] if i and elements[i - 1].jet.n == F.jet.n \
            and np.array_equal(elements[i - 1].spectrum.T, F.spectrum.T) else F
        sr_compose(F, G)  # closure: certification failure would raise
        inv = sr_inverse(F)
        assert inv.jet.max_degree() <= F.spectrum.degree_bound
        ident = PolyJet.identity(F.jet.n)
        worst = max(worst,
                    sr_compose(F, inv).jet.max_coeff_diff(ident),
                    sr_compose(inv, F).jet.max_coeff_diff(ident))
    assert worst < 1e-10
    print(f"ACCEPTANCE 6: PASS group axioms in the sub-resonant group "
          f"(worst inverse gap {worst:.2e})")


def _random_group_element(rng, spectrum):
    tau = 0.7 * (rng.normal(size=spectrum.n) + 1j * rng.normal(size=spectrum.n))
    return GroupElement(tau=tau, h=certified(random_sr_map(rng, spectrum), spectrum))


def test_criterion_07_affine_group_axioms():
    rng = np.random.default_rng(7)
    worst_assoc, worst_inv, worst_point = 0.0, 0.0, 0.0
    for trial in range(100):
        n = 2 + trial % 2
        s = random_spectrum(rng, n, max_ratio=2.5)
        g1, g2, g3 = (_random_group_element(rng, s) for _ in range(3))
        left = group_mul(group_mul(g1, g2), g3)
        right = group_mul(g1, group_mul(g2, g3))
        worst_assoc = max(worst_assoc, coeff_distance(left, right))
        e = identity_element(s)
        worst_inv = max(worst_inv,
                        coeff_distance(group_mul(g1, group_inv(g1)), e),
                        coeff_distance(group_mul(group_inv(g1), g1), e))
        product = group_mul(g1, g2)
        for _ in range(20):
            z = random_point(rng, n, rng.uniform(0.1, 1.0))
            worst_point = max(worst_point, float(np.linalg.norm(
                product.evaluate(z) - g1.evaluate(g2.evaluate(z)))))
    assert worst_assoc < 1e-9
    assert worst_inv < 1e-10
    assert worst_point < 1e-10
    print(f"ACCEPTANCE 7: PASS affine group axioms (assoc {worst_assoc:.2e}, "
          f"inverse {worst_inv:.2e}, pointwise {worst_point:.2e})")


@pytest.mark.xfail(strict=True, reason=(
    "conjugating a translation by a group element with nonlinear map part is "
    "not a translation: for h = (z1/4 + z2^2, z2/2) and tau = (0, t), "
    "h o t_tau o h^{-1} maps z to (z1 + 4t z2 + t^2, z2 + t/2), which has a "
    "non-identity linear part; the offset h(h^{-1}(z) + tau) - z depends on z "
    "whenever h is nonlinear, so this check cannot hold as stated"))
def test_criterion_07_translation_normality():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(100):
        n = 2 + trial % 2
        s = random_spectrum(rng, n, max_ratio=2.5)
        g = _random_group_element(rng, s)
        tau = rng.normal(size=n) + 1j * rng.normal(size=n)
        pure = GroupElement(tau=tau, h=identity_element(s).h)
        conj = group_mul(group_mul(g, pure), group_inv(g))
        worst = max(worst, conj.h.jet.max_coeff_diff(PolyJet.identity(n)))
    print(f"ACCEPTANCE 7 (normality): FAIL as expected, worst deviation {worst:.2e}")
    assert worst < 1e-10


def test_criterion_08_degree_bound_exhaustive():
    rng = np.random.default_rng(8)
    for trial in range(50):
        n = int(rng.integers(2, 4))
        s = random_spectrum(rng, n)
        for r in range(s.degree_bound + 1, s.degree_bound + 4):
            assert enumerate_subresonant_basis(s, r) == ()
        blocks = block_of(s)
        for r in range(1, s.degree_bound + 1):
            for index, comp in enumerate_subresonant_basis(s, r):
                for k, e in enumerate(index):
                    if e > 0:
                        assert blocks[k] >= blocks[comp]
    print("ACCEPTANCE 8: PASS degree bound and block vanishing, 50 spectra")


def test_criterion_09_remainder_decay():
    rng = np.random.default_rng(9)
    done = 0
    while done < 20:
        s = random_spectrum(rng, 2, max_ratio=2.8, diagonal=bool(rng.integers(2)))
        terms = dict(PolyJet.from_linear(s.T, 1).terms)
        nonlinear = 0
        for d in (2, 3):
            for index in multi_indices(2, d):
                for j in range(2):
                    if rng.random() < 0.6:
                        terms[(index, j)] = 0.4 * complex(rng.normal(), rng.normal())
                        nonlinear += 1
        if nonlinear == 0:
            continue
        F = PolyJet(2, 3, terms)
        result = poincare_dulac(GermInput(jet=F))
        D = result.trunc_degree
        radius = min(0.1, 0.5 * result.contraction_radius)
        dirs = [random_point(np.random.default_rng(900 + k), 2, 1.0) for k in range(10)]

        def worst(r):
            return max(pointwise_conjugacy_residual(
                F, result.phi, result.normal_form.jet, r * np.array(dirs)))

        big, small = worst(radius), worst(radius / 2)
        if big < 1e-13:
            continue  # remainder vanished; nothing to measure
        assert big / max(small, 1e-300) >= 2 ** D * 0.5, \
            f"decay {big / small:.3g} below {2 ** D * 0.5:.3g} (D={D})"
        done += 1
    print("ACCEPTANCE 9: PASS remainder decay over 20 germs")


def test_criterion_10_round_trip_and_determinism(tmp_path, capsys):
    from conftest import random_jet

    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        degree = int(rng.integers(1, 6))
        jet = random_jet(rng, n, degree, invertible_linear=bool(rng.integers(2)))
        doc = json.loads(dump_json(jet_document(jet)))
        assert parse_germ_document(doc).jet == jet

    germ_path = tmp_path / "germ.json"
    germ_path.write_text(dump_json(jet_document(HOPF_GERM, "adapted")))
    outputs = []
    for _ in range(2):
        code = main(["normal-form", str(germ_path)])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    print("ACCEPTANCE 10: PASS serialization round trip and byte-level determinism")
