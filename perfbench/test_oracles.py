"""Tests of the benchmark's oracles and checks, on cases checkable by hand.

Run from the root of the repository:  python3 -m pytest perfbench/test_oracles.py
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402

E1, E2 = 0, 1
HOPF_SPECTRUM = (0.25, 0.5)


def test_compose_by_hand():
    # f = z1 z2 e1, g = (z1 + z2^2, 2 z2):  f o g = 2 z1 z2 + 2 z2^3 in e1
    f = {((1, 1), E1): 1.0}
    g = {((1, 0), E1): 1.0, ((0, 2), E1): 1.0, ((0, 1), E2): 2.0}
    jets3, jets2 = oracles.Jets(2, 3), oracles.Jets(2, 2)
    assert jets3.poly(jets3.compose(jets3.array(f), jets3.array(g))) == {
        ((1, 1), E1): 2, ((0, 3), E1): 2}
    assert jets2.poly(jets2.compose(jets2.array(f), jets2.array(g))) == {((1, 1), E1): 2}


def test_compose_rejects_constant_inner_map():
    jets = oracles.Jets(1, 2)
    with pytest.raises(ValueError):
        jets.compose(jets.array({((1,), 0): 1.0}), jets.array({((0,), 0): 1.0}))


def test_evaluate_by_hand():
    P = {((1, 0), E1): 0.25, ((0, 2), E1): 1.0, ((0, 1), E2): 0.5}
    assert np.allclose(oracles.evaluate(P, [1.0, 2.0], 2), [4.25, 1.0])
    minus = {((1, 0), E1): -1.0, ((0, 1), E1): 1.0}
    assert np.allclose(oracles.evaluate(minus, [1.0, 1.0], 2), [0.0, 0.0])
    assert np.allclose(oracles.abs_evaluate(minus, [1.0, -1.0], 2), [2.0, 0.0])


def test_resonance_tests_on_the_hopf_spectrum():
    # l1 = l2^2, so z2^2 e1 is the one resonance of degree 2
    assert oracles.is_resonant(HOPF_SPECTRUM, (0, 2), E1, 1e-9)
    assert not oracles.is_resonant(HOPF_SPECTRUM, (1, 1), E1, 1e-9)
    assert oracles.subresonant_positions(HOPF_SPECTRUM, 2, 1e-9) == [((0, 2), E1)]
    assert oracles.is_subresonant(HOPF_SPECTRUM, (0, 1), E1, 0.0)      # z2 e1: flag-preserving
    assert not oracles.is_subresonant(HOPF_SPECTRUM, (1, 0), E2, 0.0)  # z1 e2 is not
    assert oracles.degree_bound(HOPF_SPECTRUM) == 2
    assert oracles.degree_bound((0.125, 0.5)) == 3
    assert oracles.degree_bound((0.3, 0.5)) == 1


def test_relative_gap():
    left = np.array([[1.0, 2.0, 0.0]])
    right = np.array([[1.0, 2.5, 1e-20]])
    assert oracles.relative_gap(left, left, np.ones_like(left)) == (0.0, 0.0)
    absolute, relative = oracles.relative_gap(left, right, np.array([[1.0, 5.0, 1.0]]))
    assert absolute == 0.5 and relative == 0.1
    assert oracles.relative_gap(left, right, np.array([[1.0, 5.0, 0.0]]))[1] == math.inf


def _hopf_result():
    from srnf import germio, normal_form

    doc = inputs.hopf_germ()
    text = germio.dump_json(germio.result_document(
        normal_form.poincare_dulac(germio.parse_germ_document(doc))))
    return doc, json.loads(text)


def test_hopf_normal_form_is_exact():
    doc, result = _hopf_result()
    claim = checks.Adapted.from_document(result)
    assert claim.P == {((1, 0), E1): 0.25, ((0, 2), E1): 1.0, ((0, 1), E2): 0.5}
    conj = checks.Conjugacy(doc, claim, oracles.Jets)
    assert checks.check_normal_form(doc, claim, conj) == []


@pytest.mark.parametrize("tamper", ["resonant coefficient", "non-resonant term", "phi"])
def test_normal_form_check_catches_a_wrong_result(tamper):
    doc, result = _hopf_result()
    claim = checks.Adapted.from_document(result)
    if tamper == "resonant coefficient":
        claim.P[((0, 2), E1)] = 1.001
    elif tamper == "non-resonant term":
        claim.P[((1, 1), E1)] = 1e-3
    else:
        key = next(k for k in claim.phi if sum(k[0]) == 2)
        claim.phi[key] += 1e-6
    conj = checks.Conjugacy(doc, claim, oracles.Jets)
    assert checks.check_normal_form(doc, claim, conj) != []


def test_original_coordinates_are_checked_against_the_input_matrix():
    from srnf import germio, normal_form

    doc = inputs.dense_germ(np.random.default_rng(0), 3, 2, "original")
    result = json.loads(germio.dump_json(germio.result_document(
        normal_form.poincare_dulac(germio.parse_germ_document(doc)))))
    claim = checks.Adapted.from_document(result)
    assert checks.check_normal_form(doc, claim, checks.Conjugacy(doc, claim, oracles.Jets)) == []
    claim.Q = claim.Q[:, ::-1]
    assert "Q^H A Q differs from T" in checks.check_normal_form(
        doc, claim, checks.Conjugacy(doc, claim, oracles.Jets))


def test_report_check_recomputes_and_rejects_nan():
    import srnf
    from srnf import germio, normal_form

    doc = inputs.hopf_germ()
    cfg = srnf.RunConfig(seed=3)
    germ = germio.parse_germ_document(doc)
    result = normal_form.poincare_dulac(germ, cfg)
    report = json.loads(germio.dump_json(germio.report_document(
        normal_form.verify_conjugacy(germ, result, cfg=cfg))))
    claim = checks.Adapted.from_result(result)
    conj = checks.Conjugacy(doc, claim, oracles.Jets)
    assert checks.check_report(claim, conj, report, cfg.sample_count) == []
    wrong = dict(report,
                 polynomial_pointwise=[2 * v + 1e-9 for v in report["polynomial_pointwise"]])
    assert checks.check_report(claim, conj, wrong, cfg.sample_count) != []
    nan = dict(report, straightened_pointwise=[math.nan] * cfg.sample_count)
    assert checks.check_report(claim, conj, nan, cfg.sample_count) != []


def _element(tau, terms):
    return SimpleNamespace(tau=np.asarray(tau, dtype=complex),
                           h=SimpleNamespace(jet=SimpleNamespace(terms=terms)))


def test_group_checks_by_hand():
    lam = (0.25, 0.5)
    points = [np.array([0.1, 0.2]), np.array([-0.3, 0.1j])]
    # g1: z -> (1, 0) + (z1 + z2^2, z2);  g2: z -> 2z.  g1(g2(z)) = (1 + 2 z1 + 4 z2^2, 2 z2)
    g1 = checks.Affine([1, 0], {((1, 0), E1): 1, ((0, 2), E1): 1, ((0, 1), E2): 1}, 2)
    g2 = checks.Affine([0, 0], {((1, 0), E1): 2, ((0, 1), E2): 2}, 2)
    right = _element([1, 0], {((1, 0), E1): 2, ((0, 2), E1): 4, ((0, 1), E2): 2})
    assert checks.check_group_mul(right, [g1, g2], lam, points) == []
    wrong = _element([1, 0], {((1, 0), E1): 2, ((0, 2), E1): 2, ((0, 1), E2): 2})
    assert checks.check_group_mul(wrong, [g1, g2], lam, points) != []
    # z1 e2 is not sub-resonant for (1/4, 1/2)
    offender = _element([1, 0], {((1, 0), E1): 2, ((0, 2), E1): 4, ((0, 1), E2): 2,
                                 ((1, 0), E2): 1e-30})
    assert checks.check_group_mul(offender, [g1, g2], lam, points) != []
    # inverse of g2 is z -> z/2
    half = _element([0, 0], {((1, 0), E1): 0.5, ((0, 1), E2): 0.5})
    assert checks.check_group_inv(half, g2, lam, points) == []


def test_orbit_check_follows_the_map():
    g = checks.Affine([0, 0], {((1, 0), E1): 0.25, ((0, 2), E1): 1, ((0, 1), E2): 0.5}, 2)
    start = np.array([0.1, 0.2])
    points = [start]
    for _ in range(3):
        points.append(oracles.evaluate(g.h, points[-1], 2))
    assert checks.check_orbit((np.array(points), None), g, start, 3) == []
    points[2] = points[2] * (1 + 1e-6)
    assert checks.check_orbit((np.array(points), None), g, start, 3) != []
