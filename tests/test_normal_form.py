import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    coefficient,
    degree_part,
    multi_indices,
    naive_operator,
    random_jet,
    random_point,
    random_spectrum,
    resonant_positions,
)
from srnf import germio, normal_form
from srnf.config import RunConfig
from srnf.errors import DimensionMismatch, NotContracting, ValidationError
from srnf.homological import split_homogeneous
from srnf.normal_form import (
    GermInput,
    conjugate_step,
    ingest,
    poincare_dulac,
    pointwise_conjugacy_residual,
    verify_conjugacy,
)
from srnf.polymap import (
    PolyJet,
    basis_dimension,
    compose_truncated,
    jet_inverse,
)
from srnf.subresonance import SubResonantMap, certify_subresonant, sr_inverse

HOPF_GERM = PolyJet(2, 3, {
    ((1, 0), 0): 0.25, ((1, 1), 0): 1.0, ((0, 2), 0): 1.0,
    ((0, 1), 1): 0.5, ((2, 0), 1): 1.0,
})
# the Hopf germ with l_1 = 1/16: c0 = 4, so its working degree is 5
HOPF_C0_4 = PolyJet(2, 3, dict(HOPF_GERM.terms) | {((1, 0), 0): 1 / 16})


def random_contracting_germ(rng, n, degree, *, diagonal=False, scale=0.5):
    spectrum = random_spectrum(rng, n, diagonal=diagonal, max_ratio=2.8)
    jet = random_jet(rng, n, degree, density=0.6, scale=scale,
                     invertible_linear=False)
    terms = {k: c for k, c in jet.terms.items() if sum(k[0]) >= 2}
    linear = PolyJet.from_linear(spectrum.T, 1)
    return spectrum, linear + PolyJet(n, degree, terms)


class TestConjugateStep:
    def test_zero_correction(self):
        out = conjugate_step(HOPF_GERM, PolyJet(2, 2), 3)
        assert out == HOPF_GERM

    def test_hand_1d_cancellation(self):
        # F = z/2 + z^2; the divisor is l^2 - l = -1/4, so f = -4 z^2
        # removes the quadratic term entirely
        F = PolyJet(1, 2, {((1,), 0): 0.5, ((2,), 0): 1.0})
        f = PolyJet(1, 2, {((2,), 0): -4.0})
        out = conjugate_step(F, f, 2)
        assert coefficient(out, (2,), 0) == pytest.approx(0.0, abs=1e-14)
        assert coefficient(out, (1,), 0) == pytest.approx(0.5)

    def test_lower_degrees_untouched(self):
        F = PolyJet(1, 3, {((1,), 0): 0.5, ((2,), 0): 1.0, ((3,), 0): 1.0})
        f = PolyJet(1, 3, {((3,), 0): -2.2})
        out = conjugate_step(F, f, 3)
        assert coefficient(out, (2,), 0) == pytest.approx(1.0, abs=1e-14)
        assert coefficient(out, (1,), 0) == pytest.approx(0.5)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(2, 5))
    def test_degree_law(self, seed, n, q):
        rng = np.random.default_rng(seed)
        spectrum, F = random_contracting_germ(rng, n, q + 1)
        terms = {}
        for index in multi_indices(n, q):
            for j in range(n):
                if rng.random() < 0.5:
                    terms[(index, j)] = 0.5 * complex(rng.normal(), rng.normal())
        f_q = PolyJet(n, q, terms)
        out = conjugate_step(F, f_q, q + 1)
        for d in range(1, q):
            assert degree_part(out, d).max_coeff_diff(degree_part(F, d)) < 1e-12
        # out_q = F_q - M f_q
        got = degree_part(out, q) + naive_operator(spectrum.T, f_q)
        assert got.max_coeff_diff(degree_part(F, q)) < 1e-10


class TestPipeline:
    def test_linear_germ(self):
        T = np.diag([0.25, 0.5]).astype(complex)
        result = poincare_dulac(GermInput(jet=PolyJet.from_linear(T, 1)))
        assert result.normal_form.jet == PolyJet.from_linear(T, 1)
        assert result.phi == PolyJet.identity(2)
        assert result.residuals.coefficient_max == 0.0

    def test_resonant_hopf_example(self):
        result = poincare_dulac(GermInput(jet=HOPF_GERM))
        P = result.normal_form.jet
        assert set(P.terms) == {((1, 0), 0), ((0, 1), 1), ((0, 2), 0)}
        assert abs(coefficient(P, (0, 2), 0) - 1.0) < 1e-12
        assert coefficient(P, (1, 0), 0) == 0.25
        assert coefficient(P, (0, 1), 1) == 0.5
        assert result.residuals.coefficient_max < 1e-10
        assert result.phi.linear_part() == pytest.approx(np.eye(2))

    def test_one_dimensional_always_linearizes(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = complex(rng.normal(), rng.normal())
            F = PolyJet(1, 2, {((1,), 0): 0.5, ((2,), 0): a})
            result = poincare_dulac(GermInput(jet=F))
            assert result.normal_form.jet == PolyJet(1, 1, {((1,), 0): 0.5})

    def test_not_contracting_rejected(self):
        F = PolyJet.from_linear(np.diag([0.5, 2.0]).astype(complex))
        with pytest.raises(NotContracting):
            poincare_dulac(GermInput(jet=F))

    def test_original_coordinates_are_adapted(self):
        # rotate the resonant example by a fixed unitary matrix
        theta = 0.7
        U = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]], dtype=complex)
        from srnf.polymap import linear_conjugate
        rotated = linear_conjugate(HOPF_GERM, U.conj().T, 3)
        result = poincare_dulac(GermInput(jet=rotated, coordinates="original"))
        assert np.allclose(np.abs(np.diag(result.spectrum.T)), [0.25, 0.5], atol=1e-10)
        Q = result.basis_change
        assert np.allclose(Q.conj().T @ Q, np.eye(2), atol=1e-12)
        assert result.residuals.coefficient_max < 1e-10

    def test_tail_terms_beyond_working_degree(self):
        # degree-4 tail is part of the germ for pointwise evaluation but the
        # coefficient pipeline ignores it
        tail = PolyJet(2, 4, dict(HOPF_GERM.terms) | {((2, 2), 1): 0.7 + 0j})
        result = poincare_dulac(GermInput(jet=tail))
        assert result.trunc_degree == 3
        base = poincare_dulac(GermInput(jet=HOPF_GERM))
        assert result.normal_form.jet == base.normal_form.jet
        z = 0.05 * np.ones(2, dtype=complex)
        assert not np.allclose(result.germ_adapted.evaluate(z), HOPF_GERM.evaluate(z))

    def test_inconsistent_resonance_tolerance_detected(self):
        from srnf.errors import IllConditionedResonance
        # res_tol 0.9 tags |l1^2 - l2| = 7/16 <= 0.9 * |l2| as resonant, but
        # z1^2 e2 is not sub-resonant: the contradiction must be surfaced
        with pytest.raises(IllConditionedResonance):
            poincare_dulac(GermInput(jet=HOPF_GERM), RunConfig(res_tol=0.9))

    def test_small_divisor_warning_attached(self):
        delta = 1e-8
        T = np.diag([0.25 * (1 + delta), 0.5]).astype(complex)
        jet = PolyJet.from_linear(T, 2) + PolyJet(2, 2, {((0, 2), 0): 1.0})
        result = poincare_dulac(GermInput(jet=jet))
        assert any("small divisor" in w for step in result.steps for w in step.warnings)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_output_is_resonant_and_conjugate(self, seed, n):
        rng = np.random.default_rng(seed)
        spectrum, F = random_contracting_germ(rng, n, 3)
        result = poincare_dulac(GermInput(jet=F))
        P = result.normal_form
        assert isinstance(certify_subresonant(P.jet, result.spectrum), SubResonantMap)
        allowed = set()
        for q in range(2, result.spectrum.degree_bound + 1):
            allowed |= set(resonant_positions(result.spectrum, q))
        nonlinear = {k for k in P.jet.terms if sum(k[0]) >= 2}
        assert nonlinear <= allowed
        scale = max(1.0, result.germ_adapted.max_abs_coeff())
        assert result.residuals.coefficient_max < 1e-10 * scale


def reference_normal_form(germ: GermInput, cfg: RunConfig = RunConfig()) -> PolyJet:
    """P by the iterative scheme: conjugate the whole germ by ``id + f_q``."""
    spectrum, F, _ = ingest(germ)
    D = spectrum.c0 + 1
    current = F.truncated(D) if F.degree > D else PolyJet(F.n, D, F.terms)
    P = PolyJet.from_linear(spectrum.T, max(1, spectrum.degree_bound))
    for q in range(2, D + 1):
        split = split_homogeneous(spectrum, degree_part(current, q), cfg.res_tol)
        current = conjugate_step(current, split.eliminated, D, prune=cfg.prune)
        if split.resonant.terms:
            P = P + split.resonant
    return P


def resonant_germ(rng, powers, *, coupling=0.3):
    """Germ with spectrum ``l**powers`` (exact resonances), random nonlinear terms."""
    n = len(powers)
    lam = rng.uniform(0.45, 0.7) * np.exp(2j * np.pi * rng.random())
    T = np.diag([lam ** k for k in powers]).astype(complex)
    for i in range(n):
        for j in range(i + 1, n):
            T[i, j] = coupling * complex(rng.normal(), rng.normal())
    D = max(powers) + 1
    jet = random_jet(rng, n, D, density=0.6, scale=0.5, invertible_linear=False)
    terms = {k: c for k, c in jet.terms.items() if sum(k[0]) >= 2}
    return PolyJet.from_linear(T, 1) + PolyJet(n, D, terms)


class TestDirectScheme:
    """The degree-by-degree solution of ``F o phi = phi o P``."""

    @staticmethod
    def assert_same_normal_form(P, reference):
        assert set(P.terms) == set(reference.terms)
        scale = {}
        for (index, _), coeff in reference.terms.items():
            scale[sum(index)] = max(scale.get(sum(index), 0.0), abs(coeff))
        for key, coeff in reference.terms.items():
            assert abs(P.terms[key] - coeff) <= 1e-10 * scale[sum(key[0])]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000),
           st.one_of(st.integers(1, 3), st.sampled_from([(2, 1), (3, 1), (3, 2, 1), (4, 2, 1)])))
    def test_matches_iterative_scheme(self, seed, shape):
        # shape: a dimension (random spectrum) or the powers of a resonant one
        rng = np.random.default_rng(seed)
        if isinstance(shape, int):
            _, F = random_contracting_germ(rng, shape, 3)
        else:
            F = resonant_germ(rng, shape)
        germ = GermInput(jet=F)
        self.assert_same_normal_form(poincare_dulac(germ).normal_form.jet,
                                     reference_normal_form(germ))

    @pytest.mark.parametrize("moduli", [(1 / 8, 1 / 4, 1 / 2), (1 / 16, 1 / 4, 1 / 2)])
    def test_matches_iterative_scheme_on_resonant_diagonal(self, moduli):
        rng = np.random.default_rng(7)
        D = round(np.log(moduli[0]) / np.log(moduli[-1])) + 1
        jet = random_jet(rng, 3, D, density=0.6, scale=0.5, invertible_linear=False)
        terms = {k: c for k, c in jet.terms.items() if sum(k[0]) >= 2}
        germ = GermInput(jet=PolyJet.from_linear(np.diag(moduli).astype(complex), 1)
                         + PolyJet(3, D, terms))
        P = poincare_dulac(germ).normal_form.jet
        assert any(sum(index) >= 3 for index, _ in P.terms)
        self.assert_same_normal_form(P, reference_normal_form(germ))

    def test_no_conjugation_or_inversion(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("not on the poincare_dulac path")

        monkeypatch.setattr(normal_form, "conjugate_step", forbidden)
        monkeypatch.setattr(normal_form, "jet_inverse", forbidden)
        result = poincare_dulac(GermInput(jet=HOPF_C0_4))
        assert result.trunc_degree == 5 and result.residuals.coefficient_max < 1e-10
        germ = GermInput(jet=resonant_germ(np.random.default_rng(3), (4, 2, 1)))
        assert poincare_dulac(germ).residuals.coefficient_max < 1e-10

    @pytest.mark.parametrize("D", [3, 5])
    def test_compositions_only_in_closing_residual(self, monkeypatch, D):
        calls = []

        def counting(*args, **kwargs):
            calls.append((args[2], kwargs.get("prune")))
            return compose_truncated(*args, **kwargs)

        monkeypatch.setattr(normal_form, "compose_truncated", counting)
        poincare_dulac(GermInput(jet={3: HOPF_GERM, 5: HOPF_C0_4}[D]))
        # the loop reads power tables; only the coefficient residual recomposes
        assert calls == [(D, False)] * 2


class Admitted(Exception):
    pass


def admitted(*args):
    raise Admitted


def refuse(*args):
    raise AssertionError("a refused request must allocate nothing")


def linear_resonant_16(c0):
    """n = 16, ``l_k = 0.6^{e_k}`` with ``e_k`` from ``c0`` down to 1: degree bound ``c0 + 1``."""
    exps = np.append(np.maximum(1, c0 - np.arange(15) // 2), 1)
    return GermInput(jet=PolyJet.from_linear(np.diag(0.6 ** exps).astype(complex), c0 + 1))


class TestAdmission:
    """poincare_dulac refuses more than MAX_SPLIT_POSITIONS positions before its degree loop."""

    def test_split_positions_sums_basis_dimensions(self):
        for n in range(1, 7):
            for D in range(1, 9):
                assert normal_form.split_positions(n, D) == sum(
                    basis_dimension(n, q) for q in range(2, D + 1))
        assert normal_form.split_positions(16, 9) == 32_687_328
        assert normal_form.split_positions(16, 10) == 84_987_488

    def test_limit_lies_between_n16_degrees_9_and_10(self, monkeypatch):
        # c0 = 8 is admitted, and stopped where the degree loop would start
        monkeypatch.setattr(normal_form, "_PowerTable", admitted)
        with pytest.raises(Admitted):
            poincare_dulac(linear_resonant_16(8))
        monkeypatch.setattr(normal_form, "_PowerTable", refuse)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"the split through degree 10 for n=16 "
                                                      r"needs 8.5e\+07 positions"):
                poincare_dulac(linear_resonant_16(9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("slack", [0, -1])
    def test_at_the_limit(self, monkeypatch, slack):
        # the Hopf germ at D = 3: 6 + 8 positions
        monkeypatch.setattr(normal_form, "MAX_SPLIT_POSITIONS",
                            normal_form.split_positions(2, 3) + slack)
        if slack:
            monkeypatch.setattr(normal_form, "_PowerTable", refuse)
            with pytest.raises(ValidationError, match="needs 14 positions, above the normal "
                                                      "form limit of 13 positions"):
                poincare_dulac(GermInput(jet=HOPF_GERM))
        else:
            assert poincare_dulac(GermInput(jet=HOPF_GERM)).trunc_degree == 3


class TestConjugationAdmission:
    """ingest refuses to conjugate an original germ through more than
    MAX_CONJUGATED_POSITIONS positions, before the conjugation starts."""

    @pytest.mark.parametrize("slack", [0, -1])
    def test_at_the_limit(self, monkeypatch, slack):
        # coupled_n3_original has terms of degrees 2..4 at n = 3: 18 + 30 + 45 positions
        germ = germio.parse_germ_document(json.loads((DATA / "coupled_n3_original.json")
                                                     .read_text()))
        monkeypatch.setattr(normal_form, "MAX_CONJUGATED_POSITIONS",
                            normal_form.split_positions(3, 4) + slack)
        monkeypatch.setattr(normal_form, "linear_conjugate", refuse if slack else admitted)
        if slack:
            with pytest.raises(ValidationError, match="the conjugation through degree 4 for "
                                                      "n=3 needs 93 positions, above the "
                                                      "ingest limit of 92 positions"):
                ingest(germ)
        else:
            with pytest.raises(Admitted):
                ingest(germ)

    def test_adapted_germs_are_not_conjugated(self, monkeypatch):
        monkeypatch.setattr(normal_form, "MAX_CONJUGATED_POSITIONS", 0)
        monkeypatch.setattr(normal_form, "linear_conjugate", refuse)
        assert ingest(GermInput(jet=HOPF_GERM))[1] is HOPF_GERM


def straighten(F, P, Z):
    """``_straighten`` of ``F`` towards ``P`` at the rows of ``Z`` and their
    images under ``F``, with the identity for the polynomial stage."""
    Z = np.asarray(Z, dtype=complex)
    return normal_form._straighten(F, sr_inverse(P).jet, PolyJet.identity(F.n),
                                   np.concatenate([Z, F.evaluate(Z)]), RunConfig.p_max,
                                   RunConfig.cauchy_tol)


class TestPhiNumeric:
    """The numeric straightening map ``phi = lim_p P^{-(p)} o F^{(p)}``."""

    def test_normal_form_is_fixed(self):
        result = poincare_dulac(GermInput(jet=HOPF_GERM))
        P = result.normal_form
        z = np.array([0.02 + 0.01j, -0.03 + 0.005j])
        values, stopped = straighten(P.jet, P, [z])
        assert None not in stopped
        assert np.linalg.norm(values[0] - z) < 1e-13

    def test_origin(self):
        result = poincare_dulac(GermInput(jet=HOPF_GERM))
        values, _ = straighten(HOPF_GERM, result.normal_form, np.zeros((1, 2)))
        assert np.all(values == 0)

    def test_koenigs_functional_equation(self):
        F = PolyJet(1, 3, {((1,), 0): 0.5, ((2,), 0): 1.0})
        result = poincare_dulac(GermInput(jet=F))
        P = result.normal_form
        # rows z and F(z): phi(F(z)) = P(phi(z))
        values, stopped = straighten(F, P, [[0.1 + 0j]])
        assert None not in stopped
        assert np.linalg.norm(values[1] - P.jet.evaluate(values[0])) < 1e-10


class TestVerify:
    def test_linear_case_exact(self):
        T = np.diag([0.3, 0.6]).astype(complex)
        germ = GermInput(jet=PolyJet.from_linear(T, 1))
        result = poincare_dulac(germ)
        report = verify_conjugacy(germ, result)
        assert report.residuals.coefficient_max <= 1e-14
        assert report.pointwise_max <= 1e-14

    def test_hopf_example(self):
        germ = GermInput(jet=HOPF_GERM)
        result = poincare_dulac(germ)
        report = verify_conjugacy(germ, result)
        assert report.residuals.coefficient_max < 1e-10
        assert report.straightened_max < 1e-8

    def test_report_holds_the_normal_form_residuals(self):
        germ = GermInput(jet=HOPF_GERM)
        result = poincare_dulac(germ)
        assert verify_conjugacy(germ, result).residuals is result.residuals

    def test_germ_of_another_dimension_is_refused(self):
        result = poincare_dulac(GermInput(jet=HOPF_GERM))
        with pytest.raises(DimensionMismatch, match="^germ dimension 3 does not match n=2$"):
            verify_conjugacy(coupled_n3(), result)

    def test_adapted_germ_must_be_the_result_germ(self):
        result = poincare_dulac(GermInput(jet=HOPF_GERM))
        other = GermInput(jet=HOPF_GERM + PolyJet(2, 3, {((0, 3), 0): 0.1}))
        with pytest.raises(ValidationError, match="not the germ of this normal form"):
            verify_conjugacy(other, result)
        # an equal jet that is another object is the same germ
        same = GermInput(jet=PolyJet(2, HOPF_GERM.degree, dict(HOPF_GERM.terms)))
        assert verify_conjugacy(same, result).unconverged == 0

    def test_original_germ_must_be_the_result_germ(self):
        doc = json.loads((DATA / "coupled_n3_original.json").read_text())
        germ = germio.parse_germ_document(doc)
        result = poincare_dulac(germ)
        assert germ.jet != result.germ_adapted
        assert verify_conjugacy(germ, result).unconverged == 0
        [term] = [t for t in doc["terms"] if t["exponents"] == [0, 0, 2] and t["component"] == 1]
        term["coeff"][0] += 5
        other = germio.parse_germ_document(doc)
        with pytest.raises(ValidationError,
                           match="^the original germ is not the germ of this normal form$"):
            verify_conjugacy(other, result)

    def test_given_germ_is_not_ingested_again(self, monkeypatch):
        doc = json.loads((DATA / "coupled_n3_original.json").read_text())
        result = poincare_dulac(germio.parse_germ_document(doc))
        # another germ is ingested: in adapted coordinates it is the result's when its jet is
        assert verify_conjugacy(GermInput(result.germ_adapted), result).unconverged == 0
        monkeypatch.setattr(normal_form, "ingest", None)   # a second ingest would fail
        assert verify_conjugacy(germio.parse_germ_document(doc), result).unconverged == 0

    def test_oversized_sample_count_is_refused_before_sampling(self, monkeypatch):
        germ = GermInput(jet=HOPF_GERM)
        result = poincare_dulac(germ)
        monkeypatch.setattr(normal_form, "_sample_points", None)   # drawing would fail
        with pytest.raises(ValidationError, match="^a sample count of 200000 for n=2 needs "):
            verify_conjugacy(germ, result, RunConfig(sample_count=200000))

    def test_normal_form_draws_no_random_number(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("poincare_dulac drew a random number")

        germ = coupled_n3()
        monkeypatch.setattr(np.random, "default_rng", refuse)
        result = poincare_dulac(germ, RunConfig(seed=1, sample_count=20))
        assert result.residuals.coefficient_max < 1e-10
        with pytest.raises(AssertionError, match="drew a random number"):
            verify_conjugacy(germ, result)

    @pytest.mark.parametrize("seed", range(4))
    def test_remainder_decay(self, seed):
        rng = np.random.default_rng(seed)
        spectrum, F = random_contracting_germ(rng, 2, 3)
        result = poincare_dulac(GermInput(jet=F))
        D = result.trunc_degree
        radius = min(0.1, 0.5 * result.contraction_radius)
        dirs = [random_point(np.random.default_rng(50 + k), 2, 1.0) for k in range(10)]

        def worst(r):
            return max(pointwise_conjugacy_residual(F, result.phi, result.normal_form.jet,
                                                    r * np.array(dirs)))

        big, small = worst(radius), worst(radius / 2)
        if big < 1e-13:
            assert small < 1e-13
        else:
            assert big / max(small, 1e-300) >= 2 ** D * 0.5


# -- the straightening batch against the per-sample iteration it replaced --

DATA = Path(__file__).parent / "data"


def reference_iterate(F, P_inv, z, p_max, cauchy_tol, *, pullback=None):
    """The straightening iteration one point at a time, as it was before batching."""
    tol = cauchy_tol * max(1.0, float(np.linalg.norm(z)))
    forward = z
    previous = None
    last_gap = None
    for p in range(p_max + 1):
        w = pullback.evaluate(forward) if pullback is not None else forward
        for _ in range(p):
            w = P_inv.evaluate(w)
        if previous is not None:
            last_gap = float(np.linalg.norm(w - previous))
            if last_gap <= tol:
                return w, p, None
        previous = w
        forward = F.evaluate(forward)
    return previous, p_max, last_gap if last_gap is not None else float("inf")


def reference_points(rng, n, radius, count):
    points = []
    for _ in range(count):
        direction = rng.normal(size=n) + 1j * rng.normal(size=n)
        points.append(radius * direction / np.linalg.norm(direction))
    return points


def reference_verify(result, cfg):
    """``verify_conjugacy`` with a loop over samples, as it was before batching."""
    F, P, D = result.germ_adapted, result.normal_form, result.trunc_degree
    radius = min(cfg.sample_radius, 0.5 * result.contraction_radius) \
        if result.contraction_radius > 0 else cfg.sample_radius
    samples = reference_points(np.random.default_rng(cfg.seed), F.n, radius, cfg.sample_count)
    poly_res = tuple(float(np.linalg.norm(F.evaluate(result.phi.evaluate(z))
                                          - result.phi.evaluate(P.jet.evaluate(z))))
                     for z in samples)
    phi_inv = jet_inverse(result.phi, D)
    P_inv = sr_inverse(P).jet
    straightened = []
    p_used = 0
    for z in samples:
        g_z, p1, gap1 = reference_iterate(F, P_inv, z, cfg.p_max, cfg.cauchy_tol,
                                          pullback=phi_inv)
        g_Fz, p2, gap2 = reference_iterate(F, P_inv, F.evaluate(z), cfg.p_max,
                                           cfg.cauchy_tol, pullback=phi_inv)
        if gap1 is not None or gap2 is not None:
            straightened.append(None)
            continue
        p_used = max(p_used, p1, p2)
        straightened.append(float(np.linalg.norm(g_Fz - P.jet.evaluate(g_z))))
    amplification = float(result.spectrum.moduli[0] ** (-p_used)) if p_used else 1.0
    return poly_res, tuple(straightened), tuple(tuple(z) for z in samples), amplification


def coupled_n3():
    return germio.parse_germ_document(json.loads((DATA / "coupled_n3.json").read_text()))


class TestBatchedStraightening:
    @pytest.mark.parametrize("name, seed, p_max, samples", [
        ("hopf", 3, 60, 20),
        ("hopf", 3, 12, 20),      # 16 of 20 samples do not converge
        ("hopf", 0, 3, 5),        # none converges
        ("coupled_n3", 1, 60, 20),
        ("coupled_n3", 2, 5, 12),
        ("coupled_n3", 4, 60, 1),
    ])
    def test_report_equals_per_sample_loop(self, name, seed, p_max, samples):
        germ = GermInput(jet=HOPF_GERM) if name == "hopf" else coupled_n3()
        cfg = RunConfig(seed=seed, p_max=p_max, sample_count=samples)
        result = poincare_dulac(germ, cfg)
        report = verify_conjugacy(germ, result, cfg=cfg)
        poly_res, straightened, points, amplification = reference_verify(result, cfg)
        assert report.residuals.coefficient_max == result.residuals.coefficient_max
        assert report.pointwise == poly_res
        assert report.pointwise_max == max(poly_res)
        assert report.straightened_pointwise == straightened
        assert tuple(tuple(z) for z in report.sample_points) == points
        assert report.amplification_estimate == amplification
        assert repr(report.straightened_pointwise) == repr(straightened)

    @pytest.mark.parametrize("name", ["hopf", "coupled_n3"])
    def test_sequences_stop_at_their_own_p(self, name):
        germ = GermInput(jet=HOPF_GERM) if name == "hopf" else coupled_n3()
        cfg = RunConfig(seed=1)
        result = poincare_dulac(germ, cfg)
        F, D = result.germ_adapted, result.trunc_degree
        P_inv = sr_inverse(result.normal_form).jet
        phi_inv = jet_inverse(result.phi, D)
        # radii far outside the coupled germ's contraction ball leave some
        # sequences unconverged at p_max
        rng = np.random.default_rng(1)
        Z = np.array([z for r in (1e-3, 0.01, 0.05) for z in reference_points(rng, F.n, r, 6)])
        Y = np.concatenate([Z, F.evaluate(Z)])
        values, stopped = normal_form._straighten(F, P_inv, phi_inv, Y, cfg.p_max,
                                                  cfg.cauchy_tol)
        assert len(set(stopped)) > 3
        assert name == "hopf" or None in stopped
        for i, y in enumerate(Y):
            value, p, gap = reference_iterate(F, P_inv, y, cfg.p_max, cfg.cauchy_tol,
                                              pullback=phi_inv)
            assert values[i].tobytes() == value.tobytes()
            assert stopped[i] == (p if gap is None else None)

    @pytest.mark.parametrize("name", ["hopf", "coupled_n3"])
    def test_rows_are_independent(self, name):
        # a row's value and stop depend neither on the batch's order nor on its other rows
        germ = GermInput(jet=HOPF_GERM) if name == "hopf" else coupled_n3()
        cfg = RunConfig()
        result = poincare_dulac(germ, cfg)
        F = result.germ_adapted
        P_inv = sr_inverse(result.normal_form).jet
        phi_inv = jet_inverse(result.phi, result.trunc_degree)
        rng = np.random.default_rng(1)
        Y = np.array([z for r in (1e-3, 0.01, 0.05) for z in reference_points(rng, F.n, r, 5)])

        def straighten_rows(rows):
            return normal_form._straighten(F, P_inv, phi_inv, rows, cfg.p_max, cfg.cauchy_tol)

        values, stopped = straighten_rows(Y)
        assert len(set(stopped)) > 2
        order = rng.permutation(len(Y))
        permuted, permuted_stopped = straighten_rows(Y[order])
        assert permuted.tobytes() == values[order].tobytes()
        assert permuted_stopped == [stopped[i] for i in order]
        for i in range(len(Y)):
            value, single = straighten_rows(Y[i:i + 1])
            assert value.tobytes() == values[i:i + 1].tobytes()
            assert single == [stopped[i]]

    @pytest.mark.parametrize("n, scale", [(1, 1e-20), (2, 0.05), (3, 1.0), (16, 1e5)])
    def test_row_norms_match_the_one_row_norm(self, n, scale):
        rng = np.random.default_rng(n)
        rows = scale * (rng.normal(size=(49, n)) + 1j * rng.normal(size=(49, n)))
        # a contiguous batch, every other row, and every other column
        for batch in (rows, rows[::2], np.concatenate([rows, rows], axis=1)[:, ::2]):
            norms = normal_form._row_norms(batch)
            assert all(type(value) is float for value in norms)
            assert np.array(norms).tobytes() == np.array(
                [np.linalg.norm(row) for row in batch]).tobytes()

    def test_no_samples_no_inversions(self, monkeypatch):
        germ = GermInput(jet=HOPF_GERM)
        cfg = RunConfig(sample_count=0)
        result = poincare_dulac(germ, cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("an inverse was computed for an empty sample set")

        monkeypatch.setattr(normal_form, "jet_inverse", refuse)
        monkeypatch.setattr(normal_form, "sr_inverse", refuse)
        report = verify_conjugacy(germ, result, cfg=cfg)
        assert report.pointwise == report.straightened_pointwise == ()
        assert len(report.sample_points) == 0
        assert report.amplification_estimate == 1.0
