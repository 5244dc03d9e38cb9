import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import multi_indices, random_jet, random_point, random_spectrum, resonant_positions
from srnf import germio, normal_form
from srnf.config import RunConfig
from srnf.errors import NotContracting, ValidationError
from srnf.homological import apply_M, split_homogeneous
from srnf.normal_form import (
    GermInput,
    conjugate_step,
    ingest,
    phi_numeric,
    poincare_dulac,
    pointwise_conjugacy_residual,
    verify_conjugacy,
)
from srnf.polymap import (
    HomogeneousPart,
    PolyJet,
    compose_truncated,
    homogeneous_part,
    jet_inverse,
)
from srnf.subresonance import SubResonantMap, certify_subresonant, sr_inverse

HOPF_GERM = PolyJet(2, 3, {
    ((1, 0), 0): 0.25, ((1, 1), 0): 1.0, ((0, 2), 0): 1.0,
    ((0, 1), 1): 0.5, ((2, 0), 1): 1.0,
})


def random_contracting_germ(rng, n, degree, *, diagonal=False, scale=0.5):
    spectrum = random_spectrum(rng, n, diagonal=diagonal, max_ratio=2.8)
    jet = random_jet(rng, n, degree, density=0.6, scale=scale,
                     invertible_linear=False)
    terms = {k: c for k, c in jet.terms.items() if sum(k[0]) >= 2}
    linear = PolyJet.from_linear(spectrum.T, 1)
    return spectrum, linear + PolyJet(n, degree, terms)


class TestConjugateStep:
    def test_zero_correction(self):
        out = conjugate_step(HOPF_GERM, HomogeneousPart.zero_part(2, 2), 3)
        assert out == HOPF_GERM

    def test_hand_1d_cancellation(self):
        # F = z/2 + z^2; the divisor is l^2 - l = -1/4, so f = -4 z^2
        # removes the quadratic term entirely
        F = PolyJet(1, 2, {((1,), 0): 0.5, ((2,), 0): 1.0})
        f = HomogeneousPart(1, 2, {((2,), 0): -4.0})
        out = conjugate_step(F, f, 2)
        assert out.coefficient((2,), 0) == pytest.approx(0.0, abs=1e-14)
        assert out.coefficient((1,), 0) == pytest.approx(0.5)

    def test_lower_degrees_untouched(self):
        F = PolyJet(1, 3, {((1,), 0): 0.5, ((2,), 0): 1.0, ((3,), 0): 1.0})
        f = HomogeneousPart(1, 3, {((3,), 0): -2.2})
        out = conjugate_step(F, f, 3)
        assert out.coefficient((2,), 0) == pytest.approx(1.0, abs=1e-14)
        assert out.coefficient((1,), 0) == pytest.approx(0.5)

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
        f_q = HomogeneousPart(n, q, terms)
        out = conjugate_step(F, f_q, q + 1)
        for d in range(1, q):
            gap = homogeneous_part(out, d).max_coeff_diff(homogeneous_part(F, d))
            assert gap < 1e-12
        expected = homogeneous_part(F, q) - apply_M(spectrum, f_q)
        got = homogeneous_part(out, q)
        assert got.max_coeff_diff(PolyJet(n, q, expected.terms)) < 1e-10


class TestPipeline:
    def test_linear_germ(self):
        T = np.diag([0.25, 0.5]).astype(complex)
        result = poincare_dulac(GermInput(jet=PolyJet.from_linear(T, 1)))
        assert result.normal_form.jet == PolyJet.from_linear(T, 1)
        assert result.phi == PolyJet.identity(2)
        assert result.residuals.coefficient_max == 0.0
        assert result.residuals.pointwise_max == 0.0

    def test_resonant_hopf_example(self):
        result = poincare_dulac(GermInput(jet=HOPF_GERM))
        P = result.normal_form.jet
        assert set(P.terms) == {((1, 0), 0), ((0, 1), 1), ((0, 2), 0)}
        assert abs(P.coefficient((0, 2), 0) - 1.0) < 1e-12
        assert P.coefficient((1, 0), 0) == 0.25
        assert P.coefficient((0, 1), 1) == 0.5
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

    def test_trunc_degree_below_minimum_rejected(self):
        with pytest.raises(ValidationError):
            poincare_dulac(GermInput(jet=HOPF_GERM), RunConfig(trunc_degree=2))

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

    def test_raising_trunc_degree_keeps_normal_form(self):
        # degrees above c0+1 have empty resonance sets: the conjugator gains
        # terms but the normal form does not change
        base = poincare_dulac(GermInput(jet=HOPF_GERM))
        refined = poincare_dulac(GermInput(jet=HOPF_GERM), RunConfig(trunc_degree=5))
        assert refined.normal_form.jet == base.normal_form.jet
        assert refined.phi.max_degree() > base.phi.max_degree()
        assert refined.residuals.coefficient_max < 1e-10

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
        assert any("small divisor" in w for w in result.warnings)

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
    spectrum, F, _ = ingest(germ, cfg)
    D = spectrum.c0 + 1
    current = F.truncated(D) if F.degree > D else PolyJet(F.n, D, F.terms)
    P = PolyJet.from_linear(spectrum.T, max(1, spectrum.degree_bound))
    for q in range(2, D + 1):
        split = split_homogeneous(spectrum, homogeneous_part(current, q),
                                  cfg.res_tol, cfg.sr_tol)
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
        result = poincare_dulac(GermInput(jet=HOPF_GERM), RunConfig(trunc_degree=5))
        assert result.residuals.coefficient_max < 1e-10
        germ = GermInput(jet=resonant_germ(np.random.default_rng(3), (4, 2, 1)))
        assert poincare_dulac(germ).residuals.coefficient_max < 1e-10

    @pytest.mark.parametrize("trunc_degree", [None, 5])
    def test_compositions_only_in_closing_residual(self, monkeypatch, trunc_degree):
        calls = []

        def counting(*args, **kwargs):
            calls.append((args[2], kwargs.get("prune")))
            return compose_truncated(*args, **kwargs)

        monkeypatch.setattr(normal_form, "compose_truncated", counting)
        result = poincare_dulac(GermInput(jet=HOPF_GERM), RunConfig(trunc_degree=trunc_degree))
        # the loop reads power tables; only the coefficient residual recomposes
        assert calls == [(result.trunc_degree, False)] * 2


class TestPhiNumeric:
    def test_normal_form_is_fixed(self):
        result = poincare_dulac(GermInput(jet=HOPF_GERM))
        P = result.normal_form
        z = np.array([0.02 + 0.01j, -0.03 + 0.005j])
        out = phi_numeric(P.jet, P, z)
        assert np.linalg.norm(out - z) < 1e-13

    def test_origin(self):
        result = poincare_dulac(GermInput(jet=HOPF_GERM))
        out = phi_numeric(HOPF_GERM, result.normal_form, np.zeros(2, dtype=complex))
        assert np.all(out == 0)

    def test_koenigs_functional_equation(self):
        F = PolyJet(1, 3, {((1,), 0): 0.5, ((2,), 0): 1.0})
        result = poincare_dulac(GermInput(jet=F))
        P = result.normal_form
        z = np.array([0.1 + 0j])
        left = phi_numeric(F, P, F.evaluate(z))
        right = P.jet.evaluate(phi_numeric(F, P, z))
        assert np.linalg.norm(left - right) < 1e-10

    def test_iteration_cap_raises(self):
        from srnf.errors import NoConvergence
        F = PolyJet(1, 3, {((1,), 0): 0.5, ((2,), 0): 1.0})
        result = poincare_dulac(GermInput(jet=F))
        with pytest.raises(NoConvergence) as info:
            phi_numeric(F, result.normal_form, np.array([0.1 + 0j]), p_max=2)
        assert info.value.last_gap is not None and info.value.last_gap > 0


class TestVerify:
    def test_linear_case_exact(self):
        T = np.diag([0.3, 0.6]).astype(complex)
        germ = GermInput(jet=PolyJet.from_linear(T, 1))
        result = poincare_dulac(germ)
        report = verify_conjugacy(germ, result)
        assert report.coefficient_max <= 1e-14
        assert report.polynomial_max <= 1e-14

    def test_hopf_example(self):
        germ = GermInput(jet=HOPF_GERM)
        result = poincare_dulac(germ)
        report = verify_conjugacy(germ, result)
        assert report.coefficient_max < 1e-10
        assert report.straightened_max < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_remainder_decay(self, seed):
        rng = np.random.default_rng(seed)
        spectrum, F = random_contracting_germ(rng, 2, 3)
        result = poincare_dulac(GermInput(jet=F))
        D = result.trunc_degree
        radius = min(0.1, 0.5 * result.contraction_radius)
        dirs = [random_point(np.random.default_rng(50 + k), 2, 1.0) for k in range(10)]

        def worst(r):
            return max(pointwise_conjugacy_residual(F, result.phi,
                                                    result.normal_form.jet, r * u)
                       for u in dirs)

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
    def test_report_equals_per_sample_loop(self, monkeypatch, name, seed, p_max, samples):
        germ = GermInput(jet=HOPF_GERM) if name == "hopf" else coupled_n3()
        cfg = RunConfig(seed=seed, p_max=p_max, sample_count=samples)
        result = poincare_dulac(germ, cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("verify_conjugacy drew samples or evaluated a residual again")

        # verify reads the samples and polynomial residuals of poincare_dulac's report
        monkeypatch.setattr(normal_form, "pointwise_conjugacy_residual", refuse)
        monkeypatch.setattr(normal_form, "_sample_points", refuse)
        report = verify_conjugacy(germ, result, cfg=cfg)
        poly_res, straightened, points, amplification = reference_verify(result, cfg)
        assert report.coefficient_max == result.residuals.coefficient_max
        assert report.polynomial_pointwise == poly_res
        assert report.straightened_pointwise == straightened
        assert report.sample_points == points
        assert report.amplification_estimate == amplification
        assert repr(report.straightened_pointwise) == repr(straightened)
        # the normal-form report's own residuals use the same points
        assert result.residuals.pointwise == poly_res
        assert result.residuals.pointwise_max == max(poly_res)
        assert result.residuals.pointwise_mean == float(np.mean(poly_res))

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
        values, stopped_at, gaps = normal_form._straightening_iterate(
            F, P_inv, Z, cfg.p_max, cfg.cauchy_tol, pullback=phi_inv)
        assert len(set(stopped_at)) > 3
        assert name == "hopf" or any(gap is not None for gap in gaps)
        for i, z in enumerate(Z):
            value, p, gap = reference_iterate(F, P_inv, z, cfg.p_max, cfg.cauchy_tol,
                                              pullback=phi_inv)
            assert values[i].tobytes() == value.tobytes()
            assert (stopped_at[i], gaps[i]) == (p, gap)

    def test_phi_numeric_is_one_row(self):
        F = HOPF_GERM
        P = poincare_dulac(GermInput(jet=F)).normal_form
        for z in reference_points(np.random.default_rng(5), 2, 0.01, 4):
            value, _, gap = reference_iterate(F, sr_inverse(P).jet, z, 60, 1e-12)
            assert gap is None
            assert phi_numeric(F, P, z).tobytes() == value.tobytes()

    def test_no_samples_no_inversions(self, monkeypatch):
        germ = GermInput(jet=HOPF_GERM)
        cfg = RunConfig(sample_count=0)
        result = poincare_dulac(germ, cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("an inverse was computed for an empty sample set")

        monkeypatch.setattr(normal_form, "jet_inverse", refuse)
        monkeypatch.setattr(normal_form, "sr_inverse", refuse)
        report = verify_conjugacy(germ, result, cfg=cfg)
        assert report.polynomial_pointwise == report.straightened_pointwise == ()
        assert report.sample_points == () and report.amplification_estimate == 1.0
