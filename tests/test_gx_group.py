import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_point, random_spectrum, random_sr_map
from srnf.errors import SingularLinearPart
from srnf.gx_group import (
    AnnulusCheck,
    GroupElement,
    group_inv,
    group_mul,
    hopf_holonomy,
    orbit,
    translate_conjugate,
)
from srnf.linalg import analyze_spectrum
from srnf.normal_form import GermInput
from srnf.polymap import PolyJet
from srnf.subresonance import SubResonantMap, certify_subresonant

QUARTER_HALF = analyze_spectrum(np.diag([0.25, 0.5]).astype(complex))

HOPF_GERM = PolyJet(2, 3, {
    ((1, 0), 0): 0.25, ((1, 1), 0): 1.0, ((0, 2), 0): 1.0,
    ((0, 1), 1): 0.5, ((2, 0), 1): 1.0,
})


def certified(jet, spectrum=QUARTER_HALF):
    out = certify_subresonant(jet, spectrum)
    assert isinstance(out, SubResonantMap)
    return out


def random_element(rng, spectrum, tau_scale=0.8):
    tau = tau_scale * (rng.normal(size=spectrum.n) + 1j * rng.normal(size=spectrum.n))
    jet = random_sr_map(rng, spectrum)
    return GroupElement(tau=tau, h=certified(jet, spectrum))


RESONANT_H = PolyJet(2, 2, {((1, 0), 0): 0.25, ((0, 2), 0): 1.0, ((0, 1), 1): 0.5})


class TestTranslateConjugate:
    def test_zero_translation(self):
        h = certified(RESONANT_H)
        assert translate_conjugate(h, np.zeros(2)) == h

    def test_identity_map(self):
        ident = certified(PolyJet.identity(2))
        out = translate_conjugate(ident, np.array([0.3, -0.7j]))
        assert out == ident

    def test_hand_binomial(self):
        # h = (z1/4 + z2^2, z2/2), tau = (0, t):
        # h(z + tau) - h(tau) = (z1/4 + z2^2 + 2t z2, z2/2)
        t = 0.3
        h = certified(RESONANT_H)
        out = translate_conjugate(h, np.array([0.0, t]))
        assert out.jet.coefficient((0, 1), 0) == pytest.approx(2 * t)
        assert out.jet.coefficient((0, 2), 0) == pytest.approx(1.0)
        assert out.jet.coefficient((1, 0), 0) == pytest.approx(0.25)
        assert out.jet.coefficient((0, 1), 1) == pytest.approx(0.5)
        assert len(out.jet.terms) == 4


class TestGroupLaw:
    def test_translations_subgroup(self):
        s = QUARTER_HALF
        t1 = GroupElement(tau=np.array([1.0, 2.0j]), h=certified(PolyJet.identity(2)))
        t2 = GroupElement(tau=np.array([0.5, -1.0]), h=certified(PolyJet.identity(2)))
        out = group_mul(t1, t2)
        assert np.allclose(out.tau, t1.tau + t2.tau)
        assert out.h.jet == PolyJet.identity(2)

    def test_pure_maps_subgroup(self):
        from srnf.subresonance import sr_compose
        h1 = certified(RESONANT_H)
        h2 = certified(PolyJet(2, 2, {((1, 0), 0): 0.5, ((0, 1), 0): 1.0,
                                      ((0, 1), 1): 0.9}))
        g1 = GroupElement(tau=np.zeros(2), h=h1)
        g2 = GroupElement(tau=np.zeros(2), h=h2)
        out = group_mul(g1, g2)
        assert np.all(out.tau == 0)
        assert out.h == sr_compose(h1, h2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_pointwise_law(self, seed, n):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        g1, g2 = random_element(rng, s), random_element(rng, s)
        product = group_mul(g1, g2)
        for _ in range(20):
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            z /= max(1.0, np.max(np.abs(z)))  # inside the unit polydisk
            gap = np.linalg.norm(product.evaluate(z) - g1.evaluate(g2.evaluate(z)))
            assert gap < 1e-10 * max(1.0, np.linalg.norm(g1.evaluate(g2.evaluate(z))))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_associativity(self, seed, n):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        g1, g2, g3 = (random_element(rng, s) for _ in range(3))
        left = group_mul(group_mul(g1, g2), g3)
        right = group_mul(g1, group_mul(g2, g3))
        assert left.coeff_distance(right) < 1e-9

    def test_identity_laws(self):
        rng = np.random.default_rng(3)
        s = random_spectrum(rng, 2)
        g = random_element(rng, s)
        e = GroupElement.identity(s)
        assert group_mul(g, e) == g
        assert group_mul(e, g) == g


class TestInverse:
    @pytest.mark.parametrize("scale", [0.0, 1e-13])
    def test_singular_map_part_rejected(self, scale):
        jet = PolyJet(2, 2, {((1, 0), 0): 0.25, ((0, 1), 1): scale, ((0, 2), 0): 1.0})
        with pytest.raises(SingularLinearPart):
            GroupElement(tau=np.zeros(2), h=certified(jet))

    def test_translation_inverse(self):
        tau = np.array([0.7, -0.2j])
        g = GroupElement(tau=tau, h=certified(PolyJet.identity(2)))
        out = group_inv(g)
        assert np.allclose(out.tau, -tau, atol=1e-14)
        assert out.h.jet == PolyJet.identity(2)

    def test_pure_map_inverse(self):
        from srnf.subresonance import sr_inverse
        h = certified(RESONANT_H)
        g = GroupElement(tau=np.zeros(2), h=h)
        out = group_inv(g)
        assert np.all(out.tau == 0)
        assert out.h == sr_inverse(h)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_two_sided_inverse(self, seed, n):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        g = random_element(rng, s)
        e = GroupElement.identity(s)
        assert group_mul(g, group_inv(g)).coeff_distance(e) < 1e-10
        assert group_mul(group_inv(g), g).coeff_distance(e) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_affine_elements_normalize_translations(self, seed, n):
        # with a linear map part the conjugate of a translation is the
        # translation by the image vector; nonlinear map parts break this
        # (see test_acceptance.py for the recorded counterexample)
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        element = random_element(rng, s)
        linear = GroupElement(tau=element.tau,
                              h=certified(PolyJet.from_linear(element.h.linear_part(), 1), s))
        tau = rng.normal(size=n) + 1j * rng.normal(size=n)
        pure = GroupElement(tau=tau, h=GroupElement.identity(s).h)
        conj = group_mul(group_mul(linear, pure), group_inv(linear))
        ident = PolyJet.identity(n)
        assert conj.h.jet.max_coeff_diff(ident) < 1e-10
        assert np.allclose(conj.tau, linear.h.evaluate(tau), atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_conjugated_translation_stays_in_group(self, seed, n):
        # the conjugate g t g^{-1} is generally not a translation, but it
        # remains a certified group element whose translation part is the
        # image of tau under the pure map part of g
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        h = certified(random_sr_map(rng, s), s)
        g = GroupElement(tau=np.zeros(n, dtype=complex), h=h)
        tau = rng.normal(size=n) + 1j * rng.normal(size=n)
        pure = GroupElement(tau=tau, h=GroupElement.identity(s).h)
        conj = group_mul(group_mul(g, pure), group_inv(g))
        assert isinstance(conj.h, SubResonantMap)
        assert np.allclose(conj.tau, h.evaluate(tau), atol=1e-9)


class TestHolonomy:
    def test_linear_germ(self):
        T = np.diag([0.5, 0.5]).astype(complex)
        generator, result = hopf_holonomy(GermInput(jet=PolyJet.from_linear(T, 1)))
        assert np.all(generator.tau == 0)
        assert generator.h.jet == PolyJet.from_linear(T, 1)

    def test_resonant_example(self):
        generator, result = hopf_holonomy(GermInput(jet=HOPF_GERM))
        assert generator.h.jet == PolyJet(2, 2, {((1, 0), 0): 0.25,
                                                 ((0, 2), 0): 1.0,
                                                 ((0, 1), 1): 0.5})

    def test_non_adapted_input(self):
        theta = 0.4
        U = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]], dtype=complex)
        from srnf.polymap import linear_conjugate
        rotated = linear_conjugate(HOPF_GERM, U.conj().T, 3)
        generator, result = hopf_holonomy(
            GermInput(jet=rotated, coordinates="original"))
        assert np.allclose(np.abs(np.diag(result.spectrum.T)), [0.25, 0.5], atol=1e-10)
        assert not np.allclose(result.basis_change, np.eye(2))


class TestOrbit:
    def test_fixed_point(self):
        g = GroupElement(tau=np.zeros(2), h=certified(RESONANT_H))
        points, diag = orbit(g, np.zeros(2), 5)
        assert np.all(points == 0)

    def test_hand_iteration(self):
        g = GroupElement(tau=np.zeros(2), h=certified(RESONANT_H))
        points, _ = orbit(g, np.array([0.0, 1.0]), 3)
        assert np.allclose(points[1], [1.0, 0.5])
        assert np.allclose(points[2], [0.5, 0.25])
        assert np.allclose(points[3], [0.1875, 0.125])

    def test_linear_norms_exact(self):
        s = analyze_spectrum(np.diag([0.5, 0.5]).astype(complex))
        g = GroupElement(tau=np.zeros(2), h=certified(PolyJet.from_linear(s.T, 1), s))
        z = np.array([0.6, 0.8], dtype=complex)
        points, diag = orbit(g, z, 6)
        for k, norm in enumerate(diag.norms):
            assert norm == 2.0 ** (-k) * 1.0

    def test_contraction_diagnostics(self):
        generator, result = hopf_holonomy(GermInput(jet=HOPF_GERM))
        z = 0.5 * result.contraction_radius * np.array([1.0, 1.0]) / np.sqrt(2)
        points, diag = orbit(generator, z, 12, ball_radius=result.contraction_radius)
        assert diag.entered_ball_at == 0
        assert diag.ratio_certified
        assert all(r <= diag.ratio_bound for r in diag.ratios_after_entry)

    def test_annulus_separation(self):
        # ratio bound (1 + 0.5)/2 = 0.75, so 0.75 * R < r certifies
        s = analyze_spectrum(np.diag([0.4, 0.5]).astype(complex))
        g = GroupElement(tau=np.zeros(2), h=certified(PolyJet.from_linear(s.T, 1), s))
        _, diag = orbit(g, np.array([0.8, 0.5]), 2, annulus=(0.76, 1.0))
        assert diag.annulus.certified
        assert diag.annulus.separated
        assert diag.annulus.max_image_norm <= 0.5 + 1e-12

    @pytest.mark.parametrize("samples", [0, 1, 64])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_annulus_batch_equals_per_sample_loop(self, samples, seed):
        generator, result = hopf_holonomy(GermInput(jet=HOPF_GERM))
        rng = np.random.default_rng(seed)
        shifted = GroupElement(tau=0.01 * (rng.normal(size=2) + 1j * rng.normal(size=2)),
                               h=generator.h)
        inner, outer = 0.5 * result.contraction_radius, result.contraction_radius
        for g in (generator, shifted):
            _, diag = orbit(g, np.array([0.01, 0.02]), 3, annulus=(inner, outer),
                            annulus_samples=samples, seed=seed)
            draw = np.random.default_rng(seed)
            worst = 0.0
            for _ in range(samples):
                direction = draw.normal(size=2) + 1j * draw.normal(size=2)
                direction /= np.linalg.norm(direction)
                radius = draw.uniform(inner, outer)
                worst = max(worst, float(np.linalg.norm(g.evaluate(radius * direction))))
            assert diag.annulus == AnnulusCheck(
                inner=inner, outer=outer, max_image_norm=worst, separated=worst < inner,
                certified=diag.ratio_bound * outer < inner)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_holonomy_orbit_decay(self, seed):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, 2, diagonal=True)
        terms = dict(PolyJet.from_linear(s.T, 1).terms)
        from srnf.subresonance import enumerate_subresonant_basis
        for q in range(2, s.degree_bound + 1):
            for key in enumerate_subresonant_basis(s, q):
                if rng.random() < 0.5:
                    terms[key] = 0.4 * complex(rng.normal(), rng.normal())
        germ = GermInput(jet=PolyJet(2, max(1, s.degree_bound), terms))
        generator, result = hopf_holonomy(germ)
        r0 = result.contraction_radius
        if r0 <= 0:
            return
        z = random_point(rng, 2, 0.9 * r0)
        points, diag = orbit(generator, z, 15, ball_radius=r0)
        bound = diag.ratio_bound
        for k, norm in enumerate(diag.norms):
            assert norm <= r0 * bound ** k * (1 + 1e-9)
