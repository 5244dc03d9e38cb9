import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    block_of,
    canonical_key,
    coefficient,
    divisors_separated,
    multi_indices,
    naive_compose,
    random_jet,
    random_spectrum,
    random_sr_map,
)
from srnf import subresonance
from srnf.cli import main
from srnf.errors import (
    CertificationFailure,
    SingularLinearPart,
    SpectrumMismatch,
    ValidationError,
)
from srnf.germio import parse_germ_document
from srnf.linalg import analyze_spectrum
from srnf.normal_form import poincare_dulac
from srnf.polymap import PolyJet, jet_inverse
from srnf.subresonance import (
    certify_subresonant,
    enumerate_subresonant_basis,
    sr_compose,
    sr_inverse,
    subresonant_offenders,
)

QUARTER_HALF = analyze_spectrum(np.diag([0.25, 0.5]).astype(complex))


def certified(jet, spectrum):
    return certify_subresonant(jet, spectrum, "test map")


def monomial_type(index, spectrum) -> tuple[int, ...]:
    """Block-grouped exponent profile of a monomial, read from ``spectrum.blocks``."""
    return tuple(sum(index[k] for k in block) for block in spectrum.blocks)


def block_triangular(A, spectrum) -> bool:
    """Whether ``A`` is block upper triangular in the modulus-block partition,
    its entries compared to exact zero."""
    blocks = block_of(spectrum)
    return all(blocks[j] <= blocks[k] for j, k in zip(*np.nonzero(A)))


def linear_certified(A, spectrum) -> bool:
    return not subresonant_offenders(PolyJet.from_linear(A), spectrum)


class TestMonomialType:
    def test_singleton_blocks(self):
        assert monomial_type((0, 2), QUARTER_HALF) == (0, 2)

    def test_grouping(self):
        s = analyze_spectrum(np.diag([0.3, 0.3, 0.6]).astype(complex))
        assert s.blocks == ((0, 1), (2,))
        assert monomial_type((1, 1, 1), s) == (2, 1)

    def test_unit_vector(self):
        s = analyze_spectrum(np.diag([0.3, 0.3, 0.6]).astype(complex))
        blocks = block_of(s)
        for k in range(3):
            index = tuple(1 if i == k else 0 for i in range(3))
            expected = tuple(1 if b == blocks[k] else 0 for b in range(len(s.blocks)))
            assert monomial_type(index, s) == expected


class TestMonomialPredicate:
    """A monomial is sub-resonant when it is in its degree's sub-resonant basis."""

    def test_resonant_equality_case(self):
        # ln(1/4) = 2 ln(1/2): equality must classify as sub-resonant
        assert ((0, 2), 0) in enumerate_subresonant_basis(QUARTER_HALF, 2)

    def test_reverse_fails(self):
        assert ((1, 0), 1) not in enumerate_subresonant_basis(QUARTER_HALF, 1)

    def test_diagonal_linear_always_passes(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = random_spectrum(rng, 3)
            basis = enumerate_subresonant_basis(s, 1)
            for j in range(3):
                index = tuple(1 if i == j else 0 for i in range(3))
                assert (index, j) in basis

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3), st.integers(1, 5))
    def test_equivalent_block_form(self, seed, n, degree):
        # grouping exponents by block changes nothing: moduli are
        # block-constant, so both weighted sums agree
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        basis = enumerate_subresonant_basis(s, degree)
        block_logs = [s.log_moduli[block[0]] for block in s.blocks]
        for index in multi_indices(n, degree):
            weight = sum(p * log for p, log in zip(monomial_type(index, s), block_logs))
            for j in range(n):
                block_form = s.log_moduli[j] <= weight + 1e-9
                assert block_form == ((index, j) in basis)


def plain_subresonant(index, comp, log_moduli, tol=1e-9):
    """``ln|l_comp| <= sum_k i_k ln|l_k| + tol`` in plain Python floats, one
    position at a time."""
    weight = 0.0
    for e, value in zip(index, log_moduli):
        weight += e * value
    return log_moduli[comp] <= weight + tol


def resonant_spectrum(rng, n):
    """Diagonal spectrum whose moduli include exact products ``l^k`` of the
    first ones: at those positions only the one-sided slack decides."""
    free = (n + 1) // 2
    moduli = list(rng.uniform(0.35, 0.95, size=free))
    while len(moduli) < n:
        k = rng.integers(0, 3, size=free)
        if k.sum() >= 2:
            moduli.append(float(np.prod(np.array(moduli[:free]) ** k)))
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    return analyze_spectrum(np.diag(np.sort(moduli) * phases))


class TestMask:
    """Enumeration and certification agree with the inequality evaluated
    position by position."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8), st.sampled_from(["random", "resonant"]))
    def test_callers_agree_with_plain_loop(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        if kind == "random":
            s = random_spectrum(rng, n, qmax=3, diagonal=True)
        else:
            s = resonant_spectrum(rng, n)
        logs = s.log_moduli.tolist()
        degree = 3 if n <= 5 else 2
        for r in range(1, degree + 1):
            positions = [(index, comp) for index in multi_indices(n, r) for comp in range(n)]
            expected = [key for key in positions if plain_subresonant(*key, logs)]
            assert enumerate_subresonant_basis(s, r) == tuple(sorted(expected, key=canonical_key))
        jet = random_jet(rng, n, degree, density=0.3, invertible_linear=False)
        offenders = [key for key in jet.terms if not plain_subresonant(*key, logs)]
        assert subresonant_offenders(jet, s) == sorted(
            offenders, key=lambda key: (sum(key[0]), canonical_key(key)))

    def test_boundary_is_sub_resonant(self):
        # ln|l_2| = ln|l_1| + SR_TOL puts z1 e2 exactly on the boundary
        for r in np.linspace(0.5, 0.9, 401):
            s = analyze_spectrum(np.diag([r, r * np.exp(subresonance.SR_TOL)]))
            if s.log_moduli[0] + subresonance.SR_TOL == s.log_moduli[1]:
                break
        assert s.log_moduli[0] + subresonance.SR_TOL == s.log_moduli[1]
        assert ((1, 0), 1) in enumerate_subresonant_basis(s, 1)
        assert subresonant_offenders(PolyJet(2, 1, {((1, 0), 1): 1.0}), s) == []

    def test_slack_keeps_an_exact_resonance_that_rounding_breaks(self):
        # |l_1| = |l_2|^3, but the rounded ln|l_1| lies above 3 ln|l_2|
        for r in np.linspace(0.5, 0.9, 401):
            s = analyze_spectrum(np.diag([r ** 3, r]))
            if s.log_moduli[0] > 3 * s.log_moduli[1]:
                break
        assert s.log_moduli[0] > 3 * s.log_moduli[1]
        assert enumerate_subresonant_basis(s, 3) == (((0, 3), 0),)
        assert subresonant_offenders(PolyJet(2, 3, {((0, 3), 0): 1.0}), s) == []


class TestDegreeBound:
    """``degree_bound`` is the largest degree with a sub-resonant monomial, by
    the one test ``_subresonant_mask`` makes, also where the ratio
    ``ln|l_1| / ln|l_n|`` misses an integer by less than the test's slack."""

    @pytest.mark.parametrize("modulus", [0.5, 0.9, 0.999])
    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("offset", [0, 1e-12, -1e-12, 1e-10, -1e-10, 5e-7, -5e-7])
    def test_the_basis_ends_at_the_bound(self, modulus, k, offset):
        s = analyze_spectrum(np.diag([modulus ** (k + offset), modulus]).astype(complex))
        assert enumerate_subresonant_basis(s, s.degree_bound) != ()
        assert enumerate_subresonant_basis(s, s.degree_bound + 1) == ()
        assert s.c0 >= s.degree_bound and s.c0 - (k + offset) < 1

    def test_boundaries_the_closed_form_rounds_apart(self):
        # ln|l_1| a few ulps either side of k ln|l_2| + SR_TOL, where the closed
        # form floor(ratio + slack) and the mask disagree in some cases
        rng = np.random.default_rng(3)
        for modulus in rng.uniform(0.05, 0.999, 40):
            high = np.log(modulus)
            for k in (2, 3, 4):
                edge = k * high + subresonance.SR_TOL
                for low in [edge, *np.nextafter(edge, [0, -1]),
                            edge + 4e-16 * high, edge - 4e-16 * high]:
                    s = analyze_spectrum(np.diag([np.exp(low), modulus]).astype(complex))
                    assert enumerate_subresonant_basis(s, s.degree_bound) != ()
                    assert enumerate_subresonant_basis(s, s.degree_bound + 1) == ()

    def test_a_germ_with_a_near_integer_ratio_verifies(self, tmp_path, capsys):
        # l_1 = 0.999^(3 - 5e-7): z2^3 e1 is sub-resonant within the slack, so P
        # keeps it, and degree_bound 3 lets the composition check keep it too
        l2 = 0.999
        terms = [((1, 0), 1, l2 ** (3 - 5e-7)), ((0, 1), 2, l2), ((0, 3), 1, 0.3),
                 ((0, 2), 1, 0.1), ((1, 1), 1, 0.2)]
        path = tmp_path / "germ.json"
        path.write_text(json.dumps({"dimension": 2, "degree": 4, "coordinates": "adapted",
                                    "terms": [{"exponents": e, "component": c, "coeff": [v, 0]}
                                              for e, c, v in terms]}))
        assert main(["normal-form", str(path)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["spectrum"]["degree_bound"] == 3
        assert any(t["exponents"] == [0, 3] for t in result["normal_form"]["terms"])
        # the straightening contracts by about 0.999 a step: 60 steps are too few
        assert main(["verify", str(path), "--p-max", "200"]) == 0
        assert json.loads(capsys.readouterr().out)["straightened_max"] < 1e-10


class TestEnumerate:
    def test_degree_one(self):
        basis = enumerate_subresonant_basis(QUARTER_HALF, 1)
        assert set(basis) == {((1, 0), 0), ((0, 1), 0), ((0, 1), 1)}

    def test_degree_two(self):
        assert enumerate_subresonant_basis(QUARTER_HALF, 2) == (((0, 2), 0),)

    def test_degree_three_empty(self):
        assert enumerate_subresonant_basis(QUARTER_HALF, 3) == ()

    def test_canonical_order(self):
        basis = enumerate_subresonant_basis(QUARTER_HALF, 1)
        assert basis == (((0, 1), 0), ((0, 1), 1), ((1, 0), 0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_degree_bound_and_block_vanishing(self, seed, n):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        for r in range(s.degree_bound + 1, s.degree_bound + 3):
            assert enumerate_subresonant_basis(s, r) == ()
        blocks = block_of(s)
        for r in range(1, s.c0 + 2):
            for index, comp in enumerate_subresonant_basis(s, r):
                for k, e in enumerate(index):
                    if e > 0:
                        assert blocks[k] >= blocks[comp]


class TestCertify:
    def test_linear_part_itself(self):
        jet = PolyJet.from_linear(QUARTER_HALF.T)
        assert certify_subresonant(jet, QUARTER_HALF, "test map").jet is jet

    def test_resonant_map(self):
        jet = PolyJet(2, 2, {((1, 0), 0): 0.25, ((0, 2), 0): 1.0, ((0, 1), 1): 0.5})
        assert certify_subresonant(jet, QUARTER_HALF, "test map").jet is jet

    def test_offender_reported(self):
        jet = PolyJet(2, 2, {((1, 0), 0): 0.25, ((0, 1), 1): 0.5, ((2, 0), 1): 1.0})
        message = r"^test map: map is not sub-resonant .*: \[\(\(2, 0\), 1\)\]$"
        with pytest.raises(CertificationFailure, match=message) as info:
            certify_subresonant(jet, QUARTER_HALF, "test map")
        assert info.value.offenders == (((2, 0), 1),)

    def test_error_type_and_first_four_offenders(self):
        # every nonlinear term of e2 fails: the message names four, the error holds all five
        jet = PolyJet(2, 3, {((1, 0), 0): 0.25, ((0, 1), 1): 0.5, ((2, 0), 1): 1.0,
                             ((3, 0), 1): 1.0, ((2, 1), 1): 1.0, ((1, 2), 1): 1.0,
                             ((1, 1), 1): 1.0})
        offenders = subresonant_offenders(jet, QUARTER_HALF)
        assert len(offenders) == 5
        with pytest.raises(ValidationError) as info:
            certify_subresonant(jet, QUARTER_HALF, "'map'", ValidationError)
        assert str(info.value).endswith(f"offenders: {offenders[:4]}...")
        assert info.value.offenders == tuple(offenders)


class TestCompose:
    def test_identity(self):
        h = certified(PolyJet(2, 2, {((1, 0), 0): 0.25, ((0, 2), 0): 1.0,
                                     ((0, 1), 1): 0.5}), QUARTER_HALF)
        ident = certified(PolyJet.identity(2), QUARTER_HALF)
        assert sr_compose(h, ident) == h
        assert sr_compose(ident, h) == h

    def test_hand_self_composition(self):
        # h o h for h = (z1/4 + z2^2, z2/2) is (z1/16 + z2^2/2, z2/4)
        h = certified(PolyJet(2, 2, {((1, 0), 0): 0.25, ((0, 2), 0): 1.0,
                                     ((0, 1), 1): 0.5}), QUARTER_HALF)
        out = sr_compose(h, h)
        assert coefficient(out.jet, (1, 0), 0) == pytest.approx(1 / 16)
        assert coefficient(out.jet, (0, 2), 0) == pytest.approx(1 / 2)
        assert coefficient(out.jet, (0, 1), 1) == pytest.approx(1 / 4)
        assert len(out.jet.terms) == 3

    def test_spectrum_mismatch(self):
        other = analyze_spectrum(np.diag([0.2, 0.5]).astype(complex))
        a = certified(PolyJet.identity(2), QUARTER_HALF)
        b = certified(PolyJet.identity(2), other)
        with pytest.raises(SpectrumMismatch):
            sr_compose(a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_closure(self, seed, n):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        F = certified(random_sr_map(rng, s), s)
        G = certified(random_sr_map(rng, s), s)
        out = sr_compose(F, G)  # raises CertificationFailure on any violation
        assert out.jet.max_degree() <= s.degree_bound


class TestInverse:
    def test_identity(self):
        ident = certified(PolyJet.identity(2), QUARTER_HALF)
        assert sr_inverse(ident) == ident

    def test_hand_example(self):
        # inverse of (z1/4 + z2^2, z2/2) is (4 w1 - 16 w2^2, 2 w2)
        h = certified(PolyJet(2, 2, {((1, 0), 0): 0.25, ((0, 2), 0): 1.0,
                                     ((0, 1), 1): 0.5}), QUARTER_HALF)
        inv = sr_inverse(h)
        assert coefficient(inv.jet, (1, 0), 0) == pytest.approx(4.0)
        assert coefficient(inv.jet, (0, 2), 0) == pytest.approx(-16.0)
        assert coefficient(inv.jet, (0, 1), 1) == pytest.approx(2.0)
        ident = PolyJet.identity(2)
        assert sr_compose(h, inv).jet.max_coeff_diff(ident) < 1e-12
        assert sr_compose(inv, h).jet.max_coeff_diff(ident) < 1e-12

    def test_linear_diagonal(self):
        L = certified(PolyJet.from_linear(QUARTER_HALF.T), QUARTER_HALF)
        inv = sr_inverse(L)
        assert np.allclose(inv.jet.linear_part(), np.diag([4.0, 2.0]), atol=1e-14)

    def test_singular_linear_part(self):
        jet = PolyJet(2, 2, {((1, 0), 0): 1.0, ((0, 2), 0): 1.0})
        h = certified(jet, QUARTER_HALF)
        with pytest.raises(SingularLinearPart):
            sr_inverse(h)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_group_axioms(self, seed, n):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        F = certified(random_sr_map(rng, s), s)
        inv = sr_inverse(F)
        ident = PolyJet.identity(n)
        assert sr_compose(F, inv).jet.max_coeff_diff(ident) < 1e-10
        assert sr_compose(inv, F).jet.max_coeff_diff(ident) < 1e-10
        assert inv.jet.max_degree() <= s.degree_bound
        assert sr_inverse(inv).jet.max_coeff_diff(F.jet) < 1e-9


def block_spectrum(rng: np.random.Generator):
    """Adapted spectrum of one to three equal-modulus blocks of size 2-3 (n <= 6)."""
    for _ in range(500):
        sizes = rng.integers(2, 4, size=rng.integers(1, 4))
        if sizes.sum() > 6:
            continue
        top_log = np.log(rng.uniform(0.45, 0.7))
        block_logs = [top_log]
        if len(sizes) > 1:  # the extreme blocks realise the drawn ratio
            low_log = rng.uniform(1.15, 3.4) * top_log
            block_logs = np.sort(np.concatenate(
                [[low_log], rng.uniform(low_log, top_log, len(sizes) - 2), [top_log]]))
        moduli = np.repeat(np.exp(block_logs), sizes)
        diag = moduli * np.exp(2j * np.pi * rng.random(len(moduli)))
        if not divisors_separated(diag, 4):
            continue
        T = np.diag(diag) + np.triu(0.3 * (rng.normal(size=(len(diag),) * 2)
                                           + 1j * rng.normal(size=(len(diag),) * 2)), 1)
        return analyze_spectrum(T)
    raise RuntimeError("could not draw an acceptable block spectrum")


def full_block_sr_map(rng: np.random.Generator, spectrum):
    """Random sub-resonant map whose linear part fills every diagonal block."""
    n, blocks = spectrum.n, block_of(spectrum)
    jet = random_sr_map(rng, spectrum)
    terms = dict(jet.terms)
    for j in range(n):
        for k in range(n):
            if blocks[j] == blocks[k]:
                index = tuple(int(i == k) for i in range(n))
                terms[(index, j)] = (2.0 if j == k else 0.5) * complex(rng.normal(), rng.normal())
    return PolyJet(n, jet.degree, terms)


def abs_jet(jet):
    return PolyJet(jet.n, jet.degree, {key: abs(c) for key, c in jet.terms.items()})


def check_inverse(F):
    """``sr_inverse(F)`` is certified, block triangular with exact zeros below the
    blocks, and inverts ``F`` on both sides by the test-side composition."""
    s = F.spectrum
    inv = sr_inverse(F)
    assert not subresonant_offenders(inv.jet, s)
    assert inv.jet.max_degree() <= s.degree_bound
    assert block_triangular(inv.jet.linear_part(), s)
    identity = PolyJet.identity(s.n).terms
    cap = max(1, s.degree_bound) ** 2
    for f, g in ((F.jet, inv.jet), (inv.jet, F.jet)):
        composed = naive_compose(f, g, cap)
        # relative to the size of the summands of the composition
        scale = max(abs(v) for v in naive_compose(abs_jet(f), abs_jet(g), cap).values())
        gap = max(abs(composed.get(key, 0j) - identity.get(key, 0j))
                  for key in set(composed) | set(identity))
        assert gap <= 1e-12 * scale


class TestInverseIdentity:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_random_sr_maps(self, seed, n):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        check_inverse(certified(random_sr_map(rng, s), s))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_full_equal_modulus_blocks(self, seed):
        rng = np.random.default_rng(seed)
        s = block_spectrum(rng)
        assert all(2 <= len(block) <= 3 for block in s.blocks)
        F = certified(full_block_sr_map(rng, s), s)
        check_inverse(F)


class TestInverseChecks:
    # inverse of (z1/4 + z2^2, z2/2) is (4 w1 - 16 w2^2, 2 w2)
    MAP = PolyJet(2, 2, {((1, 0), 0): 0.25, ((0, 2), 0): 1.0, ((0, 1), 1): 0.5})
    INVERSE = {((1, 0), 0): 4.0, ((0, 2), 0): -16.0, ((0, 1), 1): 2.0}

    def patched_inverse(self, monkeypatch, terms):
        monkeypatch.setattr(subresonance, "jet_inverse",
                            lambda f, degree: PolyJet(2, degree, terms))
        return certified(self.MAP, QUARTER_HALF)

    def test_exact_inverse_passes(self, monkeypatch):
        h = self.patched_inverse(monkeypatch, self.INVERSE)
        assert sr_inverse(h).jet == PolyJet(2, 2, self.INVERSE)

    def test_non_subresonant_jet_raises(self, monkeypatch):
        h = self.patched_inverse(monkeypatch, {**self.INVERSE, ((2, 0), 1): 1e-3})
        with pytest.raises(CertificationFailure) as info:
            sr_inverse(h)
        assert info.value.offenders == (((2, 0), 1),)

    @pytest.mark.parametrize("error", [1e-6, 1.0])
    def test_nonlinear_residue_raises(self, monkeypatch, error):
        h = self.patched_inverse(monkeypatch, {**self.INVERSE, ((0, 2), 0): -16.0 + error})
        with pytest.raises(CertificationFailure, match="nonlinear residue"):
            sr_inverse(h)


# Resonant n = 2 germ with l_1 = l_2^7, |l_2| = 0.6 and couplings 0.3: its
# normal form P has max|P| = 1.1e5 and max|P^-1| = 1.5e8, so P o P^-1 rounds
# to nonlinear residues of 2.3e-10, above the absolute _EXCESS_TOL.
LARGE_GERM = Path(__file__).parent / "data" / "resonant_n2_c7.json"


class TestInverseOfLargeMap:
    @pytest.fixture(scope="class")
    def P(self):
        germ = parse_germ_document(json.loads(LARGE_GERM.read_text(encoding="utf-8")))
        return poincare_dulac(germ).normal_form

    def test_rounding_residue_passes(self, P):
        inv = sr_inverse(P)
        residue = max(abs(c) for key, c in sr_compose(P, inv).jet.terms.items()
                      if sum(key[0]) > 1)
        assert residue > subresonance._EXCESS_TOL  # the relative stage decided
        assert inv.jet.max_coeff_diff(jet_inverse(P.jet, P.spectrum.degree_bound)) == 0

    def test_perturbed_coefficient_raises(self, P, monkeypatch):
        exact = jet_inverse(P.jet, P.spectrum.degree_bound)
        key = max((k for k in exact.terms if sum(k[0]) > 1), key=lambda k: abs(exact.terms[k]))
        terms = {**exact.terms, key: exact.terms[key] * (1 + 1e-6)}
        monkeypatch.setattr(subresonance, "jet_inverse",
                            lambda f, degree: PolyJet(f.n, degree, terms))
        with pytest.raises(CertificationFailure, match="nonlinear residue"):
            sr_inverse(P)

    def test_cli_verify_writes_a_report(self, capsys):
        code = main(["verify", str(LARGE_GERM)])
        report = json.loads(capsys.readouterr().out)
        assert "error" not in report
        # samples whose straightening does not stabilize by p_max are null, exit 3
        assert code == (3 if None in report["straightened_pointwise"] else 0)
        assert report["straightened_max"] < 1e-9


class TestLinearFlag:
    """A linear map is certified exactly when it is block upper triangular."""

    def test_diagonal_true(self):
        assert linear_certified(np.diag([3.0, 7.0]), QUARTER_HALF)

    def test_lower_entry_false(self):
        A = np.array([[0.25, 0.0], [1.0, 0.5]], dtype=complex)
        assert not linear_certified(A, QUARTER_HALF)
        assert not block_triangular(A, QUARTER_HALF)

    def test_upper_entry_true(self):
        A = np.array([[0.25, 1.0], [0.0, 0.5]], dtype=complex)
        assert linear_certified(A, QUARTER_HALF)
        assert block_triangular(A, QUARTER_HALF)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_agrees_with_certification(self, seed, n):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        A = np.zeros((n, n), dtype=complex)
        for j in range(n):
            for k in range(n):
                if rng.random() < 0.6:
                    A[j, k] = rng.normal() + 1j * rng.normal()
        assert block_triangular(A, s) == linear_certified(A, s)
