import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_jet, random_point, random_sr_map
from srnf import germio
from srnf.gx_group import translate_conjugate
from srnf.errors import DegreeOutOfRange, DimensionMismatch, SingularLinearPart
from srnf.polymap import (
    PRUNE_REL_TOL,
    HomogeneousPart,
    PolyJet,
    _PowerTable,
    _prune_terms,
    basis_ordering,
    compose_truncated,
    homogeneous_part,
    jet_inverse,
    linear_conjugate,
)
from srnf.linalg import analyze_spectrum
from srnf.normal_form import poincare_dulac
from srnf.subresonance import certify_subresonant, subresonant_offenders

DATA = Path(__file__).parent / "data"


def jet1d(degree, **coeffs):
    """1-d jet from {power: coefficient}."""
    return PolyJet(1, degree, {((int(p),), 0): c for p, c in coeffs.items()})


class TestEvaluate:
    def test_identity(self):
        ident = PolyJet.identity(2)
        assert np.array_equal(ident.evaluate([1.0, 2.0]), np.array([1.0 + 0j, 2.0 + 0j]))

    def test_hand_1d(self):
        # f(z) = z/2 + z^2 at z = 1 gives 1.5
        f = jet1d(2, **{"1": 0.5, "2": 1.0})
        assert f.evaluate([1.0])[0] == pytest.approx(1.5)

    def test_origin_fixed(self):
        f = PolyJet(2, 3, {((1, 2), 0): 2.3, ((1, 0), 1): 0.4})
        assert np.all(f.evaluate(np.zeros(2)) == 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PolyJet.identity(2).evaluate([1.0, 2.0, 3.0])


def point_value(jet, z):
    """One point ``(n,)`` through the per-point formula that preceded batches."""
    z = np.asarray(z, dtype=complex)
    if not jet.terms:
        return np.zeros(jet.n, dtype=complex)
    items = jet.sorted_terms()
    exps = np.array([index for index, _, _ in items], dtype=np.int64)
    comps = np.array([comp for _, comp, _ in items], dtype=np.int64)
    coeffs = np.array([coeff for _, _, coeff in items], dtype=complex)
    monomials = np.prod(z[None, :] ** exps, axis=1)
    out = np.zeros(jet.n, dtype=complex)
    np.add.at(out, comps, coeffs * monomials)
    return out


class TestBatchEvaluate:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 6), st.integers(1, 40),
           st.booleans())
    def test_rows_equal_single_points(self, seed, n, degree, m, zero):
        rng = np.random.default_rng(seed)
        jet = PolyJet.zero(n, degree) if zero else random_jet(rng, n, degree, density=0.4)
        Z = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        Z[rng.random((m, n)) < 0.1] = complex(-0.0, -0.0)
        batch = jet.evaluate(Z)
        assert batch.shape == (m, n)
        for i in range(m):
            single = jet.evaluate(Z[i])
            expected = point_value(jet, Z[i])
            assert np.all(batch[i] == single) and np.all(single == expected)
            # signed zeros too
            assert batch[i].tobytes() == single.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("zero", [False, True])
    def test_bad_shapes_rejected(self, zero):
        n, m = 3, 5
        jet = PolyJet.zero(n, 2) if zero else random_jet(np.random.default_rng(0), n, 2)
        for shape in [(n + 1,), (m, n + 1), (2, 2, n)]:
            with pytest.raises(DimensionMismatch):
                jet.evaluate(np.zeros(shape, dtype=complex))

    def test_empty_batch(self):
        assert PolyJet.identity(2).evaluate(np.zeros((0, 2))).shape == (0, 2)


class TestTrustedConstruction:
    """Arithmetic results skip key validation but must equal validated jets."""

    @staticmethod
    def rebuilt(jet):
        if isinstance(jet, HomogeneousPart):
            return HomogeneousPart(jet.n, jet.q, jet.terms)
        return PolyJet(jet.n, jet.degree, jet.terms)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 4))
    def test_arithmetic_equals_public_construction(self, seed, n, degree):
        rng = np.random.default_rng(seed)
        f = random_jet(rng, n, degree)
        g = random_jet(rng, n, degree)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        # one term below PRUNE_REL_TOL times the largest of its degree
        noisy = PolyJet(2, 2, {((1, 0), 0): 1.0, ((0, 1), 1): PRUNE_REL_TOL / 2,
                               ((1, 1), 0): 0.5})
        assert len(noisy.pruned().terms) == 2
        results = [
            compose_truncated(f, g, degree), compose_truncated(f, g, degree, prune=False),
            f + g, -f, f - g, f - f, f.scaled(0.3 - 1.2j), f.scaled(np.float64(2.5)),
            noisy.pruned(), f.truncated(1), homogeneous_part(f, degree),
            jet_inverse(f, degree), linear_conjugate(f, Q, degree),
        ]
        for jet in results:
            again = self.rebuilt(jet)
            assert jet == again and type(jet) is type(again)
            assert (jet.n, jet.degree) == (again.n, again.degree)
            assert list(jet.terms.items()) == list(again.terms.items())
            assert all(type(c) is complex and c != 0 for c in jet.terms.values())
        assert homogeneous_part(f, degree).q == degree

    def test_overflow_still_raises(self):
        f = jet1d(2, **{"1": 1.0, "2": 1e300})
        with pytest.raises(ValueError):
            f.scaled(1e300)
        big = jet1d(2, **{"2": 1.7e308})
        with pytest.raises(ValueError):
            big + big

    def test_underflow_stores_no_zero(self):
        f = jet1d(2, **{"1": 1.0, "2": 1e-300})
        scaled = f.scaled(1e-200)
        assert ((2,), 0) not in scaled.terms and 0 not in scaled.terms.values()
        # 1e-300 * (1e-200)^2 underflows in the composition
        composed = compose_truncated(f, jet1d(2, **{"1": 1e-200}), 2, prune=False)
        assert list(composed.terms) == [((1,), 0)]


class TestCompose:
    def test_identity_right(self):
        rng = np.random.default_rng(7)
        f = random_jet(rng, 2, 4)
        assert compose_truncated(f, PolyJet.identity(2), 4) == f

    def test_hand_linear_plus_square(self):
        # f = l z + z^2, g = z + z^2, D = 2  ->  l z + (l + 1) z^2
        lam = 0.37
        f = jet1d(2, **{"1": lam, "2": 1.0})
        g = jet1d(2, **{"1": 1.0, "2": 1.0})
        out = compose_truncated(f, g, 2)
        assert out.coefficient((1,), 0) == pytest.approx(lam)
        assert out.coefficient((2,), 0) == pytest.approx(lam + 1.0)

    def test_hand_truncation(self):
        # (z + z^2) o (z + z^2) truncated at 2 is z + 2 z^2
        g = jet1d(2, **{"1": 1.0, "2": 1.0})
        out = compose_truncated(g, g, 2)
        assert out == jet1d(2, **{"1": 1.0, "2": 2.0})

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compose_truncated(PolyJet.identity(2), PolyJet.identity(3), 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(2, 5))
    def test_associativity(self, seed, n, degree):
        rng = np.random.default_rng(seed)
        f = random_jet(rng, n, degree)
        g = random_jet(rng, n, degree)
        h = random_jet(rng, n, degree)
        left = compose_truncated(compose_truncated(f, g, degree), h, degree)
        right = compose_truncated(f, compose_truncated(g, h, degree), degree)
        assert left.max_coeff_diff(right) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_truncation_remainder_decay(self, seed):
        # pointwise gap between f(g(z)) and the truncated composition shrinks
        # by at least 2^(D+1) (slack 0.2) when the radius halves
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3))
        degree = int(rng.integers(2, 5))
        f = random_jet(rng, n, degree, density=0.8)
        g = random_jet(rng, n, degree, density=0.8)
        comp = compose_truncated(f, g, degree)
        radius = 0.05

        def worst(r):
            return max(
                float(np.linalg.norm(f.evaluate(g.evaluate(z)) - comp.evaluate(z)))
                for z in (random_point(np.random.default_rng(100 + k), n, r)
                          for k in range(8)))

        big, small = worst(radius), worst(radius / 2)
        if big < 1e-13:  # composition was exact at this degree
            assert small < 1e-13
        else:
            assert big / max(small, 1e-300) >= 2 ** (degree + 1) * 0.8


def bucket_mul(a, b, cap):
    """The product kernel composition used before the power table, kept as its reference."""
    out = {}
    for da, ta in a.items():
        for db, tb in b.items():
            d = da + db
            if d > cap:
                continue
            bucket = out.setdefault(d, {})
            for ca, va in ta.items():
                for cb, vb in tb.items():
                    key = ca + cb
                    bucket[key] = bucket.get(key, 0j) + va * vb
    return out


def reference_compose(f, g, degree, prune=True):
    """``compose_truncated`` as it was before the power table: one product chain per term."""
    n, base = f.n, degree + 1
    radix = [base ** k for k in range(n)]

    def decode(code):
        digits = []
        for _ in range(n):
            digits.append(code % base)
            code //= base
        return tuple(digits)

    one = {0: {0: 1.0 + 0j}}
    components = [{} for _ in range(n)]
    for (index, comp), coeff in g.terms.items():
        d = sum(index)
        if d <= degree:
            components[comp].setdefault(d, {})[sum(e * r for e, r in zip(index, radix))] = coeff
    power_cache = [{0: one} for _ in range(n)]

    def component_power(k, e):
        cache = power_cache[k]
        if e not in cache:
            top = max(m for m in cache if m <= e)
            acc = cache[top]
            for m in range(top + 1, e + 1):
                acc = bucket_mul(acc, components[k], degree)
                cache[m] = acc
        return cache[e]

    out = {}
    for (index, comp), coeff in f.terms.items():
        if sum(index) > degree:
            continue
        acc = one
        for k, e in enumerate(index):
            if e == 0:
                continue
            acc = bucket_mul(acc, component_power(k, e), degree)
            if not acc:
                break
        for bucket in acc.values():
            for code, value in bucket.items():
                key = (decode(code), comp)
                out[key] = out.get(key, 0j) + coeff * value
    if prune:
        out = _prune_terms(out)
    return PolyJet._trusted(n, degree, out)


def term_bytes(jet):
    """The terms in stored order, coefficients by their bits."""
    return [(key, c.real.hex(), c.imag.hex()) for key, c in jet.terms.items()]


def shuffled(rng, jet):
    """The same jet with its terms stored in a random order."""
    items = list(jet.terms.items())
    return PolyJet(jet.n, jet.degree, [items[i] for i in rng.permutation(len(items))])


def sparse_jet(rng, n, degree, count):
    """A few random terms of degrees 1..degree, in random order."""
    terms = {}
    for _ in range(count):
        d = int(rng.integers(1, degree + 1))
        cuts = np.sort(rng.integers(0, d + 1, size=n - 1))
        index = tuple(np.diff(np.concatenate([[0], cuts, [d]])).tolist())
        terms[(index, int(rng.integers(n)))] = complex(rng.normal(), rng.normal())
    return PolyJet(n, degree, terms)


def modest_jet(rng, n, degree, **kwargs):
    """A random jet with about 40 terms or fewer, whatever n and degree."""
    size = n * (math.comb(n + degree, n) - 1)
    return random_jet(rng, n, degree, density=min(0.6, 40 / size), **kwargs)


class TestComposeBytes:
    """``compose_truncated`` is bit-identical to the per-term product chain it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 6), st.booleans(),
           st.booleans())
    def test_equals_reference_kernel(self, seed, n, degree, shuffle, prune):
        rng = np.random.default_rng(seed)
        f = modest_jet(rng, n, degree)
        g = modest_jet(rng, n, degree, invertible_linear=bool(rng.integers(2)))
        if shuffle:
            f, g = shuffled(rng, f), shuffled(rng, g)
        cap = int(rng.integers(1, degree + 1))
        assert term_bytes(compose_truncated(f, g, cap, prune=prune)) \
            == term_bytes(reference_compose(f, g, cap, prune=prune))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 6), st.integers(2, 6))
    def test_sparse_operands_at_wide_caps(self, seed, n, deg_f, deg_g):
        # as in sr_compose, which composes up to deg F * deg G
        rng = np.random.default_rng(seed)
        f = sparse_jet(rng, n, deg_f, int(rng.integers(1, 7)))
        g = sparse_jet(rng, n, deg_g, int(rng.integers(1, 7))) + PolyJet.identity(n)
        cap = deg_f * deg_g
        assert term_bytes(compose_truncated(f, g, cap)) == term_bytes(reference_compose(f, g, cap))


def unsigned(jet):
    return PolyJet(jet.n, jet.degree, {key: abs(c) for key, c in jet.terms.items()})


class TestOnlineBlocks:
    """Blocks of ``f o g`` read while ``g`` is revealed one degree at a time."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 5), st.booleans(),
           st.booleans())
    def test_blocks_equal_composition(self, seed, n, degree, shuffle, sparse):
        rng = np.random.default_rng(seed)
        if sparse:   # supports that skip degrees
            f, g = (sparse_jet(rng, n, degree, int(rng.integers(1, 7))) for _ in range(2))
        else:
            f, g = modest_jet(rng, n, degree), modest_jet(rng, n, degree)
        if shuffle:
            f, g = shuffled(rng, f), shuffled(rng, g)
        whole = compose_truncated(f, g, degree, prune=False).terms
        # every summand of a coefficient is at most its value in |f| o |g|
        magnitude = compose_truncated(unsigned(f), unsigned(g), degree, prune=False).terms
        table = _PowerTable(n, degree)
        for d in range(1, degree + 1):
            table.reveal({key: c for key, c in g.terms.items() if sum(key[0]) == d})
            block = table.compose_block(f, d)
            expected = {key: c for key, c in whole.items() if sum(key[0]) == d}
            for key in set(block) | set(expected):
                gap = abs(block.get(key, 0j) - expected.get(key, 0j))
                assert gap <= 4 * 2.0 ** -52 * magnitude[key].real

    @pytest.mark.parametrize("user", ["compose_truncated", "jet_inverse", "poincare_dulac",
                                      "translate_conjugate"])
    def test_each_block_built_once(self, monkeypatch, user):
        # every block the kernel builds is one the tables keep: none is rebuilt
        tables, built = [], []
        init, product = _PowerTable.__init__, _PowerTable._product

        def recording_init(table, n, cap):
            init(table, n, cap)
            tables.append(table)

        def counting(a, b, low, high):
            blocks = product(a, b, low, high)
            built.extend(blocks)
            return blocks

        monkeypatch.setattr(_PowerTable, "__init__", recording_init)
        monkeypatch.setattr(_PowerTable, "_product", staticmethod(counting))
        f = random_jet(np.random.default_rng(5), 3, 5, density=0.4)
        if user == "compose_truncated":
            compose_truncated(f, f, 5)
        elif user == "jet_inverse":
            jet_inverse(f, 5)
        elif user == "translate_conjugate":
            # a table whose g has constant terms, made through the cap at once
            spectrum = analyze_spectrum(np.diag([0.125, 0.25, 0.5]).astype(complex))
            h = certify_subresonant(random_sr_map(np.random.default_rng(5), spectrum), spectrum)
            translate_conjugate(h, np.array([0.3, -0.2j, 0.4 + 0.1j]))
        else:
            document = json.loads((DATA / "coupled_n3.json").read_text(encoding="utf-8"))
            poincare_dulac(germio.parse_germ_document(document))
        kept = sum(len(blocks) for table in tables for blocks in table.powers.values())
        assert built and len(built) == kept


class TestJetInverse:
    def test_identity(self):
        assert jet_inverse(PolyJet.identity(2), 3) == PolyJet.identity(2)

    def test_hand_1d(self):
        # inverse of z + z^2 through degree 3 is z - z^2 + 2 z^3
        f = jet1d(3, **{"1": 1.0, "2": 1.0})
        g = jet_inverse(f, 3)
        assert g.coefficient((1,), 0) == pytest.approx(1.0)
        assert g.coefficient((2,), 0) == pytest.approx(-1.0)
        assert g.coefficient((3,), 0) == pytest.approx(2.0)

    def test_linear(self):
        f = PolyJet.from_linear(np.diag([0.5 + 0j]))
        assert jet_inverse(f, 2) == PolyJet.from_linear(np.diag([2.0 + 0j]))

    def test_singular(self):
        f = PolyJet(2, 2, {((2, 0), 0): 1.0, ((1, 0), 0): 1.0})
        with pytest.raises(SingularLinearPart):
            jet_inverse(f, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(2, 4))
    def test_round_trip(self, seed, n, degree):
        rng = np.random.default_rng(seed)
        f = random_jet(rng, n, degree)
        g = jet_inverse(f, degree)
        ident = PolyJet.identity(n)
        assert compose_truncated(f, g, degree).max_coeff_diff(ident) < 1e-10
        assert compose_truncated(g, f, degree).max_coeff_diff(ident) < 1e-10


class TestLinearConjugate:
    def test_identity_matrix(self):
        rng = np.random.default_rng(3)
        f = random_jet(rng, 2, 3)
        assert linear_conjugate(f, np.eye(2), 3) == f

    def test_linear_similarity(self):
        A = np.array([[0.5, 0.2], [0.0, 0.25]], dtype=complex)
        Q = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
        f = PolyJet.from_linear(A)
        expected = np.linalg.inv(Q) @ A @ Q
        out = linear_conjugate(f, Q, 1)
        assert np.allclose(out.linear_part(), expected, atol=1e-14)

    def test_hand_2d_scaling(self):
        # f = (z1/4 + z2^2, z2/2), Q = diag(1, 2) -> (z1/4 + 4 z2^2, z2/2)
        f = PolyJet(2, 2, {((1, 0), 0): 0.25, ((0, 2), 0): 1.0, ((0, 1), 1): 0.5})
        out = linear_conjugate(f, np.diag([1.0, 2.0]).astype(complex), 2)
        assert out.coefficient((0, 2), 0) == pytest.approx(4.0)
        assert out.coefficient((1, 0), 0) == pytest.approx(0.25)
        assert out.coefficient((0, 1), 1) == pytest.approx(0.5)


class TestHomogeneousPart:
    def test_linear_part_of_sum(self):
        f = PolyJet(2, 2, {((1, 0), 0): 0.25, ((0, 2), 0): 1.0, ((0, 1), 1): 0.5})
        part = homogeneous_part(f, 1)
        assert part.q == 1
        assert part.terms == {((1, 0), 0): 0.25, ((0, 1), 1): 0.5}

    def test_degree_two_filter(self):
        f = PolyJet(2, 2, {((1, 0), 0): 0.25, ((1, 1), 0): 1.0, ((0, 2), 0): 1.0,
                           ((0, 1), 1): 0.5, ((2, 0), 1): 1.0})
        part = homogeneous_part(f, 2)
        assert part.terms == {((1, 1), 0): 1.0, ((0, 2), 0): 1.0, ((2, 0), 1): 1.0}

    def test_empty_degree(self):
        f = PolyJet(2, 3, {((1, 0), 0): 1.0})
        assert homogeneous_part(f, 3).terms == {}

    def test_out_of_range(self):
        with pytest.raises(DegreeOutOfRange):
            homogeneous_part(PolyJet.identity(2), 5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 5))
    def test_decomposition_is_exact(self, seed, n, degree):
        rng = np.random.default_rng(seed)
        f = random_jet(rng, n, degree, invertible_linear=False)
        total = PolyJet.zero(n, degree)
        for q in range(1, degree + 1):
            total = total + homogeneous_part(f, q)
        assert total == f

    def test_single_degree_enforced(self):
        with pytest.raises(DegreeOutOfRange):
            HomogeneousPart(2, 2, {((1, 0), 0): 1.0})


class TestCanonicalForm:
    def test_zero_coefficients_dropped(self):
        f = PolyJet(2, 2, {((1, 0), 0): 0.0, ((0, 1), 1): 1.0})
        assert ((1, 0), 0) not in f.terms

    def test_equality_ignores_truncation_degree(self):
        a = PolyJet(1, 2, {((1,), 0): 1.0})
        b = PolyJet(1, 5, {((1,), 0): 1.0})
        assert a == b

    def test_iteration_order_graded_then_monomial(self):
        f = PolyJet(2, 2, {((2, 0), 0): 1.0, ((0, 2), 0): 1.0, ((1, 0), 0): 1.0,
                           ((1, 1), 0): 1.0, ((0, 1), 0): 1.0})
        keys = [(index, comp) for index, comp, _ in f.sorted_terms()]
        assert keys == [((0, 1), 0), ((1, 0), 0), ((0, 2), 0), ((1, 1), 0), ((2, 0), 0)]

    def test_constant_terms_rejected(self):
        with pytest.raises(DegreeOutOfRange):
            PolyJet(2, 2, {((0, 0), 0): 1.0})

    def test_degree_range_is_int64(self):
        # exponents are held in int64 arrays: the largest int64 is the largest degree
        top = 2**63 - 1
        jet = PolyJet(2, top, {((1, 0), 0): 0.25, ((0, 1), 1): 0.5, ((0, top), 1): 1e-3})
        assert jet.max_degree() == top
        assert subresonant_offenders(jet, analyze_spectrum(np.diag([0.25, 0.5]))) == [
            ((0, top), 1)]
        with pytest.raises(DegreeOutOfRange, match="2\\*\\*63 - 1, got 9223372036854775808"):
            PolyJet(2, top + 1, {((1, 0), 0): 0.25})

    def test_basis_ordering_at_high_degree_and_low_dimension(self):
        q = 5_000
        exponents = basis_ordering(2, q).exponents
        k = np.arange(q + 1)
        assert np.array_equal(exponents, np.stack([k, q - k], axis=1))
        top = 2**63 - 1
        assert basis_ordering(1, top).exponents.tolist() == [[top]]
        for n, q in [(1, top + 1), (2, top)]:
            with pytest.raises(DegreeOutOfRange, match="overflows int64"):
                basis_ordering(n, q)
