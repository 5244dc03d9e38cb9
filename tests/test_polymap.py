import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    coefficient,
    degree_part,
    naive_operator,
    random_jet,
    random_point,
    random_spectrum,
    random_sr_map,
)
from srnf import germio, polymap
from srnf.gx_group import GroupElement, group_inv, group_mul, translate_conjugate
from srnf.errors import DegreeOutOfRange, DimensionMismatch, SingularLinearPart, ValidationError
from srnf.polymap import (
    MAX_DEGREE,
    PRUNE_REL_TOL,
    PolyJet,
    _PowerTable,
    _prune_terms,
    basis_ordering,
    compose_truncated,
    jet_inverse,
    linear_conjugate,
    term_sort_key,
)
from srnf.linalg import analyze_spectrum
from srnf.normal_form import poincare_dulac
from srnf.homological import split_homogeneous
from srnf.subresonance import (
    certify_subresonant,
    enumerate_subresonant_basis,
    sr_compose,
    sr_inverse,
    subresonant_offenders,
)

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
    exps = np.array([index for index, _ in jet.terms], dtype=np.int64)
    comps = np.array([comp for _, comp in jet.terms], dtype=np.int64)
    coeffs = np.array(list(jet.terms.values()), dtype=complex)
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
        jet = PolyJet(n, degree) if zero else random_jet(rng, n, degree, density=0.4)
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
        jet = PolyJet(n, 2) if zero else random_jet(np.random.default_rng(0), n, 2)
        for shape in [(n + 1,), (m, n + 1), (2, 2, n)]:
            with pytest.raises(DimensionMismatch):
                jet.evaluate(np.zeros(shape, dtype=complex))

    def test_empty_batch(self):
        assert PolyJet.identity(2).evaluate(np.zeros((0, 2))).shape == (0, 2)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 16), st.integers(1, 4), st.integers(0, 30),
           st.sampled_from([1, 2, 3, 7]))
    def test_chunks_equal_one_pass(self, seed, n, degree, m, rows):
        """Chunks of ``rows`` rows give the one-pass values bit for bit, on
        contiguous and on strided batches."""
        rng = np.random.default_rng(seed)
        jet = random_jet(rng, n, degree, density=min(1.0, 40 / n ** degree))
        wide = rng.normal(size=(m, 2 * n)) + 1j * rng.normal(size=(m, 2 * n))
        batches = [wide[:, ::2], np.ascontiguousarray(wide[:, ::2])]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polymap, "EVALUATION_CHUNK_BYTES", 2**62)
            expected = jet.evaluate(batches[1]).tobytes()
            patch.setattr(polymap, "EVALUATION_CHUNK_BYTES", rows * 16 * len(jet.terms) * n)
            for batch in batches:
                assert jet.evaluate(batch).tobytes() == expected

    def test_peak_is_bounded_by_the_chunk(self):
        """A 15,000-term jet at n = 16 (3.8 MB of powers per row) evaluated at
        60 rows: one pass would make 230 MB of powers."""
        n = 16
        keys = [key for q in (2, 3) for key in basis_ordering(n, q).pairs]
        coeffs = np.random.default_rng(1).normal(size=15_000)
        jet = PolyJet(n, 3, dict(zip(keys, coeffs)))
        Z = np.full((60, n), 0.05 + 0.01j)
        jet.evaluate(Z[0])   # caches the evaluation arrays, 2.2 MB
        tracemalloc.start()
        try:
            jet.evaluate(Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < polymap.EVALUATION_CHUNK_BYTES + 2**20


class TestTrustedConstruction:
    """Arithmetic results skip key validation but must equal validated jets."""

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
        pruned = compose_truncated(noisy, PolyJet.identity(2, 2), 2)
        assert len(pruned.terms) == 2
        negated = PolyJet(n, degree, {key: -c for key, c in f.terms.items()})
        results = [
            compose_truncated(f, g, degree), compose_truncated(f, g, degree, prune=False),
            f + g, f + negated, pruned, f.truncated(1),
            jet_inverse(f, degree), linear_conjugate(f, Q, degree),
        ]
        for jet in results:
            again = PolyJet(jet.n, jet.degree, jet.terms)
            assert jet == again and type(jet) is type(again)
            assert (jet.n, jet.degree) == (again.n, again.degree)
            assert list(jet.terms.items()) == list(again.terms.items())
            assert all(type(c) is complex and c != 0 for c in jet.terms.values())

    def test_overflow_still_raises(self):
        f = jet1d(2, **{"1": 1.0, "2": 1e300})
        with pytest.raises(ValueError):
            compose_truncated(f, jet1d(2, **{"1": 1e300}), 2)
        big = jet1d(2, **{"2": 1.7e308})
        with pytest.raises(ValueError):
            big + big

    def test_underflow_stores_no_zero(self):
        f = jet1d(2, **{"1": 1.0, "2": 1e-300})
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
        assert coefficient(out, (1,), 0) == pytest.approx(lam)
        assert coefficient(out, (2,), 0) == pytest.approx(lam + 1.0)

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


class TestShiftedCompose:
    def test_hand_1d(self):
        # f = z + z^2 after s + (z + z^2), s = 0.5, minus f(s):
        # 2 z + 3 z^2 + 2 z^3 + z^4
        f = jet1d(4, **{"1": 1.0, "2": 1.0})
        out = compose_truncated(f, f, 4, shift=[0.5])
        assert out == jet1d(4, **{"1": 2.0, "2": 3.0, "3": 2.0, "4": 1.0})

    def test_constant_dropped_where_shift_is_zero(self):
        # f = z1 e2 after (1, 0) + id: f(shift) = e2 lies on a component
        # whose own shift is zero, and is dropped all the same
        f = PolyJet(2, 1, {((1, 0), 1): 1.0})
        assert compose_truncated(f, PolyJet.identity(2), 1, shift=[1.0, 0.0]) == f

    def test_term_above_degree_refused_before_any_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a refused composition must build no table")

        monkeypatch.setattr(_PowerTable, "__init__", refuse)
        f = jet1d(3, **{"1": 1.0, "3": 1.0})
        with pytest.raises(DegreeOutOfRange):
            compose_truncated(f, f, 2, shift=[0.1])

    def test_shift_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compose_truncated(PolyJet.identity(2), PolyJet.identity(2), 2, shift=[0.1])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 4), st.booleans())
    def test_zero_shift_is_no_shift(self, seed, n, degree, prune):
        rng = np.random.default_rng(seed)
        f, g = random_jet(rng, n, degree), random_jet(rng, n, degree)
        plain = compose_truncated(f, g, degree, prune=prune).terms
        shifted = compose_truncated(f, g, degree, prune=prune, shift=np.zeros(n)).terms
        assert repr(list(shifted.items())) == repr(list(plain.items()))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3))
    def test_pointwise(self, seed, n, degree):
        # f(s + g(z)) - f(s), kept whole: the cap is deg f * deg g
        rng = np.random.default_rng(seed)
        f, g = random_jet(rng, n, degree), random_jet(rng, n, degree)
        s = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        out = compose_truncated(f, g, degree * degree, shift=s)
        for z in 0.3 * (rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))):
            want = f.evaluate(s + g.evaluate(z)) - f.evaluate(s)
            assert np.allclose(out.evaluate(z), want, rtol=1e-12, atol=1e-12)


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


def term_bytes_sorted(jet):
    """:func:`term_bytes` of a jet, sorted by ``term_sort_key``."""
    return sorted(term_bytes(jet), key=lambda item: term_sort_key(item[0]))


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
    """``compose_truncated`` is bit-identical to the per-term product chain it
    replaced, which sums in the operands' term order, and stores its terms in
    term order."""

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
            == term_bytes_sorted(reference_compose(f, g, cap, prune=prune))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 6), st.integers(2, 6))
    def test_sparse_operands_at_wide_caps(self, seed, n, deg_f, deg_g):
        # as in sr_compose, which composes up to deg F * deg G
        rng = np.random.default_rng(seed)
        f = sparse_jet(rng, n, deg_f, int(rng.integers(1, 7)))
        g = sparse_jet(rng, n, deg_g, int(rng.integers(1, 7))) + PolyJet.identity(n)
        cap = deg_f * deg_g
        assert term_bytes(compose_truncated(f, g, cap)) \
            == term_bytes_sorted(reference_compose(f, g, cap))


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
            h = certify_subresonant(random_sr_map(np.random.default_rng(5), spectrum), spectrum,
                                    "test map")
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
        assert coefficient(g, (1,), 0) == pytest.approx(1.0)
        assert coefficient(g, (2,), 0) == pytest.approx(-1.0)
        assert coefficient(g, (3,), 0) == pytest.approx(2.0)

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


    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    def test_equals_loop_it_replaced(self, seed, n):
        rng = np.random.default_rng(seed)
        f = random_sr_map(rng, random_spectrum(rng, n, max_ratio=4.5))
        degree = int(rng.integers(1, 6))
        assert term_bytes(jet_inverse(f, degree)) == term_bytes(reference_jet_inverse(f, degree))


def row_by_row_terms(matrix):
    """The terms of ``z -> matrix @ z`` in row-major order, one entry at a time."""
    n = len(matrix)
    return {(tuple(int(i == k) for i in range(n)), j): complex(matrix[j, k])
            for j in range(n) for k in range(n) if matrix[j, k] != 0}


def reference_jet_inverse(f, degree):
    """``jet_inverse`` as it was before it kept one term dict: ``g = g + block``
    at every degree, all of ``f`` read at every step, columns found per step."""
    inv_linear = np.linalg.inv(f.linear_part())
    g = PolyJet(f.n, degree, row_by_row_terms(inv_linear))
    table = _PowerTable(f.n, degree)
    table.reveal(g.terms)
    matrix = -inv_linear
    for d in range(2, degree + 1):
        rows = [np.flatnonzero(column).tolist() for column in matrix.T]
        out = {}
        for (index, comp), coeff in table.compose_block(f, d).items():
            for i in rows[comp]:
                out[(index, i)] = out.get((index, i), 0j) + matrix[i, comp] * coeff
        block = PolyJet._trusted(f.n, degree, out)
        g = g + block
        table.reveal(block.terms)
    return PolyJet(f.n, degree, _prune_terms(g.terms))


class TestFromLinear:
    """``from_linear`` skips per-term validation but raises what the validated constructor does."""

    @staticmethod
    def raised(build):
        with pytest.raises(Exception) as info:
            build()
        return type(info.value), str(info.value)

    def test_terms_equal_validated_construction(self):
        A = np.array([[0.5, 0, 2], [0, -0.0, 1j], [3, 0, 0.25]])
        for matrix in (A, A.astype(complex), np.eye(4, dtype=int)):
            jet = PolyJet.from_linear(matrix, 3)
            again = PolyJet(len(matrix), 3, row_by_row_terms(np.asarray(matrix, dtype=complex)))
            assert list(jet.terms.items()) == list(again.terms.items())
            assert all(type(c) is complex for c in jet.terms.values())
            assert jet.degree == 3

    def test_shape_errors(self):
        assert self.raised(lambda: PolyJet.from_linear(np.ones((2, 3)))) == (
            DimensionMismatch, "expected a square matrix, got shape (2, 3)")
        assert self.raised(lambda: PolyJet.from_linear(np.ones((0, 0)))) \
            == self.raised(lambda: PolyJet(0, 1, {})) \
            == (DimensionMismatch, "dimension must be positive, got 0")

    def test_first_non_finite_entry_named(self):
        A = np.ones((3, 3), dtype=complex)
        A[1, 2], A[1, 0], A[2, 1] = np.nan, complex(0, -np.inf), np.inf
        expected = self.raised(lambda: PolyJet(3, 2, row_by_row_terms(A)))
        # the first in term order: z3's column first, rows ascending
        assert self.raised(lambda: PolyJet.from_linear(A, 2)) == expected \
            == (ValueError, "non-finite coefficient at ((0, 0, 1), 1)")

    @pytest.mark.parametrize("degree", [0, -1, MAX_DEGREE + 1])
    def test_degree_out_of_range(self, degree):
        A = np.eye(2)
        got = self.raised(lambda: PolyJet.from_linear(A, degree))
        assert got == self.raised(lambda: PolyJet(2, degree, row_by_row_terms(A)))
        assert got[0] is DegreeOutOfRange


NON_FINITE = [complex(x, 0.5) for x in (np.inf, -np.inf, np.nan)] \
    + [complex(0.5, x) for x in (np.inf, -np.inf, np.nan)]


@pytest.mark.parametrize("coeff", NON_FINITE)
def test_non_finite_coefficients_rejected(coeff):
    with pytest.raises(ValueError, match=r"^non-finite coefficient at \(\(2,\), 0\)$"):
        PolyJet(1, 2, {((1,), 0): 1.0, ((2,), 0): coeff})
    with pytest.raises(ValidationError, match=r"^germ: term 2: coeff: non-finite coefficient$"):
        germio.pair_to_complex([coeff.real, coeff.imag], "germ: term 2: coeff")


class TestSortedTerms:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 16), st.integers(0, 60), st.integers(1, 6))
    def test_equals_term_sort_key(self, seed, n, count, degree):
        rng = np.random.default_rng(seed)
        terms = {}
        for _ in range(count):
            index = tuple(rng.multinomial(int(rng.integers(1, degree + 1)), [1 / n] * n).tolist())
            terms[(index, int(rng.integers(n)))] = complex(rng.normal(), rng.normal())
        jet = shuffled(rng, PolyJet(n, degree, terms))
        expected = [(key, jet.terms[key]) for key in sorted(jet.terms, key=term_sort_key)]
        assert list(jet.terms.items()) == expected


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
        assert coefficient(out, (0, 2), 0) == pytest.approx(4.0)
        assert coefficient(out, (1, 0), 0) == pytest.approx(0.25)
        assert coefficient(out, (0, 1), 1) == pytest.approx(0.5)


class TestHomogeneousPart:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 5))
    def test_decomposition_is_exact(self, seed, n, degree):
        rng = np.random.default_rng(seed)
        f = random_jet(rng, n, degree, invertible_linear=False)
        total = PolyJet(n, degree)
        for q in range(1, degree + 1):
            total = total + degree_part(f, q)
        assert total == f


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
        keys = list(f.terms)
        assert keys == [((0, 1), 0), ((1, 0), 0), ((0, 2), 0), ((1, 1), 0), ((2, 0), 0)]

    @pytest.mark.parametrize("key, coeff", [
        (((1.7, 0.2), 0), 1.0),   # was truncated to ((1, 0), 0)
        (((True, 0), 0), 1.0),
        (((1, 0), True), 1.0),
        (((1, 0), "1"), 1.0),
        (((1, 0), 1.0), 1.0),
        (((1, 0), 0), "1"),
        (((1, -1), 0), 1.0),
    ], ids=["float-exponents", "bool-exponent", "bool-component", "str-component",
            "float-component", "str-coefficient", "negative-exponent"])
    def test_key_that_is_not_integers_is_refused(self, key, coeff):
        with pytest.raises(ValueError, match=rf"^term {re.escape(repr(key))} -> "):
            PolyJet(2, 3, {key: coeff})

    @pytest.mark.parametrize("coeff", [None, [1.0], b"1"], ids=["none", "list", "bytes"])
    def test_coefficient_that_is_not_a_number_is_refused(self, coeff):
        message = rf"^term \(\(1, 0\), 0\) -> {re.escape(repr(coeff))}: "
        with pytest.raises(ValueError, match=message):
            PolyJet(2, 3, {((1, 0), 0): coeff})

    def test_numpy_and_bool_coefficients_are_accepted(self):
        jet = PolyJet(1, 3, {((1,), 0): np.float64(0.5), ((2,), 0): np.complex64(2j),
                             ((3,), 0): True})
        assert list(jet.terms.values()) == [0.5, 2j, 1]
        assert all(type(c) is complex for c in jet.terms.values())

    def test_numpy_integers_are_accepted(self):
        jet = PolyJet(2, 3, {((np.int64(1), np.int32(2)), np.int8(1)): 1.0})
        [(index, comp)] = jet.terms
        assert (index, comp) == ((1, 2), 1) and all(type(v) is int for v in (*index, comp))

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


def is_term_ordered(keys):
    keys = list(keys)
    return keys == sorted(keys, key=term_sort_key)


class TestTermOrder:
    """Every jet holds its terms in ``term_sort_key`` order, so results depend on
    the coefficients only, not on the order in which terms were given."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_results_independent_of_given_order(self, seed, n):
        rng = np.random.default_rng(seed)
        spectrum = random_spectrum(rng, n, max_ratio=4.5)
        F, G = random_sr_map(rng, spectrum), random_sr_map(rng, spectrum)
        tau = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        degree = max(1, spectrum.degree_bound)

        def results(F, G):
            f, g = (certify_subresonant(jet, spectrum, "test map") for jet in (F, G))
            return [compose_truncated(F, G, degree), compose_truncated(F, G, degree, prune=False),
                    compose_truncated(F, G, degree * degree, shift=tau), jet_inverse(F, degree),
                    translate_conjugate(f, tau).jet, sr_compose(f, g).jet,
                    sr_compose(f, g, shift=tau).jet, sr_inverse(f).jet]

        permuted = results(shuffled(rng, F), shuffled(rng, G))
        for given, again in zip(results(F, G), permuted):
            assert term_bytes(again) == term_bytes(given)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4))
    def test_every_producer_returns_term_order(self, seed, n, degree):
        rng = np.random.default_rng(seed)
        f, g = shuffled(rng, modest_jet(rng, n, degree)), shuffled(rng, modest_jet(rng, n, degree))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A[rng.random((n, n)) < 0.3] = 0
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        shift = rng.normal(size=n) + 0j
        top = degree_part(f, degree)
        jets = [f, PolyJet.from_linear(A, degree), PolyJet.identity(n, degree), f + g,
                f.truncated(max(1, degree - 1)), top,
                PolyJet(n, degree, dict(reversed(list(top.terms.items())))),
                compose_truncated(f, g, degree), compose_truncated(f, g, degree, prune=False),
                compose_truncated(f, g, degree * degree, shift=shift),
                jet_inverse(f, degree), linear_conjugate(f, Q, degree)]
        spectrum = random_spectrum(rng, n, max_ratio=4.5)
        F, G = (certify_subresonant(random_sr_map(rng, spectrum), spectrum, "test map")
                for _ in range(2))
        jets += [sr_compose(F, G).jet, sr_compose(F, G, shift=shift).jet, sr_inverse(F).jet,
                 translate_conjugate(F, shift).jet]
        if degree >= 2:
            split = split_homogeneous(spectrum, degree_part(g, degree))
            jets += [naive_operator(spectrum.T, top), split.resonant, split.eliminated]
        for jet in jets:
            assert is_term_ordered(jet.terms), jet
        assert is_term_ordered(subresonant_offenders(f, spectrum))
        assert is_term_ordered(enumerate_subresonant_basis(spectrum, degree))

    @pytest.mark.parametrize("name", ["coupled_n3", "coupled_n3_original"])
    def test_pipeline_and_group_outputs_in_term_order(self, name):
        document = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
        document["terms"].reverse()
        germ = germio.parse_germ_document(document)
        result = poincare_dulac(germ)
        h = result.normal_form
        g1 = GroupElement(tau=np.array([0.1, -0.2j, 0.05]), h=h)
        g2 = GroupElement(tau=np.array([0.03j, 0.1, -0.1]), h=sr_inverse(h))
        jets = [germ.jet, result.germ_adapted, h.jet, result.phi, group_mul(g1, g2).h.jet,
                group_inv(g1).h.jet]
        jets += [part for step in result.steps for part in (step.resonant, step.eliminated)]
        for jet in jets:
            assert is_term_ordered(jet.terms)
