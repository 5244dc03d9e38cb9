import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    coefficient,
    multi_indices,
    naive_operator,
    random_spectrum,
    resonant_positions,
)
from srnf.homological import (
    DEFAULT_RES_TOL,
    SMALL_DIVISOR_REL,
    build_matrix,
    coefficient_vector,
    operator_columns,
    split_homogeneous,
)
from srnf.errors import DegreeOutOfRange, IllConditionedResonance
from srnf.linalg import analyze_spectrum
from srnf.polymap import (
    PolyJet,
    basis_dimension,
    basis_ordering,
    term_sort_key,
)
from srnf.subresonance import enumerate_subresonant_basis, subresonant_offenders

QUARTER_HALF = analyze_spectrum(np.diag([0.25, 0.5]).astype(complex))


class TestOrderCompare:
    def test_basis_ordering_matches_sorted_term_keys(self):
        for n in range(1, 9):
            for q in range(1, 6):
                expected = tuple(sorted(
                    ((index, comp) for index in multi_indices(n, q) for comp in range(n)),
                    key=term_sort_key))
                assert basis_ordering(n, q).pairs == expected

    def test_rows_finds_every_row_by_its_code(self):
        for n in range(1, 7):
            for q in range(1, 9):
                ordering = basis_ordering(n, q)
                codes = ordering.exponents @ (q + 1) ** np.arange(n)
                assert np.all(np.diff(codes) < 0)
                assert np.array_equal(ordering.rows(codes), np.arange(len(ordering.exponents)))

    def test_rows_past_int64(self):
        # (q + 1)^n = 3^40 > 2^63: the codes are Python ints
        ordering = basis_ordering(40, 2)
        codes = [sum(int(e) * 3 ** k for k, e in enumerate(row)) for row in ordering.exponents]
        assert ordering.codes.tolist() == codes
        assert ordering.rows(codes[::-1]).tolist() == list(range(len(codes)))[::-1]

    @pytest.mark.parametrize("exponents", [
        (1, 0, 0), (0, 0, 1), (2, 2, 0), (3, 1, 0), (0, 0, 0)])
    def test_rows_refuses_a_monomial_of_another_degree(self, exponents):
        ordering = basis_ordering(3, 3)
        code = int(np.array(exponents) @ 4 ** np.arange(3))
        with pytest.raises(ValueError, match="not that of a degree-3 monomial"):
            ordering.rows([code])
        with pytest.raises(ValueError, match="not that of a degree-3 monomial"):
            ordering.rows([int(ordering.codes[0]), code])

    @pytest.mark.parametrize("code", [-1, 4**3, 2**40])
    def test_rows_refuses_a_code_outside_the_basis(self, code):
        with pytest.raises(ValueError, match="not that of a degree-3 monomial"):
            basis_ordering(3, 3).rows([code])

    def test_coefficient_vector_refuses_another_degree(self):
        # (3, 1) packs in base 3 to the code of (0, 2)
        with pytest.raises(DegreeOutOfRange, match=r"term \(\(3, 1\), 0\) has degree 4, not 2"):
            coefficient_vector(PolyJet(2, 4, {((3, 1), 0): 1.0}), basis_ordering(2, 2))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 6))
    def test_coefficient_vector_matches_the_pairs(self, seed, n, q):
        rng = np.random.default_rng(seed)
        ordering = basis_ordering(n, q)
        keys = [ordering.pairs[r] for r in rng.permutation(len(ordering))[:rng.integers(0, 12)]]
        coeffs = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
        expected = np.zeros(len(ordering), dtype=complex)
        for key, coeff in zip(keys, coeffs):
            expected[ordering.pairs.index(key)] = coeff
        vec = coefficient_vector(PolyJet(n, q, dict(zip(keys, coeffs))), ordering)
        assert np.array_equal(vec, expected)

    def test_matches_basis_ordering(self):
        ordering = basis_ordering(2, 2)
        pairs = ordering.pairs
        assert pairs == (((0, 2), 0), ((0, 2), 1), ((1, 1), 0), ((1, 1), 1),
                         ((2, 0), 0), ((2, 0), 1))


class TestApplyM:
    """Hand values of the operator ``M h = h o T - T o h``, by the test-side oracle."""

    def test_resonant_kernel_element(self):
        # (l2^2 - l1) = 0 for l = (1/4, 1/2)
        out = naive_operator(QUARTER_HALF.T, PolyJet(2, 2, {((0, 2), 0): 1.0}))
        assert out.terms == {}

    def test_nonresonant_diagonal_value(self):
        out = naive_operator(QUARTER_HALF.T, PolyJet(2, 2, {((2, 0), 1): 1.0}))
        assert out.terms == {((2, 0), 1): pytest.approx(1 / 16 - 1 / 2)}

    def test_jordan_coupling_cancels(self):
        # with T = [[1/4, 1], [0, 1/2]] both summands give z2^2/4 e1
        T = np.array([[0.25, 1.0], [0.0, 0.5]], dtype=complex)
        s = analyze_spectrum(T)
        out = naive_operator(s.T, PolyJet(2, 2, {((0, 2), 0): 1.0}))
        assert out.terms == {}


class TestOperatorColumns:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 4), st.booleans())
    def test_block_holds_entries_above_the_diagonal_only(self, seed, n, q, diagonal):
        s = random_spectrum(np.random.default_rng(seed), n, diagonal=diagonal)
        ordering, divisors, (cols, indptr, rows, values) = operator_columns(s, q)
        assert divisors.shape == (len(ordering),)
        assert len(indptr) == len(cols) + 1 and indptr[0] == 0
        assert indptr[-1] == len(rows) == len(values)
        assert np.all(np.diff(cols) > 0) and np.all(np.diff(indptr) > 0)
        assert np.all(rows < np.repeat(cols, np.diff(indptr)))
        assert (cols.size > 0) == bool(np.count_nonzero(np.triu(s.T, 1)))


class TestBuildMatrix:
    def test_diagonal_spectrum_is_diagonal(self):
        m = build_matrix(QUARTER_HALF, 2)
        off = m.entries - np.diag(np.diag(m.entries))
        assert np.count_nonzero(off) == 0
        assert np.diag(m.entries).tolist() == [0, 1 / 4 - 1 / 2, 1 / 8 - 1 / 4,
                                               1 / 8 - 1 / 2, 1 / 16 - 1 / 4, 1 / 16 - 1 / 2]

    def test_hand_entries(self):
        m = build_matrix(QUARTER_HALF, 2)
        # (0, 2) and (2, 0) pack to 2 * 3 and 2 in base q + 1 = 3
        r1, r2 = m.ordering.rows([6, 2]) * 2 + [0, 1]
        assert m.ordering.pairs[r1] == ((0, 2), 0) and m.ordering.pairs[r2] == ((2, 0), 1)
        assert m.entries[r1, r1] == 0
        assert m.entries[r2, r2] == pytest.approx(-7 / 16)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3), st.integers(2, 6))
    def test_triangular_with_diagonal_law(self, seed, n, q):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        m = build_matrix(s, q)
        dim = basis_dimension(n, q)
        assert m.entries.shape == (dim, dim)
        # exact structural zeros below the diagonal
        assert np.count_nonzero(np.tril(m.entries, -1)) == 0
        for r, (index, comp) in enumerate(m.ordering.pairs):
            lam_I = np.prod(s.diag ** np.array(index))
            assert abs(m.entries[r, r] - (lam_I - s.diag[comp])) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3), st.integers(2, 4))
    def test_matrix_action_matches_operator(self, seed, n, q):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        terms = {}
        for index in multi_indices(n, q):
            for j in range(n):
                if rng.random() < 0.5:
                    terms[(index, j)] = complex(rng.normal(), rng.normal())
        h = PolyJet(n, q, terms)
        # the oracle shares no code with the power table that fills the matrix
        m = build_matrix(s, q)
        expected = coefficient_vector(naive_operator(s.T, h), m.ordering)
        assert np.abs(m.entries @ coefficient_vector(h, m.ordering) - expected).max() < 1e-12


class TestStability:
    """The operator preserves sub-resonance in both directions."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_subresonant_input_gives_subresonant_image(self, seed, n):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        for q in range(2, s.degree_bound + 1):
            basis = enumerate_subresonant_basis(s, q)
            if not basis:
                continue
            terms = {key: complex(rng.normal(), rng.normal())
                     for key in basis if rng.random() < 0.8}
            if not terms:
                terms = {basis[0]: 1.0 + 0j}
            image = naive_operator(s.T, PolyJet(n, q, terms))
            assert not subresonant_offenders(image, s)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_non_subresonant_input_gives_non_subresonant_image(self, seed, n):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        q = int(rng.integers(2, 5))
        basis = enumerate_subresonant_basis(s, q)
        bad = [(index, j) for index in multi_indices(n, q) for j in range(n)
               if (index, j) not in basis
               and float(np.dot(index, s.log_moduli)) < s.log_moduli[j] - 0.05]
        if not bad:
            return
        terms = {bad[int(rng.integers(len(bad)))]: complex(0.5 + rng.random(), rng.normal())}
        for index in multi_indices(n, q):  # mix in whatever else
            for j in range(n):
                if rng.random() < 0.3 and (
                        (index, j) in basis
                        or float(np.dot(index, s.log_moduli)) < s.log_moduli[j] - 0.05):
                    terms.setdefault((index, j), complex(rng.normal(), rng.normal()))
        image = naive_operator(s.T, PolyJet(n, q, terms))
        assert subresonant_offenders(image, s)


class TestSplit:
    def test_hand_example(self):
        H = PolyJet(2, 2, {((1, 1), 0): 1.0, ((0, 2), 0): 1.0, ((2, 0), 1): 1.0})
        split = split_homogeneous(QUARTER_HALF, H)
        assert split.resonant.terms == {((0, 2), 0): 1.0}
        assert coefficient(split.eliminated, (1, 1), 0) == pytest.approx(-8.0)
        assert coefficient(split.eliminated, (2, 0), 1) == pytest.approx(-16 / 7)
        recomposed = split.resonant + naive_operator(QUARTER_HALF.T, split.eliminated)
        assert recomposed.max_coeff_diff(H) < 1e-10

    def test_purely_resonant_input(self):
        H = PolyJet(2, 2, {((0, 2), 0): 3.5})
        split = split_homogeneous(QUARTER_HALF, H)
        assert split.resonant == H
        assert split.eliminated.terms == {}

    def test_no_resonant_support(self):
        H = PolyJet(2, 2, {((1, 1), 0): 2.0, ((1, 1), 1): -1.0})
        split = split_homogeneous(QUARTER_HALF, H)
        assert split.resonant.terms == {}
        image = naive_operator(QUARTER_HALF.T, split.eliminated)
        assert image.max_coeff_diff(H) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3), st.integers(2, 4))
    def test_contract_on_random_parts(self, seed, n, q):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        terms = {}
        for index in multi_indices(n, q):
            for j in range(n):
                if rng.random() < 0.6:
                    terms[(index, j)] = complex(rng.normal(), rng.normal())
        H = PolyJet(n, q, terms)
        split = split_homogeneous(s, H)
        recomposed = split.resonant + naive_operator(s.T, split.eliminated)
        scale = max(1.0, H.max_abs_coeff())
        assert recomposed.max_coeff_diff(H) < 1e-10 * scale
        assert not subresonant_offenders(split.resonant, s)
        # kept support is resonant, removed part vanishes there
        res = set(resonant_positions(s, q))
        assert set(split.resonant.terms) <= res
        assert not (set(split.eliminated.terms) & res)


def dense_split(s, H):
    """Back-substitution on the dense matrix: the split without sparse columns."""
    m = build_matrix(s, H.degree)
    dim = len(m.ordering)
    rank = {pair: r for r, pair in enumerate(m.ordering.pairs)}
    residual = np.zeros(dim, dtype=complex)
    for key, coeff in H.terms.items():
        residual[rank[key]] = coeff
    kept = np.zeros(dim, dtype=complex)
    removed = np.zeros(dim, dtype=complex)
    for r in range(dim - 1, -1, -1):
        comp = m.ordering.pairs[r][1]
        if abs(m.entries[r, r]) <= DEFAULT_RES_TOL * abs(s.diag[comp]):
            kept[r], residual[r] = residual[r], 0.0
        elif residual[r] != 0:
            removed[r] = residual[r] / m.entries[r, r]
            residual -= removed[r] * m.entries[:, r]
            residual[r] = 0.0

    def as_part(vec):
        return PolyJet(s.n, H.degree,
                       {m.ordering.pairs[r]: vec[r] for r in range(dim) if vec[r] != 0})

    return as_part(kept), as_part(removed)


class TestSplitErrors:
    def test_highest_rank_offender_is_reported(self):
        # |l_1| lies 2e-6 above l_2^2 and 1e-6 above l_2 l_3: with res_tol 1e-5
        # both are resonant and neither is sub-resonant (l_3^2 is both)
        s = analyze_spectrum(np.diag([0.250002, 0.5, 0.500002]))
        with pytest.raises(IllConditionedResonance) as info:
            split_homogeneous(s, PolyJet(3, 2), res_tol=1e-5)
        assert str(info.value) == (
            "divisor 2e-06 at ((0, 2, 0), 0) is resonantly small but the position is "
            "not sub-resonant; res_tol and the log-space tolerance are inconsistent "
            "for this spectrum")

    def test_term_of_another_degree_is_refused(self):
        # the split reads the degree from H.degree, and H holds a linear term
        H = PolyJet(2, 2, {((1, 0), 0): 1.0, ((0, 2), 0): 1.0})
        with pytest.raises(DegreeOutOfRange, match=r"term \(\(1, 0\), 0\) has degree 1, not 2"):
            split_homogeneous(QUARTER_HALF, H)


class TestSparseSplit:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3), st.integers(2, 5))
    def test_matches_dense_back_substitution(self, seed, n, q):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        terms = {(index, j): complex(rng.normal(), rng.normal())
                 for index in multi_indices(n, q) for j in range(n) if rng.random() < 0.6}
        H = PolyJet(n, q, terms)
        split = split_homogeneous(s, H)
        resonant, eliminated = dense_split(s, H)
        assert split.resonant == resonant
        assert split.eliminated == eliminated

    def test_diagonal_split_allocates_no_dense_operator(self):
        # n=10, q=3: the dense operator would be 2200^2 complex entries, 77 MB.
        s = analyze_spectrum(np.diag(0.6 ** np.array([3, 3, 3, 2, 2, 2, 2, 1, 1, 1]))
                             .astype(complex))
        H = PolyJet(10, 3, {(index, j): 1.0 - 0.5j
                         for index in multi_indices(10, 3) for j in range(10)})
        start = time.perf_counter()
        split = split_homogeneous(s, H)
        elapsed = time.perf_counter() - start
        assert split.resonant.terms and split.eliminated.terms
        tracemalloc.start()
        try:
            split_homogeneous(s, H)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert elapsed < 1.0


def reference_multiply(a, b):
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            key = tuple(x + y for x, y in zip(ia, ib))
            out[key] = out.get(key, 0j) + ca * cb
    return out


def reference_split(s, H, res_tol=DEFAULT_RES_TOL):
    """The split as one pass per basis position: every column of the
    operator assembled on its own, diagonal entry first, then
    back-substituted from the largest rank down, dividing by ``l^I - l_j``.

    Returns ``(kept, removed, divisor_min, warnings)``.
    """
    n, q, T = s.n, H.degree, s.T
    pairs = sorted(((index, comp) for index in multi_indices(n, q) for comp in range(n)),
                   key=term_sort_key)
    rank = {pair: r for r, pair in enumerate(pairs)}
    columns, diag = [], np.zeros(len(pairs), dtype=complex)
    # T's linear terms in term order: the last variable first
    linear_forms = [{tuple(int(i == k) for i in range(n)): complex(T[t, k])
                     for k in reversed(range(t, n)) if T[t, k] != 0} for t in range(n)]
    one = {(0,) * n: 1.0 + 0j}
    powers = [[one] for _ in range(n)]
    for start in range(0, len(pairs), n):
        index = pairs[start][0]
        acc = one
        for t, e in enumerate(index):
            if e == 0:
                continue
            while len(powers[t]) <= e:
                powers[t].append(reference_multiply(powers[t][-1], linear_forms[t]))
            acc = reference_multiply(acc, powers[t][e])
        monos = [index] + [mono for mono in acc if mono != index]
        base = np.array([rank[(mono, 0)] for mono in monos])
        expanded = 0j + np.array([acc.get(mono, 0j) for mono in monos], dtype=complex)
        lam_I = np.prod(s.diag ** np.array(index))
        for comp in range(n):
            rows, values = base + comp, expanded.copy()
            above = [i for i in range(comp) if T[i, comp] != 0]
            values[0] -= T[comp, comp]
            if above:
                rows = np.concatenate([rows, start + np.array(above)])
                values = np.concatenate([values, [0j - T[i, comp] for i in above]])
            columns.append((rows, values))
            diag[start + comp] = lam_I - s.diag[comp]
    residual = np.zeros(len(pairs), dtype=complex)
    for key, coeff in H.terms.items():
        residual[rank[key]] = coeff
    kept = np.zeros(len(pairs), dtype=complex)
    removed = np.zeros(len(pairs), dtype=complex)
    divisors, warnings = [], []
    for r in range(len(pairs) - 1, -1, -1):
        index, comp = pairs[r]
        divisor = abs(diag[r])
        scale = abs(s.diag[comp])
        divisors.append(float(divisor))
        if divisor <= res_tol * scale:
            kept[r] = residual[r]
            residual[r] = 0.0
            continue
        if divisor <= SMALL_DIVISOR_REL * scale:
            warnings.append(f"small divisor {divisor:.3g} at position {(index, comp)}")
        if residual[r] != 0:
            rows, values = columns[r]
            removed[r] = residual[r] / diag[r]
            residual[rows] -= removed[r] * values
            residual[r] = 0.0

    def as_part(vec):
        return PolyJet(n, q, {pairs[r]: vec[r] for r in range(len(pairs)) if vec[r] != 0})

    positive = [d for d in divisors if d > 0]
    return (as_part(kept), as_part(removed), min(positive) if positive else float("inf"),
            tuple(warnings))


def exact_terms(p):
    """The terms of a part with their signed zeros: ``-0.0 == 0.0`` but reprs differ."""
    return repr(sorted(p.terms.items()))


def reference_spectrum(rng, n, q, kind):
    """A spectrum of the given kind: 'diagonal' and 'coupled' are random with
    separated divisors; 'resonant' is ``l_k = w^{e_k}`` with integers
    ``q = e_1 >= e_k >= e_n = 1``, coupled above the diagonal, so that
    degree ``q`` has exact resonances; 'near' is that with ``l_1`` moved by
    1e-7, which turns the resonances of ``l_1`` into small divisors."""
    if kind in ("diagonal", "coupled"):
        return random_spectrum(rng, n, diagonal=kind == "diagonal")
    w = rng.uniform(0.45, 0.7) * np.exp(2j * np.pi * rng.random())
    exps = np.sort(np.concatenate([[q], rng.integers(1, q + 1, size=max(n - 2, 0)), [1]]))[::-1][:n]
    diag = w ** exps
    if kind == "near":
        diag[0] *= 1 - 1e-7
    T = np.diag(diag) + np.triu(0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))), 1)
    return analyze_spectrum(T)


class TestArraySplit:
    """The array split equals the one-pass-per-position reference exactly."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 5),
           st.sampled_from(["diagonal", "coupled", "resonant", "near"]))
    def test_matches_reference_split(self, seed, n, q, kind):
        self.check_against_reference(seed, n, q, kind)

    # The sizes of the benchmark's diagonal spectra: only the eigenvalue chain
    # makes the diagonal there; resonant spectra are coupled and use the table too.
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(5, 8), st.integers(2, 3),
           st.sampled_from(["diagonal", "resonant"]))
    def test_matches_reference_split_up_to_n8(self, seed, n, q, kind):
        self.check_against_reference(seed, n, q, kind)

    @staticmethod
    def check_against_reference(seed, n, q, kind):
        rng = np.random.default_rng(seed)
        s = reference_spectrum(rng, n, q, kind)
        terms = {}
        for index in multi_indices(n, q):
            for j in range(n):
                u = rng.random()
                if u < 0.1:  # signed zeros must survive as they did
                    terms[(index, j)] = complex(rng.normal(), -0.0)
                elif u < 0.7:
                    terms[(index, j)] = complex(rng.normal(), rng.normal())
        H = PolyJet(n, q, terms)
        kept, removed, divisor_min, warnings = reference_split(s, H)
        split = split_homogeneous(s, H)
        assert split.resonant == kept and exact_terms(split.resonant) == exact_terms(kept)
        assert split.eliminated == removed
        assert exact_terms(split.eliminated) == exact_terms(removed)
        assert split.divisor_min == divisor_min
        assert split.warnings == warnings

    def test_diagonal_split_at_n16_q4(self):
        # dim 62,016; measured 0.04-0.06 s and a 6.9 MiB tracemalloc peak on a
        # 2-core x86-64 machine (with a Python pair per position: 0.17-0.19 s,
        # 15.5 MiB; one pass per position: 1.05 s, 40.8 MiB).
        s = analyze_spectrum(np.diag(0.7 ** np.array(
            [4, 4, 4, 3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1])).astype(complex))
        H = PolyJet(16, 4, {(index, k % 3): 1.0 - 0.5j
                         for k, index in enumerate(multi_indices(16, 4))})
        start = time.perf_counter()
        split = split_homogeneous(s, H)
        elapsed = time.perf_counter() - start
        assert basis_dimension(16, 4) == 62_016
        assert len(split.resonant.terms) == 70 and split.eliminated.terms
        tracemalloc.start()
        try:
            split_homogeneous(s, H)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
        assert elapsed < 3.0

    def test_dense_split_at_n16_q4_skips_revalidation(self, monkeypatch):
        # Every one of the 62,016 positions set.  Measured 0.16-0.20 s on a 2-core
        # x86-64 machine (0.30-0.32 s with a Python pair per position; 0.85 s
        # while both parts went through the validating constructor).
        s = analyze_spectrum(np.diag(0.7 ** np.array(
            [4, 4, 4, 3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1])).astype(complex))
        H = PolyJet(16, 4, {(index, j): 1.0 - 0.5j
                         for index in multi_indices(16, 4) for j in range(16)})
        assert len(H.terms) == 62_016
        validated = []
        validating = PolyJet.__init__

        def counting(self, *args, **kwargs):
            validated.append(type(self))
            validating(self, *args, **kwargs)

        monkeypatch.setattr(PolyJet, "__init__", counting)
        start = time.perf_counter()
        split = split_homogeneous(s, H)
        elapsed = time.perf_counter() - start
        assert len(split.resonant.terms) == 210
        assert len(split.resonant.terms) + len(split.eliminated.terms) == 62_016
        assert split.resonant.degree == split.eliminated.degree == 4
        assert validated == []
        assert elapsed < 1.0

    def test_near_resonance_warns_in_reference_order(self):
        s = reference_spectrum(np.random.default_rng(3), 3, 3, "near")
        H = PolyJet(3, 3, {(index, j): 1.0 + 0j
                           for index in multi_indices(3, 3) for j in range(3)})
        split = split_homogeneous(s, H)
        assert split.warnings and split.warnings == reference_split(s, H)[3]


class TestRankIdentity:
    """Sub-resonant basis plus operator image spans every degree."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_span(self, seed, n):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        for q in range(2, s.c0 + 2):
            m = build_matrix(s, q)
            dim = basis_dimension(n, q)
            rank = {pair: r for r, pair in enumerate(m.ordering.pairs)}
            columns = [m.entries]
            for key in enumerate_subresonant_basis(s, q):
                e = np.zeros((dim, 1), dtype=complex)
                e[rank[key], 0] = 1.0
                columns.append(e)
            stacked = np.hstack(columns)
            assert np.linalg.matrix_rank(stacked, tol=1e-10) == dim
