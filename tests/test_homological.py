import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import multi_indices, random_spectrum, resonant_positions
from test_acceptance import naive_operator
from srnf.homological import (
    DEFAULT_RES_TOL,
    SMALL_DIVISOR_REL,
    apply_M,
    build_matrix,
    operator_columns,
    split_homogeneous,
)
from srnf.errors import IllConditionedResonance
from srnf.linalg import analyze_spectrum
from srnf.polymap import (
    HomogeneousPart,
    PolyJet,
    _linear_terms,
    _PowerTable,
    basis_dimension,
    basis_ordering,
    term_sort_key,
)
from srnf.subresonance import (
    SubResonantMap,
    certify_subresonant,
    enumerate_subresonant_basis,
    is_subresonant_monomial,
)

QUARTER_HALF = analyze_spectrum(np.diag([0.25, 0.5]).astype(complex))


def part(n, q, terms):
    return HomogeneousPart(n, q, terms)


class TestOrderCompare:
    def test_basis_ordering_matches_sorted_term_keys(self):
        for n in range(1, 9):
            for q in range(1, 6):
                expected = tuple(sorted(
                    ((index, comp) for index in multi_indices(n, q) for comp in range(n)),
                    key=term_sort_key))
                ordering = basis_ordering(n, q)
                assert ordering.pairs == expected
                assert ordering.rank == {pair: r for r, pair in enumerate(expected)}

    def test_matches_basis_ordering(self):
        ordering = basis_ordering(2, 2)
        pairs = ordering.pairs
        assert pairs == (((0, 2), 0), ((0, 2), 1), ((1, 1), 0), ((1, 1), 1),
                         ((2, 0), 0), ((2, 0), 1))


class TestApplyM:
    def test_resonant_kernel_element(self):
        # (l2^2 - l1) = 0 for l = (1/4, 1/2)
        out = apply_M(QUARTER_HALF, part(2, 2, {((0, 2), 0): 1.0}))
        assert out.terms == {}

    def test_nonresonant_diagonal_value(self):
        out = apply_M(QUARTER_HALF, part(2, 2, {((2, 0), 1): 1.0}))
        assert out.terms == {((2, 0), 1): pytest.approx(1 / 16 - 1 / 2)}

    def test_jordan_coupling_cancels(self):
        # with T = [[1/4, 1], [0, 1/2]] both summands give z2^2/4 e1
        T = np.array([[0.25, 1.0], [0.0, 0.5]], dtype=complex)
        s = analyze_spectrum(T)
        out = apply_M(s, part(2, 2, {((0, 2), 0): 1.0}))
        assert out.terms == {}


class TestBuildMatrix:
    def test_diagonal_spectrum_is_diagonal(self):
        m = build_matrix(QUARTER_HALF, 2)
        off = m.entries - np.diag(np.diag(m.entries))
        assert np.count_nonzero(off) == 0
        assert np.allclose(np.diag(m.entries), m.diag, atol=1e-15)

    def test_hand_entries(self):
        m = build_matrix(QUARTER_HALF, 2)
        r1 = m.ordering.rank[((0, 2), 0)]
        r2 = m.ordering.rank[((2, 0), 1)]
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
        h = part(n, q, terms)
        m = build_matrix(s, q)
        via_matrix = m.apply(h)
        via_operator = apply_M(s, h)
        assert via_matrix.max_coeff_diff(via_operator) < 1e-12
        # apply_M and the matrix share the power table; the oracle shares nothing.
        oracle = naive_operator(s.T, h)
        assert via_matrix.max_coeff_diff(oracle) < 1e-12
        assert via_operator.max_coeff_diff(oracle) < 1e-12


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
            image = apply_M(s, part(n, q, terms))
            assert isinstance(certify_subresonant(image, s), SubResonantMap)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_non_subresonant_input_gives_non_subresonant_image(self, seed, n):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        q = int(rng.integers(2, 5))
        bad = [(index, j) for index in multi_indices(n, q) for j in range(n)
               if not is_subresonant_monomial(index, j, s)
               and float(np.dot(index, s.log_moduli)) < s.log_moduli[j] - 0.05]
        if not bad:
            return
        terms = {bad[int(rng.integers(len(bad)))]: complex(0.5 + rng.random(), rng.normal())}
        for index in multi_indices(n, q):  # mix in whatever else
            for j in range(n):
                if rng.random() < 0.3 and (
                        is_subresonant_monomial(index, j, s)
                        or float(np.dot(index, s.log_moduli)) < s.log_moduli[j] - 0.05):
                    terms.setdefault((index, j), complex(rng.normal(), rng.normal()))
        image = apply_M(s, part(n, q, terms))
        assert not isinstance(certify_subresonant(image, s), SubResonantMap)


class TestSplit:
    def test_hand_example(self):
        H = part(2, 2, {((1, 1), 0): 1.0, ((0, 2), 0): 1.0, ((2, 0), 1): 1.0})
        split = split_homogeneous(QUARTER_HALF, H)
        assert split.resonant.terms == {((0, 2), 0): 1.0}
        assert split.eliminated.coefficient((1, 1), 0) == pytest.approx(-8.0)
        assert split.eliminated.coefficient((2, 0), 1) == pytest.approx(-16 / 7)
        recomposed = split.resonant + apply_M(QUARTER_HALF, split.eliminated)
        assert recomposed.max_coeff_diff(H) < 1e-10

    def test_purely_resonant_input(self):
        H = part(2, 2, {((0, 2), 0): 3.5})
        split = split_homogeneous(QUARTER_HALF, H)
        assert split.resonant == H
        assert split.eliminated.terms == {}

    def test_no_resonant_support(self):
        H = part(2, 2, {((1, 1), 0): 2.0, ((1, 1), 1): -1.0})
        split = split_homogeneous(QUARTER_HALF, H)
        assert split.resonant.terms == {}
        image = apply_M(QUARTER_HALF, split.eliminated)
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
        H = part(n, q, terms)
        split = split_homogeneous(s, H)
        recomposed = split.resonant + apply_M(s, split.eliminated)
        scale = max(1.0, H.max_abs_coeff())
        assert recomposed.max_coeff_diff(H) < 1e-10 * scale
        assert isinstance(certify_subresonant(split.resonant, s), SubResonantMap)
        # kept support is resonant, removed part vanishes there
        res = set(resonant_positions(s, q))
        assert set(split.resonant.terms) <= res
        assert not (set(split.eliminated.terms) & res)


def dense_split(s, H):
    """Back-substitution on the dense matrix: the split without sparse columns."""
    m = build_matrix(s, H.q)
    dim = len(m.ordering)
    residual = np.zeros(dim, dtype=complex)
    for key, coeff in H.terms.items():
        residual[m.ordering.rank[key]] = coeff
    kept = np.zeros(dim, dtype=complex)
    removed = np.zeros(dim, dtype=complex)
    for r in range(dim - 1, -1, -1):
        comp = m.ordering.pairs[r][1]
        if abs(m.diag[r]) <= DEFAULT_RES_TOL * abs(s.diag[comp]):
            kept[r], residual[r] = residual[r], 0.0
        elif residual[r] != 0:
            removed[r] = residual[r] / m.entries[r, r]
            residual -= removed[r] * m.entries[:, r]
            residual[r] = 0.0

    def as_part(vec):
        return part(s.n, H.q, {m.ordering.pairs[r]: vec[r] for r in range(dim) if vec[r] != 0})

    return as_part(kept), as_part(removed)


class TestSplitErrors:
    def test_highest_rank_offender_is_reported(self):
        # |l_1| lies 2e-6 above l_2^2 and 1e-6 above l_2 l_3: with res_tol 1e-5
        # both are resonant and neither is sub-resonant (l_3^2 is both)
        s = analyze_spectrum(np.diag([0.250002, 0.5, 0.500002]))
        with pytest.raises(IllConditionedResonance) as info:
            split_homogeneous(s, HomogeneousPart.zero_part(3, 2), res_tol=1e-5)
        assert str(info.value) == (
            "divisor 2e-06 at ((0, 2, 0), 0) is resonantly small but the position is "
            "not sub-resonant; res_tol and the log-space tolerance are inconsistent "
            "for this spectrum")


class TestSparseSplit:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3), st.integers(2, 5))
    def test_matches_dense_back_substitution(self, seed, n, q):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        terms = {(index, j): complex(rng.normal(), rng.normal())
                 for index in multi_indices(n, q) for j in range(n) if rng.random() < 0.6}
        H = part(n, q, terms)
        split = split_homogeneous(s, H)
        resonant, eliminated = dense_split(s, H)
        assert split.resonant == resonant
        assert split.eliminated == eliminated

    def test_diagonal_split_allocates_no_dense_operator(self):
        # n=10, q=3: the dense operator would be 2200^2 complex entries, 77 MB.
        s = analyze_spectrum(np.diag(0.6 ** np.array([3, 3, 3, 2, 2, 2, 2, 1, 1, 1]))
                             .astype(complex))
        H = part(10, 3, {(index, j): 1.0 - 0.5j
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
    back-substituted from the largest rank down.

    Returns ``(kept, removed, divisor_min, resonant_positions, warnings)``.
    """
    n, q, T = s.n, H.q, s.T
    pairs = sorted(((index, comp) for index in multi_indices(n, q) for comp in range(n)),
                   key=term_sort_key)
    rank = {pair: r for r, pair in enumerate(pairs)}
    columns, diag = [], np.zeros(len(pairs), dtype=complex)
    linear_forms = [{tuple(int(i == k) for i in range(n)): complex(T[t, k])
                     for k in range(t, n) if T[t, k] != 0} for t in range(n)]
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
    divisors, resonant, warnings = [], [], []
    for r in range(len(pairs) - 1, -1, -1):
        index, comp = pairs[r]
        divisor = abs(diag[r])
        scale = abs(s.diag[comp])
        divisors.append(float(divisor))
        if divisor <= res_tol * scale:
            resonant.append((index, comp))
            kept[r] = residual[r]
            residual[r] = 0.0
            continue
        if divisor <= SMALL_DIVISOR_REL * scale:
            warnings.append(f"small divisor {divisor:.3g} at position {(index, comp)}")
        if residual[r] != 0:
            rows, values = columns[r]
            removed[r] = residual[r] / values[0]
            residual[rows] -= removed[r] * values
            residual[r] = 0.0

    def as_part(vec):
        return part(n, q, {pairs[r]: vec[r] for r in range(len(pairs)) if vec[r] != 0})

    positive = [d for d in divisors if d > 0]
    return (as_part(kept), as_part(removed), min(positive) if positive else float("inf"),
            tuple(reversed(resonant)), tuple(warnings))


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
        H = part(n, q, terms)
        kept, removed, divisor_min, positions, warnings = reference_split(s, H)
        split = split_homogeneous(s, H)
        assert split.resonant == kept and exact_terms(split.resonant) == exact_terms(kept)
        assert split.eliminated == removed
        assert exact_terms(split.eliminated) == exact_terms(removed)
        assert split.divisor_min == divisor_min
        assert split.resonant_positions == positions
        assert split.warnings == warnings

    def test_diagonal_split_at_n16_q4(self):
        # dim 62,016; measured 0.04-0.06 s and a 6.9 MiB tracemalloc peak on a
        # 2-core x86-64 machine (with a Python pair per position: 0.17-0.19 s,
        # 15.5 MiB; one pass per position: 1.05 s, 40.8 MiB).
        s = analyze_spectrum(np.diag(0.7 ** np.array(
            [4, 4, 4, 3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1])).astype(complex))
        H = part(16, 4, {(index, k % 3): 1.0 - 0.5j
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
        H = part(16, 4, {(index, j): 1.0 - 0.5j
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
        assert split.resonant.q == split.eliminated.q == 4
        assert validated == []
        assert elapsed < 1.0

    def test_near_resonance_warns_in_reference_order(self):
        s = reference_spectrum(np.random.default_rng(3), 3, 3, "near")
        H = part(3, 3, {(index, j): 1.0 + 0j for index in multi_indices(3, 3) for j in range(3)})
        split = split_homogeneous(s, H)
        assert split.warnings and split.warnings == reference_split(s, H)[4]


class TestDiagonalChain:
    """The diagonal is bit for bit what a power table over ``T`` gives, signed zeros included."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(2, 4), st.booleans())
    def test_matches_power_table(self, seed, n, q, coupled):
        rng = np.random.default_rng(seed)
        # real eigenvalues of both signs, some conjugated to -0.0 imaginary
        # parts, give products with signed zero parts
        diag = rng.choice([-1.0, 1.0], n) * rng.uniform(0.3, 0.9, n) + 0j
        diag = np.where(rng.random(n) < 0.3, diag * np.exp(2j * np.pi * rng.random(n)), diag)
        diag = np.where(rng.random(n) < 0.3, np.conj(diag), diag)
        diag = diag[np.argsort(np.abs(diag), kind="stable")]
        T = np.diag(diag) + coupled * np.triu(0.3 * rng.normal(size=(n, n)), 1)
        s = analyze_spectrum(T.astype(complex))
        ordering, diagonal, _, _ = operator_columns(s, q)
        table = _PowerTable(n, q)
        table.reveal(_linear_terms(s.T))
        codes = (ordering.exponents @ np.array(table.radix)).tolist()
        leading = [table.power(index, q)[q][code]
                   for index, code in zip(map(tuple, ordering.exponents.tolist()), codes)]
        expected = (np.array(leading)[:, None] - np.diagonal(s.T)).ravel()
        assert diagonal.tobytes() == expected.tobytes()


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
            columns = [m.entries]
            for key in enumerate_subresonant_basis(s, q):
                e = np.zeros((dim, 1), dtype=complex)
                e[m.ordering.rank[key], 0] = 1.0
                columns.append(e)
            stacked = np.hstack(columns)
            assert np.linalg.matrix_rank(stacked, tol=1e-10) == dim
