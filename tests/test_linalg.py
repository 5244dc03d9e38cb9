import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import char_poly_coeffs, random_spectrum
import srnf
from srnf.errors import NotContracting, NotTriangular, ValidationError
from srnf.linalg import analyze_spectrum, rescale_nilpotent, triangularize


class TestTriangularize:
    def test_already_adapted_is_untouched(self):
        A = np.diag([0.25, 0.5]).astype(complex)
        Q, T = triangularize(A)
        assert np.array_equal(Q, np.eye(2))
        assert np.array_equal(T, A)

    def test_upper_triangular_reorder(self):
        A = np.array([[0.5, 3.0], [0.0, 0.25]], dtype=complex)
        Q, T = triangularize(A)
        assert np.allclose(Q.conj().T @ Q, np.eye(2), atol=1e-12)
        assert np.allclose(Q.conj().T @ A @ Q, T, atol=1e-10 * np.linalg.norm(A))
        assert abs(T[0, 0]) == pytest.approx(0.25)
        assert abs(T[1, 1]) == pytest.approx(0.5)
        assert T[1, 0] == 0

    def test_lower_triangular_input(self):
        A = np.array([[0.5, 0.0], [1.0, 0.25]], dtype=complex)
        Q, T = triangularize(A)
        assert np.count_nonzero(np.tril(T, -1)) == 0
        assert abs(T[0, 0]) == pytest.approx(0.25)
        assert abs(T[1, 1]) == pytest.approx(0.5)
        # eigenvalue multiset preserved: compare characteristic polynomials
        assert np.allclose(char_poly_coeffs(A), char_poly_coeffs(T), atol=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_random_matrices(self, seed, n):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Q, T = triangularize(A)
        assert np.max(np.abs(Q.conj().T @ Q - np.eye(n))) < 1e-12
        assert np.allclose(Q.conj().T @ A @ Q, T, atol=1e-10 * max(1, np.linalg.norm(A)))
        moduli = np.abs(np.diag(T))
        assert np.all(moduli[:-1] <= moduli[1:] * (1 + 1e-12))
        assert np.allclose(char_poly_coeffs(A), char_poly_coeffs(T),
                           atol=1e-8 * max(1, np.linalg.norm(A) ** n))


class TestAnalyzeSpectrum:
    def test_c0_quarter_half(self):
        s = analyze_spectrum(np.diag([0.25, 0.5]).astype(complex))
        assert s.c0 == 2
        assert s.degree_bound == 2
        assert s.blocks == ((0,), (1,))

    def test_c0_eighth_half(self):
        s = analyze_spectrum(np.diag([0.125, 0.5]).astype(complex))
        assert s.c0 == 3

    def test_not_contracting(self):
        with pytest.raises(NotContracting):
            analyze_spectrum(np.diag([0.5, 2.0]).astype(complex))

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(NotContracting):
            analyze_spectrum(np.diag([0.0, 0.5]).astype(complex))

    def test_not_triangular(self):
        with pytest.raises(NotTriangular):
            analyze_spectrum(np.array([[0.5, 0.0], [0.1, 0.25]], dtype=complex))

    def test_unordered_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            analyze_spectrum(np.diag([0.5, 0.25]).astype(complex))

    def test_equal_moduli_share_a_block(self):
        s = analyze_spectrum(np.diag([0.5, 0.5j]).astype(complex))
        assert s.blocks == ((0, 1),)
        assert s.block_of == (0, 0)
        assert s.c0 == 1

    def test_idempotent_on_own_matrix(self):
        s = analyze_spectrum(np.diag([0.2, 0.3, 0.3]).astype(complex))
        again = analyze_spectrum(s.T)
        assert np.array_equal(again.diag, s.diag)
        assert again.blocks == s.blocks

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_random_idempotence(self, seed, n):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, n)
        again = analyze_spectrum(s.T)
        assert np.array_equal(again.diag, s.diag)
        assert again.blocks == s.blocks
        assert again.c0 == s.c0


class TestRescaleNilpotent:
    def test_diagonal_untouched(self):
        T = np.diag([0.25, 0.5]).astype(complex)
        S, scaled = rescale_nilpotent(T, 0.01)
        assert np.array_equal(S, np.eye(2))
        assert np.array_equal(scaled, T)

    def test_two_by_two(self):
        T = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        S, scaled = rescale_nilpotent(T, 0.01)
        assert abs(scaled[0, 1]) <= 0.01
        assert scaled[0, 0] == 0.5 and scaled[1, 1] == 0.5
        # direct conjugation by diag(d, d^2) reproduces the scaled matrix
        assert np.allclose(np.linalg.inv(S) @ T @ S, scaled, atol=1e-15)

    def test_three_dim_jordan_like(self):
        T = np.diag([0.3, 0.3, 0.3]).astype(complex)
        T[0, 1] = 1.0
        T[1, 2] = 2.0
        T[0, 2] = 5.0
        S, scaled = rescale_nilpotent(T, 0.1)
        upper = np.triu(scaled, 1)
        assert np.max(np.abs(upper)) <= 0.1 + 1e-15
        assert np.array_equal(np.diag(scaled), np.diag(T))

    def test_eigenvalues_exactly_preserved(self):
        T = np.array([[0.2, 0.7, -0.3], [0.0, 0.4, 2.2], [0.0, 0.0, 0.6]],
                     dtype=complex)
        _, scaled = rescale_nilpotent(T, 1e-3)
        assert np.array_equal(np.diag(scaled), np.diag(T))


def test_import_defers_scipy_linalg():
    # Schur is scipy.linalg's only use; importing the package must not load it.
    env = dict(os.environ, PYTHONPATH=str(Path(srnf.__file__).parents[1]))
    probe = "import sys, srnf; sys.exit('scipy.linalg' in sys.modules)"
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)
