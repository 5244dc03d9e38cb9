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
from srnf.errors import NoConvergence, NotContracting, NotTriangular, ValidationError
from srnf.linalg import analyze_spectrum, triangularize


def random_unitary(rng, n):
    Q, R = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def schur_of(A):
    """``triangularize(A)`` after checking it is a Schur form of ``A``.

    Backward error and unitarity are relative to ``||A||_F``; entries below
    the diagonal are exact zeros, and moduli are nondecreasing up to the ulp a
    swap of two equal moduli may leave.  For n <= 6 the eigenvalues are
    checked without an eigenvalue solver: Faddeev-LeVerrier coefficients of
    A and T agree to a bound scaled by ``||A||_F^k`` in degree k.
    """
    n = len(A)
    Q, T = triangularize(A)
    scale = np.linalg.norm(A)
    assert np.linalg.norm(Q.conj().T @ A @ Q - T) <= 1e-13 * scale
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(n)) <= 1e-13
    assert not np.any(np.tril(T, -1))
    moduli = np.abs(np.diag(T))
    assert np.all(moduli[:-1] <= moduli[1:] * (1 + 4 * np.finfo(float).eps))
    if n <= 6:
        gap = np.abs(char_poly_coeffs(A) - char_poly_coeffs(T))
        assert np.all(gap <= 1e-12 * max(1.0, scale) ** np.arange(n + 1))
    return Q, T


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 16))
    def test_random_schur_forms(self, seed, n):
        rng = np.random.default_rng(seed)
        schur_of(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 16))
    def test_conjugated_jordan_block(self, seed, n):
        # defective: eig returns n nearly parallel eigenvectors of one eigenvalue
        rng = np.random.default_rng(seed)
        lam = 0.6 * np.exp(2j * np.pi * rng.random())
        J = lam * np.eye(n) + np.eye(n, k=1)
        U = random_unitary(rng, n)
        _, T = schur_of(U @ J @ U.conj().T)
        if n <= 6:
            assert np.allclose(char_poly_coeffs(T), np.poly(np.full(n, lam)), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 16))
    def test_equal_moduli_distinct_arguments(self, seed, n):
        rng = np.random.default_rng(seed)
        angles = 2 * np.pi * (np.arange(n) + 0.5 * rng.random(n)) / n
        diag = 0.5 * np.exp(1j * angles)
        U = random_unitary(rng, n)
        _, T = schur_of(U @ np.diag(diag) @ U.conj().T)
        # a normal matrix with arguments pi/n apart: each eigenvalue is
        # conditioned to ||A|| eps and sits next to exactly one of diag
        distance = np.abs(np.diag(T)[:, None] - diag[None, :])
        assert np.max(distance.min(axis=0)) < 1e-13
        assert np.max(distance.min(axis=1)) < 1e-13

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 16))
    def test_permuted_diagonal(self, seed, n):
        # P D P^T is diagonal again: the triangular path, where only swaps act
        rng = np.random.default_rng(seed)
        diag = rng.uniform(0.1, 0.9, n) * np.exp(2j * np.pi * rng.random(n))
        P = np.eye(n)[rng.permutation(n)]
        Q, T = schur_of(P @ np.diag(diag) @ P.T)
        order = np.argsort(np.abs(diag), kind="stable")
        # each swap is a rotation by a unit phase: a few ulps per entry
        assert np.allclose(np.diag(T), diag[order], rtol=1e-14, atol=0)
        assert np.allclose(np.abs(Q), P[:, order], rtol=0, atol=1e-14)

    def test_permuted_triangular_is_deflated(self):
        # reversing the basis of an upper triangular matrix makes it lower triangular
        T0 = np.triu(np.arange(1.0, 17.0).reshape(4, 4)) / 20 + np.diag([0.1, 0.2, 0.3, 0.4])
        R = np.eye(4)[::-1]
        _, T = schur_of(R @ T0 @ R)
        assert np.allclose(np.diag(T), np.diag(T0), atol=1e-14)

    def test_eigenvalue_failure_is_no_convergence(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", fail)
        with pytest.raises(NoConvergence, match="eigenvalue iteration failed"):
            triangularize(np.array([[0.5, 0.0], [1.0, 0.25]]))


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


# Runs ``python -m srnf`` as runpy does, then lists the scipy modules loaded.
_SCIPY_PROBE = """
import runpy, sys
try:
    runpy.run_module("srnf", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
sys.stderr.write(f"\\nscipy modules: {loaded}\\n")
sys.exit(code)
"""


@pytest.mark.parametrize("command", ["normal-form", "verify"])
def test_cli_runs_without_scipy(command):
    # a non-triangular germ in original coordinates goes through triangularize
    germ = Path(__file__).parent / "data" / "coupled_n3_original.json"
    env = dict(os.environ, PYTHONPATH=str(Path(srnf.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, command, str(germ)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stderr.endswith("scipy modules: []\n")
