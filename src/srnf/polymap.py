"""Sparse truncated polynomial self-maps of C^n (jets).

A jet collects monomial terms ``c * z^I e_j`` with multi-index ``I``,
component ``j`` and complex coefficient ``c``, for ``1 <= |I| <= D``.  Jets
fix the origin by construction; affine parts live elsewhere.  Storage is a
canonical sparse association ``(I, j) -> c`` with no exactly-zero
coefficients, so two jets are equal iff their term dictionaries are equal.

Term iteration is deterministic: graded by total degree, then by the
anti-lexicographic-from-the-right monomial order that :func:`basis_ordering`
lays out for the homological operators, then by component.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import DegreeOutOfRange, DimensionMismatch, SingularLinearPart

# Coefficients below PRUNE_REL_TOL times the largest same-degree coefficient
# are treated as arithmetic noise.
PRUNE_REL_TOL = 1e-14

# Condition-number cap for linear parts that must be inverted.
COND_CAP = 1e12

# Exponents are held in int64 arrays, so no jet may have a larger degree.
MAX_DEGREE = 2**63 - 1

MultiIndex = tuple[int, ...]
TermKey = tuple[MultiIndex, int]


def monomial_order_key(index: MultiIndex) -> tuple[int, ...]:
    """Sort key for the ordering in which later-variable exponents dominate.

    Sorting multi-indices of one degree by this key puts first the index
    with the largest exponent on z_n, ties broken by z_{n-1}, and so on.
    """
    return tuple(-e for e in reversed(index))


def term_sort_key(key: TermKey) -> tuple:
    index, comp = key
    return (sum(index), monomial_order_key(index), comp)


@dataclass(frozen=True, eq=False)
class BasisOrdering:
    """All degree-``q`` monomial basis positions in ascending order.

    ``exponents`` holds the multi-indices in ascending order, one row each;
    position ``r`` is row ``r // n`` with component ``r % n``.
    """

    q: int
    n: int
    exponents: np.ndarray

    def __len__(self):
        return len(self.exponents) * self.n

    def positions(self, ranks: np.ndarray) -> list[TermKey]:
        """The ``(index, comp)`` keys of ``ranks``, as Python ints; adjacent
        ranks of one index share its tuple."""
        out, row, index = [], -1, None
        for rank in ranks.tolist():
            if rank // self.n != row:
                row = rank // self.n
                index = tuple(self.exponents[row].tolist())
            out.append((index, rank % self.n))
        return out

    @cached_property
    def pairs(self) -> tuple[TermKey, ...]:
        return tuple(self.positions(np.arange(len(self))))

    @cached_property
    def rank(self) -> dict[TermKey, int]:
        return dict(zip(self.pairs, range(len(self))))


def basis_ordering(n: int, q: int) -> BasisOrdering:
    """The degree-``q`` positions in the order of :func:`term_sort_key`, built
    in a few words of memory per row whatever ``q``."""
    rows = basis_dimension(n, q) // n
    if q + n - 1 > MAX_DEGREE:
        raise DegreeOutOfRange(f"degree {q} at n={n} overflows int64 exponents")
    if n == 1:
        return BasisOrdering(q=q, n=n, exponents=np.full((1, 1), q, dtype=np.int64))
    # Stars and bars: the n - 1 bars of a combination of range(q + n - 1) cut
    # q stars into the exponents of z_n, z_{n-1}, ..., z_1.  The combinations
    # come in lexicographic order, so reversed they give the largest z_n
    # exponent first, ties broken by z_{n-1}, and so on.
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(q + n - 1), n - 1)),
        dtype=np.int64, count=rows * (n - 1)).reshape(rows, n - 1)[::-1]
    exponents = np.empty((rows, n), dtype=np.int64)
    gaps = exponents[:, ::-1]
    gaps[:, 0] = bars[:, 0]
    np.subtract(bars[:, 1:], bars[:, :-1], out=gaps[:, 1:-1])
    gaps[:, 1:-1] -= 1
    gaps[:, -1] = q + n - 2 - bars[:, -1]
    return BasisOrdering(q=q, n=n, exponents=exponents)


def basis_dimension(n: int, q: int) -> int:
    """dim of the space of q-homogeneous maps: n * C(q + n - 1, n - 1)."""
    if q < 1:
        raise DegreeOutOfRange(f"degree must be >= 1, got {q}")
    return n * math.comb(q + n - 1, n - 1)


class PolyJet:
    """Truncated polynomial map of C^n fixing the origin.

    Treat instances as immutable: all arithmetic returns new jets.
    """

    __slots__ = ("n", "degree", "terms", "_eval_arrays")

    def __init__(self, n: int, degree: int, terms: Mapping[TermKey, complex] | Iterable = ()):
        if n < 1:
            raise DimensionMismatch(f"dimension must be positive, got {n}")
        if not 1 <= degree <= MAX_DEGREE:
            raise DegreeOutOfRange(f"truncation degree must be in 1..2**63 - 1, got {degree}")
        canonical: dict[TermKey, complex] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (index, comp), coeff in items:
            index = tuple(int(e) for e in index)
            comp = int(comp)
            coeff = complex(coeff)
            if len(index) != n:
                raise DimensionMismatch(f"multi-index {index} has wrong length for n={n}")
            if any(e < 0 for e in index):
                raise ValueError(f"negative exponent in multi-index {index}")
            total = sum(index)
            if not 1 <= total <= degree:
                raise DegreeOutOfRange(f"term degree {total} outside 1..{degree}")
            if not 0 <= comp < n:
                raise DimensionMismatch(f"component {comp} outside 0..{n - 1}")
            if not np.isfinite(coeff.real) or not np.isfinite(coeff.imag):
                raise ValueError(f"non-finite coefficient at {(index, comp)}")
            if coeff != 0:
                canonical[(index, comp)] = coeff
        for name, value in zip(PolyJet.__slots__, (n, degree, canonical, None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, n: int, degree: int, terms: Mapping[TermKey, complex]):
        """Jet from terms that this package's arithmetic built: only finiteness is checked."""
        canonical: dict[TermKey, complex] = {}
        for key, coeff in terms.items():
            coeff = complex(coeff)
            if not cmath.isfinite(coeff):
                raise ValueError(f"non-finite coefficient at {key}")
            if coeff != 0:
                canonical[key] = coeff
        jet = object.__new__(cls)
        for name, value in zip(PolyJet.__slots__, (n, degree, canonical, None)):
            object.__setattr__(jet, name, value)
        return jet

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("PolyJet instances are immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int, degree: int = 1) -> "PolyJet":
        return cls(n, degree, {})

    @classmethod
    def identity(cls, n: int, degree: int = 1) -> "PolyJet":
        return cls.from_linear(np.eye(n), degree)

    @classmethod
    def from_linear(cls, matrix: np.ndarray, degree: int = 1) -> "PolyJet":
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {matrix.shape}")
        return cls(matrix.shape[0], degree, _linear_terms(matrix))

    # -- views ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[MultiIndex, int, complex]]:
        return [(index, comp, self.terms[(index, comp)])
                for index, comp in sorted(self.terms, key=term_sort_key)]

    def linear_part(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=complex)
        for (index, comp), coeff in self.terms.items():
            if sum(index) == 1:
                out[comp, index.index(1)] = coeff
        return out

    def max_degree(self) -> int:
        """Largest degree actually present (0 for the zero jet)."""
        return max((sum(index) for index, _ in self.terms), default=0)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def coefficient(self, index: MultiIndex, comp: int) -> complex:
        return self.terms.get((tuple(index), comp), 0j)

    # -- arithmetic ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyJet):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "PolyJet") -> "PolyJet":
        if not isinstance(other, PolyJet):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch("cannot add jets of different dimensions")
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, 0j) + coeff
        return PolyJet._trusted(self.n, max(self.degree, other.degree), merged)

    def __neg__(self) -> "PolyJet":
        return PolyJet._trusted(self.n, self.degree, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "PolyJet") -> "PolyJet":
        return self + (-other)

    def scaled(self, factor: complex) -> "PolyJet":
        return PolyJet._trusted(self.n, self.degree,
                                {k: factor * c for k, c in self.terms.items()})

    def truncated(self, degree: int) -> "PolyJet":
        if degree < 1:
            raise DegreeOutOfRange(f"truncation degree must be >= 1, got {degree}")
        terms = {k: c for k, c in self.terms.items() if sum(k[0]) <= degree}
        return PolyJet._trusted(self.n, degree, terms)

    def pruned(self) -> "PolyJet":
        return PolyJet._trusted(self.n, self.degree, _prune_terms(self.terms))

    def max_coeff_diff(self, other: "PolyJet") -> float:
        keys = set(self.terms) | set(other.terms)
        return max((abs(self.terms.get(k, 0j) - other.terms.get(k, 0j)) for k in keys),
                   default=0.0)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, z) -> np.ndarray:
        """Value at a point ``(n,)``, or at each row of a batch ``(m, n)`` with
        the arithmetic of a single point, from exactly the stored terms."""
        z = np.asarray(z, dtype=complex)
        if z.ndim not in (1, 2) or z.shape[-1] != self.n:
            raise DimensionMismatch(f"points have shape {z.shape}, expected (..., {self.n})")
        points = z.reshape(-1, self.n)
        out = np.zeros(points.shape, dtype=complex)
        if self.terms:
            exps, comps, coeffs = self._evaluation_arrays()
            # Operands of equal ndim: numpy multiplies a size-1 pair of
            # unequal ndim by another loop, which rounds differently.
            monomials = np.prod(points[:, None, :] ** exps[None], axis=2)
            np.add.at(out, (slice(None), comps), coeffs[None] * monomials)
        return out.reshape(z.shape)

    def _evaluation_arrays(self):
        cached = self._eval_arrays
        if cached is None:
            items = self.sorted_terms()
            exps = np.array([index for index, _, _ in items], dtype=np.int64)
            comps = np.array([comp for _, comp, _ in items], dtype=np.int64)
            coeffs = np.array([coeff for _, _, coeff in items], dtype=complex)
            cached = (exps, comps, coeffs)
            object.__setattr__(self, "_eval_arrays", cached)
        return cached

    def __repr__(self):
        return f"PolyJet(n={self.n}, degree={self.degree}, terms={len(self.terms)})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for index, comp, coeff in self.sorted_terms():
            mono = "*".join(f"z{k + 1}^{e}" if e > 1 else f"z{k + 1}"
                            for k, e in enumerate(index) if e)
            parts.append(f"({coeff:.6g})*{mono}*e{comp + 1}")
        return " + ".join(parts)


class HomogeneousPart(PolyJet):
    """A jet supported in a single total degree ``q`` (its truncation degree)."""

    __slots__ = ()

    def __init__(self, n: int, q: int, terms: Mapping[TermKey, complex] | Iterable = ()):
        if q < 1:
            raise DegreeOutOfRange(f"homogeneity degree must be >= 1, got {q}")
        super().__init__(n, q, terms)
        for index, _ in self.terms:
            if sum(index) != q:
                raise DegreeOutOfRange(
                    f"term {index} has degree {sum(index)}, expected {q}")

    @property
    def q(self) -> int:
        return self.degree

    @classmethod
    def zero_part(cls, n: int, q: int) -> "HomogeneousPart":
        return cls(n, q, {})


# -- term-level helpers ------------------------------------------------


def _linear_terms(matrix: np.ndarray) -> dict[TermKey, complex]:
    """Terms of ``z -> matrix @ z``, row by row."""
    n = len(matrix)
    return {(tuple(int(i == k) for i in range(n)), j): complex(matrix[j, k])
            for j in range(n) for k in range(n) if matrix[j, k] != 0}


def _prune_terms(terms: Mapping[TermKey, complex]) -> dict[TermKey, complex]:
    degree_max: dict[int, float] = {}
    for (index, _), coeff in terms.items():
        d = sum(index)
        a = abs(coeff)
        if a > degree_max.get(d, 0.0):
            degree_max[d] = a
    return {key: coeff for key, coeff in terms.items()
            if abs(coeff) >= PRUNE_REL_TOL * degree_max.get(sum(key[0]), 0.0)}


# Scalar polynomials inside the composition kernel are held in blocks by
# total degree and keyed by a mixed-radix packing of the exponents; integer key
# addition then realizes monomial multiplication without carries, because
# every surviving exponent is bounded by the truncation degree.
_Blocks = dict[int, dict[int, complex]]


class _PowerTable:
    """Degree blocks ``[g^I]_d`` of the monomial powers of one map ``g``, each made once.

    ``g^I`` follows the prefix chain ``((g_1^{i_1}) g_2^{i_2}) ...`` with
    ``g_k^e = g_k^{e-1} g_k``.  :meth:`power` makes a power's blocks through
    the degree asked for.  :meth:`compose` asks for the cap, and there ``g``
    may have a constant term if ``f`` has no terms above the cap.
    :meth:`compose_block` asks for one degree at a time, so ``g`` may be
    revealed degree by degree: for ``|I| >= 2`` the block ``[g^I]_d`` reads
    only blocks of ``g`` below ``d`` and stays valid as later degrees
    arrive.  That needs ``g(0) = 0``.
    """

    def __init__(self, n: int, cap: int):
        self.n, self.cap, self.base = n, cap, cap + 1
        self.radix = [self.base ** k for k in range(n)]
        self.components: list[_Blocks] = [{} for _ in range(n)]
        self.powers: dict[MultiIndex, _Blocks] = {}
        self.filled: dict[MultiIndex, int] = {}   # degree through which power made g^I
        self.decoded: dict[int, MultiIndex] = {}

    def reveal(self, terms: Mapping[TermKey, complex]) -> None:
        """Add terms of ``g``: all of it, or its next degree block."""
        for (index, comp), coeff in terms.items():
            d = sum(index)
            if d <= self.cap:
                code = sum(e * r for e, r in zip(index, self.radix))
                self.components[comp].setdefault(d, {})[code] = coeff

    def _factors(self, index: MultiIndex) -> tuple[MultiIndex, MultiIndex]:
        """``(head, tail)`` with ``g^I = g^head g^tail``: ``tail`` is ``I``'s last
        variable ``z_k`` with its exponent, or ``z_k`` alone when ``I`` is a power of ``z_k``."""
        k = max(i for i, e in enumerate(index) if e)
        head, e = index[:k] + (0,) * (self.n - k), index[k]
        if not any(head):
            head, e = index[:k] + (e - 1,) + index[k + 1:], 1
        return head, (0,) * k + (e,) + (0,) * (self.n - k - 1)

    @staticmethod
    def _product(a: _Blocks, b: _Blocks, low: int, high: int) -> _Blocks:
        """Blocks of ``a b`` of degrees ``low..high``, in the order their pairs first meet."""
        out: _Blocks = {}
        for da, ta in a.items():
            for db, tb in b.items():
                d = da + db
                if d < low or d > high:
                    continue
                block = out.setdefault(d, {})
                for ca, va in ta.items():
                    for cb, vb in tb.items():
                        key = ca + cb
                        block[key] = block.get(key, 0j) + va * vb
        return out

    def power(self, index: MultiIndex, d: int) -> _Blocks:
        """``g^I`` with its blocks of degrees 0 through ``d`` made."""
        if sum(index) == 1:
            return self.components[index.index(1)]
        blocks = self.powers.setdefault(index, {})
        start = self.filled.get(index, -1) + 1
        if start <= d:
            a, b = (self.power(factor, d) for factor in self._factors(index))
            blocks.update(self._product(a, b, start, d))
            self.filled[index] = d
        return blocks

    def accumulate(self, out: dict[TermKey, complex], comp: int, coeff: complex,
                   blocks: Iterable[dict[int, complex]]) -> None:
        """Add ``coeff * blocks`` to component ``comp`` of ``out``."""
        decoded = self.decoded
        for block in blocks:
            for code, value in block.items():
                index = decoded.get(code)
                if index is None:
                    index = decoded[code] = tuple(code // r % self.base for r in self.radix)
                key = (index, comp)
                out[key] = out.get(key, 0j) + coeff * value

    def compose(self, f: PolyJet) -> dict[TermKey, complex]:
        """Terms of ``f o g`` through the cap, ``f``'s terms summed in stored order."""
        out: dict[TermKey, complex] = {}
        for (index, comp), coeff in f.terms.items():
            if sum(index) <= self.cap:
                self.accumulate(out, comp, coeff, self.power(index, self.cap).values())
        return out

    def compose_block(self, f: PolyJet, d: int, *, prune: bool = False) -> dict[TermKey, complex]:
        """The degree-``d`` terms of ``f o g``, from ``g``'s blocks revealed so far."""
        out: dict[TermKey, complex] = {}
        for (index, comp), coeff in f.terms.items():
            if sum(index) <= d:
                block = self.power(index, d).get(d)
                if block:
                    self.accumulate(out, comp, coeff, (block,))
        return _prune_terms(out) if prune else out


# -- operations --------------------------------------------------------


def compose_truncated(f: PolyJet, g: PolyJet, degree: int, *, prune: bool = True) -> PolyJet:
    """Jet of ``f`` after ``g``, with all terms of degree > ``degree`` dropped.

    ``g`` fixes the origin by type, so every substituted factor has degree
    >= 1 and the truncation commutes with the term-by-term expansion.  Each
    power ``g^I`` is made once, however many terms of ``f`` use it.
    """
    if f.n != g.n:
        raise DimensionMismatch(f"composing maps of dimensions {f.n} and {g.n}")
    if degree < 1:
        raise DegreeOutOfRange(f"truncation degree must be >= 1, got {degree}")
    table = _PowerTable(f.n, degree)
    table.reveal(g.terms)
    out = table.compose(f)
    if prune:
        out = _prune_terms(out)
    return PolyJet._trusted(f.n, degree, out)


def jet_inverse(f: PolyJet, degree: int) -> PolyJet:
    """Compositional inverse jet, built degree by degree.

    The result ``g`` satisfies ``f o g = g o f = id`` through ``degree``.
    Each step reads the degree-``d`` part of ``f o g`` from one power table
    of ``g`` and adds the block that cancels it.
    """
    linear = f.linear_part()
    _check_invertible(linear, SingularLinearPart, "linear part")
    inv_linear = np.linalg.inv(linear)
    g = PolyJet.from_linear(inv_linear, degree)
    table = _PowerTable(f.n, degree)
    table.reveal(g.terms)
    for d in range(2, degree + 1):
        # the degree-d part of f o g - id, which g's degree-d terms must cancel
        block = PolyJet._trusted(f.n, degree,
                                 _left_multiply(-inv_linear, table.compose_block(f, d)))
        g = g + block
        table.reveal(block.terms)
    return g.pruned()


def linear_conjugate(f: PolyJet, matrix: np.ndarray, degree: int) -> PolyJet:
    """Jet of ``Q^{-1} o f o Q`` truncated at ``degree``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (f.n, f.n):
        raise DimensionMismatch(f"matrix shape {matrix.shape} does not match n={f.n}")
    _check_invertible(matrix, SingularLinearPart)
    inner = compose_truncated(f, PolyJet.from_linear(matrix, 1), degree, prune=False)
    out = _left_multiply(np.linalg.inv(matrix), inner.terms)
    return PolyJet._trusted(f.n, degree, _prune_terms(out))


def homogeneous_part(f: PolyJet, q: int) -> HomogeneousPart:
    """Exactly the degree-``q`` terms of ``f``."""
    if not 1 <= q <= f.degree:
        raise DegreeOutOfRange(f"degree {q} outside 1..{f.degree}")
    terms = {key: coeff for key, coeff in f.terms.items() if sum(key[0]) == q}
    return HomogeneousPart._trusted(f.n, q, terms)


def _left_multiply(matrix: np.ndarray, terms: Mapping[TermKey, complex]) -> dict[TermKey, complex]:
    """Terms of ``z -> matrix @ f(z)`` for the map ``f`` with the given terms."""
    rows = [np.flatnonzero(column).tolist() for column in matrix.T]
    out: dict[TermKey, complex] = {}
    for (index, comp), coeff in terms.items():
        for i in rows[comp]:
            key = (index, i)
            out[key] = out.get(key, 0j) + matrix[i, comp] * coeff
    return out


def _check_invertible(matrix: np.ndarray, error_cls, what: str = "matrix") -> None:
    """Raise ``error_cls`` unless ``matrix`` is finite with condition <= ``COND_CAP``."""
    if not np.all(np.isfinite(matrix)):
        raise error_cls(f"{what} has non-finite entries")
    cond = np.linalg.cond(matrix)
    if not np.isfinite(cond) or cond > COND_CAP:
        raise error_cls(f"{what} is singular or ill-conditioned (cond={cond:.3g})")
