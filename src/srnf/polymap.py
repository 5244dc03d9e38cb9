"""Sparse truncated polynomial self-maps of C^n (jets).

A jet collects monomial terms ``c * z^I e_j`` with multi-index ``I``,
component ``j`` and complex coefficient ``c``, for ``1 <= |I| <= D``.  Jets
fix the origin by construction; affine parts live elsewhere.  Storage is a
canonical sparse association ``(I, j) -> c`` with no exactly-zero
coefficients, so two jets are equal iff their term dictionaries are equal.

Every jet stores its terms in one order, :func:`term_sort_key`'s: graded by
total degree, then by the anti-lexicographic-from-the-right monomial order
that :func:`basis_ordering` lays out for the homological operators, then by
component.  Arithmetic sums in that order, so a result depends on the
coefficients only, not on the order in which a jet's terms were given.
This module is the only one that orders terms.
"""

from __future__ import annotations

import cmath
import contextlib
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DegreeOutOfRange,
    DimensionMismatch,
    NoConvergence,
    SingularLinearPart,
    ValidationError,
)

# Coefficients below PRUNE_REL_TOL times the largest same-degree coefficient
# are treated as arithmetic noise.
PRUNE_REL_TOL = 1e-14

# Condition-number cap for linear parts that must be inverted.
COND_CAP = 1e12

# Exponents are held in int64 arrays, so no jet may have a larger degree.
MAX_DEGREE = 2**63 - 1

# log2 of the largest max|f| (1 + |shift|)^deg(f) in a shifted composition
# f(shift + g): it bounds every power of shift + g formed while g's coefficients
# sum to at most 1, with 2^64 of the float range left for the sums over terms.
MAX_SHIFTED_LOG2 = 960

# Largest (rows, terms, n) array of complex powers that one evaluation pass
# makes: a larger batch is evaluated in chunks of rows (one row at least).
EVALUATION_CHUNK_BYTES = 4 * 2**20

MultiIndex = tuple[int, ...]
TermKey = tuple[MultiIndex, int]
_NUMBERS = frozenset((complex, float, int))   # coefficient types read without a closer look


class NonFiniteCoefficient(NoConvergence, ValueError):
    """This package's arithmetic made an infinite or NaN coefficient: it
    overflowed, a numerical condition (CLI exit 3)."""


def term_sort_key(key: TermKey) -> tuple:
    """Sort key of the one term order: by degree, then the largest exponent on
    z_n first, ties broken by z_{n-1}, and so on, then by component."""
    index, comp = key
    return sum(index), tuple(-e for e in reversed(index)), comp


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

    def pack(self, exponents: np.ndarray) -> np.ndarray:
        """The :func:`packing_radix` codes of exponent rows; Python ints past int64."""
        radix = packing_radix(self.n, self.q)
        dtype = np.int64 if radix[-1] * (self.q + 1) <= 2**63 else object
        return exponents.astype(dtype, copy=False).dot(np.array(radix, dtype=dtype))

    @cached_property
    def codes(self) -> np.ndarray:
        """Each row's code; they descend in term order."""
        return self.pack(self.exponents)

    def rows(self, codes) -> np.ndarray:
        """The rows of the monomials packed to ``codes``; a code of no row is refused."""
        ascending = self.codes[::-1]
        codes = np.asarray(codes, dtype=ascending.dtype)
        at = ascending.searchsorted(codes)
        if (ascending.take(at, mode="clip") != codes).any():
            raise ValueError(f"a code is not that of a degree-{self.q} monomial")
        return len(ascending) - 1 - at


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


def packing_radix(n: int, degree: int) -> list[int]:
    """Place values of the packing ``I -> I @ radix`` in base ``degree + 1``: later variables
    weigh more, and adding codes multiplies monomials while exponents stay <= ``degree``."""
    return [(degree + 1) ** k for k in range(n)]


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
        _check_size(n, degree)
        checked: dict[TermKey, complex] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (index, comp), coeff in items:
            if len(index) != n:
                raise DimensionMismatch(f"multi-index {index} has wrong length for n={n}")
            # one pass checks the types and the sign of plain ints; other values take _read_term
            if not all(e.__class__ is int and e >= 0 for e in index) \
                    or comp.__class__ is not int or coeff.__class__ not in _NUMBERS:
                index, comp, coeff = _read_term(index, comp, coeff)
            index, coeff = tuple(index), complex(coeff)
            total = sum(index)
            if not 1 <= total <= degree:
                raise DegreeOutOfRange(f"term degree {total} outside 1..{degree}")
            if not 0 <= comp < n:
                raise DimensionMismatch(f"component {comp} outside 0..{n - 1}")
            if coeff != 0:
                checked[(index, comp)] = coeff
        _fill(self, n, degree, _in_term_order(checked))

    @classmethod
    def _trusted(cls, n: int, degree: int, terms: Mapping[TermKey, complex]):
        """Jet from terms that this package's arithmetic built in term order:
        only finiteness is checked, and a non-finite coefficient is an overflow."""
        return _fill(object.__new__(cls), n, degree, terms, NonFiniteCoefficient)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("PolyJet instances are immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int, degree: int = 1) -> "PolyJet":
        return cls.from_linear(np.eye(n), degree)

    @classmethod
    def from_linear(cls, matrix: np.ndarray, degree: int = 1) -> "PolyJet":
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {matrix.shape}")
        _check_size(matrix.shape[0], degree)
        return _fill(object.__new__(cls), matrix.shape[0], degree, _linear_terms(matrix))

    # -- views ---------------------------------------------------------

    def linear_part(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=complex)
        for (index, comp), coeff in self.terms.items():
            if sum(index) > 1:
                break
            out[comp, index.index(1)] = coeff
        return out

    def max_degree(self) -> int:
        """Largest degree actually present (0 for the zero jet)."""
        return sum(next(reversed(self.terms))[0]) if self.terms else 0

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

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
        return PolyJet._trusted(self.n, max(self.degree, other.degree),
                                _sum_terms(self.terms, other.terms))

    def truncated(self, degree: int) -> "PolyJet":
        if degree < 1:
            raise DegreeOutOfRange(f"truncation degree must be >= 1, got {degree}")
        terms = {k: c for k, c in self.terms.items() if sum(k[0]) <= degree}
        return PolyJet._trusted(self.n, degree, terms)

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
            step = max(1, EVALUATION_CHUNK_BYTES // (16 * exps.size))
            for start in range(0, len(points), step):
                rows = slice(start, start + step)
                # Operands of equal ndim: numpy multiplies a size-1 pair of
                # unequal ndim by another loop, which rounds differently.
                monomials = np.prod(points[rows, None, :] ** exps[None], axis=2)
                np.add.at(out[rows], (slice(None), comps), coeffs[None] * monomials)
        return out.reshape(z.shape)

    def _evaluation_arrays(self):
        cached = self._eval_arrays
        if cached is None:
            cached = (*_term_arrays(self.terms, self.n),
                      np.fromiter(self.terms.values(), dtype=complex, count=len(self.terms)))
            object.__setattr__(self, "_eval_arrays", cached)
        return cached

    def __repr__(self):
        return f"PolyJet(n={self.n}, degree={self.degree}, terms={len(self.terms)})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (index, comp), coeff in self.terms.items():
            mono = "*".join(f"z{k + 1}^{e}" if e > 1 else f"z{k + 1}"
                            for k, e in enumerate(index) if e)
            parts.append(f"({coeff:.6g})*{mono}*e{comp + 1}")
        return " + ".join(parts)


# -- term-level helpers ------------------------------------------------


def _check_size(n: int, degree: int) -> None:
    if n < 1:
        raise DimensionMismatch(f"dimension must be positive, got {n}")
    if not 1 <= degree <= MAX_DEGREE:
        raise DegreeOutOfRange(f"truncation degree must be in 1..2**63 - 1, got {degree}")


def _read_term(index, comp, coeff) -> tuple[MultiIndex, int, complex]:
    """``(index, comp, coeff)`` read by ``operator.index`` and ``complex``; a bool key, a
    value they refuse, a negative exponent or a string ``coeff`` is a ValueError naming it."""
    values = (*index, comp)
    if not isinstance(coeff, str) and bool not in map(type, values):
        with contextlib.suppress(TypeError):
            *exponents, component = map(operator.index, values)
            if min(exponents) >= 0:
                return tuple(exponents), component, complex(coeff)
    raise ValueError(f"term {(index, comp)!r} -> {coeff!r}: exponents must be nonnegative "
                     "integers, the component an integer and the coefficient a number")


def _fill(jet: PolyJet, n: int, degree: int, terms: Mapping[TermKey, complex],
          refusal: type[ValueError] = ValueError) -> PolyJet:
    """``jet`` with its slots set from ``terms``, given in term order: the first
    non-finite coefficient is refused with ``refusal`` and exact zeros are dropped."""
    canonical: dict[TermKey, complex] = {}
    for key, coeff in terms.items():
        coeff = complex(coeff)
        if not cmath.isfinite(coeff):
            raise refusal(f"non-finite coefficient at {key}")
        if coeff != 0:
            canonical[key] = coeff
    for name, value in zip(PolyJet.__slots__, (n, degree, canonical, None)):
        object.__setattr__(jet, name, value)
    return jet


def _in_term_order(terms: Mapping[TermKey, complex]) -> dict[TermKey, complex]:
    """``terms`` stored in :func:`term_sort_key` order."""
    return {key: terms[key] for key in sorted(terms, key=term_sort_key)}


def _sum_terms(terms: Mapping[TermKey, complex],
               other: Mapping[TermKey, complex]) -> dict[TermKey, complex]:
    """``terms + other`` key by key, in term order."""
    merged = dict(terms)
    for key, coeff in other.items():
        merged[key] = merged.get(key, 0j) + coeff
    # keys of other alone were appended: sort unless they follow terms in order
    tail = list(itertools.islice(merged, max(len(terms) - 1, 0), None))
    return merged if sorted(tail, key=term_sort_key) == tail else _in_term_order(merged)


def _linear_terms(matrix: np.ndarray) -> dict[TermKey, complex]:
    """Terms of ``z -> matrix @ z`` in term order: the last column first, rows ascending."""
    columns = np.asarray(matrix, dtype=complex).T[::-1]
    units = [tuple(unit) for unit in np.eye(len(columns), dtype=int)[::-1].tolist()]
    cols, rows = np.nonzero(columns)
    return dict(zip(zip([units[k] for k in cols.tolist()], rows.tolist()),
                    columns[cols, rows].tolist()))


def _term_arrays(terms: Mapping[TermKey, complex], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent rows and components of ``terms``, in their order."""
    exps = np.array([index for index, _ in terms], dtype=np.int64).reshape(-1, n)
    return exps, np.array([comp for _, comp in terms], dtype=np.int64)


def _prune_terms(terms: Mapping[TermKey, complex]) -> dict[TermKey, complex]:
    degrees = [sum(index) for index, _ in terms]
    degree_max: dict[int, float] = {}
    for d, coeff in zip(degrees, terms.values()):
        a = abs(coeff)
        if a > degree_max.get(d, 0.0):
            degree_max[d] = a
    return {key: coeff for (key, coeff), d in zip(terms.items(), degrees)
            if abs(coeff) >= PRUNE_REL_TOL * degree_max.get(d, 0.0)}


# Scalar polynomials inside the composition kernel are held in blocks by
# total degree and keyed by the packing_radix codes of the truncation degree;
# integer key addition then realizes monomial multiplication without carries,
# because every surviving exponent is bounded by the truncation degree.
_Blocks = dict[int, dict[int, complex]]


class _PowerTable:
    """Degree blocks ``[g^I]_d`` of the monomial powers of one map ``g``, each made once.

    ``g^I`` follows the prefix chain ``((g_1^{i_1}) g_2^{i_2}) ...`` with
    ``g_k^e = g_k^{e-1} g_k``.  :meth:`power` makes a power's blocks through
    the degree asked for.  :func:`compose_truncated` asks for the cap, and
    there ``g`` may have constant terms if ``f`` has no terms above the cap.
    :meth:`compose_block` asks for one degree at a time, so ``g`` may be
    revealed degree by degree: for ``|I| >= 2`` the block ``[g^I]_d`` reads
    only blocks of ``g`` below ``d`` and stays valid as later degrees
    arrive.  That needs ``g(0) = 0``.
    """

    def __init__(self, n: int, cap: int):
        self.n, self.cap, self.base = n, cap, cap + 1
        self.radix = packing_radix(n, cap)
        self.components: list[_Blocks] = [{} for _ in range(n)]
        self.powers: dict[MultiIndex, _Blocks] = {}
        self.filled: dict[MultiIndex, int] = {}   # degree through which power made g^I
        self.decoded: dict[int, MultiIndex] = {}   # negated code -> I
        self.packed: dict[MultiIndex, tuple[int, int]] = {}   # I -> (|I|, code)

    def reveal(self, terms: Mapping[TermKey, complex]) -> None:
        """Add terms of ``g``: all of it, or its next degree block."""
        packed = self.packed
        for (index, comp), coeff in terms.items():
            d, code = packed.get(index) or packed.setdefault(
                index, (sum(index), sum(e * r for e, r in zip(index, self.radix))))
            if d <= self.cap:
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

    def compose(self, f: PolyJet, low: int, high: int) -> dict[TermKey, complex]:
        """The terms of ``f o g`` of degrees ``low`` through ``high``, in term order,
        from ``g``'s blocks revealed so far."""
        n, decoded, blocks = self.n, self.decoded, {}
        for (index, comp), coeff in f.terms.items():
            if sum(index) > high:
                break
            for d, block in self.power(index, high).items():
                if low <= d <= high:
                    out = blocks.setdefault(d, {})
                    for code, value in block.items():
                        key = comp - code * n   # keys of one degree ascend in term order
                        out[key] = out.get(key, 0j) + coeff * value
        terms: dict[TermKey, complex] = {}
        for d in sorted(blocks):
            out = blocks[d]
            for key in sorted(out):
                code, comp = divmod(key, n)   # code negated
                index = decoded.get(code) or decoded.setdefault(
                    code, tuple(-code // r % self.base for r in self.radix))
                terms[(index, comp)] = out[key]
        return terms

    def compose_block(self, f: PolyJet, d: int, *, prune: bool = False) -> dict[TermKey, complex]:
        """The degree-``d`` terms of ``f o g``, from ``g``'s blocks revealed so far."""
        terms = self.compose(f, d, d)
        return _prune_terms(terms) if prune else terms


# -- operations --------------------------------------------------------


def compose_truncated(f: PolyJet, g: PolyJet, degree: int, *, prune: bool = True,
                      shift=None) -> PolyJet:
    """Jet of ``f`` after ``g``, with all terms of degree > ``degree`` dropped;
    with a vector ``shift``, of ``z -> f(shift + g(z)) - f(shift)``.

    ``g`` fixes the origin by type, so every substituted factor has degree
    >= 1 and the truncation commutes with the term-by-term expansion.  A
    shifted power has parts in every lower degree, so a shifted ``f`` may
    have no term above ``degree``.  Each power ``g^I`` is made once, however
    many terms of ``f`` use it, and ``f``'s terms are summed in term order.
    """
    if f.n != g.n:
        raise DimensionMismatch(f"composing maps of dimensions {f.n} and {g.n}")
    if degree < 1:
        raise DegreeOutOfRange(f"truncation degree must be >= 1, got {degree}")
    if shift is not None:
        shift = np.asarray(shift, dtype=complex)
        if shift.shape != (f.n,):
            raise DimensionMismatch(f"shift shape {shift.shape} does not match n={f.n}")
        if f.max_degree() > degree:
            raise DegreeOutOfRange(f"a shifted f has terms above degree {degree}")
        size = max(map(abs, shift.tolist()))
        if f.max_degree() * math.log2(1.0 + size) + math.log2(max(1.0, f.max_abs_coeff())) \
                > MAX_SHIFTED_LOG2:
            raise ValidationError(f"shifted composition would overflow: |shift| = "
                                  f"{size:.3g} at degree {f.max_degree()}")
    table = _PowerTable(f.n, degree)
    table.reveal(g.terms)
    if shift is not None:
        table.reveal({((0,) * f.n, k): t for k, t in enumerate(shift.tolist()) if t != 0})
    out = table.compose(f, 1, degree)   # degree 0 is f(shift), dropped
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
    terms = dict(PolyJet.from_linear(inv_linear, degree).terms)
    table = _PowerTable(f.n, degree)
    table.reveal(terms)
    nonlinear, columns = _nonlinear(f), _columns(-inv_linear)
    for d in range(2, degree + 1):
        # the degree-d part of f o g - id, which g's degree-d terms must cancel
        block = PolyJet._trusted(f.n, degree,
                                 _left_multiply(columns, table.compose_block(nonlinear, d)))
        terms.update(block.terms)
        table.reveal(block.terms)
    return PolyJet._trusted(f.n, degree, _prune_terms(terms))


def linear_conjugate(f: PolyJet, matrix: np.ndarray, degree: int) -> PolyJet:
    """Jet of ``Q^{-1} o f o Q`` truncated at ``degree``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (f.n, f.n):
        raise DimensionMismatch(f"matrix shape {matrix.shape} does not match n={f.n}")
    _check_invertible(matrix, SingularLinearPart)
    inner = compose_truncated(f, PolyJet.from_linear(matrix, 1), degree, prune=False)
    out = _left_multiply(_columns(np.linalg.inv(matrix)), inner.terms)
    return PolyJet._trusted(f.n, degree, _prune_terms(out))


def _nonlinear(f: PolyJet) -> PolyJet:
    """``f`` without its linear terms, which add nothing to ``compose_block(f, d)``
    while ``g``'s degree-``d`` block is not yet revealed."""
    return PolyJet._trusted(f.n, f.degree,
                            {key: c for key, c in f.terms.items() if sum(key[0]) > 1})


def _columns(matrix: np.ndarray) -> list[list[tuple[int, complex]]]:
    """Each column's nonzero ``(row, entry)`` pairs, for :func:`_left_multiply`."""
    return [[(i, column[i]) for i in np.flatnonzero(column).tolist()] for column in matrix.T]


def _left_multiply(columns: list[list[tuple[int, complex]]],
                   terms: Mapping[TermKey, complex]) -> dict[TermKey, complex]:
    """Terms of ``z -> matrix @ f(z)`` in term order, from ``f``'s terms in term
    order and ``matrix``'s :func:`_columns`."""
    out: dict[TermKey, complex] = {}
    for index, keys in itertools.groupby(terms, key=operator.itemgetter(0)):
        row: dict[int, complex] = {}
        for key in keys:
            coeff = terms[key]
            for i, entry in columns[key[1]]:
                row[i] = row.get(i, 0j) + entry * coeff
        for i in sorted(row):
            out[(index, i)] = row[i]
    return out


def _check_invertible(matrix: np.ndarray, error_cls, what: str = "matrix") -> None:
    """Raise ``error_cls`` unless ``matrix`` is finite with condition <= ``COND_CAP``."""
    if not np.all(np.isfinite(matrix)):
        raise error_cls(f"{what} has non-finite entries")
    cond = np.linalg.cond(matrix)
    if not np.isfinite(cond) or cond > COND_CAP:
        raise error_cls(f"{what} is singular or ill-conditioned (cond={cond:.3g})")
