"""Truncated multivariate Taylor series (jets) at a batch of points.

A :class:`Jet` of degree K in D variables holds, at each of P points, the
Taylor coefficients f_a = d^a f(x) / a! of a field for every multi-index a
with |a| <= K: a float array of shape (multi-indices, points).  The
multi-indices run by degree and, within a degree, in descending
lexicographic order, which does not depend on K, so a jet of lower degree is
a prefix of the rows and truncation is a slice (Griewank and Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).

Arithmetic acts on every point at once, element by element.  A product
gathers every pair of factor rows i, j whose multi-indices sum to an output
row's and multiplies them in one step, laid out rank-major: rank r holds the
r-th pair, by i, of every output with more than r pairs.  With the outputs
ordered by pair count, most first, rank r's outputs are a prefix of that
order, so each rank is added with one slice, and one gather puts the
outputs back in row order.  Each output thus sums its pairs in sequence,
the pair (0, o) first and then i ascending, one addition per rank, the same
additions in the same order whatever the layout; no reduction and no BLAS
call takes part, so a point's coefficients do not depend on which other
points, or how many, share the batch.  The index tables are built by numpy
on first use per (D, K): each multi-index coded as an integer in base K + 1,
so codes add as the multi-indices do, each output found by a sorted search
of its code, and the pairs ordered by one lexsort.  Reciprocals,
real powers and exp sum their Taylor series in the deviation from the value
at the point by Horner's rule.  ``np.exp`` and ``np.sqrt`` take a jet, so a
formula written for numpy arrays runs on jets as it stands; any other numpy
function refuses one, and a numpy number goes on a jet's right.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np


def _of_degree(dim: int, d: int) -> list:
    """The multi-indices of ``dim`` entries and total degree d, descending."""
    if dim == 1:
        return [(d,)]
    return [(k, *rest) for k in range(d, -1, -1) for rest in _of_degree(dim - 1, d - k)]


@lru_cache(maxsize=None)
def _positions(dim: int, degree: int) -> dict:
    """Row of each multi-index of total degree <= ``degree``."""
    rows = [a for d in range(degree + 1) for a in _of_degree(dim, d)]
    return {a: i for i, a in enumerate(rows)}


@lru_cache(maxsize=None)
def _product_table(dim: int, degree: int) -> tuple:
    """The pairs of factor rows i, j whose multi-indices sum to an output
    row's, rank-major: rank r holds the r-th pair, by i, of each output with
    more than r pairs, the outputs ordered by pair count, most first, so that
    rank r's outputs are a prefix of that order.  Returned are i and j, the
    (start, size) of each rank after rank 0 (whose size is the row count),
    and each output row's place in that order."""
    rows = np.array(list(_positions(dim, degree)))
    # base degree + 1: the codes of two rows of total degree <= degree add
    # without a carry to the code of their sum
    code = rows @ (degree + 1) ** np.arange(dim)
    row_degree = rows.sum(axis=1)
    blocks = []
    for d in range(degree + 1):  # i of degree d pairs with every row of degree <= degree - d
        i, j = np.flatnonzero(row_degree == d), np.arange(comb(dim + degree - d, dim))
        blocks.append((np.repeat(i, len(j)), np.tile(j, len(i))))
    i, j = (np.concatenate(col) for col in zip(*blocks))
    sorter = np.argsort(code)
    o = sorter[np.searchsorted(code, code[i] + code[j], sorter=sorter)]
    by_output = np.lexsort((i, o))
    count = np.bincount(o)
    rank = np.empty_like(o)
    rank[by_output] = np.arange(len(o)) - (np.cumsum(count) - count)[o[by_output]]
    place = np.argsort(np.argsort(-count, kind="stable"))
    layout = np.lexsort((place[o], rank))
    sizes = np.bincount(rank)
    starts = np.cumsum(sizes) - sizes
    return i[layout], j[layout], tuple(zip(starts[1:].tolist(), sizes[1:].tolist())), place


@lru_cache(maxsize=None)
def _derivative_table(dim: int, alpha: tuple, degree: int) -> tuple:
    """Rows of a field's jet that d^alpha moves to each row of degree <=
    ``degree``, and the factors (b + alpha)! / b! it multiplies them by."""
    pos = _positions(dim, degree + sum(alpha))
    rows, factors = [], []
    for b in _positions(dim, degree):
        rows.append(pos[tuple(x + y for x, y in zip(b, alpha))])
        factor = 1
        for x, y in zip(b, alpha):
            for k in range(x + 1, x + y + 1):
                factor *= k
        factors.append(float(factor))
    return np.array(rows), np.array(factors)[:, None]


def at_points(values) -> np.ndarray:
    """A jet's values at its points; any other field's values as an array."""
    return values.coef[0] if isinstance(values, Jet) else np.asarray(values)


class Jet:
    """Taylor coefficients to total degree ``degree`` of a field of ``dim``
    variables at each of a batch of points."""

    __slots__ = ("coef", "dim", "degree")

    def __init__(self, coef: np.ndarray, dim: int, degree: int):
        self.coef, self.dim, self.degree = coef, dim, degree

    @classmethod
    def variable(cls, values, axis: int, dim: int, degree: int) -> "Jet":
        """The coordinate x_axis at points whose x_axis are ``values``."""
        coef = np.zeros((comb(dim + degree, degree), len(values)))
        coef[0] = values
        if degree:
            coef[1 + axis] = 1.0  # the rows of degree 1 are e_0, e_1, ...
        return cls(coef, dim, degree)

    def _like(self, coef: np.ndarray, degree: int | None = None) -> "Jet":
        return Jet(coef, self.dim, self.degree if degree is None else degree)

    def truncate(self, degree: int) -> "Jet":
        """The jet to a degree no higher than its own."""
        if degree == self.degree:
            return self
        return self._like(self.coef[:comb(self.dim + degree, degree)], degree)

    def derive(self, alpha: tuple, degree: int) -> "Jet":
        """The jet of d^alpha of the field to ``degree``, which with |alpha|
        is at most the jet's own."""
        if not any(alpha):
            return self.truncate(degree)
        rows, factors = _derivative_table(self.dim, alpha, degree)
        return self._like(self.coef[rows] * factors, degree)

    def _common(self, other: "Jet") -> tuple:
        degree = min(self.degree, other.degree)
        return self.truncate(degree).coef, other.truncate(degree).coef, degree

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b, degree = self._common(other)
            return self._like(a + b, degree)
        coef = self.coef.copy()
        coef[0] = coef[0] + other
        return self._like(coef)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.coef)

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b, degree = self._common(other)
            return self._like(a - b, degree)
        return self + -other

    def __rsub__(self, other):
        coef = -self.coef
        coef[0] = other - self.coef[0]
        return self._like(coef)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._like(self.coef * other)
        a, b, degree = self._common(other)
        i, j, ranks, place = _product_table(self.dim, degree)
        pairs = a.take(i, axis=0)
        pairs *= b.take(j, axis=0)
        out = pairs[:len(place)]  # rank 0: the pair (0, o) of every output o
        for start, size in ranks:
            out[:size] += pairs[start:start + size]
        return self._like(out.take(place, axis=0), degree)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self._like(self.coef / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, e):
        if float(e).is_integer():
            e = int(e)
            if e == 0:
                return self._like(np.zeros_like(self.coef)) + 1.0
            out = base = self if e > 0 else self.reciprocal()
            for _ in range(abs(e) - 1):
                out = out * base
            return out
        value = self.coef[0]
        term, terms = value**e, []
        for n in range(self.degree + 1):  # binomial(e, n) value^(e - n)
            terms.append(term)
            term = term * ((e - n) / (n + 1)) / value
        return self._series(terms)

    def reciprocal(self) -> "Jet":
        inverse = 1.0 / self.coef[0]
        terms = [inverse]
        for _ in range(self.degree):  # (-1)^n / value^(n + 1)
            terms.append(terms[-1] * -inverse)
        return self._series(terms)

    def exp(self) -> "Jet":
        terms = [np.exp(self.coef[0])]
        for n in range(1, self.degree + 1):  # exp(value) / n!
            terms.append(terms[-1] / n)
        return self._series(terms)

    def _series(self, terms: list) -> "Jet":
        """sum_n terms[n] (f - f(x))^n to the jet's degree, by Horner's rule;
        ``terms`` holds one value per point for each n up to the degree."""
        delta = self._like(self.coef.copy())
        delta.coef[0] = 0.0
        out = self._like(np.zeros_like(self.coef)) + terms[-1]
        for term in reversed(terms[:-1]):
            out = delta * out + term
        return out

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        """np.exp and np.sqrt of a jet; numpy refuses any other ufunc on one."""
        if method == "__call__" and not kwargs and len(inputs) == 1:
            if ufunc is np.exp:
                return self.exp()
            if ufunc is np.sqrt:
                return self ** 0.5
        return NotImplemented
