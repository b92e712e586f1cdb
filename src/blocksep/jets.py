"""Truncated multivariate Taylor series (jets) at a batch of points.

A :class:`Jet` of degree K in D variables holds, at each of P points, the
Taylor coefficients f_a = d^a f(x) / a! of a field for every multi-index a
with |a| <= K: a float array of shape (multi-indices, points).  The
multi-indices run by degree and, within a degree, in descending
lexicographic order, which does not depend on K, so a jet of lower degree is
a prefix of the rows and truncation is a slice (Griewank and Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).

Arithmetic acts on every point at once, element by element.  A product sums
the pairs of factor rows of each output row in one fixed order, the first
factor's row ascending, through index tables built on first use per (D, K);
no reduction and no BLAS call takes part, so a point's coefficients do not
depend on which other points, or how many, share the batch.  Reciprocals,
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
    """The pairs (o, i, j) of output row o and factor rows i, j whose
    multi-indices sum to o's, by rank: rank r holds the r-th pair of each
    output that has one, each output's pairs ordered by i.  Rank 0, the pair
    (o, 0, o) of every output, is left out."""
    pos = _positions(dim, degree)
    rows = list(pos)
    count = [0] * len(rows)
    ranks: list = []
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            if sum(a) + sum(b) > degree:
                break  # the rows run by degree
            o = pos[tuple(x + y for x, y in zip(a, b))]
            if count[o] == len(ranks):
                ranks.append([])
            ranks[count[o]].append((o, i, j))
            count[o] += 1
    return tuple(tuple(np.array(col) for col in zip(*rank)) for rank in ranks[1:])


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
        out = b * a[0]  # rank 0: the pair (0, o) of every output o
        for o, i, j in _product_table(self.dim, degree):
            out[o] += a[i] * b[j]
        return self._like(out, degree)

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
