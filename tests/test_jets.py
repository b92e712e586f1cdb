"""Taylor jets against sympy's Taylor coefficients, and batch independence."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from blocksep.jets import Jet

sympy = pytest.importorskip("sympy")

POINTS = {2: (Fraction(3, 5), Fraction(-7, 10)), 3: (Fraction(3, 5), Fraction(-7, 10), Fraction(1, 2))}


def _operations(xs):
    """Each operation of a jet, or of a sympy expression, on fields of xs."""
    f = 1 + xs[0] * xs[-1] - 2 * xs[1] ** 2 / 3
    g = 2 + xs[1] - xs[0] ** 2 / 4
    return {
        "add": f + g, "sub": f - g, "rsub": 1.5 - f, "neg": -f, "mul": f * g,
        "scale": f * 0.25, "div": f / g, "rdiv": 3 / g, "div-float": f / 8,
        "square": f**2, "cube": g**3, "inverse-square": g**-2, "power-zero": g**0,
        "sqrt": np.sqrt(g) if isinstance(g, Jet) else sympy.sqrt(g),
        "real-power": g**1.5 if isinstance(g, Jet) else g ** sympy.Rational(3, 2),
        "exp": np.exp(f) if isinstance(f, Jet) else sympy.exp(f),
        "nested": f * np.exp(-g / 3) if isinstance(f, Jet) else f * sympy.exp(-g / 3),
    }


def _taylor(expr, symbols, point, degree):
    """{multi-index: d^a expr / a! at the point} for |a| <= degree."""
    at = dict(zip(symbols, (sympy.Rational(v.numerator, v.denominator) for v in point)))
    derivs = {(0,) * len(symbols): expr}
    out = {}
    for d in range(degree + 1):
        for a in [a for a in derivs if sum(a) == d]:
            e = derivs[a]
            factorial = 1
            for k in a:
                factorial *= sympy.factorial(k)
            out[a] = float(sympy.N(e.subs(at) / factorial, 30))
            if d < degree:
                for i in range(len(symbols)):
                    b = tuple(v + (k == i) for k, v in enumerate(a))
                    if b not in derivs:
                        derivs[b] = sympy.diff(e, symbols[i])
    return out


def _rows(dim, degree):
    """The multi-indices in a jet's row order."""
    from blocksep.jets import _positions

    return list(_positions(dim, degree))


@pytest.mark.parametrize("dim, degree", [(2, 0), (2, 1), (2, 3), (2, 6), (3, 2), (3, 4), (3, 6)])
def test_every_operation_matches_sympy(dim, degree):
    symbols = sympy.symbols(f"x0:{dim}")
    point = POINTS[dim]
    xs = [Jet.variable(np.array([float(v)]), k, dim, degree) for k, v in enumerate(point)]
    jets = _operations(xs)
    exprs = _operations(list(symbols))
    rows = _rows(dim, degree)
    for name, jet in jets.items():
        assert jet.coef.shape == (comb(dim + degree, degree), 1) and jet.degree == degree, name
        want = _taylor(exprs[name], symbols, point, degree)
        got = {a: jet.coef[i, 0] for i, a in enumerate(rows)}
        for a in rows:
            assert got[a] == pytest.approx(want[a], rel=1e-12, abs=1e-12), (name, a)


@pytest.mark.parametrize("dim, degree", [(2, 6), (3, 5)])
def test_derivatives_and_truncation_match_sympy(dim, degree):
    symbols = sympy.symbols(f"x0:{dim}")
    point = POINTS[dim]
    xs = [Jet.variable(np.array([float(v)]), k, dim, degree) for k, v in enumerate(point)]
    jet, expr = _operations(xs)["nested"], _operations(list(symbols))["nested"]
    for alpha in [(0,) * dim, (1,) + (0,) * (dim - 1), (0, 2) + (0,) * (dim - 2), (1,) * dim]:
        low = degree - sum(alpha)
        got = jet.derive(alpha, low)
        d_expr = expr
        for i, k in enumerate(alpha):
            d_expr = sympy.diff(d_expr, symbols[i], k) if k else d_expr
        want = _taylor(d_expr, symbols, point, low)
        assert got.degree == low and len(got.coef) == comb(dim + low, low)
        for i, a in enumerate(_rows(dim, low)):
            assert got.coef[i, 0] == pytest.approx(want[a], rel=1e-11, abs=1e-12), (alpha, a)
    for low in range(degree + 1):
        assert np.array_equal(jet.truncate(low).coef, jet.coef[:comb(dim + low, low)])


def test_a_point_alone_equals_the_point_in_a_batch_of_fifty():
    """Every coefficient of every operation at one point is bit-equal whether
    the point is evaluated alone or with 49 others."""
    dim, degree = 3, 6
    points = np.random.default_rng(5).uniform(0.35, 1.45, size=(dim, 50))
    batch = _operations([Jet.variable(points[k], k, dim, degree) for k in range(dim)])
    for p in (0, 17, 49):
        alone = _operations([Jet.variable(points[k, p:p + 1], k, dim, degree)
                             for k in range(dim)])
        for name, jet in batch.items():
            assert np.array_equal(jet.coef[:, p:p + 1], alone[name].coef), (name, p)
