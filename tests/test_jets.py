"""Taylor jets against sympy's Taylor coefficients, the product against its
reference bit for bit, and batch independence."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from blocksep.jets import Jet, _product_table
from oracles import reference_jet_product, reference_product_table

try:
    import sympy
except ImportError:  # only the tests against sympy need it; they skip
    sympy = None

POINTS = {2: (Fraction(3, 5), Fraction(-7, 10)), 3: (Fraction(3, 5), Fraction(-7, 10), Fraction(1, 2))}


def _operations(xs):
    """Each operation of a jet, or of a sympy expression, on fields of xs."""
    y = xs[len(xs) // 2]  # x1 in two and three variables
    f = 1 + xs[0] * xs[-1] - 2 * y**2 / 3
    g = 2 + y - xs[0] ** 2 / 4
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
    pytest.importorskip("sympy")
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
    pytest.importorskip("sympy")
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
    the point is evaluated alone or with 49 others, in one, three and four
    variables."""
    degree = 6
    for dim in (1, 3, 4):
        points = np.random.default_rng(5).uniform(0.35, 1.45, size=(dim, 50))
        batch = _operations([Jet.variable(points[k], k, dim, degree) for k in range(dim)])
        for p in (0, 17, 49):
            alone = _operations([Jet.variable(points[k, p:p + 1], k, dim, degree)
                                 for k in range(dim)])
            for name, jet in batch.items():
                assert np.array_equal(jet.coef[:, p:p + 1], alone[name].coef), (dim, name, p)


def _mixed_jet(rng, dim, degree, points=7):
    """A jet of random coefficients of both signs, magnitudes 1e-8 to 1e8."""
    shape = (comb(dim + degree, degree), points)
    coef = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
    return Jet(coef, dim, degree)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_product_is_bit_equal_to_the_rank_loop_reference(dim):
    """Every coefficient of a product equals the reference's bit for bit, for
    operands of equal degree 0-6 and of unequal degree."""
    rng = np.random.default_rng(dim)
    for degree in range(7):
        for other in sorted({degree, degree + 2, max(degree - 1, 0)}):
            a, b = _mixed_jet(rng, dim, degree), _mixed_jet(rng, dim, other)
            for x, y in ((a, b), (b, a)):
                got = x * y
                assert got.degree == min(degree, other)
                assert np.array_equal(got.coef, reference_jet_product(x, y)), (degree, other)


def _pairs_by_output(ranks) -> dict:
    out: dict = {}
    for rank in ranks:
        for o, i, j in rank:
            out.setdefault(int(o), []).append((int(i), int(j)))
    return out


@pytest.mark.parametrize("dim, degree", [(d, k) for d in range(1, 5) for k in range(7)] + [(6, 6)])
def test_product_table_gives_each_output_the_reference_pairs_in_order(dim, degree):
    i, j, ranks, place = _product_table(dim, degree)
    order = np.argsort(place)
    spans = [(0, len(place))] + list(ranks)
    assert [size for _, size in spans] == sorted((size for _, size in spans), reverse=True)
    got = _pairs_by_output(zip(order[:size], i[start:start + size], j[start:start + size])
                           for start, size in spans)
    assert got == _pairs_by_output(reference_product_table(dim, degree))
