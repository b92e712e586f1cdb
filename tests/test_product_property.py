"""Property tests for the exact product over two and three coordinates,
with and without the norm radical r: radical reduction in ``Coefficient.make``; the Leibniz
product of ``DiffOp`` against the application oracle, a term-by-term
reference and sympy; ``DiffOp.compose`` (product, commutator and
anticommutator) against two whole products and sympy; associativity, the
Jacobi identity and the formal transpose built from it.

It is its own module because a module-level ``importorskip`` would skip the
other operator tests when hypothesis is missing.
"""

from fractions import Fraction
from functools import reduce

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from blocksep.opalg import DiffOp  # noqa: E402
from blocksep.ring import Coefficient, Context, Poly, pack, unpack  # noqa: E402
from oracles import (apply_coefficient, coefficient_mul, formal_transpose,  # noqa: E402
                     termwise_product, two_product_composition)

PROPERTY = hypothesis.settings(derandomize=True, max_examples=100, deadline=None)

R2, R3, PLAIN2, PLAIN3 = (Context(tuple(f"x{i + 1}" for i in range(nx)), norm_radical=radical)
                          for radical in (True, False) for nx in (2, 3))
contexts = st.sampled_from([R2, R3])

coefficients = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3))


def indices(nx):
    """A multi-index of order at most 2 over ``nx`` coordinates."""
    return st.lists(st.integers(0, nx - 1), max_size=2).map(
        lambda ks: tuple(ks.count(k) for k in range(nx)))


def monomials(ctx, r_exps=st.just(0)):
    """c x^m r^e with |m| <= 2; a context without r takes no r_exps."""
    r_exps = r_exps.map(lambda e: (e,)) if ctx.norm_slot is not None else st.just(())
    return st.tuples(indices(ctx.nx), r_exps, coefficients).map(
        lambda t: Poly(ctx.nvars, {pack(t[0] + t[1]): 1}).scale(t[2]))


def polys(ctx):
    return st.lists(monomials(ctx), max_size=3).map(lambda ts: reduce(Poly.add, ts, ctx.zero_poly()))


@st.composite
def operators(draw, ctx):
    """One to three terms of order at most 2; each coefficient is a monomial
    that may hold r and may be divided by |x|^2."""
    op = DiffOp.zero(ctx)
    for _ in range(draw(st.integers(1, 3))):
        coef = Coefficient.make(ctx, draw(monomials(ctx, st.integers(0, 1))))
        if draw(st.booleans()):
            coef = coef.div_poly(ctx.sum_of_squares(range(ctx.nx)))
        if not coef.is_zero():
            op = op.add(DiffOp(ctx, {draw(indices(ctx.nx)): coef}))
    return op


def draw_operators(data, ctx, n):
    return [data.draw(operators(ctx)) for _ in range(n)]


@PROPERTY
@hypothesis.given(st.data(), st.integers(0, 3), st.integers(0, 3))
def test_radical_reduction_is_multiplicative(data, a, b):
    """make(p r^a) * make(q r^b) == make(p q r^(a+b)), with r^2 = |x|^2."""
    ctx = data.draw(contexts)
    p, q = data.draw(polys(ctx)), data.draw(polys(ctx))

    def make(poly, e):
        return Coefficient.make(ctx, poly.mul(Poly.var(ctx.nvars, ctx.norm_slot, e)))

    assert coefficient_mul(make(p, a), make(q, b)) == make(p.mul(q), a + b)


@pytest.mark.parametrize("ctx", [R2, R3], ids=["2d", "3d"])
@hypothesis.settings(PROPERTY, max_examples=60)
@hypothesis.given(st.data())
def test_product_against_application_oracle(ctx, data):
    """The normal-ordered product agrees with nested application on a
    scalar field: (a o b)(g) == a(b(g))."""
    a, b = draw_operators(data, ctx, 2)
    g = Coefficient.from_poly(ctx, ctx.x(0, 2).add(ctx.x(1).scale(3)).add(ctx.radical_poly()))
    assert apply_coefficient(a.mul(b), g) == apply_coefficient(a, apply_coefficient(b, g))


@hypothesis.settings(PROPERTY, max_examples=200)
@hypothesis.given(st.data(), st.sampled_from(["random", "cancels", "random plus cancels"]))
def test_product_against_termwise_reference(data, shape):
    """Collecting each key's numerators and normalizing once gives the same
    normal form as normalizing every Leibniz term; keys that cancel vanish."""
    ctx = R3
    a, b = draw_operators(data, ctx, 2)
    if shape != "random":
        # (d1 - d2) o (x1 + x2 + terms with derivatives) cancels at key 0
        d1_minus_d2 = DiffOp.partial(ctx, 0).sub(DiffOp.partial(ctx, 1))
        b = DiffOp(ctx, {k: c for k, c in b.terms.items() if any(k)})
        b = b.add(DiffOp.from_poly(ctx, ctx.x(0).add(ctx.x(1))))
        a = d1_minus_d2 if shape == "cancels" else a.add(d1_minus_d2)
    got = a.mul(b)
    want, cancelled = termwise_product(a, b)
    assert got == want
    assert cancelled or shape != "cancels"
    for c in got.terms.values():
        assert not c.is_zero()
        assert all(type(v) is int or v.denominator != 1 for v in c.num.terms.values())


@pytest.mark.parametrize("ctx", [R2, R3, PLAIN2, PLAIN3], ids=["2d-r", "3d-r", "2d", "3d"])
@pytest.mark.parametrize("sign", [0, -1, 1])
@PROPERTY
@hypothesis.given(st.data())
def test_compose_against_two_products(ctx, sign, data):
    """a.compose(b, sign) == a o b + sign * b o a from two whole products; a
    commutator has no term of order above ord a + ord b - 1."""
    a, b = draw_operators(data, ctx, 2)
    got = a.compose(b, sign)
    assert got == two_product_composition(a, b, sign)
    if sign == -1:
        assert all(sum(k) <= a.order() + b.order() - 1 for k in got.terms)


def _to_sympy(sp, coef, xs, r):
    """A Coefficient as a sympy expression; the radical slot becomes r."""
    ctx = coef.ctx

    def poly(p):
        return sum(sp.Rational(c.numerator, c.denominator)
                   * sp.Mul(*(v**e for v, e in zip((*xs, r), unpack(p.n, m))))
                   for m, c in p.terms.items())

    den = sp.Mul(*(poly(ctx.atom_by_id(aid).poly) ** e for aid, e in coef.den))
    return poly(coef.num) / den


def _apply_sympy(sp, op, expr, xs, r):
    total = 0
    for alpha, c in op.terms.items():
        d = expr
        for x, e in zip(xs, alpha):
            if e:
                d = sp.diff(d, x, e)
        total += _to_sympy(sp, c, xs, r) * d
    return total


def _is_zero_sympy(sp, expr, r):
    """Exact zero test: each power (|x|^2)^(k/2) becomes R^k, and the
    numerator is reduced modulo R^2 - |x|^2.  r = |x| is irrational over
    Q(x), so the remainder, of degree at most 1 in R, is 0 exactly when
    ``expr`` is.  Much faster than ``expand(together(expr))`` on commutators."""
    R = sp.Dummy("R", positive=True)
    expr = expr.replace(lambda e: e.is_Pow and e.base == r.base and e.exp.q == 2,
                        lambda e: R ** e.exp.p)
    num, _ = sp.fraction(sp.together(expr))
    return sp.rem(sp.expand(num), R**2 - r.base, R) == 0


@pytest.mark.parametrize("ctx", [R2, R3], ids=["2d", "3d"])
@pytest.mark.parametrize("sign", [0, -1, 1])
@hypothesis.settings(PROPERTY, max_examples=10)
@hypothesis.given(st.data())
def test_product_against_sympy_on_a_generic_function(ctx, sign, data):
    """nf(a o b + sign * b o a) f == a(b(f)) + sign * b(a(f)) for an
    undetermined f(x1..xd), with r = |x|: the product, commutator and
    anticommutator of ``compose``."""
    sp = pytest.importorskip("sympy")
    a, b = draw_operators(data, ctx, 2)
    xs = sp.symbols(ctx.var_names, positive=True)
    r = sp.sqrt(sum(x**2 for x in xs))
    f = sp.Function("f")(*xs)
    lhs = _apply_sympy(sp, a.compose(b, sign), f, xs, r)
    rhs = _apply_sympy(sp, a, _apply_sympy(sp, b, f, xs, r), xs, r)
    if sign:
        rhs += sign * _apply_sympy(sp, b, _apply_sympy(sp, a, f, xs, r), xs, r)
    assert _is_zero_sympy(sp, lhs - rhs, r)


@hypothesis.settings(PROPERTY, max_examples=200)
@hypothesis.given(st.data())
def test_associativity(data):
    a, b, c = draw_operators(data, R3, 3)
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


@hypothesis.settings(PROPERTY, max_examples=200)
@hypothesis.given(st.data())
def test_jacobi_identity(data):
    a, b, c = draw_operators(data, PLAIN3, 3)
    total = a.commutator(b.commutator(c)).add(b.commutator(c.commutator(a)))
    assert total.add(c.commutator(a.commutator(b))).is_zero()


@PROPERTY
@hypothesis.given(st.data())
def test_formal_transpose_is_an_involution(data):
    (a,) = draw_operators(data, data.draw(contexts), 1)
    assert formal_transpose(formal_transpose(a)) == a
