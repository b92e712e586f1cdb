"""Property tests for the exact product over two and three coordinates,
with and without the norm radical r: radical reduction in ``Coefficient.mul``; the Leibniz
product of ``DiffOp`` against the application oracle, a term-by-term
reference and sympy; associativity, the Jacobi identity and the formal
transpose built from it.

It is its own module because a module-level ``importorskip`` would skip the
other operator tests when hypothesis is missing.
"""

import itertools
import math
from fractions import Fraction
from functools import reduce

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from blocksep.opalg import DiffOp  # noqa: E402
from blocksep.ring import Coefficient, Context, Poly  # noqa: E402
from oracles import apply_coefficient, formal_transpose  # noqa: E402

PROPERTY = hypothesis.settings(derandomize=True, max_examples=100, deadline=None)

R2, R3 = (Context(tuple(f"x{i + 1}" for i in range(nx)), norm_radical=True) for nx in (2, 3))
PLAIN3 = Context(("x1", "x2", "x3"))
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
        lambda t: Poly(ctx.nvars, {t[0] + t[1]: 1}).scale(t[2]))


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

    assert make(p, a).mul(make(q, b)) == make(p.mul(q), a + b)


@pytest.mark.parametrize("ctx", [R2, R3], ids=["2d", "3d"])
@hypothesis.settings(PROPERTY, max_examples=60)
@hypothesis.given(st.data())
def test_product_against_application_oracle(ctx, data):
    """The normal-ordered product agrees with nested application on a
    scalar field: (a o b)(g) == a(b(g))."""
    a, b = draw_operators(data, ctx, 2)
    g = Coefficient.from_poly(ctx, ctx.x(0, 2).add(ctx.x(1).scale(3)).add(ctx.radical_poly()))
    assert apply_coefficient(a.mul(b), g) == apply_coefficient(a, apply_coefficient(b, g))


def _reference_mul(a, b):
    """Leibniz product normalized term by term: each term through Coefficient
    mul and scale, each output key accumulated with Coefficient.add.  Also
    says whether some key cancelled to zero along the way."""
    out = {}
    cancelled = False
    for alpha, ca in a.terms.items():
        for beta, cb in b.terms.items():
            for gamma in itertools.product(*(range(k + 1) for k in alpha)):
                dcb = cb
                for i, (k, g) in enumerate(zip(alpha, gamma)):
                    for _ in range(k - g):
                        dcb = dcb.deriv(i)
                binom = 1
                for k, g in zip(alpha, gamma):
                    binom *= math.comb(k, g)
                coef = ca.mul(dcb).scale(binom)
                if coef.is_zero():
                    continue
                key = tuple(g + e for g, e in zip(gamma, beta))
                total = out[key].add(coef) if key in out else coef
                if total.is_zero():
                    del out[key]
                    cancelled = True
                else:
                    out[key] = total
    return DiffOp(a.ctx, out), cancelled


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
    want, cancelled = _reference_mul(a, b)
    assert got == want
    assert cancelled or shape != "cancels"
    for c in got.terms.values():
        assert not c.is_zero()
        assert all(type(v) is int or v.denominator != 1 for v in c.num.terms.values())


def _to_sympy(sp, coef, xs, r):
    """A Coefficient as a sympy expression; the radical slot becomes r."""
    ctx = coef.ctx

    def poly(p):
        return sum(sp.Rational(c.numerator, c.denominator)
                   * sp.Mul(*(v**e for v, e in zip((*xs, r), m)))
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


@pytest.mark.parametrize("ctx", [R2, R3], ids=["2d", "3d"])
@hypothesis.settings(PROPERTY, max_examples=10)
@hypothesis.given(st.data())
def test_product_against_sympy_on_a_generic_function(ctx, data):
    """nf(a o b) f == a(b(f)) for an undetermined f(x1..xd), with r = |x|."""
    sp = pytest.importorskip("sympy")
    a, b = draw_operators(data, ctx, 2)
    xs = sp.symbols(ctx.var_names, positive=True)
    r = sp.sqrt(sum(x**2 for x in xs))
    f = sp.Function("f")(*xs)
    lhs = _apply_sympy(sp, a.mul(b), f, xs, r)
    rhs = _apply_sympy(sp, a, _apply_sympy(sp, b, f, xs, r), xs, r)
    assert sp.expand(sp.together(lhs - rhs)) == 0


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
