"""Coefficient ring: polynomials, radical reduction, cancellation."""

from fractions import Fraction

import pytest

from blocksep.errors import UndeclaredParameterError
from blocksep.ring import Coefficient, Context, Poly, pack
from oracles import coefficient_mul, substitute_params


@pytest.fixture
def ctx2r():
    """Two coordinates with the full radical r = sqrt(x1^2 + x2^2)."""
    return Context(("x1", "x2"), ("beta",), norm_radical=True)


def test_poly_basic_arithmetic():
    n = 3
    x = Poly.var(n, 0)
    y = Poly.var(n, 1)
    p = x.mul(x).add(y.scale(2))
    q = p.sub(p)
    assert q.is_zero()
    assert p.mul(Poly.const(n, 1)) == p


def test_poly_exact_division():
    n = 2
    x = Poly.var(n, 0)
    y = Poly.var(n, 1)
    s = x.mul(x).add(y.mul(y))
    prod = s.mul(s).mul(x)
    q = prod.exact_div(s)
    assert q == s.mul(x)
    assert prod.exact_div(x.add(y)) is None


def test_poly_derivative_and_eval():
    n = 2
    x = Poly.var(n, 0)
    y = Poly.var(n, 1)
    p = x.mul(x).mul(x).mul(y)  # x^3 y
    assert p.deriv_slot(0) == x.mul(x).mul(y).scale(3)
    assert p.eval_numeric([2.0, 5.0]) == 40.0


def test_radical_reduction_in_make(ctx2r):
    ctx = ctx2r
    rho = ctx.radical_poly()
    # rho^e reduces to (x1^2+x2^2)^(e // 2) rho^(e % 2)
    S = ctx.sum_of_squares([0, 1])
    for e in range(2, 8):
        want = ctx.const_poly(1)
        for _ in range(e // 2):
            want = want.mul(S)
        if e % 2:
            want = want.mul(rho)
        got = Coefficient.make(ctx, Poly.var(ctx.nvars, ctx.norm_slot, e))
        assert got == Coefficient.from_poly(ctx, want), e


def test_context_without_norm_radical():
    """No r slot: make leaves every numerator as it is, and r cannot be asked for."""
    ctx = Context(("x1", "x2"), ("beta",))
    assert ctx.nvars == 3 and ctx.norm_slot is None
    p = ctx.x(0, 3).mul(ctx.param("beta"))
    assert ctx.reduce_radicals(p) is p
    with pytest.raises(ValueError):
        ctx.radical_poly()


def test_one_over_r_plus_r_over_r2(ctx2r):
    """1/r + r/r^2 = 2/r after radical reduction, stored as 2 rho / S."""
    ctx = ctx2r
    rho = ctx.radical_poly()
    S = ctx.sum_of_squares([0, 1])
    inv_r = Coefficient.from_poly(ctx, rho).div_poly(S)  # rho/S == 1/r
    r_over_r2 = Coefficient.from_poly(ctx, rho).div_poly(S)
    two_over_r = inv_r.add(r_over_r2)
    assert two_over_r == inv_r.scale(2)


def test_denominator_cancellation(ctx2r):
    ctx = ctx2r
    S = ctx.sum_of_squares([0, 1])
    num = S.mul(ctx.x(0))  # (x1^2+x2^2) x1
    c = Coefficient.from_poly(ctx, num).div_poly(S)
    assert c == Coefficient.from_poly(ctx, ctx.x(0))
    # scalar multiples of atoms are normalized out
    c2 = Coefficient.from_poly(ctx, num.scale(2)).div_poly(S.scale(2))
    assert c2 == Coefficient.from_poly(ctx, ctx.x(0))


def test_coefficient_add_common_denominator(ctx2r):
    ctx = ctx2r
    x1 = ctx.x(0)
    x2 = ctx.x(1)
    a = Coefficient.from_poly(ctx, ctx.const_poly(1)).div_poly(x1.mul(x1))
    b = Coefficient.from_poly(ctx, ctx.const_poly(1)).div_poly(x2.mul(x2))
    total = a.add(b)
    # (x2^2 + x1^2) / (x1^2 x2^2)
    expect = Coefficient.from_poly(ctx, ctx.sum_of_squares([0, 1]))
    expect = expect.div_poly(x1.mul(x1)).div_poly(x2.mul(x2))
    assert total == expect


def test_radical_derivative(ctx2r):
    """d/dx1 of r is x1 rho / S, i.e. x1 / r."""
    ctx = ctx2r
    rho = Coefficient.from_poly(ctx, ctx.radical_poly())
    d = rho.deriv(0)
    S = ctx.sum_of_squares([0, 1])
    expect = Coefficient.from_poly(ctx, ctx.x(0).mul(ctx.radical_poly())).div_poly(S)
    assert d == expect


def test_quotient_rule(ctx2r):
    """d/dx1 (x1/ x2^2) = 1/x2^2 and d/dx2 (1/x2) = -1/x2^2."""
    ctx = ctx2r
    x2sq = ctx.x(1).mul(ctx.x(1))
    c = Coefficient.from_poly(ctx, ctx.x(0)).div_poly(x2sq)
    assert c.deriv(0) == Coefficient.from_poly(ctx, ctx.const_poly(1)).div_poly(x2sq)
    inv_x2 = Coefficient.from_poly(ctx, ctx.const_poly(1)).div_poly(ctx.x(1))
    d = inv_x2.deriv(1)
    assert d == Coefficient.from_poly(ctx, ctx.const_poly(-1)).div_poly(x2sq)


def test_param_substitution(ctx2r):
    ctx = ctx2r
    beta_over_x2 = Coefficient.from_poly(ctx, ctx.param("beta")).div_poly(ctx.x(0, 2))
    zero = substitute_params(beta_over_x2, {"beta": 0})
    assert zero.is_zero()
    threequarters = substitute_params(beta_over_x2, {"beta": Fraction(3, 4)})
    expect = Coefficient.from_poly(ctx, ctx.const_poly(Fraction(3, 4))).div_poly(ctx.x(0, 2))
    assert threequarters == expect
    with pytest.raises(UndeclaredParameterError):
        substitute_params(beta_over_x2, {"nosuch": 1})


def test_numeric_eval_with_radical(ctx2r):
    ctx = ctx2r
    rho = Coefficient.from_poly(ctx, ctx.radical_poly())
    val = rho.eval_numeric([3.0, 4.0], {"beta": 0.0})
    assert abs(val - 5.0) < 1e-14
    # r is the norm over every coordinate
    ctx3 = Context(("x1", "x2", "x3"), norm_radical=True)
    r3 = Coefficient.from_poly(ctx3, ctx3.radical_poly())
    assert r3.eval_numeric([1.0, 2.0, 2.0], {}) == 3.0


def test_reduction_order_confluence(ctx2r):
    """Products of radicals normalize identically regardless of grouping."""
    ctx = ctx2r
    rho = ctx.radical_poly()
    a = Coefficient.make(ctx, rho.mul(rho).mul(rho))
    b = coefficient_mul(Coefficient.make(ctx, rho), Coefficient.make(ctx, rho.mul(rho)))
    c = coefficient_mul(Coefficient.make(ctx, rho.mul(rho)), Coefficient.make(ctx, rho))
    assert a == b == c


def _carry(c: Coefficient, ctx: Context) -> Coefficient:
    """``c`` over ``ctx``, a context of the same slots, its atoms found by their polynomials."""
    den = sorted((ctx.atom_and_scale(c.ctx.atom_by_id(aid).poly)[0].aid, e) for aid, e in c.den)
    return Coefficient(ctx, c.num, tuple(den))


def test_derivative_is_read_from_the_context_table(ctx2r):
    ctx = ctx2r
    c = Coefficient.from_poly(ctx, ctx.x(0, 2).mul(ctx.radical_poly())).div_poly(ctx.x(1))
    for i in range(ctx.nx):
        assert c.deriv(i) is c.deriv(i)


def test_equal_coefficients_in_another_term_order_share_a_derivative(ctx2r):
    """The table returns the derivative of the first equal coefficient it
    saw; it is the derivative a fresh context computes for the other one."""
    ctx = ctx2r
    num = ctx.x(0, 3).add(ctx.x(1).mul(ctx.radical_poly())).add(ctx.param("beta"))
    a = Coefficient.from_poly(ctx, num).div_poly(ctx.sum_of_squares([0, 1]))
    b = Coefficient(ctx, Poly(ctx.nvars, dict(reversed(a.num.terms.items()))), a.den)
    assert a == b and list(a.num.terms) != list(b.num.terms)
    for i in range(ctx.nx):
        first = b.deriv(i)
        fresh = Context(ctx.var_names, ctx.param_names, norm_radical=True)
        cold = _carry(a, fresh)._deriv(i)
        assert a.deriv(i) is first
        assert first == _carry(cold, ctx) and first.to_text() == cold.to_text()


def test_table_derivative_equals_a_cold_one():
    """Over random coefficients, with and without r and denominators, the
    derivative read from a context that has differentiated an equal
    coefficient (its terms in reverse order) equals the one a fresh context
    computes, by == and by to_text()."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    names = ("x1", "x2", "x3")
    warm = {radical: Context(names, ("beta",), norm_radical=radical) for radical in (False, True)}
    divisors = {"x1": lambda ctx: ctx.x(0), "x2^2": lambda ctx: ctx.x(1, 2),
                "x1^2 + x2^2": lambda ctx: ctx.sum_of_squares([0, 1]),
                "|x|^2": lambda ctx: ctx.sum_of_squares(range(3))}

    def build(ctx, terms, dens):
        num = ctx.zero_poly()
        for e, v in terms:  # in order, so a reversed list gives reversed terms
            num = num.add(Poly(ctx.nvars, {pack(e): 1}).scale(v))
        c = Coefficient.make(ctx, num)
        for d in dens:
            c = c.div_poly(divisors[d](ctx))
        return c

    values = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 5]), st.integers(1, 3))

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
    @hypothesis.given(st.data(), st.booleans(), st.lists(st.sampled_from(sorted(divisors)), max_size=2),
                      st.integers(0, 2))
    def check(data, radical, dens, i):
        ctx = warm[radical]
        exps = st.tuples(*[st.integers(0, 2)] * 3, st.integers(0, 1), *[st.integers(0, 2)] * radical)
        terms = list(data.draw(st.dictionaries(exps, values, min_size=1, max_size=4)).items())
        c, twin = build(ctx, terms, dens), build(ctx, terms[::-1], dens)
        assert c == twin
        twin.deriv(i)
        got = c.deriv(i)
        cold = build(Context(names, ("beta",), norm_radical=radical), terms, dens).deriv(i)
        assert got == _carry(cold, ctx)
        assert got.to_text() == cold.to_text()

    check()
