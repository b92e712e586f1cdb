"""Differential operator algebra: normal ordering, commutators, properties."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from blocksep.errors import ContextMismatchError
from blocksep.opalg import (
    DiffOp,
    angular_momentum,
    angular_momentum_squared_sum,
    laplacian,
)
from blocksep.ring import Coefficient, Context


@pytest.fixture
def ctx3():
    return Context(("x1", "x2", "x3"))


@pytest.fixture
def ctx2r():
    return Context(("x1", "x2"), norm_radical=True)


def test_weyl_relation(ctx3):
    d1 = DiffOp.partial(ctx3, 0)
    x1 = DiffOp.from_poly(ctx3, ctx3.x(0))
    prod = d1.mul(x1)
    expect = x1.mul(d1).add(DiffOp.scalar(ctx3, 1))
    assert prod == expect


def test_add_cancels(ctx3):
    d1 = DiffOp.partial(ctx3, 0)
    assert d1.add(d1.neg()).is_zero()
    t = DiffOp.from_poly(ctx3, ctx3.x(0)).mul(DiffOp.partial(ctx3, 1))
    assert t.add(t) == t.scale(2)


def test_commutator_partial_x1sq(ctx3):
    """[d1, x1^2] = 2 x1."""
    d1 = DiffOp.partial(ctx3, 0)
    x1sq = DiffOp.from_poly(ctx3, ctx3.x(0, 2))
    assert d1.commutator(x1sq) == DiffOp.from_poly(ctx3, ctx3.x(0).scale(2))


def test_anticommutator(ctx3):
    """{d1, x1} = 2 x1 d1 + 1."""
    d1 = DiffOp.partial(ctx3, 0)
    x1 = DiffOp.from_poly(ctx3, ctx3.x(0))
    got = d1.anticommutator(x1)
    expect = x1.mul(d1).scale(2).add(DiffOp.scalar(ctx3, 1))
    assert got == expect


def test_partial_of_radical(ctx2r):
    """d1 o r = r d1 + x1 rho / S in normal order."""
    ctx = ctx2r
    d1 = DiffOp.partial(ctx, 0)
    r = DiffOp.from_poly(ctx, ctx.radical_poly())
    prod = d1.mul(r)
    S = ctx.sum_of_squares([0, 1])
    chain = Coefficient.from_poly(ctx, ctx.x(0).mul(ctx.radical_poly())).div_poly(S)
    expect = r.mul(d1).add(DiffOp.from_coefficient(ctx, chain))
    assert prod == expect


def test_so3_closure(ctx3):
    """[L_12, L_23] = L_13 and the full closure over index triples."""
    got = angular_momentum(ctx3, 0, 1).commutator(angular_momentum(ctx3, 1, 2))
    assert got == angular_momentum(ctx3, 0, 2)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if len({a, b, c}) < 3:
                    continue
                got = angular_momentum(ctx3, a, b).commutator(angular_momentum(ctx3, b, c))
                assert got == angular_momentum(ctx3, a, c)


def test_L2_commutes_with_own_radius():
    """[L^2_block, r_block^2] = 0 for 2- and 3-coordinate blocks."""
    for d in (2, 3):
        ctx = Context(tuple(f"x{i+1}" for i in range(d)))
        L2 = angular_momentum_squared_sum(ctx, range(d))
        r2 = DiffOp.from_poly(ctx, ctx.sum_of_squares(range(d)))
        assert L2.commutator(r2).is_zero()


def test_is_zero_examples(ctx3):
    d1 = DiffOp.partial(ctx3, 0)
    x1 = DiffOp.from_poly(ctx3, ctx3.x(0))
    one = DiffOp.scalar(ctx3, 1)
    assert d1.mul(x1).sub(x1.mul(d1)).sub(one).is_zero()
    assert not d1.mul(x1).sub(x1.mul(d1)).is_zero()


def test_context_mismatch(ctx3, ctx2r):
    d = DiffOp.partial(ctx3, 0)
    e = DiffOp.partial(ctx2r, 0)
    with pytest.raises(ContextMismatchError):
        d.add(e)
    with pytest.raises(ContextMismatchError):
        d.mul(e)


def test_substitute_params_operator():
    ctx = Context(("x1",), ("g1", "w2"))
    g_over_x2 = DiffOp.from_coefficient(
        ctx, Coefficient.from_poly(ctx, ctx.param("g1")).div_poly(ctx.x(0, 2))
    )
    assert g_over_x2.substitute_params({"g1": 0}).is_zero()
    w2r2 = DiffOp.from_poly(ctx, ctx.param("w2").mul(ctx.x(0, 2)))
    assert w2r2.substitute_params({"w2": 1}) == DiffOp.from_poly(ctx, ctx.x(0, 2))


def _random_op(ctx, rng, nterms=3, with_radical=False):
    """Small random operator: poly coefficients of degree <= 2, order <= 2."""
    op = DiffOp.zero(ctx)
    nx = ctx.nx
    for _ in range(nterms):
        alpha = [0] * nx
        for _ in range(rng.randint(0, 2)):
            alpha[rng.randrange(nx)] += 1
        mono = [0] * ctx.nvars
        for _ in range(rng.randint(0, 2)):
            mono[rng.randrange(nx)] += 1
        if with_radical and ctx.norm_slot is not None and rng.random() < 0.4:
            mono[ctx.norm_slot] += 1
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if c == 0:
            continue
        if c.denominator == 1:
            c = c.numerator  # stored as an int, as the ring stores integral values
        from blocksep.ring import Poly

        coef = Coefficient.make(ctx, Poly(ctx.nvars, {tuple(mono): c}))
        if rng.random() < 0.3:
            coef = coef.div_poly(ctx.sum_of_squares(range(nx)))
        op = op.add(DiffOp(ctx, {tuple(alpha): coef}) if not coef.is_zero() else DiffOp.zero(ctx))
    return op


def test_associativity_randomized():
    ctx = Context(("x1", "x2", "x3"), norm_radical=True)
    rng = random.Random(20240811)
    for case in range(200):
        a = _random_op(ctx, rng, with_radical=case % 3 == 0)
        b = _random_op(ctx, rng)
        c = _random_op(ctx, rng, with_radical=case % 5 == 0)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_jacobi_identity_randomized():
    ctx = Context(("x1", "x2", "x3"))
    rng = random.Random(977)
    for _ in range(200):
        a = _random_op(ctx, rng)
        b = _random_op(ctx, rng)
        c = _random_op(ctx, rng)
        total = (
            a.commutator(b.commutator(c))
            .add(b.commutator(c.commutator(a)))
            .add(c.commutator(a.commutator(b)))
        )
        assert total.is_zero()


def test_product_against_application_oracle():
    """Normal-ordered product agrees with nested application on scalar fields."""
    ctx = Context(("x1", "x2"), norm_radical=True)
    rng = random.Random(555)
    for case in range(60):
        a = _random_op(ctx, rng, with_radical=case % 2 == 0)
        b = _random_op(ctx, rng, with_radical=case % 3 == 0)
        g = Coefficient.from_poly(
            ctx, ctx.x(0, 2).add(ctx.x(1).scale(3)).add(ctx.radical_poly())
        )
        lhs = a.mul(b).apply_coefficient(g)
        rhs = a.apply_coefficient(b.apply_coefficient(g))
        assert lhs == rhs


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


def test_product_against_termwise_reference():
    """Collecting each key's numerators and normalizing once gives the same
    normal form as normalizing every Leibniz term; keys that cancel vanish."""
    ctx = Context(("x1", "x2", "x3"), norm_radical=True)
    rng = random.Random(8128)
    d1_minus_d2 = DiffOp.partial(ctx, 0).sub(DiffOp.partial(ctx, 1))
    x1_plus_x2 = DiffOp.from_poly(ctx, ctx.x(0).add(ctx.x(1)))
    cancelling = 0
    for case in range(200):
        a = _random_op(ctx, rng, with_radical=case % 3 == 0)
        b = _random_op(ctx, rng, with_radical=case % 2 == 0)
        if case % 4 == 0:
            # (d1 - d2) o (x1 + x2 + terms with derivatives) cancels at key 0
            b = DiffOp(ctx, {k: c for k, c in b.terms.items() if any(k)}).add(x1_plus_x2)
            a = a.add(d1_minus_d2) if case % 8 == 0 else d1_minus_d2
        got = a.mul(b)
        want, cancelled = _reference_mul(a, b)
        cancelling += cancelled
        assert got == want, case
        for c in got.terms.values():
            assert not c.is_zero()
            assert all(type(v) is int or v.denominator != 1 for v in c.num.terms.values())
    assert cancelling >= 25  # every case % 8 == 4 cancels at key 0


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


@pytest.mark.parametrize("d, cases", [(2, 10), (3, 6)])
def test_product_against_sympy_on_a_generic_function(d, cases):
    """nf(a o b) f == a(b(f)) for an undetermined f(x1..xd), with r = |x|."""
    sp = pytest.importorskip("sympy")
    names = tuple(f"x{i + 1}" for i in range(d))
    ctx = Context(names, norm_radical=True)
    xs = sp.symbols(names, positive=True)
    r = sp.sqrt(sum(x**2 for x in xs))
    f = sp.Function("f")(*xs)
    rng = random.Random(4242)
    for case in range(cases):
        a = _random_op(ctx, rng, with_radical=True)
        b = _random_op(ctx, rng, with_radical=case % 2 == 0)
        lhs = _apply_sympy(sp, a.mul(b), f, xs, r)
        rhs = _apply_sympy(sp, a, _apply_sympy(sp, b, f, xs, r), xs, r)
        assert sp.simplify(lhs - rhs) == 0, case


def test_formal_transpose_involution(ctx3):
    lap = laplacian(ctx3, range(3))
    assert lap.formal_transpose() == lap
    d1 = DiffOp.partial(ctx3, 0)
    assert d1.formal_transpose() == d1.neg()
    rng = random.Random(3)
    op = _random_op(ctx3, rng, nterms=4)
    assert op.formal_transpose().formal_transpose() == op


def test_swap_coordinates(ctx3):
    L12 = angular_momentum(ctx3, 0, 1)
    assert L12.swap_coordinates(1, 2) == angular_momentum(ctx3, 0, 2)
    assert L12.swap_coordinates(0, 0) == L12


def test_to_text_deterministic(ctx3):
    op = laplacian(ctx3, range(3)).neg().add(
        DiffOp.from_poly(ctx3, ctx3.sum_of_squares(range(3)))
    )
    txt = op.to_text()
    assert txt.splitlines()[0].startswith("1 ::")
    assert txt == op.to_text()


def test_to_text_golden():
    """Frozen serialization of a small angular operator."""
    ctx = Context(("x1", "x2"))
    L = angular_momentum(ctx, 0, 1)
    got = L.mul(L).to_text()
    expect = (
        "dx2 :: -x2\n"
        "dx1 :: -x1\n"
        "dx2^2 :: x1^2\n"
        "dx1*dx2 :: -2*x1*x2\n"
        "dx1^2 :: x2^2"
    )
    assert got == expect


def test_to_text_golden_with_radical():
    ctx = Context(("x1", "x2"), ("eta",), norm_radical=True)
    inv_r = Coefficient.from_poly(ctx, ctx.param("eta").mul(ctx.radical_poly())).div_poly(
        ctx.sum_of_squares([0, 1])
    )
    op = DiffOp.from_coefficient(ctx, inv_r).neg()
    assert op.to_text() == "1 :: (-eta*r) / [(x1^2 + x2^2)]"
