"""Property tests for the packed monomial keys of ``ring.Poly``: integer
order is deglex order, the guard-bit divisibility test is componentwise
``<=``, a product's key is the componentwise sum, and pack/unpack
round-trip; an exponent past the field limit raises instead of wrapping;
``DiffOp.swap_coordinates`` swaps two fields.

Exponent tuples run over 1 to 14 slots, with degrees up to the field limit.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from blocksep import ring  # noqa: E402
from blocksep.errors import ExponentOverflowError  # noqa: E402
from blocksep.opalg import DiffOp  # noqa: E402
from blocksep.ring import Coefficient, Context, Poly, pack, unpack  # noqa: E402

PROPERTY = hypothesis.settings(derandomize=True, max_examples=300, deadline=None)

LIMIT = (1 << ring.W - 1) - 1  # the largest degree a key holds


@st.composite
def exponent_pairs(draw, total=LIMIT):
    """Two exponent tuples over one slot count whose degrees are at most
    ``total``; most entries small, some near the field limit."""
    n = draw(st.integers(1, 14))

    def one():
        exps, left = [], total
        for _ in range(n):
            e = draw(st.one_of(st.integers(0, min(3, left)), st.integers(0, left)))
            exps.append(e)
            left -= e
        return tuple(draw(st.permutations(exps)))

    return n, one(), one()


@PROPERTY
@hypothesis.given(exponent_pairs())
def test_integer_order_is_deglex_order(case):
    _, a, b = case
    assert (pack(a) < pack(b)) == ((sum(a), a) < (sum(b), b))
    assert (pack(a) == pack(b)) == (a == b)


@PROPERTY
@hypothesis.given(exponent_pairs())
def test_pack_unpack_round_trip(case):
    n, a, _ = case
    assert unpack(n, pack(a)) == a


@PROPERTY
@hypothesis.given(exponent_pairs())
def test_guard_bit_divisibility_is_componentwise_le(case):
    """A one-term division succeeds exactly when every exponent of the
    divisor is at most the dividend's, with the componentwise difference as
    its quotient."""
    n, m, d = case
    got = Poly(n, {pack(m): 3}).exact_div(Poly(n, {pack(d): 1}))
    if all(a <= b for a, b in zip(d, m)):
        assert got == Poly(n, {pack(tuple(b - a for a, b in zip(d, m))): 3})
    else:
        assert got is None


@PROPERTY
@hypothesis.given(exponent_pairs(total=LIMIT // 2))
def test_product_key_is_the_componentwise_sum(case):
    n, a, b = case
    got = Poly(n, {pack(a): 2}).mul(Poly(n, {pack(b): 3}))
    assert got.terms == {pack(tuple(x + y for x, y in zip(a, b))): 6}


# -- exponent overflow is an error, never a wrong monomial ---------------------------


def test_exponent_at_the_field_limit():
    n = 4
    x = Poly.var(n, 0, LIMIT)
    assert unpack(n, next(iter(x.terms))) == (LIMIT, 0, 0, 0)
    assert x.mul(Poly.const(n, 5)).terms == {pack((LIMIT, 0, 0, 0)): 5}
    assert x.deriv_slot(0) == Poly.var(n, 0, LIMIT - 1).scale(LIMIT)
    assert x.exact_div(Poly.var(n, 0)) == Poly.var(n, 0, LIMIT - 1)
    with pytest.raises(ExponentOverflowError):
        x.mul(Poly.var(n, 0))
    with pytest.raises(ExponentOverflowError):
        x.mul(Poly.var(n, 3))  # every exponent fits, the degree does not
    with pytest.raises(ExponentOverflowError):
        Poly.var(n, 2, LIMIT + 1)
    with pytest.raises(ExponentOverflowError):
        pack((LIMIT, 1, 0, 0))


# -- DiffOp.swap_coordinates swaps two packed fields ----------------------------------

CTX = Context(("x1", "x2", "x3"), ("a",), norm_radical=True)
DIVISORS = [CTX.x(0), CTX.x(2).scale(3), CTX.sum_of_squares([0, 1]), CTX.sum_of_squares([1, 2]),
            CTX.sum_of_squares([0, 1, 2])]
slots = st.integers(0, CTX.nx - 1)


@st.composite
def operators(draw):
    """One to three terms, of order at most 1 in each coordinate; each
    coefficient a polynomial in the coordinates, the parameter and r over up
    to two atoms."""
    op = DiffOp.zero(CTX)
    for _ in range(draw(st.integers(1, 3))):
        num = CTX.zero_poly()
        for _ in range(draw(st.integers(1, 3))):
            exps = draw(st.tuples(*(st.integers(0, 2) for _ in range(CTX.nvars))))
            c = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
            num = num.add(Poly(CTX.nvars, {pack(exps): 1}).scale(c))
        coef = Coefficient.make(CTX, num)
        for d in draw(st.lists(st.sampled_from(DIVISORS), max_size=2)):
            coef = coef.div_poly(d)
        alpha = draw(st.tuples(*(st.integers(0, 1) for _ in range(CTX.nx))))
        op = op.add(DiffOp(CTX, {alpha: coef}))
    return op


def tuple_swap(op: DiffOp, i: int, j: int) -> DiffOp:
    """The reference: swap the exponent tuples of the numerator and of each
    atom, then rebuild the coefficient by exact division."""

    def swap(exps):
        exps = list(exps)
        exps[i], exps[j] = exps[j], exps[i]
        return tuple(exps)

    def swap_poly(p):
        return Poly(p.n, {pack(swap(unpack(p.n, m))): c for m, c in p.terms.items()})

    out = DiffOp.zero(op.ctx)
    for alpha, c in op.terms.items():
        coef = Coefficient.make(op.ctx, swap_poly(c.num))
        for aid, e in c.den:
            for _ in range(e):
                coef = coef.div_poly(swap_poly(op.ctx.atom_by_id(aid).poly))
        out = out.add(DiffOp(op.ctx, {swap(alpha): coef}))
    return out


@PROPERTY
@hypothesis.given(operators(), slots, slots)
def test_swap_matches_the_tuple_reference(op, i, j):
    assert op.swap_coordinates(i, j) == tuple_swap(op, i, j)


@PROPERTY
@hypothesis.given(operators(), slots, slots)
def test_swapping_twice_is_the_identity(op, i, j):
    assert op.swap_coordinates(i, j).swap_coordinates(i, j) == op
