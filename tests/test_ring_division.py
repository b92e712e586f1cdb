"""Property tests for ``Poly.exact_div`` against the plain quadratic division,
and for ``row_reduce`` against the dense elimination loop it replaced.

Polynomials run over four coordinates, one parameter and the norm slot r;
divisors are shaped like the denominator atoms the ring divides by: single
coordinates and sums of two to four squared coordinates, here also scaled
or weighted by rationals so that the divisor's coefficients are not always
one.  The exactness properties at the end feed every ring operation a mix
of int and Fraction coefficients and check that no float appears.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from blocksep.ring import Coefficient, Context, Poly, pack, row_reduce, unpack  # noqa: E402
from oracles import reference_row_reduce  # noqa: E402

NX = 4
N = NX + 2  # coordinates, one parameter, the norm radical r
MAX_EXP = (3, 3, 3, 3, 2, 1)

PROPERTY = hypothesis.settings(derandomize=True, max_examples=150, deadline=None)


def quadratic_exact_div(p: Poly, d: Poly):
    """Reference on exponent tuples: rescan the remainder for its
    deglex-leading term each step."""

    def deglex(m):
        return (sum(m), m)

    if not p.terms:
        return p
    dterms = {unpack(d.n, m): c for m, c in d.terms.items()}
    dm = max(dterms, key=deglex)
    dc = dterms[dm]
    rem = {unpack(p.n, m): c for m, c in p.terms.items()}
    out = {}
    while rem:
        rm = max(rem, key=deglex)
        if not all(a <= b for a, b in zip(dm, rm)):
            return None
        q = Fraction(rem[rm]) / dc
        qm = tuple(a - b for a, b in zip(rm, dm))
        out[qm] = out.get(qm, Fraction(0)) + q
        for m2, c2 in dterms.items():
            mm = tuple(a + b for a, b in zip(qm, m2))
            nc = rem.get(mm, Fraction(0)) - q * c2
            if nc:
                rem[mm] = nc
            else:
                rem.pop(mm, None)
    return Poly(p.n, {pack(m): c for m, c in out.items()})


coefficients = st.builds(
    Fraction,
    st.integers(-9, 9).filter(bool),
    st.integers(1, 6),
)
monomials = st.tuples(*(st.integers(0, e) for e in MAX_EXP))
polys = st.dictionaries(monomials.map(pack), coefficients, min_size=1, max_size=8).map(
    lambda terms: Poly(N, terms)
)


@st.composite
def atoms(draw):
    """A coordinate, or a sum of 2-4 squared coordinates, times a rational;
    the squares' weights are sometimes drawn one by one."""
    scale = draw(coefficients)
    if draw(st.booleans()):
        i = draw(st.integers(0, NX - 1))
        return Poly.var(N, i).scale(scale)
    support = draw(st.sets(st.integers(0, NX - 1), min_size=2, max_size=NX))
    weighted = draw(st.booleans())
    terms = {pack(tuple(2 if k == i else 0 for k in range(N))):
             draw(coefficients) if weighted else scale for i in sorted(support)}
    return Poly(N, terms)


@PROPERTY
@hypothesis.given(polys, atoms())
def test_exact_div_round_trip(p, d):
    assert p.mul(d).exact_div(d) == p


@PROPERTY
@hypothesis.given(polys, atoms(), monomials, coefficients)
def test_exact_div_non_multiple_is_none(p, d, m, c):
    # a monomial free of d's variables is never a multiple of d, so adding it
    # to a multiple of d leaves a non-multiple
    support = {i for m2 in d.terms for i, e in enumerate(unpack(N, m2)) if e}
    m = tuple(0 if i in support else e for i, e in enumerate(m))
    assert p.mul(d).add(Poly(N, {pack(m): c})).exact_div(d) is None


@PROPERTY
@hypothesis.given(polys, atoms(), st.booleans())
def test_exact_div_matches_quadratic_reference(p, d, multiple):
    if multiple:
        p = p.mul(d)
    got = p.exact_div(d)
    want = quadratic_exact_div(p, d)
    if want is None:
        assert got is None
    else:
        assert list(got.terms.items()) == list(want.terms.items())


# -- exactness: int and Fraction coefficients never meet a float -------------------

# mixed coefficients in the stored form: int when integral, Fraction otherwise
mixed_coefficients = st.one_of(st.integers(-9, 9).filter(bool), coefficients).map(
    lambda c: c if isinstance(c, int) or c.denominator != 1 else c.numerator
)
mixed_polys = st.dictionaries(monomials.map(pack), mixed_coefficients, min_size=1, max_size=8).map(
    lambda terms: Poly(N, terms)
)


def stored_value(c) -> bool:
    """No zero, no float; an int when integral and a Fraction only otherwise."""
    return bool(c) and (type(c) is int or (type(c) is Fraction and c.denominator != 1))


def stored_form(p: Poly) -> bool:
    return all(map(stored_value, p.terms.values()))


def as_fractions(p: Poly) -> Poly:
    return Poly(p.n, {m: Fraction(c) for m, c in p.terms.items()})


POLY_OPS = {
    "add": lambda p, q, d, c: p.add(q),
    "mul": lambda p, q, d, c: p.mul(q),
    "scale": lambda p, q, d, c: p.scale(c),
    "exact_div": lambda p, q, d, c: p.mul(d).exact_div(d),
    "exact_div_fails": lambda p, q, d, c: p.exact_div(d) or Poly.zero(N),
    "normalized_integer": lambda p, q, d, c: p.normalized_integer(),
}


@PROPERTY
@hypothesis.given(st.sampled_from(sorted(POLY_OPS)), mixed_polys, mixed_polys, atoms(),
                  mixed_coefficients)
def test_poly_ops_stay_exact(name, p, q, d, c):
    op = POLY_OPS[name]
    got = op(p, q, d, c)
    assert stored_form(got)
    assert got == op(as_fractions(p), as_fractions(q), as_fractions(d), Fraction(c))


def _coefficient_context():
    ctx = Context(tuple(f"x{i + 1}" for i in range(NX)), ("a",), norm_radical=True)
    atoms = [ctx.atom_and_scale(p)[0].aid
             for p in (ctx.x(0), ctx.x(2), ctx.sum_of_squares({0, 1}), ctx.sum_of_squares({1, 2, 3}))]
    return ctx, atoms


CTX, ATOM_IDS = _coefficient_context()

# divisors of div_poly: a scaled coordinate or a scaled sum of squares
divisors = st.one_of(
    st.tuples(mixed_coefficients, st.integers(0, NX - 1)).map(
        lambda t: CTX.x(t[1]).scale(t[0])),
    st.tuples(mixed_coefficients, st.sets(st.integers(0, NX - 1), min_size=2)).map(
        lambda t: CTX.sum_of_squares(t[1]).scale(t[0])),
)
dens = st.lists(st.integers(0, 2), min_size=len(ATOM_IDS), max_size=len(ATOM_IDS)).map(
    lambda es: tuple((aid, e) for aid, e in zip(ATOM_IDS, es) if e)
)

COEFFICIENT_OPS = {
    "make": lambda p, den, d, i: Coefficient.make(CTX, p, den),
    "div_poly": lambda p, den, d, i: Coefficient.make(CTX, p, den).div_poly(d),
    "deriv": lambda p, den, d, i: Coefficient.make(CTX, p, den).deriv(i),
}


@PROPERTY
@hypothesis.given(st.sampled_from(sorted(COEFFICIENT_OPS)), mixed_polys, dens, divisors,
                  st.integers(0, NX - 1))
def test_coefficient_ops_stay_exact(name, p, den, d, i):
    op = COEFFICIENT_OPS[name]
    got = op(p, den, d, i)
    assert stored_form(got.num)
    want = op(as_fractions(p), den, as_fractions(d), i)
    assert (got.num, got.den) == (want.num, want.den)


# -- row_reduce: one sparse exact RREF for residual decomposition and the X1 nullspace


def sparse(row: list) -> dict:
    return {c: v for c, v in enumerate(row) if v != 0}


def leading_column(row: list) -> int:
    return next((c for c, v in enumerate(row) if v != 0), len(row))


@st.composite
def matrices(draw):
    """Up to 30 rows over 1-8 columns plus maybe a right-hand side.  Some rows
    combine earlier ones (tall and rank-deficient), some columns are all
    zero, and the rows may come with descending leading columns, so that
    each new pivot lies left of those already held and clears them."""
    ncols = draw(st.integers(1, 8))
    width = ncols + draw(st.integers(0, 1))
    zero_columns = draw(st.sets(st.integers(0, width - 1), max_size=2))
    entries = st.one_of(st.just(0), st.just(0), mixed_coefficients)
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        if len(rows) >= 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f, g = draw(mixed_coefficients), draw(mixed_coefficients)
            rows.append([f * x + g * y for x, y in zip(a, b)])
        else:
            rows.append([0 if c in zero_columns else draw(entries) for c in range(width)])
    if draw(st.booleans()):
        rows.sort(key=leading_column, reverse=True)
    return rows, ncols, width


@PROPERTY
@hypothesis.given(matrices())
def test_row_reduce_matches_reference(case):
    """The pivot rows equal column-order Gauss-Jordan's; with a right-hand
    side, that column is a pivot exactly when the system is inconsistent."""
    rows, ncols, width = case
    dense = [list(row) for row in rows]
    pivots = reference_row_reduce(dense, ncols)
    want = {c: sparse(row) for c, row in zip(pivots, dense)}
    given = [sparse(row) for row in rows]
    got = row_reduce(given)
    assert given == [sparse(row) for row in rows]
    assert all(stored_value(v) for row in got.values() for v in row.values())
    if width == ncols:
        assert got == want
        return
    inconsistent = any(row[ncols] != 0 for row in dense[len(pivots):])
    assert (ncols in got) == inconsistent
    if inconsistent:
        want = {c: {k: v for k, v in row.items() if k != ncols} for c, row in want.items()}
        want[ncols] = {ncols: 1}
    assert got == want


@PROPERTY
@hypothesis.given(matrices(), st.data())
def test_row_reduce_ignores_row_order(case, data):
    """The RREF of a row space is unique, so shuffled rows give the same dict."""
    rows = [sparse(row) for row in case[0]]
    shuffled = data.draw(st.permutations(rows))
    assert row_reduce(shuffled) == row_reduce(rows)
