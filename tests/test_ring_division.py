"""Property tests for ``Poly.exact_div`` against the plain quadratic division,
and for ``row_reduce`` against the elimination loop it replaced.

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

from blocksep.ring import Coefficient, Context, Poly, row_reduce  # noqa: E402

NX = 4
N = NX + 2  # coordinates, one parameter, the norm radical r
MAX_EXP = (3, 3, 3, 3, 2, 1)

PROPERTY = hypothesis.settings(derandomize=True, max_examples=150, deadline=None)


def quadratic_exact_div(p: Poly, d: Poly):
    """Reference: rescan the remainder for its deglex-leading term each step."""

    def deglex(m):
        return (sum(m), m)

    if not p.terms:
        return p
    dm = max(d.terms, key=deglex)
    dc = d.terms[dm]
    rem = dict(p.terms)
    out = {}
    while rem:
        rm = max(rem, key=deglex)
        if not all(a <= b for a, b in zip(dm, rm)):
            return None
        q = Fraction(rem[rm]) / dc
        qm = tuple(a - b for a, b in zip(rm, dm))
        out[qm] = out.get(qm, Fraction(0)) + q
        for m2, c2 in d.terms.items():
            mm = tuple(a + b for a, b in zip(qm, m2))
            nc = rem.get(mm, Fraction(0)) - q * c2
            if nc:
                rem[mm] = nc
            else:
                rem.pop(mm, None)
    return Poly(p.n, out)


coefficients = st.builds(
    Fraction,
    st.integers(-9, 9).filter(bool),
    st.integers(1, 6),
)
monomials = st.tuples(*(st.integers(0, e) for e in MAX_EXP))
polys = st.dictionaries(monomials, coefficients, min_size=1, max_size=8).map(
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
    terms = {tuple(2 if k == i else 0 for k in range(N)): draw(coefficients) if weighted else scale
             for i in sorted(support)}
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
    support = {i for m2 in d.terms for i, e in enumerate(m2) if e}
    m = tuple(0 if i in support else e for i, e in enumerate(m))
    assert p.mul(d).add(Poly(N, {m: c})).exact_div(d) is None


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
mixed_polys = st.dictionaries(monomials, mixed_coefficients, min_size=1, max_size=8).map(
    lambda terms: Poly(N, terms)
)


def stored_form(p: Poly) -> bool:
    """No zero, no float; an int when integral and a Fraction only otherwise."""
    return all(
        c and (type(c) is int or (type(c) is Fraction and c.denominator != 1))
        for c in p.terms.values()
    )


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


# -- row_reduce: one exact Gauss-Jordan for residual decomposition and the X1 nullspace


def reference_row_reduce(rows, ncols):
    """The elimination loop of ``decompose_residual`` before ``row_reduce``."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        inv = Fraction(1, pv)
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


@st.composite
def matrices(draw):
    """Up to 8 rows over 1-5 columns plus maybe a right-hand side; some rows
    combine earlier ones (rank deficiency) and some columns are all zero."""
    ncols = draw(st.integers(1, 5))
    width = ncols + draw(st.integers(0, 1))
    zero_columns = draw(st.sets(st.integers(0, width - 1), max_size=2))
    entries = st.one_of(st.just(0), mixed_coefficients)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if len(rows) >= 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f, g = draw(mixed_coefficients), draw(mixed_coefficients)
            rows.append([f * x + g * y for x, y in zip(a, b)])
        else:
            rows.append([0 if c in zero_columns else draw(entries) for c in range(width)])
    return rows, ncols


@PROPERTY
@hypothesis.given(matrices())
def test_row_reduce_matches_reference(case):
    rows, ncols = case
    want = [list(row) for row in rows]
    want_pivots = reference_row_reduce(want, ncols)
    got = [list(row) for row in rows]
    assert row_reduce(got, ncols) == want_pivots
    assert got == want
    assert not any(isinstance(v, float) for row in got for v in row)
