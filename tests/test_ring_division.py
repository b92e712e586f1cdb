"""Property tests for ``Poly.exact_div`` against the plain quadratic division.

Polynomials run over four coordinates, one parameter and one radical slot;
divisors are shaped like the denominator atoms the ring divides by: single
coordinates and sums of two to four squared coordinates, here also scaled
or weighted by rationals so that the divisor's coefficients are not always
one.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from blocksep.ring import Poly  # noqa: E402

NX = 4
N = NX + 2  # coordinates, one parameter, one radical
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
        q = rem[rm] / dc
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
