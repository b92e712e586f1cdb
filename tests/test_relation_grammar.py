"""Property test for the relation-file grammar.

Random trees over integrals of the 2,2 oscillator, its parameter w2, small
integers and rationals are rendered as text with only the parentheses that
Python's precedence needs; parsing that text must give the same operator as
the tree built directly.  It is its own module because a module-level
``importorskip`` would skip the other relation tests when hypothesis is
missing.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from blocksep.models import oscillator_spec  # noqa: E402
from blocksep.relations import (  # noqa: E402
    Acomm,
    Comm,
    OperatorEnv,
    ParamRef,
    eval_node,
    num,
    op,
    parse_relation_line,
)

SPEC = oscillator_spec([2, 2])
ENV = OperatorEnv(SPEC)
PROPERTY = hypothesis.settings(derandomize=True, max_examples=200, deadline=None)

# binding strength of a rendered term: a weaker operand is parenthesized
SUM, PRODUCT, NEGATION, ATOM = range(4)


def operand(term, strength) -> str:
    text, _, own = term
    return text if own >= strength else f"({text})"


LEAVES = st.one_of(
    st.sampled_from([("T[1]", op("T", 1)), ("H[1]", op("H", 1)), ("H[2]", op("H", 2)),
                     ("G[1,2]", op("G", 1, 2))]).map(lambda leaf: (*leaf, ATOM)),
    st.just(("w2", ParamRef("w2"), ATOM)),
    st.integers(0, 5).map(lambda n: (str(n), num(n), ATOM)),
    st.tuples(st.integers(1, 7), st.integers(1, 7)).map(
        lambda pq: (f"{pq[0]}/{pq[1]}", num(Fraction(*pq)), PRODUCT)
    ),
)


def extend(terms):
    pairs = st.tuples(terms, terms)
    return st.one_of(
        pairs.map(lambda ab: (f"{operand(ab[0], SUM)} + {operand(ab[1], SUM)}",
                              ab[0][1] + ab[1][1], SUM)),
        pairs.map(lambda ab: (f"{operand(ab[0], SUM)} - {operand(ab[1], PRODUCT)}",
                              ab[0][1] - ab[1][1], SUM)),
        pairs.map(lambda ab: (f"{operand(ab[0], PRODUCT)} * {operand(ab[1], PRODUCT)}",
                              ab[0][1] * ab[1][1], PRODUCT)),
        st.tuples(terms, st.integers(1, 5)).map(
            lambda an: (f"{operand(an[0], PRODUCT)} / {an[1]}",
                        an[0][1] * Fraction(1, an[1]), PRODUCT)
        ),
        terms.map(lambda a: (f"-{operand(a, NEGATION)}", -a[1], NEGATION)),
        pairs.map(lambda ab: (f"[{ab[0][0]}, {ab[1][0]}]", Comm(ab[0][1], ab[1][1]), ATOM)),
        pairs.map(lambda ab: (f"{{{ab[0][0]}, {ab[1][0]}}}", Acomm(ab[0][1], ab[1][1]), ATOM)),
        terms.map(lambda a: (f"({a[0]})", a[1], ATOM)),
    )


TERMS = st.recursive(LEAVES, extend, max_leaves=8)


@PROPERTY
@hypothesis.given(TERMS)
def test_parsed_text_evaluates_like_the_built_tree(term):
    text, tree, _ = term
    parsed = parse_relation_line(f"t: {text}", SPEC.param_names())
    assert eval_node(parsed.expr, ENV).sub(eval_node(tree, ENV)).is_zero(), text
