"""Property test of the exit contract at the config level: for any JSON value
of any known config field, ``load_config`` either raises ``ConfigError`` or
accepts exactly what the README's rule for that field allows.  No
verification runs."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from blocksep.cli import CONFIG_FIELDS, load_config  # noqa: E402
from blocksep.errors import ConfigError  # noqa: E402

PROPERTY = hypothesis.settings(derandomize=True, max_examples=300, deadline=None)


def _json_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _finite_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# each field's rule as the README states it, written apart from cli.CONFIG_FIELDS;
# a rule that raises on a value rejects it
README_RULES = {
    "command": lambda v: isinstance(v, str),
    "catalog": lambda v: isinstance(v, str),
    "relation_file": lambda v: isinstance(v, str),
    "out": lambda v: isinstance(v, str),
    "family": lambda v: isinstance(v, str) and v in {"oscillator", "coulomb"},
    "mode": lambda v: isinstance(v, str) and v in {"symbolic", "numeric", "both"},
    "blocks": lambda v: isinstance(v, list),
    "model": lambda v: isinstance(v, dict),
    "params": lambda v: isinstance(v, dict) and all(_finite_number(x) for x in v.values()),
    "seed": lambda v: _json_integer(v) and 0 <= v <= 2**64 - 1,
    "tol": lambda v: _finite_number(v) and v > 0,
    "probes": lambda v: _json_integer(v) and v > 0,
    "points": lambda v: _json_integer(v) and v > 0,
    "jobs": _json_integer,
}

# values at the edges of the rules, tried on every field
EDGES = [
    None, "symbolic", "numeric", "both", "oscillator", "coulomb", "x", "", "3", "1e-3", "-1",
    "nan", "inf", 0, 1, 3, 4, 8, -1, 2**64 - 1, 2**64, 10**400, 0.5, 1e-300, math.inf,
    math.nan, -0.0, True, False, [], [2, 2], {}, {"w2": 1.0}, {"w2": 2}, {"w2": True},
    {"w2": math.nan}, {"w2": 10**400}, {"w2": "1"}, {"w2": None},
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _check(key, value):
    try:
        config = load_config(None, {key: value})
    except ConfigError:
        accepted = False
    else:
        accepted = True
        # a None override means "not given"
        assert config == ({} if value is None else {key: value})
    try:
        allowed = value is None or bool(README_RULES[key](value))
    except (TypeError, ValueError, OverflowError):
        allowed = False
    assert accepted == allowed, (key, value)


def test_the_table_is_the_documented_field_set():
    assert set(CONFIG_FIELDS) == set(README_RULES)


def test_removed_fields_are_refused_with_any_value():
    """fd_order and fd_step, the stencil settings numeric mode had, are
    refused with a message that they were removed, whatever their value."""
    for key in ("fd_order", "fd_step"):
        for value in EDGES:
            if value is None:
                continue
            with pytest.raises(ConfigError, match=f"config field {key} was removed"):
                load_config(None, {key: value})


def test_edge_values_of_every_field():
    for key in README_RULES:
        for value in EDGES:
            _check(key, value)


@PROPERTY
@hypothesis.given(st.sampled_from(sorted(README_RULES)), json_values)
def test_arbitrary_json_values_of_every_field(key, value):
    _check(key, value)
