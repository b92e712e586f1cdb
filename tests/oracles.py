"""Reference implementations the tests check blocksep against.

Each oracle is written apart from the code it checks and uses only the
public ring, operator and model API (``substitute_params`` also reads the
context's parameter slots), so a fault in the Leibniz product, the
Cartesian potential evaluator or the report writer does not also hide in
its oracle.  None of this runs in production.
"""

import json
import math
from fractions import Fraction
from importlib import resources

from blocksep.models import Hierarchy, Model2F11, Zero
from blocksep.opalg import DiffOp
from blocksep.ring import Coefficient, Poly


def apply_coefficient(op: DiffOp, c: Coefficient) -> Coefficient:
    """Act with ``op`` on ``c`` viewed as a scalar field: sum c_a d^a(c).

    Independent of the Leibniz normal-ordering path, so it is an exact
    oracle for products: nf(a o b) applied to g equals a(b(g)).
    """
    op.ctx.check_same(c.ctx)
    out = Coefficient.const(op.ctx, 0)
    for alpha, ca in op.terms.items():
        cur = c
        for i, e in enumerate(alpha):
            for _ in range(e):
                cur = cur.deriv(i)
        out = out.add(ca.mul(cur))
    return out


def formal_transpose(op: DiffOp) -> DiffOp:
    """sum c_a d^a  ->  sum (-1)^|a| d^a o c_a, normal-ordered."""
    ctx = op.ctx
    out = DiffOp.zero(ctx)
    for alpha, c in op.terms.items():
        piece = DiffOp(ctx, {alpha: Coefficient.const(ctx, 1)}).mul(DiffOp.from_coefficient(ctx, c))
        out = out.add(piece.neg() if sum(alpha) % 2 else piece)
    return out


def substitute_params(x, bindings: dict):
    """Bind parameters of a Coefficient, or of every coefficient of a DiffOp,
    to rational values; an operator term whose coefficient vanishes drops."""
    if isinstance(x, DiffOp):
        terms = {a: substitute_params(c, bindings) for a, c in x.terms.items()}
        return DiffOp(x.ctx, {a: c for a, c in terms.items() if not c.is_zero()})
    ctx, num = x.ctx, x.num
    for name, value in bindings.items():
        ctx.param(name)  # raises UndeclaredParameterError on an undeclared name
        slot = ctx._param_slots[name]
        out = ctx.zero_poly()
        for m, c in num.terms.items():
            rest = m[:slot] + (0,) + m[slot + 1:]
            out = out.add(Poly(num.n, {rest: c}).scale(Fraction(value) ** m[slot]))
        num = out
    return Coefficient.make(ctx, num, x.den)


def _level_value(level, phi) -> float:
    if isinstance(level, Model2F11):
        return level.value_at_s(math.sin(3 * phi))
    return 0.0 if isinstance(level, Zero) else float(level.value)


def eval_angular_potential(pot, angles) -> float:
    """f_i at the block angles phi_1..phi_k by the nested recursion
    f = F_k(phi_k) + f_{k-1} / sin^2(phi_k), with f_1 = F_1(phi_1)."""
    levels = pot.levels if isinstance(pot, Hierarchy) else (pot,)
    value = 0.0
    for level, phi in zip(levels, angles, strict=True):
        value = _level_value(level, phi) + (value / math.sin(phi) ** 2 if value else 0.0)
    return value


def validate_report(doc: dict):
    """Check a report against the JSON schema shipped in the package data."""
    import jsonschema

    path = resources.files("blocksep").joinpath("schema/verification_report.schema.json")
    jsonschema.validate(doc, json.loads(path.read_text()))
