"""Model Hamiltonians: singular oscillator and singular Coulomb families.

A model is a partition plus one angular potential per block (the Coulomb
family carries none on the last block).  Every operator of the catalog uses
the block potentials only through multiplication terms C(x) * f_i(angles),
so builders return a :class:`RawOperator` holding an exact derivative part
plus such attachments.  With constant potentials (Zero among them) the
attachments fold into the exact operator; otherwise they turn into numeric
evaluators of the block's Cartesian coordinates
(:func:`potential_cartesian_evaluator`), which need no angles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from .errors import (
    EvaluationSingularityError,
    InvalidIntegralError,
    InvalidPartitionError,
    UnsupportedSymbolicPotentialError,
)
from .opalg import DiffOp
from .partition import Partition, make_partition
from .ring import Coefficient, Context, Poly


# -- angular potential specifications -----------------------------------------


@dataclass(frozen=True)
class Constant:
    """Constant potential; value is a rational or a declared parameter name."""

    value: object  # Fraction | int | str

    def __post_init__(self):
        if not isinstance(self.value, (str, int, Fraction)):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Zero(Constant):
    """The zero Constant.  It keeps its own repr, its JSON kind and its
    equality: Zero() != Constant(0)."""

    value: object = field(default=0, init=False)

    def __repr__(self):
        return "Zero()"


@dataclass(frozen=True)
class Model2F11:
    """Trigonometric potential on the innermost angle of a block.

    In terms of s = sin(3 phi) the value is
        (A(A-3) + B^2)/(1-s^2) - B(2A-3) s/(1-s^2)
        + 9 [ 2(2A-3)/(2A-3-2Bs) - 2((2A-3)^2-4B^2)/(2A-3-2Bs)^2 ].
    """

    A: Fraction
    B: Fraction

    def __post_init__(self):
        object.__setattr__(self, "A", Fraction(self.A))
        object.__setattr__(self, "B", Fraction(self.B))

    def value_at_s(self, s):
        """Evaluate at s = sin(3 phi); works on floats or numpy arrays."""
        A = float(self.A)
        B = float(self.B)
        cos2 = 1.0 - s * s
        delta = (2 * A - 3) - 2 * B * s
        _guard_nonzero(cos2, "cos(3*phi) vanishes in angular potential")
        _guard_nonzero(delta, "linear denominator vanishes in angular potential")
        return (
            (A * (A - 3) + B * B) / cos2
            - B * (2 * A - 3) * s / cos2
            + 9 * (2 * (2 * A - 3) / delta - 2 * ((2 * A - 3) ** 2 - 4 * B * B) / delta**2)
        )


@dataclass(frozen=True)
class Hierarchy:
    """Nested potential levels, innermost first; depth must be d_i - 1.

    Each level is a Constant, or (innermost level only) Model2F11.
    """

    levels: tuple

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        for j, lvl in enumerate(self.levels):
            if isinstance(lvl, Model2F11) and j != 0:
                raise InvalidPartitionError(
                    "Model2F11 is only allowed at the innermost hierarchy level"
                )
            if not isinstance(lvl, (Constant, Model2F11)):
                raise InvalidPartitionError(f"unsupported hierarchy level {lvl!r}")


AngularPotential = object  # Constant | Hierarchy | Model2F11


def _guard_nonzero(values, message):
    import numpy as np

    arr = np.asarray(values)
    if not np.all(np.abs(arr) >= 1e-12):  # a NaN is singular too
        raise EvaluationSingularityError(message)


def model2_potential(block_size: int, A, B) -> AngularPotential:
    """Model2F11 on the innermost angle, zeros above, for a block of size >= 2."""
    if block_size < 2:
        raise InvalidPartitionError("Model2F11 needs a block of size >= 2")
    return Hierarchy((Model2F11(A, B),) + tuple(Zero() for _ in range(block_size - 2)))


def is_model2_tower(pot) -> bool:
    """Whether pot has the shape model2_potential builds: Model2F11
    innermost, Zero above.  The closed-form spectra and eigenfunctions of a
    trigonometric block hold for this shape only."""
    return (
        isinstance(pot, Hierarchy)
        and bool(pot.levels)
        and isinstance(pot.levels[0], Model2F11)
        and all(isinstance(l, Zero) for l in pot.levels[1:])
    )


# -- model specification -------------------------------------------------------

OSCILLATOR = "oscillator"
COULOMB = "coulomb"


@dataclass(frozen=True)
class ModelSpec:
    family: str
    partition: Partition
    potentials: tuple
    omega2: object = "w2"  # rational value or parameter name (oscillator)
    eta: object = "eta"  # rational value or parameter name (coulomb)

    def __post_init__(self):
        if self.family not in (OSCILLATOR, COULOMB):
            raise InvalidPartitionError(f"unknown family {self.family!r}")
        n_pots = self.partition.N if self.family == OSCILLATOR else self.partition.N - 1
        if len(self.potentials) != n_pots:
            raise InvalidPartitionError(
                f"{self.family} on {self.partition.block_sizes} needs "
                f"{n_pots} potentials, got {len(self.potentials)}"
            )
        for i, pot in enumerate(self.potentials):
            d = self.partition.block_sizes[i]
            if isinstance(pot, Model2F11):
                raise InvalidPartitionError("wrap Model2F11 in a Hierarchy (model2_potential)")
            if isinstance(pot, Hierarchy):
                if d == 1:
                    raise InvalidPartitionError("size-1 blocks admit only Zero or Constant")
                if len(pot.levels) != d - 1:
                    raise InvalidPartitionError(
                        f"hierarchy depth {len(pot.levels)} != {d - 1} for block {i + 1}"
                    )
            elif not isinstance(pot, Constant):
                raise InvalidPartitionError(f"unsupported potential {pot!r}")

    @property
    def potential_blocks(self) -> int:
        return len(self.potentials)

    def is_symbolic(self) -> bool:
        return all(isinstance(p, Constant) for p in self.potentials)

    def param_names(self) -> tuple:
        names = []
        if self.family == OSCILLATOR and isinstance(self.omega2, str):
            names.append(self.omega2)
        if self.family == COULOMB and isinstance(self.eta, str):
            names.append(self.eta)
        for pot in self.potentials:
            for level in pot.levels if isinstance(pot, Hierarchy) else (pot,):
                if isinstance(level, Constant) and isinstance(level.value, str):
                    names.append(level.value)
        return tuple(dict.fromkeys(names))


def oscillator_spec(block_sizes, potentials=None, omega2="w2") -> ModelSpec:
    part = make_partition(block_sizes)
    if potentials is None:
        potentials = tuple(Constant(f"beta{i + 1}") for i in range(part.N))
    return ModelSpec(OSCILLATOR, part, tuple(potentials), omega2=omega2)


def coulomb_spec(block_sizes, potentials=None, eta="eta") -> ModelSpec:
    part = make_partition(block_sizes)
    if potentials is None:
        potentials = tuple(Constant(f"alpha{i + 1}") for i in range(part.N - 1))
    return ModelSpec(COULOMB, part, tuple(potentials), eta=eta)


# -- operator context ----------------------------------------------------------


class RadialContext(Context):
    """The block-radial picture of a model over a partition of its
    coordinates, with the pieces every integral is built from.

    A group g of d_g >= 2 coordinates becomes one slot, its radius rho_g, with
    a ring parameter l_g; a group of one coordinate stays that coordinate, the
    case d = 1, l = 0, so the picture over single coordinates
    (``operator_context``) is the model's Cartesian context.  The norm radical
    r keeps r^2 = |x|^2, the sum of every rho_g^2.  With the Euler operator
    E_g = rho_g d + l_g and Delta_g = d^2 + (d_g + 2 l_g - 1) / rho_g d of a
    group, the pieces over the groups of a set of coordinates are:

    * r^2, the sum of rho_g^2;
    * the Laplacian, the sum of Delta_g, and the Euler operator, the sum of E_g;
    * the sum of L_ab^2 over a < b: the scalar -l_g (l_g + d_g - 2) of each
      group, and for each pair of groups g < h (a in g, b in h)
      -d_h E_g + rho_g^2 Delta_h - 2 E_g E_h - d_g E_h + rho_h^2 Delta_g;
    * X's term at x_k for the group s, 2 x_k Delta_s - 2 d_k E_s - d_s d_k,
      which is {L_ks, d_s} for a single coordinate s.

    A coefficient's terms are summed in their stored order, and its atoms
    divided out in id order, so over single coordinates the pieces keep the
    order of the Cartesian products they equal (the pair terms above come in
    the order of the keys of L_ab L_ab), and Delta_g builds no zero term.

    Why the picture is exact.  Let h(x) be a product over the groups of
    harmonics of degree l_g in each group's coordinates.  An operator that
    commutes with the rotations of every group maps g(rho) h(x) to
    (O~ g)(rho) h(x), where O~ is the operator the pieces above give it, and
    the image of a product is the product of the images.  Every polynomial is
    a sum of such functions (the Fischer decomposition in each group), and an
    operator that annihilates every polynomial is zero.  So a relation of
    invariant leaves whose image is zero with every l_g symbolic is zero;
    conversely a zero relation has a zero image at every integer l_g, hence
    with l_g symbolic.  No float, sample or probability enters either
    direction.
    """

    def __init__(self, spec: ModelSpec, groups: tuple):
        self.group_of = {a: k for k, g in enumerate(groups) for a in g}
        self.d = [len(g) for g in groups]
        names = spec.param_names()
        degrees = {}  # group -> the name of its l, which no model parameter has
        for k, d in enumerate(self.d):
            if d > 1:
                degrees[k] = f"l{k + 1}"
                while degrees[k] in names:
                    degrees[k] += "'"
        super().__init__([f"x{g[0] + 1}" if len(g) == 1 else f"rho{k + 1}"
                          for k, g in enumerate(groups)],
                         names + tuple(degrees.values()), norm_radical=spec.family == COULOMB)
        self.l = [self.param(degrees[k]) if k in degrees else self.zero_poly()
                  for k in range(len(groups))]
        self._euler: dict = {}  # group -> E_g, built once
        self._delta: dict = {}  # group -> Delta_g, built once

    def span(self, idx) -> list:
        """The groups whose coordinates are the coordinates idx."""
        ks = sorted({self.group_of[a] for a in idx})
        if sum(self.d[k] for k in ks) != len(idx):
            raise InvalidIntegralError(f"the coordinates {list(idx)} cut a radial group")
        return ks

    def slot(self, a: int) -> int:
        """The slot that carries the coordinate x_a."""
        (k,) = self.span([a])
        return k

    def _group_euler(self, k: int) -> DiffOp:
        if k not in self._euler:
            self._euler[k] = DiffOp.from_poly(self, self.x(k)).mul(DiffOp.partial(self, k)).add(
                DiffOp.from_poly(self, self.l[k]))
        return self._euler[k]

    def _group_delta(self, k: int) -> DiffOp:
        if k not in self._delta:
            out = DiffOp.partial(self, k, 2)
            c = self.l[k].scale(2).add(self.const_poly(self.d[k] - 1))
            if not c.is_zero():
                c = Coefficient.from_poly(self, c).div_poly(self.x(k))
                out = out.add(DiffOp.from_coefficient(self, c).mul(DiffOp.partial(self, k)))
            self._delta[k] = out
        return self._delta[k]

    def r2(self, idx) -> Poly:
        return self.sum_of_squares(self.span(idx))

    def laplacian(self, idx) -> DiffOp:
        out = DiffOp.zero(self)
        for k in self.span(idx):
            out = out.add(self._group_delta(k))
        return out

    def euler(self, idx) -> DiffOp:
        out = DiffOp.zero(self)
        for k in self.span(idx):
            out = out.add(self._group_euler(k))
        return out

    def casimir(self, idx) -> DiffOp:
        """The sum of L_ab^2 over a < b in idx."""
        ks = self.span(idx)
        out = DiffOp.zero(self)
        for n, g in enumerate(ks):
            l, dg = self.l[g], self.d[g]
            out = out.sub(DiffOp.from_poly(self, l.mul(l.add(self.const_poly(dg - 2)))))
            for h in ks[n + 1:]:
                Eg, Eh = self._group_euler(g), self._group_euler(h)
                out = (out.sub(Eg.scale(self.d[h]))
                       .add(DiffOp.from_poly(self, self.x(g, 2)).mul(self._group_delta(h)))
                       .sub(Eg.mul(Eh).scale(2)).sub(Eh.scale(dg))
                       .add(DiffOp.from_poly(self, self.x(h, 2)).mul(self._group_delta(g))))
        return out

    def x_term(self, k: int, s: int) -> DiffOp:
        """The term of X at the slot k for the slot s."""
        xk, dk = DiffOp.from_poly(self, self.x(k)), DiffOp.partial(self, k)
        return (xk.mul(self._group_delta(s)).scale(2).sub(dk.mul(self._group_euler(s)).scale(2))
                .sub(dk.scale(self.d[s])))


def operator_context(spec: ModelSpec) -> RadialContext:
    """The context of a model's Cartesian operators, the picture whose groups
    are its single coordinates: D coordinates, declared parameters, and the
    full-norm radical when the Coulomb term needs it."""
    return RadialContext(spec, tuple((a,) for a in range(spec.partition.D)))


# -- raw operators with potential attachments -----------------------------------


def model_value(ctx: Context, v) -> Poly:
    """A model value as an exact polynomial: the parameter for a name, the
    constant for a rational."""
    return ctx.param(v) if isinstance(v, str) else ctx.const_poly(v)


@dataclass(frozen=True)
class PotentialTerm:
    """Multiplication attachment coef(x) * f_block(angles of block)."""

    coef: Coefficient
    block: int  # 0-based block index


def potential_term(ctx: RadialContext, spec: ModelSpec, block: int,
                   multiplier: Poly) -> PotentialTerm:
    """The attachment multiplier * f_block / r_block^2."""
    norm = ctx.r2(spec.partition.block_range(block))
    return PotentialTerm(Coefficient.from_poly(ctx, multiplier).div_poly(norm), block)


@dataclass(frozen=True)
class RawOperator:
    """Exact derivative part plus potential multiplication attachments."""

    base: DiffOp
    attachments: tuple = ()

    def symbolic(self, spec: ModelSpec) -> DiffOp:
        """Fold attachments using constant potential values; a zero adds no term."""
        ctx = self.base.ctx
        out = self.base
        for att in self.attachments:
            pot = spec.potentials[att.block]
            if not isinstance(pot, Constant):
                raise UnsupportedSymbolicPotentialError(
                    f"block {att.block + 1} potential {pot!r} has no exact Cartesian form"
                )
            coef = att.coef.mul_poly(model_value(ctx, pot.value))
            out = out.add(DiffOp.from_coefficient(ctx, coef))
        return out

    def plus(self, other: "RawOperator") -> "RawOperator":
        return RawOperator(self.base.add(other.base), self.attachments + other.attachments)


def _hamiltonian_raw(spec: ModelSpec, ctx: RadialContext, idx, blocks) -> RawOperator:
    """-laplacian over the coordinates idx, plus omega^2 r_idx^2 for the
    oscillator, plus f_b / r_b^2 for each potential block b in blocks."""
    base = ctx.laplacian(idx).neg()
    if spec.family == OSCILLATOR:
        base = base.add(DiffOp.from_poly(ctx, model_value(ctx, spec.omega2).mul(ctx.r2(idx))))
    one = ctx.const_poly(1)
    atts = tuple(potential_term(ctx, spec, b, one) for b in blocks if b < spec.potential_blocks)
    return RawOperator(base, atts)


def build_hamiltonian_raw(spec: ModelSpec, ctx: RadialContext) -> RawOperator:
    D = spec.partition.D
    H = _hamiltonian_raw(spec, ctx, range(D), range(spec.potential_blocks))
    if spec.family == COULOMB:
        eta_rho = model_value(ctx, spec.eta).mul(ctx.radical_poly())
        coulomb = Coefficient.from_poly(ctx, eta_rho).div_poly(ctx.r2(range(D)))
        H = RawOperator(H.base.sub(DiffOp.from_coefficient(ctx, coulomb)), H.attachments)
    return H


def block_hamiltonian_raw(spec: ModelSpec, ctx: RadialContext, i: int) -> RawOperator:
    """H_i = -laplacian_i + omega^2 r_i^2 + f_i / r_i^2 (oscillator blocks)."""
    return _hamiltonian_raw(spec, ctx, spec.partition.block_range(i), (i,))


def build_hamiltonian(spec: ModelSpec, ctx: RadialContext) -> DiffOp:
    """The full Hamiltonian as an exact DiffOp; constant potentials only."""
    return build_hamiltonian_raw(spec, ctx).symbolic(spec)


# -- numeric evaluation of angular potentials -----------------------------------


def potential_cartesian_evaluator(spec: ModelSpec, i: int, params: dict | None = None):
    """Vectorized f_i as a function of the block's Cartesian coordinates.

    Every potential is read as a tower of levels, innermost first; a bare
    Constant is a one-level tower.  The innermost value is the constant, or
    Model2F11 at sin(3 phi_1), and each level j above gives
    c_j + value / sin^2(phi_j).  The nested sub-norms
    s_k^2 = y_1^2 + ... + y_k^2 of the block give sin^2(phi_j) = s_j^2 / s_{j+1}^2
    and sin(phi_1) = y_1 / s_2, so no inverse trigonometry is needed.
    Symbolic constants resolve through ``params``.
    """
    pot = spec.potentials[i]
    levels = pot.levels if isinstance(pot, Hierarchy) else (pot,)
    params = params or {}

    def const_value(node):
        if isinstance(node.value, str):
            if node.value not in params:
                raise UnsupportedSymbolicPotentialError(
                    f"symbolic constant {node.value!r} has no numeric value"
                )
            return float(params[node.value])
        return float(node.value)

    def evaluate(block_coords):
        import numpy as np

        ys = [np.asarray(y) for y in block_coords]
        ys = [y.astype(float) if y.dtype.kind != "f" else y for y in ys]
        s2 = list(accumulate(y**2 for y in ys))  # s2[k] = s_{k+1}^2
        inner = levels[0]
        if isinstance(inner, Model2F11):
            _guard_nonzero(s2[1], "innermost sub-norm vanishes")
            sin_phi1 = ys[0] / np.sqrt(s2[1])
            value = inner.value_at_s(3 * sin_phi1 - 4 * sin_phi1**3)
        else:
            value = np.full(np.broadcast(*ys).shape, const_value(inner))
        for j, lvl in enumerate(levels[1:], start=1):
            with np.errstate(invalid="ignore"):  # 0/0 where s_{j+1} = 0: NaN, refused below
                sin2 = s2[j] / s2[j + 1]  # sin^2(phi_{j+1})
            if np.any(np.isnan(sin2) | ((np.abs(sin2) < 1e-14) & (np.abs(value) > 0))):
                raise EvaluationSingularityError("sin(phi) = 0 with nonzero inner potential")
            value = const_value(lvl) + value / np.where(value == 0, 1.0, sin2)  # 0 where sin = 0
        return value

    return evaluate


# -- JSON round trip -------------------------------------------------------------


def _pot_to_json(pot):
    if isinstance(pot, Zero):
        return {"kind": "zero"}
    if isinstance(pot, Constant):
        v = pot.value
        return {"kind": "constant", "value": "symbolic" if isinstance(v, str) else str(v)}
    if isinstance(pot, Hierarchy):
        if is_model2_tower(pot):
            return {
                "kind": "model2",
                "A": str(pot.levels[0].A),
                "B": str(pot.levels[0].B),
            }
        return {"kind": "hierarchy", "levels": [_pot_to_json(l) for l in pot.levels]}
    if isinstance(pot, Model2F11):
        return {"kind": "model2", "A": str(pot.A), "B": str(pot.B)}
    raise InvalidPartitionError(f"cannot serialize {pot!r}")


def _pot_from_json(obj, block_size: int, default_name: str, level: bool = False):
    """A block potential, or with ``level`` one level of a hierarchy: zero,
    constant or a bare Model2F11."""
    kind = obj.get("kind")
    if kind == "zero":
        return Zero()
    if kind == "constant":
        v = obj.get("value", "symbolic")
        return Constant(default_name if v == "symbolic" else Fraction(str(v)))
    if kind == "model2":
        A, B = Fraction(str(obj["A"])), Fraction(str(obj["B"]))
        return Model2F11(A, B) if level else model2_potential(block_size, A, B)
    if level:
        raise InvalidPartitionError(f"a hierarchy level is zero, constant or model2, not {kind!r}")
    if kind == "hierarchy":
        return Hierarchy(tuple(_pot_from_json(lv, 1, default_name, True) for lv in obj["levels"]))
    raise InvalidPartitionError(f"unknown potential kind {kind!r}")


def spec_to_json(spec: ModelSpec) -> dict:
    out = {
        "family": spec.family,
        "blocks": list(spec.partition.block_sizes),
        "potentials": [_pot_to_json(p) for p in spec.potentials],
    }
    if spec.family == OSCILLATOR:
        out["omega2"] = "symbolic" if isinstance(spec.omega2, str) else str(spec.omega2)
    else:
        out["eta"] = "symbolic" if isinstance(spec.eta, str) else str(spec.eta)
    return out


def spec_from_json(obj: dict) -> ModelSpec:
    known = {"family", "blocks", "potentials", "omega2", "eta"}
    unknown = set(obj) - known
    if unknown:
        raise InvalidPartitionError(f"unknown model fields: {sorted(unknown)}")
    family = obj.get("family")
    part = make_partition(obj.get("blocks", ()))
    n_pots = part.N if family == OSCILLATOR else part.N - 1
    pots_json = obj.get("potentials")
    prefix = "beta" if family == OSCILLATOR else "alpha"
    if pots_json is None:
        pots_json = [{"kind": "constant", "value": "symbolic"}] * n_pots
    pots = []
    for i, pj in enumerate(pots_json):
        pots.append(_pot_from_json(pj, part.block_sizes[i], f"{prefix}{i + 1}"))
    kwargs = {}
    if family == OSCILLATOR:
        w = obj.get("omega2", "symbolic")
        kwargs["omega2"] = "w2" if w == "symbolic" else Fraction(str(w))
    else:
        e = obj.get("eta", "symbolic")
        kwargs["eta"] = "eta" if e == "symbolic" else Fraction(str(e))
    return ModelSpec(family, part, tuple(pots), **kwargs)
