"""Model Hamiltonians: singular oscillator and singular Coulomb families.

A model is a partition plus one angular potential per block (the Coulomb
family carries none on the last block).  Every operator of the catalog uses
the block potentials only through multiplication terms C(x) * f_i(angles),
so builders return a :class:`RawOperator` holding an exact derivative part
plus such attachments.  With zero/constant potentials the attachments fold
into the exact operator; otherwise they turn into numeric evaluators of the
block's Cartesian coordinates (:func:`potential_cartesian_evaluator`), which
need no angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EvaluationSingularityError,
    InvalidPartitionError,
    UnsupportedSymbolicPotentialError,
)
from .opalg import DiffOp, laplacian
from .partition import Partition, make_partition
from .ring import Coefficient, Context, Poly


# -- angular potential specifications -----------------------------------------


@dataclass(frozen=True)
class Zero:
    def __repr__(self):
        return "Zero()"


@dataclass(frozen=True)
class Constant:
    """Constant potential; value is a rational or a declared parameter name."""

    value: object  # Fraction | int | str

    def __post_init__(self):
        if not isinstance(self.value, (str, int, Fraction)):
            object.__setattr__(self, "value", Fraction(self.value))


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

    Each level is Zero, Constant, or (innermost level only) Model2F11.
    """

    levels: tuple

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        for j, lvl in enumerate(self.levels):
            if isinstance(lvl, Model2F11) and j != 0:
                raise InvalidPartitionError(
                    "Model2F11 is only allowed at the innermost hierarchy level"
                )
            if not isinstance(lvl, (Zero, Constant, Model2F11)):
                raise InvalidPartitionError(f"unsupported hierarchy level {lvl!r}")


AngularPotential = object  # Zero | Constant | Hierarchy | Model2F11


def _guard_nonzero(values, message, tol=1e-12):
    import numpy as np

    arr = np.asarray(values)
    if np.any(np.abs(arr) < tol):
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


def is_symbolic_potential(pot) -> bool:
    return isinstance(pot, (Zero, Constant))


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
            elif not isinstance(pot, (Zero, Constant)):
                raise InvalidPartitionError(f"unsupported potential {pot!r}")

    @property
    def potential_blocks(self) -> int:
        return len(self.potentials)

    def is_symbolic(self) -> bool:
        return all(is_symbolic_potential(p) for p in self.potentials)

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


def operator_context(spec: ModelSpec) -> Context:
    """Cartesian context for a model: D coordinates, declared parameters,
    and the full-norm radical when the Coulomb term needs it."""
    names = tuple(f"x{i + 1}" for i in range(spec.partition.D))
    return Context(names, spec.param_names(), norm_radical=spec.family == COULOMB)


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


def potential_term(ctx: Context, spec: ModelSpec, block: int, multiplier: Poly) -> PotentialTerm:
    """The attachment multiplier * f_block / r_block^2."""
    norm = ctx.sum_of_squares(spec.partition.block_range(block))
    return PotentialTerm(Coefficient.from_poly(ctx, multiplier).div_poly(norm), block)


@dataclass(frozen=True)
class RawOperator:
    """Exact derivative part plus potential multiplication attachments."""

    base: DiffOp
    attachments: tuple = ()

    def symbolic(self, spec: ModelSpec) -> DiffOp:
        """Fold attachments using zero/constant potential values."""
        ctx = self.base.ctx
        out = self.base
        for att in self.attachments:
            pot = spec.potentials[att.block]
            if isinstance(pot, Zero):
                continue
            if not isinstance(pot, Constant):
                raise UnsupportedSymbolicPotentialError(
                    f"block {att.block + 1} potential {pot!r} has no exact Cartesian form"
                )
            coef = att.coef.mul_poly(model_value(ctx, pot.value))
            out = out.add(DiffOp.from_coefficient(ctx, coef))
        return out

    def plus(self, other: "RawOperator") -> "RawOperator":
        return RawOperator(self.base.add(other.base), self.attachments + other.attachments)


def _hamiltonian_raw(spec: ModelSpec, ctx: Context, idx, blocks) -> RawOperator:
    """-laplacian over the coordinates idx, plus omega^2 r_idx^2 for the
    oscillator, plus f_b / r_b^2 for each potential block b in blocks."""
    base = laplacian(ctx, idx).neg()
    if spec.family == OSCILLATOR:
        r2 = ctx.sum_of_squares(idx)
        base = base.add(DiffOp.from_poly(ctx, model_value(ctx, spec.omega2).mul(r2)))
    one = ctx.const_poly(1)
    atts = tuple(potential_term(ctx, spec, b, one) for b in blocks if b < spec.potential_blocks)
    return RawOperator(base, atts)


def build_hamiltonian_raw(spec: ModelSpec, ctx: Context) -> RawOperator:
    D = spec.partition.D
    H = _hamiltonian_raw(spec, ctx, range(D), range(spec.potential_blocks))
    if spec.family == COULOMB:
        eta_rho = model_value(ctx, spec.eta).mul(ctx.radical_poly())
        coulomb = Coefficient.from_poly(ctx, eta_rho).div_poly(ctx.sum_of_squares(range(D)))
        H = RawOperator(H.base.sub(DiffOp.from_coefficient(ctx, coulomb)), H.attachments)
    return H


def block_hamiltonian_raw(spec: ModelSpec, ctx: Context, i: int) -> RawOperator:
    """H_i = -laplacian_i + omega^2 r_i^2 + f_i / r_i^2 (oscillator blocks)."""
    return _hamiltonian_raw(spec, ctx, spec.partition.block_range(i), (i,))


def build_hamiltonian(spec: ModelSpec, ctx: Context | None = None) -> DiffOp:
    """The full Hamiltonian as an exact DiffOp; zero or constant potentials only."""
    if ctx is None:
        ctx = operator_context(spec)
    return build_hamiltonian_raw(spec, ctx).symbolic(spec)


# -- numeric evaluation of angular potentials -----------------------------------


def potential_cartesian_evaluator(spec: ModelSpec, i: int, params: dict | None = None):
    """Vectorized f_i as a function of the block's Cartesian coordinates.

    Uses the nested sub-norms s_k^2 = y_1^2 + ... + y_k^2 of the block, so no
    inverse trigonometry is needed:  sin^2(phi_j) = s_j^2 / s_{j+1}^2 and
    sin(phi_1) = y_1 / s_2.  Symbolic constants resolve through ``params``.
    """
    pot = spec.potentials[i]
    d = spec.partition.block_sizes[i]
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
        if isinstance(pot, Zero):
            return np.zeros(np.broadcast(*ys).shape) if len(ys) > 1 else np.zeros_like(ys[0])
        if isinstance(pot, Constant):
            shape = np.broadcast(*ys).shape if len(ys) > 1 else ys[0].shape
            return np.full(shape, const_value(pot))
        # hierarchy: running sub-norms
        s2 = [None] * (d + 1)  # s2[k] = |first k coords|^2
        acc = np.zeros_like(ys[0])
        for k in range(1, d + 1):
            acc = acc + ys[k - 1] ** 2
            s2[k] = acc.copy() if hasattr(acc, "copy") else acc
        levels = pot.levels
        lvl0 = levels[0]
        if isinstance(lvl0, Model2F11):
            _guard_nonzero(s2[2], "innermost sub-norm vanishes")
            sin_phi1 = ys[0] / np.sqrt(s2[2])
            s3 = 3 * sin_phi1 - 4 * sin_phi1**3
            value = lvl0.value_at_s(s3)
        elif isinstance(lvl0, Zero):
            value = np.zeros_like(ys[0])
        else:
            value = np.full_like(ys[0], const_value(lvl0))
        for j in range(1, d - 1):
            # sin^2(phi_{j+1}) = s2[j+1] / s2[j+2]
            sin2 = s2[j + 1] / s2[j + 2]
            if np.any((np.abs(sin2) < 1e-14) & (np.abs(value) > 0)):
                raise EvaluationSingularityError("sin(phi) = 0 with nonzero inner potential")
            lvl = levels[j]
            base = (
                np.zeros_like(ys[0])
                if isinstance(lvl, Zero)
                else np.full_like(ys[0], const_value(lvl))
            )
            value = base + value / sin2
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
