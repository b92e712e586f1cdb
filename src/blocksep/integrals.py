"""Integrals of motion for both model families.

Names use 1-based indices matching the CLI syntax ("H[2]", "G[1,2]", ...).
Oscillator family:

    H[i]      block Hamiltonian, i in [1, N]
    T[i]      L^2_i - f_i, i in [1, N]
    G[i,j]    partial angular Casimir of block i, j in [n_{i-1}+2, n_i]
    Z[l]      cross-block Casimir, l in [2, N]
    Hsum[l]   H[1] + ... + H[l]
    Hfull     the full Hamiltonian

Coulomb family adds:

    X[i]      first-order-type integral, i in [n_{N-1}+1, D]
    S[l]      coordinate-truncated Casimir, l in [n_{N-1}+1, D-1]
    Y[p]      trailing-block Casimir, p in [1, N-1]
    J[p]      trailing coordinate Casimir, p in [n_{N-1}+1, D-1]
    sigmaS[j] S[D-1] conjugated by the x_j <-> x_D transposition

Every integral but the Hamiltonians, X and sigmaS is one Casimir: L^2 over
a coordinate chain minus r^2 of the chain times f_b / r_b^2 for the
potential blocks it carries; at the end of their ranges this gives
Y[N] = L^2_N and J[D] = 0.  Boundary aliases honored by the builder:
Z[1] = T[1], and for the Coulomb family Z[N] = Y[1].  Structural constants
extend to the indices the relation displays need (Nc at p-1 = 1, Mc at
p+1 = N, Uc and S one step below their declared ranges) via the same closed
formulas with empty sums dropping out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidIntegralError
from .models import (
    COULOMB,
    OSCILLATOR,
    Hierarchy,
    ModelSpec,
    PotentialTerm,
    RawOperator,
    Zero,
    block_hamiltonian_raw,
    build_hamiltonian_raw,
    model_value,
    potential_term,
)
from .opalg import DiffOp, angular_momentum, angular_momentum_squared_sum
from .ring import Coefficient, Context


@dataclass(frozen=True)
class IntegralName:
    kind: str
    i: int | None = None
    j: int | None = None

    def __str__(self):
        if self.kind == "G":
            return f"G[{self.i},{self.j}]"
        if self.i is None:
            return self.kind
        return f"{self.kind}[{self.i}]"


# -- structural constants --------------------------------------------------------


@dataclass(frozen=True)
class StructuralConstants:
    """The three rational families entering the Coulomb quadratic relations."""

    spec: ModelSpec

    def _half_sum(self, blocks) -> Fraction:
        return sum((Fraction(self.spec.partition.block_sizes[i] - 1, 2) for i in blocks), Fraction(0))

    def N(self, p: int) -> Fraction:
        """Declared for p in [2, N-1]; the same formula extends to p = 1."""
        part = self.spec.partition
        if not 1 <= p <= part.N:
            raise InvalidIntegralError(f"Nc index {p} out of range")
        dsum = sum(part.block_sizes[:p])
        sig = self._half_sum(range(p))
        return (dsum - 2) * sig - sig * sig

    def M(self, p: int) -> Fraction:
        """Declared for p in [1, N-1]; extends to p = N with empty sums."""
        part = self.spec.partition
        if not 1 <= p <= part.N:
            raise InvalidIntegralError(f"Mc index {p} out of range")
        dsum = sum(part.block_sizes[p - 1 :])
        sig = self._half_sum(range(p - 1, part.N - 1))
        return (dsum - 2) * sig - sig * sig

    def U(self, p: int) -> Fraction:
        """Declared for p in [n_{N-1}+1, D-1]; the formula is used one step
        below for the S[p-1] boundary terms."""
        part = self.spec.partition
        if not 2 <= p <= part.D:
            raise InvalidIntegralError(f"Uc index {p} out of range")
        sig = self._half_sum(range(part.N - 1))
        return (p - 2) * sig - sig * sig


def structural_constants(spec: ModelSpec) -> StructuralConstants:
    if spec.partition.N < 2:
        raise InvalidIntegralError("structural constants need N >= 2")
    return StructuralConstants(spec)


# -- builders ---------------------------------------------------------------------


def _casimir(ctx: Context, spec: ModelSpec, idx, blocks) -> RawOperator:
    """L^2 over the coordinates idx minus r_idx^2 f_b / r_b^2 for each
    potential block b in blocks."""
    r2 = ctx.sum_of_squares(idx).neg()
    atts = tuple(potential_term(ctx, spec, b, r2) for b in blocks if b < spec.potential_blocks)
    return RawOperator(angular_momentum_squared_sum(ctx, idx), atts)


def build_integral(name: IntegralName, spec: ModelSpec, ctx: Context) -> RawOperator:
    """Construct the named integral; raises InvalidIntegralError out of range."""
    part = spec.partition
    N, D = part.N, part.D
    kind = name.kind

    if kind == "Hfull" or (kind == "Hcoul" and spec.family == COULOMB):
        return build_hamiltonian_raw(spec, ctx)

    if kind == "Hsum":
        l = name.i
        if not 1 <= l <= N:
            raise InvalidIntegralError(f"Hsum index {l} out of [1,{N}]")
        out = RawOperator(DiffOp.zero(ctx), ())
        for b in range(l):
            out = out.plus(block_hamiltonian_raw(spec, ctx, b))
        return out

    if kind == "H":
        i = name.i
        if not 1 <= i <= N:
            raise InvalidIntegralError(f"H index {i} out of [1,{N}]")
        return block_hamiltonian_raw(spec, ctx, i - 1)

    if kind == "T":
        i = name.i
        if not 1 <= i <= N:
            raise InvalidIntegralError(f"T index {i} out of [1,{N}]")
        return _casimir(ctx, spec, part.block_range(i - 1), (i - 1,))

    if kind == "G":
        i, j = name.i, name.j
        if not 1 <= i <= N:
            raise InvalidIntegralError(f"G block {i} out of [1,{N}]")
        lo = part.offsets[i - 1] + 1  # 1-based first coordinate of block i
        hi = part.offsets[i]  # 1-based last coordinate
        if not lo + 1 <= j <= hi:
            raise InvalidIntegralError(f"G[{i},{j}] needs j in [{lo + 1},{hi}]")
        blocks = (i - 1,)
        if j < hi and i - 1 < spec.potential_blocks:
            # the sub-chain lo..j sees only the potential levels inside it: a
            # zero or constant potential is the outermost level, outside it
            pot = spec.potentials[i - 1]
            if not isinstance(pot, Hierarchy):
                blocks = ()
            elif not all(isinstance(level, Zero) for level in pot.levels[j - lo :]):
                raise InvalidIntegralError(
                    f"G[{i},{j}] needs block {i}'s potential levels outside the sub-chain to vanish"
                )
        return _casimir(ctx, spec, range(lo - 1, j), blocks)

    if kind == "Z":
        l = name.i
        if l == 1:
            return build_integral(IntegralName("T", 1), spec, ctx)
        if spec.family == OSCILLATOR:
            if not 2 <= l <= N:
                raise InvalidIntegralError(f"Z index {l} out of [2,{N}]")
        else:
            if l == N:  # paper-level alias Z[N] = Y[1]
                return build_integral(IntegralName("Y", 1), spec, ctx)
            if not 2 <= l <= N - 1:
                raise InvalidIntegralError(f"Z index {l} out of [2,{N - 1}]")
        return _casimir(ctx, spec, range(0, part.offsets[l]), range(l))

    if spec.family != COULOMB:
        raise InvalidIntegralError(f"{kind} integrals belong to the coulomb family")

    if kind == "X":
        i = name.i
        if not part.offsets[N - 1] + 1 <= i <= D:
            raise InvalidIntegralError(f"X index {i} out of [{part.offsets[N - 1] + 1},{D}]")
        i0 = i - 1
        base = DiffOp.zero(ctx)
        for a0 in range(D):
            if a0 == i0:
                continue
            L = angular_momentum(ctx, i0, a0)
            pa = DiffOp.partial(ctx, a0)
            base = base.add(L.anticommutator(pa))
        eta_x_rho = model_value(ctx, spec.eta).mul(ctx.x(i0)).mul(ctx.radical_poly())
        eta_term = Coefficient.from_poly(ctx, eta_x_rho).div_poly(ctx.sum_of_squares(range(D)))
        base = base.add(DiffOp.from_coefficient(ctx, eta_term))
        mult = ctx.x(i0).scale(-2)
        atts = tuple(potential_term(ctx, spec, b, mult) for b in range(N - 1))
        return RawOperator(base, atts)

    if kind == "S":
        l = name.i
        # declared range [n_{N-1}+1, D-1]; the relation displays also use the
        # formula one step lower, down to l = 2
        if not 2 <= l <= D - 1:
            raise InvalidIntegralError(f"S index {l} out of [2,{D - 1}]")
        return _casimir(ctx, spec, range(0, l), range(N - 1))

    if kind == "Y":
        p = name.i
        # declared range [1, N-1]; at p = N the formula is L^2 of the last block
        if not 1 <= p <= N:
            raise InvalidIntegralError(f"Y index {p} out of [1,{N - 1}]")
        return _casimir(ctx, spec, range(part.offsets[p - 1], D), range(p - 1, N - 1))

    if kind == "J":
        p = name.i
        # declared range [n_{N-1}+1, D-1]; at p = D the pair sum is empty
        if not part.offsets[N - 1] + 1 <= p <= D:
            raise InvalidIntegralError(f"J index {p} out of [{part.offsets[N - 1] + 1},{D - 1}]")
        return _casimir(ctx, spec, range(p - 1, D), ())

    if kind == "sigmaS":
        j = name.i
        op = build_integral(IntegralName("S", D - 1), spec, ctx)
        return conjugate_by_transposition(op, j, spec, ctx)

    raise InvalidIntegralError(f"unknown integral kind {kind!r}")


def conjugate_by_transposition(op: RawOperator, j: int, spec: ModelSpec, ctx: Context) -> RawOperator:
    """sigma_jD o op o sigma_jD^{-1}: swap coordinates x_j and x_D.

    j must lie in the last block so that every block norm is invariant.
    """
    part = spec.partition
    D = part.D
    if not D - part.block_sizes[-1] + 1 <= j <= D:
        raise InvalidIntegralError(
            f"transposition index {j} outside the last block "
            f"[{D - part.block_sizes[-1] + 1},{D}]"
        )
    if j == D:
        return op
    base = op.base.swap_coordinates(j - 1, D - 1)
    atts = []
    for att in op.attachments:
        swapped = DiffOp.from_coefficient(ctx, att.coef).swap_coordinates(j - 1, D - 1)
        if swapped.is_zero():
            continue
        coef = swapped.terms[(0,) * ctx.nx]
        atts.append(PotentialTerm(coef, att.block))
    return RawOperator(base, tuple(atts))


def enumerate_integrals(spec: ModelSpec) -> list[IntegralName]:
    """The independent integral list; the oscillator family counts D + N - 1."""
    part = spec.partition
    N, D = part.N, part.D
    names: list[IntegralName] = []
    if spec.family == OSCILLATOR:
        names.extend(IntegralName("H", i) for i in range(1, N + 1))
        for i in range(1, N + 1):
            lo = part.offsets[i - 1] + 1
            hi = part.offsets[i]
            names.extend(IntegralName("G", i, j) for j in range(lo + 1, hi + 1))
        names.extend(IntegralName("Z", l) for l in range(2, N + 1))
        return names
    names.extend(IntegralName("T", i) for i in range(1, N + 1))
    names.extend(IntegralName("Z", l) for l in range(2, N))
    names.extend(IntegralName("X", i) for i in range(part.offsets[N - 1] + 1, D + 1))
    names.extend(IntegralName("S", l) for l in range(part.offsets[N - 1] + 1, D))
    names.extend(IntegralName("Y", p) for p in range(1, N))
    names.extend(IntegralName("J", p) for p in range(part.offsets[N - 1] + 1, D))
    return names
