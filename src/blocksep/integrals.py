"""Integrals of motion for both model families.

Names use 1-based indices matching the CLI syntax ("H[2]", "G[1,2]", ...).
Oscillator family:

    H[i]      block Hamiltonian of block i
    T[i]      L^2_i - f_i, the angular Casimir of block i
    G[i,j]    partial angular Casimir of block i over its coordinates up to x_j
    Z[l]      cross-block Casimir of blocks 1..l
    Hsum[l]   H[1] + ... + H[l]
    Hfull     the full Hamiltonian

Coulomb family adds:

    Hcoul     the full Hamiltonian
    X[i]      first-order-type integral of a coordinate x_i of the last block
    S[l]      coordinate-truncated Casimir of x_1..x_l
    Y[p]      trailing-block Casimir of blocks p..N
    J[p]      trailing coordinate Casimir of x_p..x_D
    sigmaS[j] S[D-1] conjugated by the x_j <-> x_D transposition

Every integral but the Hamiltonians and X is one Casimir: L^2 over a
coordinate chain minus r^2 of the chain times f_b / r_b^2 for the potential
blocks it carries; sigmaS[j] is the chain of every coordinate but x_j.
``build_integral`` writes each integral once, from the pieces of its context
(r^2, the Laplacian and L^2 of a coordinate set, X's term for one other
slot): the Cartesian context or a block-radial picture over coarser groups
(``models.RadialContext``, whose groups ``radial_groups`` gives).
``_index_ranges`` gives each one-index kind the range ``enumerate_integrals``
lists and the range ``build_integral`` accepts; G and sigmaS check their own
indices, and sigmaS needs S[D-1].  Boundary aliases honored by the builder:
Z[1] = T[1], and for the Coulomb family Z[N] = Y[1].
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
    RadialContext,
    RawOperator,
    Zero,
    block_hamiltonian_raw,
    build_hamiltonian_raw,
    model_value,
    potential_term,
)
from .opalg import DiffOp
from .ring import Coefficient


@dataclass(frozen=True)
class IntegralName:
    kind: str
    i: int | None = None
    j: int | None = None

    def __str__(self):  # OperatorEnv caches under it, so it shows every index given
        if self.j is not None:
            return f"{self.kind}[{self.i},{self.j}]"
        return self.kind if self.i is None else f"{self.kind}[{self.i}]"


_COULOMB_KINDS = ("Hcoul", "X", "S", "Y", "J", "sigmaS")
_KINDS = ("Hfull", "Hsum", "H", "T", "G", "Z") + _COULOMB_KINDS
# the kinds enumerate_integrals lists for each family, in its order
_LISTED = {OSCILLATOR: ("H", "G", "Z"), COULOMB: ("T", "Z", "X", "S", "Y", "J")}


def _index_ranges(spec: ModelSpec) -> dict:
    """kind -> (first, last, lowest, highest) of each one-index kind:
    ``enumerate_integrals`` lists first..last, and ``build_integral`` accepts
    lowest..highest, which is wider where a relation display uses the formula
    past the declared end: S down to 2, Y[N] = L^2 of the last block, J[D] = 0.
    The listed S starts at 2 as well; only on one block is tail below 2."""
    part = spec.partition
    N, D = part.N, part.D
    tail = part.offsets[N - 1] + 1  # the first coordinate of the last block
    z = N if spec.family == OSCILLATOR else N - 1  # the coulomb Z[N] is Y[1]
    return {"Hsum": (1, N, 1, N), "H": (1, N, 1, N), "T": (1, N, 1, N), "Z": (2, z, 2, z),
            "X": (tail, D, tail, D), "S": (max(tail, 2), D - 1, 2, D - 1), "Y": (1, N - 1, 1, N),
            "J": (tail, D - 1, tail, D)}


def structural_constant(spec: ModelSpec, kind: str, p: int) -> Fraction:
    """Nc[p], Mc[p] or Uc[p] (kind N, M or U) of the Coulomb quadratic relations:
    (x - 2) s - s^2, where s sums (d_b - 1)/2 over blocks b, with x = d_1+..+d_p
    and b in 1..p for Nc, x = d_p+..+d_N and b in p..N-1 for Mc, x = p and b in
    1..N-1 for Uc.  The displays also use Nc[1], Mc[N] and Uc one step lower, just
    past the declared ranges [2, N-1], [1, N-1] and [n_{N-1}+1, D-1]."""
    sizes = spec.partition.block_sizes
    N = len(sizes)
    lowest, highest = (2, sum(sizes)) if kind == "U" else (1, N)
    if not lowest <= p <= highest:
        raise InvalidIntegralError(f"{kind}c index {p} out of range")
    x, blocks = {"N": (sum(sizes[:p]), range(p)), "M": (sum(sizes[p - 1:]), range(p - 1, N - 1)),
                 "U": (p, range(N - 1))}[kind]
    s = sum((Fraction(sizes[b] - 1, 2) for b in blocks), Fraction(0))
    return (x - 2) * s - s * s


# -- builders ---------------------------------------------------------------------


def _casimir(ctx: RadialContext, spec: ModelSpec, idx, blocks) -> RawOperator:
    """L^2 over the coordinates idx minus r_idx^2 f_b / r_b^2 for each
    potential block b in blocks."""
    r2 = ctx.r2(idx).neg()
    atts = tuple(potential_term(ctx, spec, b, r2) for b in blocks if b < spec.potential_blocks)
    return RawOperator(ctx.casimir(idx), atts)


_CHAINS = ("T", "Z", "S", "Y", "J", "G", "sigmaS")  # the kinds that are one Casimir


def _chain(spec: ModelSpec, kind: str, i: int, j: int | None) -> tuple:
    """(coordinates, potential blocks) of the Casimir kind[i] or G[i,j];
    sigmaS[i], S[D-1] with x_i in place of x_D, is the chain of every
    coordinate but x_i."""
    part = spec.partition
    N, D = part.N, part.D
    if kind == "sigmaS":
        _last_block(spec, i)
        return [a for a in range(D) if a != i - 1], range(N - 1)
    if kind == "T":
        return part.block_range(i - 1), (i - 1,)
    if kind == "Z":
        return range(part.offsets[i]), range(i)
    if kind == "S":
        return range(i), range(N - 1)
    if kind == "Y":
        return range(part.offsets[i - 1], D), range(i - 1, N - 1)
    if kind == "J":
        return range(i - 1, D), ()
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
    return range(lo - 1, j), blocks


def _last_block(spec: ModelSpec, j: int):
    """Refuse a transposition index j outside the last block."""
    part = spec.partition
    D = part.D
    if not D - part.block_sizes[-1] + 1 <= j <= D:
        raise InvalidIntegralError(
            f"transposition index {j} outside the last block "
            f"[{D - part.block_sizes[-1] + 1},{D}]"
        )


def build_integral(name: IntegralName, spec: ModelSpec, ctx: RadialContext) -> RawOperator:
    """Construct the named integral from the pieces of ``ctx``, Cartesian or
    block-radial; raises InvalidIntegralError for an unknown kind, a wrong
    number of indices or an index out of range."""
    kind = name.kind
    if kind not in _KINDS:
        raise InvalidIntegralError(f"unknown integral kind {kind!r}")
    indices = [v for v in (name.i, name.j) if v is not None]
    count = {"Hfull": 0, "Hcoul": 0, "G": 2}.get(kind, 1)
    if len(indices) != count:
        takes = ("no index", "one index", "two indices")[count]
        raise InvalidIntegralError(f"{kind} takes {takes}, not {len(indices)}")
    if kind in _COULOMB_KINDS and spec.family != COULOMB:
        raise InvalidIntegralError(f"{kind} integrals belong to the coulomb family")
    part = spec.partition
    N, D = part.N, part.D
    i = indices[0] if indices else None
    if kind == "Z" and (i == 1 or (i == N and spec.family == COULOMB)):
        return build_integral(IntegralName("T" if i == 1 else "Y", 1), spec, ctx)
    ranged, p = ("S", D - 1) if kind == "sigmaS" else (kind, i)  # sigmaS[j] needs S[D-1]
    ranges = _index_ranges(spec)
    if ranged in ranges:
        _, last, lowest, highest = ranges[ranged]
        if not lowest <= p <= highest:
            raise InvalidIntegralError(f"{ranged} index {p} out of [{lowest},{last}]")

    if kind in ("Hfull", "Hcoul"):
        return build_hamiltonian_raw(spec, ctx)
    if kind == "Hsum":
        out = RawOperator(DiffOp.zero(ctx), ())
        for b in range(i):
            out = out.plus(block_hamiltonian_raw(spec, ctx, b))
        return out
    if kind == "H":
        return block_hamiltonian_raw(spec, ctx, i - 1)
    if kind in _CHAINS:
        return _casimir(ctx, spec, *_chain(spec, kind, i, name.j))

    # X[i]: X's term for each other slot, plus eta x_i r / |x|^2 - 2 x_i f_b / r_b^2
    k = ctx.slot(i - 1)
    base = DiffOp.zero(ctx)
    for s in range(ctx.nx):
        if s != k:
            base = base.add(ctx.x_term(k, s))
    eta_x_rho = model_value(ctx, spec.eta).mul(ctx.x(k)).mul(ctx.radical_poly())
    eta_term = Coefficient.from_poly(ctx, eta_x_rho).div_poly(ctx.r2(range(D)))
    base = base.add(DiffOp.from_coefficient(ctx, eta_term))
    mult = ctx.x(k).scale(-2)
    return RawOperator(base, tuple(potential_term(ctx, spec, b, mult) for b in range(N - 1)))


def enumerate_integrals(spec: ModelSpec) -> list[IntegralName]:
    """The independent integral list; the oscillator family counts D + N - 1."""
    part = spec.partition
    ranges = _index_ranges(spec)
    names: list[IntegralName] = []
    for kind in _LISTED[spec.family]:
        if kind == "G":  # G[i,j] for each block i and each j past its first coordinate
            names += [IntegralName("G", i, j) for i in range(1, part.N + 1)
                      for j in range(part.offsets[i - 1] + 2, part.offsets[i] + 1)]
        else:
            first, last, _, _ = ranges[kind]
            names += [IntegralName(kind, i) for i in range(first, last + 1)]
    return names


# -- the block-radial picture ------------------------------------------------------


def _cuts(name: IntegralName) -> tuple:
    """The 0-based coordinates where the integral starts a run of coordinates
    inside a block: a sub-chain G[i,j] or S[l] ends before one, J[p] starts at
    one, and X[i] and sigmaS[i] single out x_i."""
    kind, i = name.kind, name.i
    if kind == "G":
        return (name.j,)
    if kind == "S":
        return (i,)
    if kind == "J":
        return (i - 1,)
    if kind in ("X", "sigmaS"):
        return (i - 1, i)
    return ()


def radial_groups(spec: ModelSpec, names) -> tuple:
    """The coarsest partition of the coordinates into groups, each a run of one
    block's coordinates, whose rotations commute with every integral of
    ``names``: a block is cut wherever one of them starts a run inside it, and
    a Hierarchy block, whose potential sees every angle, into single coordinates."""
    part = spec.partition
    cuts = {c for name in names for c in _cuts(name)}
    groups = []
    for b in range(part.N):
        hierarchy = b < spec.potential_blocks and isinstance(spec.potentials[b], Hierarchy)
        run = []
        for a in part.block_range(b):
            if run and (hierarchy or a in cuts):
                groups.append(tuple(run))
                run = []
            run.append(a)
        groups.append(tuple(run))
    return tuple(groups)
