"""Coordinate partitions and the two spherical coordinate chains.

The D Cartesian coordinates split into N contiguous blocks.  Inside block i
the chain assigns the cosine of the last angle to the last coordinate:

    y_d     = r cos(phi_{d-1})
    y_(d-1) = r sin(phi_{d-1}) cos(phi_{d-2})
    ...
    y_1     = r sin(phi_{d-1}) ... sin(phi_2) sin(phi_1)

with phi_1 in [0, 2pi) and the remaining angles in [0, pi].  Across blocks
the radii (r_1..r_N) follow the same chain in the angles theta_1..theta_(N-1).
One-coordinate blocks carry no angle; the radius is |y| and the sign is kept
separately so round trips stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidPartitionError, SingularPointError


@dataclass(frozen=True)
class Partition:
    """Ordered block sizes (d_1..d_N) with derived offsets."""

    block_sizes: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not self.block_sizes:
            raise InvalidPartitionError("partition needs at least one block")
        for d in self.block_sizes:
            if not isinstance(d, int) or d < 1:
                raise InvalidPartitionError(f"block size {d!r} must be a positive integer")
        offs = [0]
        for d in self.block_sizes:
            offs.append(offs[-1] + d)
        object.__setattr__(self, "offsets", tuple(offs))

    @property
    def D(self) -> int:
        return self.offsets[-1]

    @property
    def N(self) -> int:
        return len(self.block_sizes)

    def block_range(self, i: int) -> range:
        """0-based coordinate indices of block i (0-based)."""
        return range(self.offsets[i], self.offsets[i + 1])


def make_partition(block_sizes) -> Partition:
    return Partition(tuple(block_sizes))


@dataclass(frozen=True)
class BlockSphericalPoint:
    radii: tuple[float, ...]
    angles: tuple[tuple[float, ...], ...]
    signs: tuple[int, ...]  # +-1 per block, only meaningful for 1-blocks

    def __post_init__(self):
        if not all(r > 0 for r in self.radii):
            raise SingularPointError("block radii must be positive")


@dataclass(frozen=True)
class HypersphericalPoint:
    r: float
    thetas: tuple[float, ...]


def _chain_to_angles(values) -> tuple[float, ...]:
    """Invert the sine-product chain for a vector with positive norm."""
    d = len(values)
    if d == 1:
        return ()
    angles = [0.0] * (d - 1)
    s = math.sqrt(math.fsum(v * v for v in values))
    for k in range(d - 1, 1, -1):
        # angle phi_k in [0, pi]: values[k] = s * cos(phi_k)
        if s == 0.0:
            angles[k - 1] = 0.0
            continue
        c = min(1.0, max(-1.0, values[k] / s))
        phi = math.acos(c)
        angles[k - 1] = phi
        s = s * math.sin(phi)
    phi1 = math.atan2(values[0], values[1])
    if phi1 < 0:
        phi1 += 2 * math.pi
    angles[0] = phi1
    return tuple(angles)


def _chain_from_angles(r: float, angles) -> tuple[float, ...]:
    d = len(angles) + 1
    if d == 1:
        return (r,)
    out = [0.0] * d
    prefix = r
    for k in range(d - 1, 0, -1):
        phi = angles[k - 1]
        out[k] = prefix * math.cos(phi)
        prefix *= math.sin(phi)
    out[0] = prefix
    # the first two entries swap roles: y_1 carries sin(phi_1), y_2 cos(phi_1)
    return tuple(out)


def to_block_spherical(point, part: Partition) -> BlockSphericalPoint:
    if len(point) != part.D:
        raise InvalidPartitionError(f"point has {len(point)} coordinates, partition needs {part.D}")
    radii = []
    angles = []
    signs = []
    for i in range(part.N):
        block = [float(point[k]) for k in part.block_range(i)]
        r = math.sqrt(math.fsum(v * v for v in block))
        if r == 0.0:
            raise SingularPointError(f"block {i + 1} has zero radius")
        radii.append(r)
        if len(block) == 1:
            angles.append(())
            signs.append(1 if block[0] >= 0 else -1)
        else:
            angles.append(_chain_to_angles(block))
            signs.append(1)
    return BlockSphericalPoint(tuple(radii), tuple(angles), tuple(signs))


def from_block_spherical(bp: BlockSphericalPoint, part: Partition) -> tuple[float, ...]:
    if len(bp.radii) != part.N:
        raise InvalidPartitionError("radius count does not match partition")
    out = []
    for i in range(part.N):
        d = part.block_sizes[i]
        if len(bp.angles[i]) != d - 1:
            raise InvalidPartitionError(f"block {i + 1} expects {d - 1} angles")
        if d == 1:
            out.append(bp.signs[i] * bp.radii[i])
        else:
            out.extend(_chain_from_angles(bp.radii[i], bp.angles[i]))
    return tuple(out)


def to_hyperspherical(radii) -> HypersphericalPoint:
    vals = [float(v) for v in radii]
    if not vals or all(v == 0 for v in vals):
        raise SingularPointError("all block radii vanish")
    if any(v <= 0 for v in vals):
        raise SingularPointError("block radii must be positive")
    r = math.sqrt(math.fsum(v * v for v in vals))
    return HypersphericalPoint(r, _chain_to_angles(vals) if len(vals) > 1 else ())


def from_hyperspherical(hp: HypersphericalPoint, N: int) -> tuple[float, ...]:
    if len(hp.thetas) != N - 1:
        raise InvalidPartitionError(f"expected {N - 1} angles, got {len(hp.thetas)}")
    return _chain_from_angles(hp.r, hp.thetas)


# -- exact variants for axis-aligned rational points ---------------------------
#
# Angles are returned as exact multiples of pi/2 (Fractions of pi), which is
# the only regime where the chain takes rational values.

_EXACT_COS = {Fraction(0): 1, Fraction(1, 2): 0, Fraction(1): -1, Fraction(3, 2): 0}
_EXACT_SIN = {Fraction(0): 0, Fraction(1, 2): 1, Fraction(1): 0, Fraction(3, 2): -1}


def to_block_spherical_exact(point, part: Partition):
    """Exact chain inversion for points with one nonzero coordinate per block.

    Returns (radii, angles, signs) with Fraction radii and angles given as
    Fraction multiples of pi.
    """
    radii = []
    angles = []
    signs = []
    for i in range(part.N):
        block = [Fraction(point[k]) for k in part.block_range(i)]
        nonzero = [(k, v) for k, v in enumerate(block) if v != 0]
        if len(nonzero) != 1:
            raise SingularPointError("exact map needs exactly one nonzero coordinate per block")
        pos, val = nonzero[0]
        radii.append(abs(val))
        d = len(block)
        if d == 1:
            angles.append(())
            signs.append(1 if val > 0 else -1)
            continue
        signs.append(1)
        ang = [Fraction(0)] * (d - 1)
        if pos == d - 1:
            # last coordinate: top angle is 0 (val>0) or pi (val<0)
            ang[d - 2] = Fraction(0) if val > 0 else Fraction(1)
        else:
            for k in range(d - 2, pos - 1, -1):
                ang[k] = Fraction(1, 2)
            if pos == 0:
                ang[0] = Fraction(1, 2) if val > 0 else Fraction(3, 2)
            else:
                ang[pos - 1] = Fraction(0) if val > 0 else Fraction(1)
        angles.append(tuple(ang))
    return tuple(radii), tuple(angles), tuple(signs)


def from_block_spherical_exact(radii, angles, signs, part: Partition):
    """Exact evaluation of the chain at angles that are multiples of pi/2."""
    out = []
    for i in range(part.N):
        d = part.block_sizes[i]
        r = Fraction(radii[i])
        if d == 1:
            out.append(r * signs[i])
            continue
        vals = [Fraction(0)] * d
        prefix = r
        for k in range(d - 1, 0, -1):
            phi = Fraction(angles[i][k - 1]) % 2
            if phi not in _EXACT_COS:
                raise SingularPointError("exact chain only defined at multiples of pi/2")
            vals[k] = prefix * _EXACT_COS[phi]
            prefix *= _EXACT_SIN[phi]
        vals[0] = prefix
        out.extend(vals)
    return tuple(out)
