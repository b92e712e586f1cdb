"""Block partitions: the D Cartesian coordinates split into N contiguous blocks."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidPartitionError


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
