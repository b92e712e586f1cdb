"""Partition construction."""

import pytest

from blocksep.errors import InvalidPartitionError
from blocksep.partition import make_partition


def test_make_partition_basic():
    p = make_partition([2, 2])
    assert p.D == 4 and p.N == 2 and p.offsets == (0, 2, 4)
    p3 = make_partition([1, 1, 1])
    assert p3.D == 3 and p3.N == 3


def test_make_partition_rejects_bad_blocks():
    with pytest.raises(InvalidPartitionError):
        make_partition([0, 2])
    with pytest.raises(InvalidPartitionError):
        make_partition([])
    with pytest.raises(InvalidPartitionError):
        make_partition([2, -1])
