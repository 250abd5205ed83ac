"""Cross-allocator semantic fuzz: every allocator on random functions.

The value interpreter is the oracle: whatever the allocator does (spill,
split, coalesce, PBQP-reduce), the observable behaviour must not change.
A slice of the larger offline fuzz, sized for CI.
"""

import pytest

from repro.alloc import GreedyAllocator, PbqpAllocator
from repro.banks import BankedRegisterFile
from repro.sim import observably_equivalent
from repro.workloads import random_function

ALLOCATORS = {
    "greedy": GreedyAllocator,
    "pbqp": PbqpAllocator,
}


@pytest.mark.parametrize("name", list(ALLOCATORS))
@pytest.mark.parametrize("seed", [11, 42, 137])
def test_allocator_preserves_semantics(name, seed):
    fn = random_function(seed, max_ops=18)
    rf = BankedRegisterFile(16, 2)
    result = ALLOCATORS[name](rf).run(fn)
    assert observably_equivalent(fn, result.function, seed=seed), (name, seed)


@pytest.mark.parametrize("name", list(ALLOCATORS))
def test_allocator_tight_file(name):
    fn = random_function(77, max_ops=15)
    rf = BankedRegisterFile(12, 4)
    result = ALLOCATORS[name](rf).run(fn)
    assert observably_equivalent(fn, result.function, seed=77), name
