import pytest

from psibench.models import (adem_failure_ring, dual_numbers_ring,
                             projective_space_ring)
from psibench.rings import GeneratorSymbol, WeightedRing


@pytest.fixture
def dual3():
    return dual_numbers_ring(3, 2)


@pytest.fixture
def broken3():
    return adem_failure_ring(3)


@pytest.fixture
def cp_p2():
    return projective_space_ring(2, 4)


@pytest.fixture
def free_ring():
    """Relation-free ring on x (weight 2) and y (weight 4), D = 8."""
    x = GeneratorSymbol("x", (), 2)
    y = GeneratorSymbol("y", (), 4)
    return WeightedRing([x, y], 8)


@pytest.fixture
def rename_generator():
    """A function renaming one generator in a document: every generator id
    and theta equal to ``old``, and ``[old]`` in names such as
    ``Z/2[x] (d=1)``."""
    def rename(doc: dict, old: str, new: str) -> dict:
        def walk(obj):
            if isinstance(obj, dict):
                return {key: walk(value) for key, value in obj.items()}
            if isinstance(obj, list):
                return [walk(item) for item in obj]
            if isinstance(obj, str):
                return new if obj == old else obj.replace(f"[{old}]", f"[{new}]")
            return obj
        return walk(doc)
    return rename
