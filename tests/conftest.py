import pytest
from hypothesis import settings

from shatterlab import Concept, ConceptClass, Distribution

# derandomized: property tests replay the same examples on every run, and a
# loaded machine cannot fail them on the per-example deadline
settings.register_profile("shatterlab", derandomize=True, deadline=None)
settings.load_profile("shatterlab")


@pytest.fixture
def four_constants():
    return ConceptClass(
        1, tuple(Concept(i, (v,)) for i, v in enumerate([0.0, 1 / 3, 2 / 3, 1.0]))
    )


@pytest.fixture
def two_constants_01():
    return ConceptClass(1, (Concept(0, (0.0,)), Concept(1, (1.0,))))


@pytest.fixture
def two_constants_19():
    return ConceptClass(1, (Concept(0, (0.1,)), Concept(1, (0.9,))))


def make_class(values_rows):
    return ConceptClass(
        len(values_rows[0]),
        tuple(Concept(i, tuple(row)) for i, row in enumerate(values_rows)),
    )


def mask_of_ids(cls, ids):
    """The row mask of the concepts of `cls` with the given ids."""
    mask = 0
    for cid in ids:
        mask |= 1 << cls.row_of(cid)
    return mask


def ids_of_mask(cls, mask):
    """The ids of the concepts of `cls` in the row mask `mask`."""
    return frozenset(c.id for row, c in enumerate(cls.concepts) if mask >> row & 1)


@pytest.fixture
def uniform2():
    return Distribution.uniform(2)
