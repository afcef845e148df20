import math

import numpy as np
import pytest

import shatterlab
from shatterlab import (
    DensityMatrix,
    Distribution,
    DomainPoint,
    Ensemble,
    LabeledExample,
    SfatCache,
    discretize_hypotheses,
    fat,
    generic_private_learner,
)
from shatterlab.classes import four_constants
from shatterlab.errors import OutOfRange
from shatterlab.seeding import child_rng


def test_every_export_resolves():
    missing = [name for name in shatterlab.__all__ if not hasattr(shatterlab, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(shatterlab.__all__)) == len(shatterlab.__all__)


KET0 = DensityMatrix(np.array([[1, 0], [0, 0]], dtype=complex))


@pytest.mark.parametrize("build", [
    lambda: Distribution((math.nan,)),
    lambda: Ensemble((KET0,), (math.nan,)),
    lambda: fat(four_constants(), math.nan),
    lambda: SfatCache(four_constants(), math.nan),
    lambda: generic_private_learner(
        discretize_hypotheses(1, 1 / 2), (LabeledExample(DomainPoint(0), 0.5),),
        math.nan, 1 / 2, child_rng(0)),
], ids=["distribution", "ensemble_weight", "fat_margin", "sfat_margin", "private_epsilon"])
def test_range_guards_reject_nan(build):
    with pytest.raises(OutOfRange):
        build()
