import math

import numpy as np
import pytest

import shatterlab
from shatterlab import (
    Concept,
    DensityMatrix,
    Distribution,
    Ensemble,
    ExponentialMechanism,
    SfatCache,
    build_probabilistic_representation,
    discretize_hypotheses,
    fat,
    loss,
    sfat_holevo_bound,
)
from shatterlab.classes import four_constants
from shatterlab.errors import OutOfRange
from shatterlab.privacy import generic_learner_sample_size


def test_every_export_resolves():
    missing = [name for name in shatterlab.__all__ if not hasattr(shatterlab, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(shatterlab.__all__)) == len(shatterlab.__all__)


KET0 = DensityMatrix(np.array([[1, 0], [0, 0]], dtype=complex))


def _no_replays(sample, rng):
    raise AssertionError("the range guard must trip before any replay")


@pytest.mark.parametrize("build", [
    lambda: Distribution((math.nan,)),
    lambda: Ensemble((KET0,), (math.nan,)),
    lambda: fat(four_constants(), math.nan),
    lambda: SfatCache(four_constants(), math.nan),
    lambda: ExponentialMechanism(discretize_hypotheses(1, 1 / 2), math.nan, 1 / 2),
    lambda: loss(Concept(0, (0.2,)), Concept(1, (0.9,)), math.nan, Distribution((1.0,))),
    lambda: generic_learner_sample_size(4, math.nan, 1.0),
    lambda: generic_learner_sample_size(4, 0.5, math.nan),
    lambda: sfat_holevo_bound(math.nan, 0.9),
    lambda: build_probabilistic_representation(_no_replays, 1 / 2, math.nan, 1.0, 1, 0),
    lambda: build_probabilistic_representation(_no_replays, 1 / 2, 1 / 4, math.nan, 1, 0),
    lambda: build_probabilistic_representation(_no_replays, 1 / 2, -1.0, 1.0, 1, 0),
    lambda: build_probabilistic_representation(_no_replays, 1 / 2, 1 / 4, 0.0, 1, 0),
    lambda: ExponentialMechanism(discretize_hypotheses(1, 1 / 2), 1.0, 1 / 2)(
        ((0, math.nan),), np.random.default_rng(0)),
], ids=["distribution", "ensemble_weight", "fat_margin", "sfat_margin", "private_epsilon",
        "loss_radius", "sample_size_alpha", "sample_size_epsilon", "holevo_chi",
        "harvest_alpha", "harvest_epsilon", "harvest_alpha_negative", "harvest_epsilon_zero",
        "sample_label"])
def test_range_guards_reject_nan(build):
    with pytest.raises(OutOfRange):
        build()
