import inspect
import math
import os
import sys

import numpy as np
import pytest

import shatterlab
from shatterlab import cli
from shatterlab import (
    Concept,
    DensityMatrix,
    Distribution,
    Ensemble,
    ExponentialMechanism,
    SfatCache,
    StableLearner,
    build_probabilistic_representation,
    discretize_hypotheses,
    loss,
    sfat_holevo_bound,
)
from shatterlab.classes import four_constants
from shatterlab.errors import OutOfRange


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
    lambda: SfatCache(four_constants(), math.nan),
    lambda: ExponentialMechanism(discretize_hypotheses(1, 1 / 2), math.nan, 1 / 2),
    lambda: loss(Concept(0, (0.2,)), Concept(1, (0.9,)), math.nan, Distribution((1.0,))),
    lambda: sfat_holevo_bound(math.nan, 0.9),
    lambda: build_probabilistic_representation(_no_replays, 1 / 2, math.nan, 1.0, 1, 0),
    lambda: build_probabilistic_representation(_no_replays, 1 / 2, 1 / 4, math.nan, 1, 0),
    lambda: build_probabilistic_representation(_no_replays, 1 / 2, -1.0, 1.0, 1, 0),
    lambda: build_probabilistic_representation(_no_replays, 1 / 2, 1 / 4, 0.0, 1, 0),
    lambda: ExponentialMechanism(discretize_hypotheses(1, 1 / 2), 1.0, 1 / 2)(
        ((0, math.nan),), np.random.default_rng(0)),
    lambda: StableLearner(four_constants(), 1 / 4, math.nan),
    lambda: StableLearner(four_constants(), 1 / 4, math.inf),
], ids=["distribution", "ensemble_weight", "sfat_margin", "private_epsilon",
        "loss_radius", "holevo_chi", "harvest_alpha", "harvest_epsilon", "harvest_alpha_negative", "harvest_epsilon_zero",
        "sample_label", "stable_alpha", "stable_alpha_infinite"])
def test_range_guards_reject_nan(build):
    with pytest.raises(OutOfRange):
        build()


#: exports no run reaches, kept on purpose: the serial random access code
#: and its Holevo ceiling are to be wired into the quantum kind, and the
#: harvest is the paper's probabilistic representation, which the
#: acceptance suite checks
UNREACHED = ("SracCode", "srac_from_tree", "sfat_holevo_bound", "expectation",
             "build_probabilistic_representation")

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "configs")


def code_objects(obj):
    """The code of a function, or of every method of a class."""
    if inspect.isfunction(obj):
        return {obj.__code__}
    codes = set()
    for attr in vars(obj).values():
        # plain, static and class methods, properties and cached properties
        for fn in (attr, getattr(attr, "__func__", None), getattr(attr, "fget", None),
                   getattr(attr, "func", None)):
            if inspect.isfunction(fn):
                codes.add(fn.__code__)
    return codes


def test_every_export_is_reached(tmp_path):
    # every kind's golden config, plus the round_to_grid game, whose noise no other plays
    jobs = [[kind, os.path.join(GOLDEN, f"{kind}.json")] for kind in cli.KINDS]
    jobs.append(["online", os.path.join(GOLDEN, "online_round_to_grid.json")])
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main([*job, "--out", str(tmp_path / "out")]) for job in jobs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(jobs)
    unreached = {name for name in shatterlab.__all__
                 if not code_objects(getattr(shatterlab, name)) & entered}
    assert unreached == set(UNREACHED)
