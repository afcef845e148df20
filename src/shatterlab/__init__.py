"""shatterlab: executable checks for a chain of learning-theory guarantees.

Robust online learning over finite real-valued concept classes, global
stability, private PAC learning, one-way communication reductions, and
Holevo-information bounds for small quantum state classes, with every
guarantee the library claims wired to a test or an experiment.
"""

from .concepts import (
    Concept,
    ConceptClass,
    Distribution,
    binary_entropy,
    bin_midpoints,
    loss,
    round_to_grid,
)
from .dimensions import (
    DimensionResult,
    SfatCache,
    ShatterTree,
    sfat,
    sfat_empty_convention,
    validate_tree,
)
from .online import (
    Transcript,
    mistake_only_noise,
    prediction_grid,
    run_online_game,
    run_shadow_stream,
    run_weak_forcing_game,
)
from .stability import (
    ExtSample,
    Fail,
    StabilityReport,
    StableLearner,
    sample_ext,
    stability_experiment,
)
from .privacy import (
    DpTestReport,
    ExponentialMechanism,
    HypothesisCollection,
    build_probabilistic_representation,
    discretize_hypotheses,
    dp_test,
)
from .communication import (
    AugIndexInstance,
    augindex_via_eval,
    cc_lower_bound,
    index_bits,
)
from .quantum import (
    DensityMatrix,
    Ensemble,
    Measurement,
    SracCode,
    audenaert_bound,
    expectation,
    holevo_chi,
    materialize_concept_class,
    max_holevo,
    sfat_holevo_bound,
    srac_from_tree,
    von_neumann_entropy,
)

__all__ = [
    "Concept",
    "ConceptClass",
    "Distribution",
    "binary_entropy",
    "bin_midpoints",
    "loss",
    "round_to_grid",
    "DimensionResult",
    "SfatCache",
    "ShatterTree",
    "sfat",
    "sfat_empty_convention",
    "validate_tree",
    "Transcript",
    "mistake_only_noise",
    "prediction_grid",
    "run_online_game",
    "run_shadow_stream",
    "run_weak_forcing_game",
    "ExtSample",
    "Fail",
    "StabilityReport",
    "StableLearner",
    "sample_ext",
    "stability_experiment",
    "DpTestReport",
    "ExponentialMechanism",
    "HypothesisCollection",
    "build_probabilistic_representation",
    "discretize_hypotheses",
    "dp_test",
    "AugIndexInstance",
    "augindex_via_eval",
    "cc_lower_bound",
    "index_bits",
    "DensityMatrix",
    "Ensemble",
    "Measurement",
    "SracCode",
    "audenaert_bound",
    "expectation",
    "holevo_chi",
    "materialize_concept_class",
    "max_holevo",
    "sfat_holevo_bound",
    "srac_from_tree",
    "von_neumann_entropy",
]
