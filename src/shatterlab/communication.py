"""One-way communication: evaluating concepts, and next-bit recovery from it.

A shattering tree of depth d turns any one-way protocol for approximate
concept evaluation into a protocol for the next-bit (augmented index) task:
Alice descends the shared tree by her full bit string to a leaf concept, Bob
descends by his prefix to an internal node, they evaluate Alice's concept at
Bob's node point, and Bob reports whether the value clears the node
threshold.  The protocol under test sends the concept's index and flips the
value with a stated failure rate.  The tree margins make the answer exact
whenever the evaluation is zeta-accurate, so the evaluation cost is bounded
below by the tree depth times 1 - H(failure rate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concepts import ConceptClass, binary_entropy
from .dimensions import ShatterTree
from .errors import DepthMismatch, OutOfRange


@dataclass(frozen=True)
class AugIndexInstance:
    """Alice holds bits x (length d); Bob holds the first i-1 of them and
    must output bit i."""

    d: int
    x: str
    i: int

    def __post_init__(self) -> None:
        if len(self.x) != self.d or any(b not in "01" for b in self.x):
            raise OutOfRange(f"x must be a {self.d}-bit string, got {self.x!r}")
        if not 1 <= self.i <= self.d:
            raise OutOfRange(f"index i must lie in 1..{self.d}, got {self.i}")


def index_bits(cls: ConceptClass) -> int:
    """The message that names one concept of the class: ceil(log2 |C|) bits."""
    return math.ceil(math.log2(len(cls))) if len(cls) > 1 else 0


def augindex_via_eval(
    cls: ConceptClass,
    tree: ShatterTree,
    instance: AugIndexInstance,
    failure_rate: float,
    rng: np.random.Generator,
) -> bool:
    """Solve one next-bit instance by evaluating Alice's concept; True on success.

    Alice sends her leaf concept's index (`index_bits(cls)` bits), and Bob
    reads its value f(x) at his node point, which with probability
    `failure_rate` arrives as 1 - f(x).  Bit j of the instance selects the
    subtree at tree level j (0 left, 1 right) — the orientation both parties
    share; a tree deeper than the instance finishes along the leftmost
    branch.  Bob thresholds the value at his node's threshold; ties go to
    output 0.  A rate of 0 draws nothing from `rng`.

    Precondition: `tree` passed `validate_tree` at the margin the evaluation's
    accuracy matches.  The check is the caller's, once per tree, not once
    per instance; an unvalidated tree can give wrong answers without an error.
    """
    if not 0 <= failure_rate < 1:
        raise OutOfRange(f"failure rate must lie in [0, 1), got {failure_rate}")
    depth = tree.depth()
    if depth < instance.d:
        raise DepthMismatch(
            f"tree depth {depth} cannot host a depth-{instance.d} instance"
        )
    alice_leaf = tree.node_at(instance.x + "0" * (depth - instance.d))
    bob_node = tree.node_at(instance.x[: instance.i - 1])
    b = cls.by_id(alice_leaf.leaf).values[bob_node.x]
    if failure_rate and rng.random() < failure_rate:
        b = 1.0 - b
    return (b > bob_node.a) == (instance.x[instance.i - 1] == "1")


def all_instances(d: int):
    """Every (x, i) next-bit instance at depth d."""
    for k in range(2**d):
        x = format(k, f"0{d}b")
        for i in range(1, d + 1):
            yield AugIndexInstance(d=d, x=x, i=i)


def cc_lower_bound(sfat_dim: int, epsilon: float) -> float:
    """(1 - H(eps)) * sfat: one-way cost floor, classical or quantum alike."""
    if not 0 <= epsilon < 0.5:
        raise OutOfRange(f"epsilon must lie in [0, 1/2), got {epsilon}")
    if sfat_dim < 0:
        raise OutOfRange(f"sfat_dim must be nonnegative, got {sfat_dim}")
    return (1.0 - binary_entropy(epsilon)) * sfat_dim

