"""One-way communication: evaluating concepts, and next-bit recovery from it.

A shattering tree of depth d turns any one-way protocol for approximate
concept evaluation into a protocol for the next-bit (augmented index) task:
Alice descends the shared tree by her full bit string to a leaf concept, Bob
descends by his prefix to an internal node, they evaluate Alice's concept at
Bob's node point, and Bob reports whether the value clears the node
threshold.  The tree margins make the answer exact whenever the evaluation is
zeta-accurate, so the evaluation cost is bounded below by the tree depth
times 1 - H(failure rate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concepts import Concept, ConceptClass, binary_entropy
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


@dataclass(frozen=True)
class ProtocolRun:
    bits_sent: int
    bob_output: int
    success: bool


class BaselineEvalProtocol:
    """Alice sends her concept's index; Bob evaluates exactly (zero error)."""

    def __init__(self, cls: ConceptClass):
        self.cls = cls
        self.bits = math.ceil(math.log2(len(cls))) if len(cls) > 1 else 0

    def run(self, concept: Concept, x: int, rng: np.random.Generator) -> float:
        return concept.values[x]


class CorruptedEvalProtocol:
    """Wraps a protocol; with the given rate Bob receives 1 - f(x) instead."""

    def __init__(self, inner: BaselineEvalProtocol, failure_rate: float):
        if not 0 <= failure_rate < 1:
            raise OutOfRange(f"failure rate must lie in [0, 1), got {failure_rate}")
        self.inner = inner
        self.failure_rate = failure_rate
        self.bits = inner.bits

    def run(self, concept: Concept, x: int, rng: np.random.Generator) -> float:
        good = self.inner.run(concept, x, rng)
        if rng.random() < self.failure_rate:
            return 1.0 - good
        return good


def _descend_to_leaf(tree: ShatterTree, bits: str) -> ShatterTree:
    node = tree.node_at(bits)
    # deeper trees than the instance: finish along the leftmost branch
    while not node.is_leaf:
        node = node.left
    return node


def augindex_via_eval(
    cls: ConceptClass,
    tree: ShatterTree,
    instance: AugIndexInstance,
    protocol,
    rng: np.random.Generator,
) -> ProtocolRun:
    """Solve one next-bit instance through an evaluation protocol.

    Bit j of the instance selects the subtree at tree level j (0 left,
    1 right) — the orientation both parties share.  Bob thresholds the
    evaluated value at his node's threshold; ties go to output 0.

    Precondition: `tree` passed `validate_tree` at the margin the protocol's
    accuracy matches.  The check is the caller's, once per tree, not once
    per instance; an unvalidated tree can give wrong answers without an error.
    """
    if tree.depth() < instance.d:
        raise DepthMismatch(
            f"tree depth {tree.depth()} cannot host a depth-{instance.d} instance"
        )
    alice_leaf = _descend_to_leaf(tree, instance.x)
    bob_node = tree.node_at(instance.x[: instance.i - 1])
    b = protocol.run(cls.by_id(alice_leaf.leaf), bob_node.x, rng)
    output = 1 if b > bob_node.a else 0
    return ProtocolRun(
        bits_sent=protocol.bits,
        bob_output=output,
        success=output == int(instance.x[instance.i - 1]),
    )


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

