"""Exact sequential fat-shattering dimension with witness trees.

The central recursion (Rakhlin, Sridharan and Tewari): a subset V has
sfat(V) >= 1 + min(sfat(V_L), sfat(V_R)) whenever some point x and threshold a
split it into nonempty V_L = {f : f(x) <= a - zeta} and
V_R = {f : f(x) >= a + zeta}; sfat(V) is the best such value, or 0 when no
admissible split exists.

Every split comes from masks built once per (class, margin).  For each point
x and each value v of the *whole class* at x, with w the smallest class value
>= v + 2*zeta, the pair is LE = {f : f(x) <= v}, GE = {f : f(x) >= w} at the
threshold a = (v + w) / 2, and a split of V is (V & LE, V & GE).  Its low side
lies at or below v <= a - zeta and its high side at or above w >= a + zeta
(up to `_MARGIN_TOL`), so every split is admissible.  The pairs are also
complete: an admissible split at x whose low side tops out at u is dominated
by the pair at u, whose low side is the same and whose high side, everything
at or above u + 2*zeta, is a superset.

sfat is monotone under taking subsets, so dominated splits never win.  Within
one point LE grows and GE shrinks as v grows, so the scan skips a pair with an
empty or repeated low side (the earlier pair dominates it) and stops at the
first empty high side.

The search answers a decision, "is sfat(V) >= k?" (`SfatCache.at_least`): it
holds when some split has both sides at least k - 1.  A parent split asks
only that of each side, never a side's exact value.  The memo keeps proven
bounds lo <= sfat(V) <= hi per mask, starting from lo = 0 and
hi = floor(log2 |V|) (a tree of depth d has 2^d distinct leaves).  A query
the bounds decide costs one lookup.  Otherwise the scan skips a side smaller
than 2^(k - 1), and stops a point at such a high side, since it only shrinks;
it asks the smaller side first, and stops at the first split that passes,
raising lo to k, or lowers hi to k - 1 when none does.  Every stored bound is
proven, so no answer depends on the order of the queries, and the exact value
is found by deepening from lo until a query fails.

Also here: the non-sequential fat-shattering dimension, by brute force over
point sets with the same split pairs, and a Littlestone oracle that
shares no code with sfat; both cross-check sfat.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .concepts import ConceptClass, _json_number
from .errors import EmptySubset, InvalidTree, NotBoolean, OutOfRange, TooLarge

#: comparison slack so grid values sitting exactly on a margin boundary are
#: classified inclusively despite float rounding
_MARGIN_TOL = 1e-12

#: slack of `validate_tree`'s margin checks: a witness's split values may sit
#: exactly 2*zeta apart up to float rounding
_TREE_TOL = 1e-9

#: cap on the concepts of an exact sfat or ldim; the row masks are Python ints
#: of any width, so this only stands in for the cost of the search
MAX_CONCEPTS = 64


@dataclass(frozen=True)
class ShatterTree:
    """A complete binary witness tree for a shattering claim.

    Internal nodes carry a domain point index and threshold; every concept
    reachable through the left subtree stays at least the margin below the
    threshold at x, and through the right subtree at least the margin above.
    Leaves carry a witness concept id.
    """

    leaf: Optional[int] = None
    x: Optional[int] = None
    a: Optional[float] = None
    left: Optional["ShatterTree"] = None
    right: Optional["ShatterTree"] = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    def depth(self) -> int:
        return 0 if self.is_leaf else 1 + self.left.depth()

    def node_at(self, path: str) -> "ShatterTree":
        """Follow a left/right bit string ('0' left, '1' right) from the root."""
        node = self
        for bit in path:
            node = node.right if bit == "1" else node.left
        return node

    def leaf_paths(self) -> list[tuple[str, int]]:
        """All (root-down bit path, leaf concept id) pairs, left-to-right."""
        if self.is_leaf:
            return [("", self.leaf)]
        out = [("0" + p, c) for p, c in self.left.leaf_paths()]
        out += [("1" + p, c) for p, c in self.right.leaf_paths()]
        return out


@dataclass(frozen=True)
class DimensionResult:
    dimension: int
    witness: ShatterTree


def sfat_empty_convention() -> int:
    """Sentinel dimension for an empty subset.

    Set below 0 (the dimension of every singleton) so that an empty super-bin
    can never tie with a populated one in the online learner's argmax.
    """
    return -1


def _point_masks(col: list[float], margin: float) -> list[tuple[float, int, int]]:
    """(a, LE, GE) of one point: one triple per distinct value v, ascending.

    `col` holds the point's value under each concept row.  LE holds the rows
    valued <= v, GE the rows valued >= w, the smallest value >= v + 2*margin
    (less `_MARGIN_TOL`), and a = (v + w) / 2; values with no w are left out.
    """
    rows = sorted(range(len(col)), key=col.__getitem__)
    vals = [col[r] for r in rows]
    prefix = [0]  # prefix[i]: the first i rows in value order
    for r in rows:
        prefix.append(prefix[-1] | 1 << r)
    full = prefix[-1]
    n = len(vals)
    gap = 2.0 * margin
    out = []
    for i, v in enumerate(vals, 1):
        if i < n and vals[i] == v:
            continue  # LE is complete at the last row holding v
        j = bisect_left(vals, v + gap - _MARGIN_TOL)
        if j == n:
            break
        out.append(((v + vals[j]) / 2.0, prefix[i], full ^ prefix[j]))
    return out


class SfatCache:
    """Memoized sfat computation for one (class, margin) pair.

    The online learner queries the dimension of many overlapping surviving
    subsets of a fixed class at a fixed margin; this cache shares all their
    subproblems.  Subsets are bitmasks over concept rows.  A cache instance is
    confined to one game/sampler instance and is not thread-safe.
    """

    def __init__(self, cls: ConceptClass, zeta: float):
        if len(cls) > MAX_CONCEPTS:
            raise TooLarge(
                f"sfat is capped at {MAX_CONCEPTS} concepts to bound its cost "
                f"(not by its masks), got {len(cls)}"
            )
        if not zeta > 0:
            raise OutOfRange(f"margin must be positive, got {zeta}")
        self.cls = cls
        self.zeta = float(zeta)
        self._memo: dict[int, tuple[int, int]] = {}  # mask -> proven (lo, hi)
        self._pairs = [_point_masks(col, self.zeta) for col in cls.table.T.tolist()]

    def full_mask(self) -> int:
        return (1 << len(self.cls)) - 1

    def mask_of_ids(self, ids: Iterable[int]) -> int:
        mask = 0
        for cid in ids:
            mask |= 1 << self.cls.row_of(cid)
        return mask

    def ids_of_mask(self, mask: int) -> frozenset[int]:
        return frozenset(
            c.id for row, c in enumerate(self.cls.concepts) if mask >> row & 1
        )

    def at_least(self, mask: int, k: int) -> bool:
        """Whether sfat(V) >= k for the nonempty subset V of `mask`.

        Answered from the memo's proven bounds when they decide it; otherwise
        by the first split whose two sides both reach k - 1, which raises the
        lower bound to k, or by exhausting the splits, which lowers the upper
        bound to k - 1.
        """
        lo, hi = self._memo.get(mask) or (0, mask.bit_count().bit_length() - 1)
        if k <= lo:
            return True
        if k > hi:
            return False
        need = k - 1
        for pairs in self._pairs:
            prev = 0
            for _, le, ge in pairs:
                right = mask & ge
                if not right:
                    break  # GE only shrinks as v grows
                n_right = right.bit_count()
                if n_right.bit_length() <= need:
                    break  # floor(log2 |right|) < k - 1, and right only shrinks
                left = mask & le
                if not left or left == prev:
                    continue  # empty, or dominated by the previous pair
                prev = left
                n_left = left.bit_count()
                if n_left.bit_length() <= need:
                    continue
                small, large = (left, right) if n_left <= n_right else (right, left)
                if self.at_least(small, need) and self.at_least(large, need):
                    self._memo[mask] = (k, hi)
                    return True
        self._memo[mask] = (lo, need)
        return False

    def dimension_of_mask(self, mask: int) -> int:
        if mask == 0:
            raise EmptySubset("sfat of an empty subset is undefined; see sfat_empty_convention")
        k = self._memo.get(mask, (0,))[0]
        while self.at_least(mask, k + 1):
            k += 1
        return k

    def score(self, mask: int) -> int:
        """Dimension with the empty-subset sentinel instead of an error."""
        return sfat_empty_convention() if mask == 0 else self.dimension_of_mask(mask)

    def witness_of_mask(self, mask: int) -> ShatterTree:
        """Extract the first witness tree.

        Split pairs are tried in domain order, then ascending class value; a
        leaf is the lowest row of its subset.
        """
        d = self.dimension_of_mask(mask)
        return self._build(mask, d)

    def _build(self, mask: int, depth: int) -> ShatterTree:
        if depth == 0:
            row = (mask & -mask).bit_length() - 1
            return ShatterTree(leaf=self.cls.concepts[row].id)
        for x, pairs in enumerate(self._pairs):
            for a, le, ge in pairs:
                left, right = mask & le, mask & ge
                if not (left and right):
                    continue
                # the smaller side first, as `at_least` asks, so that the value
                # search has already settled most of these questions
                small, large = sorted((left, right), key=int.bit_count)
                if self.at_least(small, depth - 1) and self.at_least(large, depth - 1):
                    return ShatterTree(
                        x=x,
                        a=a,
                        left=self._build(left, depth - 1),
                        right=self._build(right, depth - 1),
                    )
        raise AssertionError("witness extraction disagreed with memoized dimension")


def sfat(cls: ConceptClass, zeta: float) -> DimensionResult:
    """Exact sfat at margin zeta of the whole class, with its first witness tree.

    A subset's dimension is `SfatCache.dimension_of_mask` of its mask.
    """
    cache = SfatCache(cls, zeta)
    mask = cache.full_mask()
    d = cache.dimension_of_mask(mask)
    return DimensionResult(dimension=d, witness=cache.witness_of_mask(mask))


def validate_tree(cls: ConceptClass, tree: ShatterTree, zeta: float) -> None:
    """Check completeness and every leaf's margin constraints; raise InvalidTree."""
    paths = tree.leaf_paths()
    depth = tree.depth()
    for path, cid in paths:
        if len(path) != depth:
            raise InvalidTree("witness tree is not complete")
        f = cls.by_id(cid)
        node = tree
        for bit in path:
            v = f.values[node.x]
            if bit == "0":
                if not v <= node.a - zeta + _TREE_TOL:
                    raise InvalidTree(
                        f"leaf {cid}: value {v} at x={node.x} exceeds {node.a} - {zeta}"
                    )
                node = node.left
            else:
                if not v >= node.a + zeta - _TREE_TOL:
                    raise InvalidTree(
                        f"leaf {cid}: value {v} at x={node.x} is below {node.a} + {zeta}"
                    )
                node = node.right


def fat(cls: ConceptClass, gamma: float) -> int:
    """Non-sequential fat-shattering dimension by brute force (|X| <= 12)."""
    if cls.domain_size > 12:
        raise TooLarge("fat-shattering brute force is limited to 12 domain points")
    if not gamma > 0:
        raise OutOfRange(f"margin must be positive, got {gamma}")
    n = len(cls)
    full = (1 << n) - 1
    splits = [_point_masks(col, gamma) for col in cls.table.T.tolist()]

    def shatters(points: tuple[int, ...]) -> bool:
        # cells = one concept mask per sign pattern over the points chosen so far;
        # a single (lmask, rmask) witness per point is shared by all cells
        def extend(cells: list[int], remaining: tuple[int, ...]) -> bool:
            if not remaining:
                return True
            x, rest = remaining[0], remaining[1:]
            need = 1 << len(rest)
            for _, lmask, rmask in splits[x]:
                nxt = []
                ok = True
                for cell in cells:
                    lo_cell, hi_cell = cell & lmask, cell & rmask
                    if lo_cell.bit_count() < need or hi_cell.bit_count() < need:
                        ok = False
                        break
                    nxt.append(lo_cell)
                    nxt.append(hi_cell)
                if ok and extend(nxt, rest):
                    return True
            return False

        return extend([full], points)

    upper = min(cls.domain_size, n.bit_length() - 1 if n > 1 else 0)
    for k in range(upper, 0, -1):
        if any(shatters(combo) for combo in combinations(range(cls.domain_size), k)):
            return k
    return 0


def ldim_oracle(cls: ConceptClass) -> int:
    """Littlestone dimension of a {0,1}-valued class, by direct recursion.

    Splits on exact label values with no margins; the independent cross-check
    for sfat on Boolean classes.
    """
    table = cls.table
    if not ((table == 0.0) | (table == 1.0)).all():
        raise NotBoolean("ldim_oracle needs all concept values in {0, 1}")
    n = len(cls)
    if n > MAX_CONCEPTS:
        raise TooLarge(
            f"ldim is capped at {MAX_CONCEPTS} concepts to bound its cost "
            f"(not by its masks), got {n}"
        )
    zero_masks = []
    one_masks = []
    for x in range(cls.domain_size):
        zm = om = 0
        for r in range(n):
            if table[r, x] == 0.0:
                zm |= 1 << r
            else:
                om |= 1 << r
        zero_masks.append(zm)
        one_masks.append(om)

    memo: dict[int, int] = {}

    def rec(mask: int) -> int:
        got = memo.get(mask)
        if got is not None:
            return got
        best = 0
        if mask.bit_count() > 1:
            for x in range(cls.domain_size):
                v0, v1 = mask & zero_masks[x], mask & one_masks[x]
                if v0 and v1:
                    best = max(best, 1 + min(rec(v0), rec(v1)))
        memo[mask] = best
        return best

    return rec((1 << n) - 1)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def tree_to_dict(tree: ShatterTree) -> dict:
    """The tree as nested dicts: ``{"leaf": id}`` or ``{"x", "a", "left", "right"}``."""
    if tree.is_leaf:
        return {"leaf": tree.leaf}
    return {"x": tree.x, "a": tree.a,
            "left": tree_to_dict(tree.left), "right": tree_to_dict(tree.right)}


def tree_to_json(tree: ShatterTree) -> str:
    return json.dumps(tree_to_dict(tree), sort_keys=True)


def tree_from_json(text: str) -> ShatterTree:
    """Read `tree_to_json`'s form: `x` and `leaf` must be JSON integers and `a`
    a number, as in `class_from_json`; TypeError or ValueError where int() or
    float() would truncate or convert."""
    def dec(obj) -> ShatterTree:
        if "leaf" in obj:
            return ShatterTree(leaf=_json_number(obj["leaf"], "leaf", integer=True))
        return ShatterTree(
            x=_json_number(obj["x"], "x", integer=True),
            a=float(_json_number(obj["a"], "a")),
            left=dec(obj["left"]),
            right=dec(obj["right"]),
        )

    return dec(json.loads(text))
