import functools
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shatterlab import (
    Concept,
    ConceptClass,
    SfatCache,
    dimensions,
    sfat,
    sfat_empty_convention,
    validate_tree,
)
from shatterlab.classes import boolean_cube, generate_class
from shatterlab.concepts import bin_midpoints
from shatterlab.dimensions import ShatterTree, tree_to_dict
from shatterlab.errors import EmptySubset, InvalidTree, TooLarge
from shatterlab.seeding import child_rng
from tests.conftest import make_class, mask_of_ids
from tests.oracles import NotBoolean, ldim_oracle


class TestSfat:
    def test_singleton_is_zero(self):
        cls = make_class([[0.3, 0.7]])
        assert sfat(cls, 1 / 8).dimension == 0

    def test_four_constants_hand_tree(self, four_constants):
        res = sfat(four_constants, 1 / 6)
        assert res.dimension == 2
        validate_tree(four_constants, res.witness, 1 / 6)
        # the first maximizing split: root threshold 1/2, children 1/6 and 5/6
        assert res.witness.a == pytest.approx(0.5)
        assert res.witness.left.a == pytest.approx(1 / 6)
        assert res.witness.right.a == pytest.approx(5 / 6)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_boolean_cube(self, k):
        cube = boolean_cube(k)
        assert sfat(cube, 1 / 4).dimension == k

    def test_split_hidden_behind_close_values(self):
        # the pair (0, 0.8) admits threshold 0.4 at margin 0.2 even though no
        # two consecutive values are 2*margin apart
        cls = make_class([[0.0], [0.39], [0.41], [0.8]])
        assert sfat(cls, 0.2).dimension == 1

    def test_empty_subset_raises(self, four_constants):
        cache = SfatCache(four_constants, 1 / 6)
        with pytest.raises(EmptySubset):
            cache.dimension_of_mask(0)

    def test_subset_monotone(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            cls = generate_class(3, 8, 1 / 4, seed=trial)
            ids = [c.id for c in cls]
            sub = set(
                int(i) for i in rng.choice(ids, size=rng.integers(1, 8), replace=False)
            )
            cache = SfatCache(cls, 1 / 2)
            assert cache.dimension_of_mask(mask_of_ids(cls, sub)) <= sfat(cls, 1 / 2).dimension

    def test_margin_monotone(self):
        for trial in range(20):
            cls = generate_class(3, 10, 1 / 4, seed=100 + trial)
            dims = [sfat(cls, z).dimension for z in (1 / 8, 1 / 4, 1 / 2)]
            assert dims[0] >= dims[1] >= dims[2]

    def test_witness_always_validates(self):
        for trial in range(30):
            cls = generate_class(4, 12, 1 / 4, seed=200 + trial)
            for zeta in (1 / 8, 1 / 4):
                res = sfat(cls, zeta)
                validate_tree(cls, res.witness, zeta)
                assert res.witness.depth() == res.dimension

    def test_deterministic_witness(self):
        cls = generate_class(4, 12, 1 / 4, seed=303)
        a = sfat(cls, 1 / 4)
        b = sfat(cls, 1 / 4)
        assert a.dimension == b.dimension
        assert tree_to_dict(a.witness) == tree_to_dict(b.witness)

    def test_dimension_bounded_by_log_size(self):
        for trial in range(20):
            cls = generate_class(5, 16, 1 / 4, seed=400 + trial)
            assert sfat(cls, 1 / 8).dimension <= 4

    def test_too_many_concepts(self):
        values = np.linspace(0.01, 0.99, 65)
        cls = make_class([[v] for v in values])
        with pytest.raises(TooLarge):
            sfat(cls, 1 / 4)


def oracle_sfat(rows: list, margin: float, tol: float = 1e-9) -> int:
    """sfat of a list of value tuples, straight from the definition; no memo.

    A node at point x with threshold s splits off {f(x) <= s - margin} and
    {f(x) >= s + margin}; every such pair of sides is {f(x) <= u}, {f(x) >= w}
    for two of the rows' values u, w at x with w - u >= 2 * margin, so every
    such pair is tried.  The search stops once it reaches floor(log2 |rows|),
    the most a tree over |rows| leaves can reach.
    """
    cap = len(rows).bit_length() - 1
    best = 0
    for x in range(len(rows[0])):
        values = sorted({f[x] for f in rows})
        for u in values:
            for w in values:
                if best == cap:
                    return best
                if w - u >= 2 * margin - tol:
                    low = oracle_sfat([f for f in rows if f[x] <= u], margin, tol)
                    high = oracle_sfat([f for f in rows if f[x] >= w], margin, tol)
                    best = max(best, 1 + min(low, high))
    return best


class TestOracle:
    def test_hand_classes(self, four_constants):
        assert oracle_sfat([c.values for c in four_constants], 1 / 6) == 2
        assert oracle_sfat([(0.0,), (0.39,), (0.41,), (0.8,)], 0.2) == 1
        assert oracle_sfat([c.values for c in boolean_cube(3)], 1 / 4) == 3

    @pytest.mark.parametrize("boolean", [False, True])
    @pytest.mark.parametrize("nx,nc", [(1, 8), (2, 7), (2, 8), (3, 6), (3, 8)])
    def test_every_subset_agrees(self, nx, nc, boolean):
        for seed in range(3):
            cls = generate_class(nx, nc, 1 / 4, seed=seed, boolean=boolean)
            rows = [c.values for c in cls.concepts]
            for margin in (0.05, 0.1, 0.125, 0.25):
                cache = SfatCache(cls, margin)
                decisions = SfatCache(cls, margin)
                for mask in range(1, 1 << nc):
                    sub = [rows[r] for r in range(nc) if mask >> r & 1]
                    want = oracle_sfat(sub, margin)
                    assert cache.dimension_of_mask(mask) == want, (seed, margin, mask)
                    # every k up to one past floor(log2 |V|), on a cache that
                    # has answered only decisions
                    for k in range(len(sub).bit_length() + 1):
                        assert decisions.at_least(mask, k) == (want >= k), (
                            seed, margin, mask, k,
                        )


def plain_witness(cls, margin, mask):
    """The documented first witness of `mask`, from a plain scan: at each node
    the first `_point_masks` pair, points in domain order and then ascending
    class value, whose two sides both have `oracle_sfat` >= depth - 1; a leaf
    is the lowest row of its subset."""
    rows = [c.values for c in cls.concepts]
    cols = cls.table.T.tolist()

    @functools.lru_cache(maxsize=None)
    def dim(m):
        return oracle_sfat([rows[r] for r in range(len(rows)) if m >> r & 1], margin)

    def build(m, depth):
        if depth == 0:
            return {"leaf": cls.concepts[(m & -m).bit_length() - 1].id}
        for x, col in enumerate(cols):
            for a, le, ge in dimensions._point_masks(col, margin):
                left, right = m & le, m & ge
                if left and right and min(dim(left), dim(right)) >= depth - 1:
                    return {"x": x, "a": a,
                            "left": build(left, depth - 1), "right": build(right, depth - 1)}
        raise AssertionError("no split at the oracle's dimension")

    return build(mask, dim(mask))


class TestWitnessOrder:
    @pytest.mark.parametrize("nx,nc", [(1, 8), (2, 8), (3, 8), (4, 10)])
    def test_witness_is_the_first_split_in_order(self, nx, nc):
        rng = np.random.default_rng(nx * 100 + nc)
        for seed in range(3):
            cls = generate_class(nx, nc, 1 / 4, seed=seed)
            for margin in (0.05, 0.1, 0.125, 0.25):
                cache = SfatCache(cls, margin)
                full = cache.full_mask()
                # the full class first, then random submasks on the same cache
                masks = [full] + [int(m) for m in rng.integers(1, full + 1, size=8)]
                for mask in masks:
                    want = plain_witness(cls, margin, mask)
                    assert tree_to_dict(cache.witness_of_mask(mask)) == want, (seed, margin, mask)


#: values on the 1/20 grid, so margin boundaries are hit exactly
GRID_VALUES = st.sampled_from([k / 20 for k in range(21)])
MARGINS = st.sampled_from([0.05, 0.1, 0.125, 0.25])


@st.composite
def small_tables(draw):
    nx = draw(st.integers(1, 3))
    row = st.lists(GRID_VALUES, min_size=nx, max_size=nx)
    return draw(st.lists(row, min_size=1, max_size=7))


def sfat_of(rows, margin):
    cache = SfatCache(make_class(rows), margin)
    return cache.dimension_of_mask(cache.full_mask())


class TestSfatProperties:
    @given(small_tables(), MARGINS, st.data())
    def test_concept_order(self, rows, margin, data):
        order = data.draw(st.permutations(range(len(rows))))
        assert sfat_of([rows[r] for r in order], margin) == sfat_of(rows, margin)

    @given(small_tables(), MARGINS, st.data())
    def test_point_order(self, rows, margin, data):
        order = data.draw(st.permutations(range(len(rows[0]))))
        permuted = [[row[x] for x in order] for row in rows]
        assert sfat_of(permuted, margin) == sfat_of(rows, margin)

    @given(small_tables(), MARGINS, st.data())
    def test_duplicate_concept(self, rows, margin, data):
        r = data.draw(st.integers(0, len(rows) - 1))
        doubled = rows + [list(rows[r])]
        assert sfat_of(doubled, margin) == sfat_of(rows, margin)
        # the witness holds on values packed closer than 2*margin, and ties
        cls = make_class(doubled)
        res = sfat(cls, margin)
        validate_tree(cls, res.witness, margin)
        assert res.witness.depth() == res.dimension

    @given(small_tables(), MARGINS, st.data())
    def test_query_order(self, rows, margin, data):
        # one cache answering queries in a drawn order agrees with a fresh
        # cache per query: the memo holds only proven bounds
        cls = make_class(rows)
        shared = SfatCache(cls, margin)
        queries = data.draw(st.lists(
            st.tuples(st.integers(1, shared.full_mask()), st.integers(0, 3)), max_size=12,
        ))
        for mask, k in queries:
            assert shared.at_least(mask, k) == SfatCache(cls, margin).at_least(mask, k)
            want = SfatCache(cls, margin).dimension_of_mask(mask)
            assert shared.dimension_of_mask(mask) == want

    @given(small_tables(), MARGINS, st.data())
    def test_monotone_under_subsets(self, rows, margin, data):
        cache = SfatCache(make_class(rows), margin)
        outer = data.draw(st.integers(1, cache.full_mask()))
        inner = outer & data.draw(st.integers(0, cache.full_mask()))
        if inner:
            assert cache.dimension_of_mask(inner) <= cache.dimension_of_mask(outer)


class TestDocumentedLimitCorner:
    @pytest.mark.parametrize("class_seed", [1, 2, 3])
    def test_subset_count_guard(self, class_seed):
        # (8, 64, 1/20) at margin 1/10: a count, not a time, so it cannot flake
        cache = SfatCache(generate_class(8, 64, 1 / 20, seed=class_seed), 1 / 10)
        cache.dimension_of_mask(cache.full_mask())
        assert len(cache._memo) <= 200


def generated_table(nx, nc, zeta, seed):
    """`generate_class`'s class without its concept cap: the same draws."""
    rng = child_rng(seed, 0xC1A55)
    mids = np.array(bin_midpoints(zeta / 5.0))
    values = mids[rng.integers(0, len(mids), size=(nc, nx))]
    return ConceptClass(nx, tuple(Concept(i, tuple(row)) for i, row in enumerate(values)))


class TestScaleGuard:
    def test_generated_table_matches_generate_class(self):
        assert generated_table(8, 64, 1 / 20, 1) == generate_class(8, 64, 1 / 20, seed=1)

    def test_256_concepts(self, monkeypatch):
        # (8, 256, 1/20) at margin 1/10 with the cap lifted: the exact value,
        # and a mask count, not a time (an exact-value search memoizes 98,510)
        monkeypatch.setattr(dimensions, "MAX_CONCEPTS", 256)
        cls = generated_table(8, 256, 1 / 20, 1)
        cache = SfatCache(cls, 1 / 10)
        assert cache.dimension_of_mask(cache.full_mask()) == 6
        assert len(cache._memo) <= 8000
        witness = cache.witness_of_mask(cache.full_mask())
        validate_tree(cls, witness, 1 / 10)
        assert witness.depth() == 6


class TestEmptyConvention:
    def test_sentinel(self):
        assert sfat_empty_convention() == -1

    def test_below_singleton(self, four_constants):
        cache = SfatCache(four_constants, 1 / 6)
        assert sfat_empty_convention() < cache.dimension_of_mask(mask_of_ids(four_constants, {0}))

    def test_cache_score(self, four_constants):
        cache = SfatCache(four_constants, 1 / 3)
        assert cache.score(0) == -1
        assert cache.score(mask_of_ids(four_constants, {0})) == 0


class TestBooleanAgreement:
    def test_two_constant_booleans(self, two_constants_01):
        assert ldim_oracle(two_constants_01) == 1
        assert sfat(two_constants_01, 1 / 4).dimension == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cube(self, k):
        cube = boolean_cube(k)
        assert ldim_oracle(cube) == k

    def test_sfat_equals_ldim_on_random_booleans(self):
        for trial in range(40):
            cls = generate_class(
                int(np.random.default_rng(trial).integers(1, 5)),
                int(np.random.default_rng(trial + 1).integers(2, 16)),
                1 / 4,
                seed=trial,
                boolean=True,
            )
            for zeta in (1 / 4, 1 / 2):
                assert sfat(cls, zeta).dimension == ldim_oracle(cls)

    def test_rejects_non_boolean(self, two_constants_19):
        with pytest.raises(NotBoolean):
            ldim_oracle(two_constants_19)


def oracle_fat(rows, gamma, tol=1e-9):
    """fat by brute force over threshold vectors, sharing no code with sfat.

    A point's candidate thresholds are the midpoints of two of its values at
    least 2*gamma apart; any admissible threshold is dominated by the midpoint
    of its low side's largest value and its high side's smallest.  Each candidate
    labels every concept 0 (at least gamma below), 1 (at least gamma above) or
    None.  A point set is shattered when some choice of one labelling per point
    realizes every sign pattern; a choice whose prefix already misses a
    pattern is abandoned, since a full choice realizes every prefix pattern.
    """
    nx = len(rows[0])
    labellings = []
    for x in range(nx):
        values = sorted({f[x] for f in rows})
        found = set()
        for u in values:
            for w in values:
                if w - u >= 2 * gamma - tol:
                    a = (u + w) / 2
                    found.add(tuple(
                        0 if f[x] <= a - gamma + tol else 1 if f[x] >= a + gamma - tol else None
                        for f in rows
                    ))
        labellings.append(found)

    def shattered(points, patterns, depth):
        if len({p for p in patterns if p is not None}) < 2**depth:
            return False
        if not points:
            return True
        x, rest = points[0], points[1:]
        return any(
            shattered(rest, [
                None if p is None or b is None else p + (b,) for p, b in zip(patterns, lab)
            ], depth + 1)
            for lab in labellings[x]
        )

    best = 0
    for k in range(1, nx + 1):
        if any(shattered(s, [()] * len(rows), 0) for s in combinations(range(nx), k)):
            best = k
    return best


class TestFat:
    def test_singleton(self):
        assert oracle_fat([[0.5, 0.5]], 1 / 4) == 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_vc_on_cube(self, k):
        # the cube's VC dimension is k, and fat at any margin <= 1/2 matches
        assert oracle_fat([c.values for c in boolean_cube(k)], 1 / 4) == k

    def test_fat_below_sfat(self):
        for trial in range(15):
            cls = generate_class(4, 10, 1 / 4, seed=500 + trial)
            rows = [c.values for c in cls.concepts]
            for zeta in (1 / 4, 1 / 2):
                assert oracle_fat(rows, zeta) <= sfat(cls, zeta).dimension


class TestTreeJson:
    def test_leaf_shape(self):
        cls = make_class([[0.5]])
        res = sfat(cls, 1 / 4)
        assert tree_to_dict(res.witness) == {"leaf": 0}

    def test_validate_rejects_wrong_margin(self, four_constants):
        res = sfat(four_constants, 1 / 6)
        with pytest.raises(InvalidTree):
            validate_tree(four_constants, res.witness, 0.4)


def node(x, left, right, a=0.5):
    return ShatterTree(x=x, a=a, left=left, right=right)


LEAF0, LEAF1 = ShatterTree(leaf=0), ShatterTree(leaf=1)


class TestValidateTree:
    #: point 0 splits (0, 1) and point 1 splits (1, 0), both at margin 1/4
    CLS = make_class([[0.0, 0.9], [1.0, 0.1]])

    def test_accepts_both_splits(self):
        validate_tree(self.CLS, node(0, LEAF0, LEAF1), 1 / 4)
        validate_tree(self.CLS, node(1, LEAF1, LEAF0), 1 / 4)

    @pytest.mark.parametrize("tree", [
        node(-1, LEAF1, LEAF0),  # would read the last point
        node(True, LEAF1, LEAF0),  # would read point 1
        node(0, LEAF0, None),
        node(0, LEAF0, ShatterTree(leaf=7)),
        node(0, LEAF0, LEAF1, a=None),
    ], ids=["negative_x", "bool_x", "no_right_child", "leaf_not_in_class", "no_threshold"])
    def test_rejects_a_malformed_node(self, tree):
        with pytest.raises(InvalidTree):
            validate_tree(self.CLS, tree, 1 / 4)

    def test_rejects_x_past_the_domain(self):
        with pytest.raises(InvalidTree):
            validate_tree(make_class([[0.0], [1.0]]), node(5, LEAF0, LEAF1), 1 / 4)
