import collections
import functools
import hashlib
import itertools
import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbic import shelling
from symbic.counting import (
    _code_orbits,
    _regular_codes,
    _relabelled_orbits,
    cell_sort_key,
    enumerate_regular,
    random_regular_tree,
)
from symbic.shelling import (
    EdgeOrder,
    TreeComparator,
    _deletion_map,
    _twig_map,
    reduce_by_twig,
    rule_order,
    shelling_check,
    shelling_order,
    verify_shelling,
)
from symbic.trees import (
    MalformedTreeError,
    SymbicTree,
    _anchor_side,
    _key_masks,
    label_key,
    star_tree,
    tree_of_single_pair,
)
from symbic.acceptance import four_pair_chain_tree
from test_trees import branches, cherries, edge_descriptor, oracle_trunk, side_labels_brittle_twig


class RecursiveComparator:
    """The recursive six-case comparison made pair by pair: the oracle of
    the memoized sort key in TreeComparator."""

    def __init__(self):
        self._info = {}
        self._orders = {}

    def _tree_info(self, tree):
        key = tree.canonical_key()
        if key not in self._info:
            twig = side_labels_brittle_twig(tree) if tree.n >= 2 else None
            if twig is not None:
                self._info[key] = (twig, reduce_by_twig(tree, twig), None)
            elif tree.n >= 2:
                smaller, place = tree.delete_top_pair()
                self._info[key] = (None, smaller, place)
            else:
                self._info[key] = (None, None, None)
        return self._info[key]

    def _order_of(self, tree):
        key = tree.canonical_key()
        if key not in self._orders:
            self._orders[key] = descriptor_places(tree)
        return self._orders[key]

    def compare(self, first, second):
        if first.canonical_key() == second.canonical_key():
            return 0
        twig1, reduced1, place1 = self._tree_info(first)
        twig2, reduced2, place2 = self._tree_info(second)
        if twig1 is None and twig2 is None:
            verdict = self.compare(reduced1, reduced2)
            if verdict != 0:
                return verdict
            order = self._order_of(reduced1)
            i1, i2 = order.index(place1), order.index(place2)
            if i1 == i2:
                raise AssertionError("distinct trees with identical reduction")
            return -1 if i1 < i2 else 1
        if twig1 is None:
            return -1
        if twig2 is None:
            return 1
        if twig1 != twig2:
            for a, b in itertools.zip_longest(twig1, twig2, fillvalue=0):
                if a != b:
                    return -1 if a < b else 1
            raise AssertionError("unreachable: unequal twigs compared equal")
        verdict = self.compare(reduced1, reduced2)
        if verdict == 0:
            raise AssertionError("distinct trees with identical twig reduction")
        return verdict


def compare_trees(first, second):
    return TreeComparator().compare(first, second)


class SymbicComplex(NamedTuple):
    """Pure simplicial complex: vertices are split orbits, maximal cells the
    orbit sets of regular trees."""

    n: int
    vertices: frozenset
    cells: tuple


def build_complex(n):
    cells = tuple(sorted((t.split_orbits() for t in enumerate_regular(n)), key=cell_sort_key))
    vertices = frozenset().union(*cells) if cells else frozenset()
    if any(len(c) != n - 1 for c in cells):
        raise ValueError("complex is not pure")
    return SymbicComplex(n, vertices, cells)


def pairwise_verify(cells):
    """The shelling check scanning every earlier cell: the first pair
    (C', C) whose covered directions of C all lie in C', or None."""
    ridge_first = {}
    for idx, cell in enumerate(cells):
        covered = {x for x in cell if ridge_first.get(cell - {x}, idx) < idx}
        for j in range(idx):
            if covered <= cells[j]:
                return cells[j], cell
        for x in cell:
            ridge_first.setdefault(cell - {x}, idx)
    return None


def scanning_shelling_order(n):
    """The deferral-repaired order with the linear scan over placed cells,
    laid down in the oracle comparator's order."""
    ordered = sorted(
        enumerate_regular(n), key=functools.cmp_to_key(RecursiveComparator().compare)
    )
    placed, placed_cells, ridge_first, pending = [], [], {}, []

    def try_place(tree):
        cell = tree.split_orbits()
        idx = len(placed_cells)
        covered = {x for x in cell if ridge_first.get(cell - {x}, idx) < idx}
        if any(covered <= earlier for earlier in placed_cells):
            return False
        for x in cell:
            ridge_first.setdefault(cell - {x}, idx)
        placed.append(tree)
        placed_cells.append(cell)
        return True

    for tree in ordered:
        if not try_place(tree):
            pending.append(tree)
            continue
        progress = True
        while progress and pending:
            progress = False
            for waiting in list(pending):
                if try_place(waiting):
                    pending.remove(waiting)
                    progress = True
    assert not pending
    return placed


@functools.cache
def catalog_of(n):
    return enumerate_regular(n)


@functools.cache
def cell_orders(n):
    """(rule order, shelling order) of the cells at n."""
    return (
        [t.split_orbits() for t in rule_order(n)],
        [t.split_orbits() for t in shelling_order(n)],
    )


def descriptor_places(tree):
    """The places of EdgeOrder read off the tree: each edge named by the
    far side that ``edge_descriptor`` finds on the tree index."""
    keyed = []
    for u, v, _ in tree.edges():
        far = edge_descriptor(tree, u, v)
        keyed.append(((label_key(min(far, key=label_key)), -len(far)), ("edge", far)))
    keyed.sort(key=lambda kv: kv[0])
    places = [("near",)] + [place for _, place in keyed]
    return places + [("far",)] if len(oracle_trunk(tree)) > 1 else places


def order_of(tree):
    return EdgeOrder(tree.n, tree.canonical_key())


def test_edge_order_of_single_pair_tree():
    order = order_of(tree_of_single_pair())
    assert order.places[0] == ("near",)
    assert order.places[1:] == [
        ("edge", frozenset({1})),
        ("edge", frozenset({-1})),
    ]
    assert ("far",) not in order.places


def test_edge_order_extends_path_partial_order():
    tree = four_pair_chain_tree(1, 2, 3)
    order = order_of(tree)
    anchor = tree.trunk()[0]
    for u, v, _ in tree.edges():
        nearer = u if len(tree.path(anchor, u)) < len(tree.path(anchor, v)) else v
        descriptor = edge_descriptor(tree, u, v)
        # every edge on the path from the anchor to this edge comes earlier
        path = tree.path(anchor, nearer)
        for a, b in zip(path, path[1:]):
            earlier = edge_descriptor(tree, a, b)
            assert order.index(("edge", earlier)) <= order.index(("edge", descriptor))


def path_walk_places(tree):
    """The places of EdgeOrder as first written: each edge's near end and
    depth measured by path walks from the anchor, three per edge.  The
    oracle of the one-walk depth table."""
    anchor = tree.canonical_endpoint()
    keyed = []
    for u, v, _ in tree.edges():
        closer = len(tree.path(anchor, u)) <= len(tree.path(anchor, v))
        near, far = (u, v) if closer else (v, u)
        smallest = min(tree.side_labels(near, far), key=label_key)
        depth = len(tree.path(anchor, near)) - 1
        keyed.append((label_key(smallest) + (depth,), ("edge", edge_descriptor(tree, near, far))))
    keyed.sort(key=lambda kv: kv[0])
    far_end = [("far",)] if len(tree.trunk()) > 1 else []
    return [("near",)] + [place for _, place in keyed] + far_end


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_edge_order_matches_the_path_walks(n):
    for tree in catalog_of(n):
        for t in (tree, tree.delete_leaves({n, -n})):
            assert order_of(t).places == path_walk_places(t)


def check_edge_order(tree):
    """EdgeOrder and _anchor_side, read off the tree's split masks, against
    the tree walks: the far sides on the index, and the anchor of the trunk
    found vertex by vertex, whose side of the trunk holds the anchor's
    branch labels."""
    trunk = oracle_trunk(tree)
    assert tree.trunk() == trunk
    near = tree._side_mask(trunk[1], trunk[0]) if len(trunk) > 1 else 0
    assert _anchor_side(tree.n, _key_masks(tree.canonical_key())) == near
    assert _anchor_side(tree.n, [side for _, side in tree._edge_sides()]) == near
    assert order_of(tree).places == descriptor_places(tree)


def test_edge_orders_match_the_tree_walks():
    """Catalogs with their one- and two-orbit contractions, and stars."""
    for n in range(1, 5):
        for tree in catalog_of(n):
            check_edge_order(tree)
            for orbit in tree.split_orbits():
                check_edge_order(tree.contract_orbit(orbit))
            for a, b in itertools.combinations(tree.split_orbits(), 2):
                check_edge_order(tree.contract_orbit(a).contract_orbit(b))
    for tree in [tree_of_single_pair(), *(star_tree(n) for n in range(1, 7))]:
        check_edge_order(tree)


@given(st.integers(1, 8), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_edge_orders_match_the_tree_walks_on_random_trees(n, seed):
    rng = random.Random(seed)
    tree = random_regular_tree(n, rng)
    check_edge_order(tree)
    orbits = sorted(tree.split_orbits(), key=lambda o: sorted(map(sorted, o)))
    if orbits:
        check_edge_order(tree.contract_orbit(rng.choice(orbits)))


def test_edge_order_refuses_unknown_places():
    order = order_of(tree_of_single_pair())
    for place in [("edge", frozenset({99})), ("far",), ("edge",), ("edge", {1})]:
        with pytest.raises(MalformedTreeError, match="is not a place of this edge order"):
            order.index(place)


def test_n2_order():
    ordered = shelling_order(2)
    assert len(ordered[0].trunk()) == 2
    assert len(ordered[1].trunk()) == 1


def test_first_cell_is_identity_permutation_tree():
    for n in (3, 4):
        first = shelling_order(n)[0]
        trunk = first.trunk()
        assert len(trunk) == n
        assert cherries(first) == frozenset((i, i) for i in range(1, n + 1))
        # blocks run n, n-1, ..., 1 from the anchor end: the identity
        # arrangement read from the far end
        blocks = []
        for v in trunk:
            (labels,) = {
                frozenset(abs(l) for l in br.labels)
                for br in branches(first)
                if br.trunk_vertex == v
            }
            blocks.append(min(labels))
        assert blocks == list(range(n, 0, -1))


def test_twig_free_trees_come_before_twiggy_ones():
    catalog = list(enumerate_regular(3))
    comparator = TreeComparator()
    for a, b in itertools.permutations(catalog, 2):
        if a.brittle_twig() is None and b.brittle_twig() is not None:
            assert comparator.compare(a, b) == -1


def test_twigs_compare_lexicographically():
    by_twig = {}
    for tree in enumerate_regular(3):
        twig = tree.brittle_twig()
        if twig is not None:
            by_twig[twig] = tree
    assert set(by_twig) == {(1, 2), (2, 1)}
    assert compare_trees(by_twig[(1, 2)], by_twig[(2, 1)]) == -1
    assert compare_trees(by_twig[(2, 1)], by_twig[(1, 2)]) == 1


def test_twig_prefix_compares_earlier():
    trees = [t for t in enumerate_regular(4) if t.brittle_twig() is not None]
    by_twig = {}
    for t in trees:
        by_twig.setdefault(t.brittle_twig(), []).append(t)
    prefixes = [
        (short, long)
        for short in by_twig
        for long in by_twig
        if len(short) < len(long) and long[: len(short)] == short
    ]
    assert prefixes
    for short, long in prefixes:
        assert compare_trees(by_twig[short][0], by_twig[long][0]) == -1


def test_twig_reduction_is_symbic_and_injective():
    seen = {}
    for tree in enumerate_regular(4):
        twig = tree.brittle_twig()
        if twig is None:
            continue
        reduced = reduce_by_twig(tree, twig)
        assert reduced.validate() is None
        assert reduced.n == 4 - len(twig)
        seen.setdefault((twig, reduced.canonical_key()), []).append(tree)
    for trees in seen.values():
        assert len(trees) == 1  # same twig + same reduction => same tree


def test_twig_reduction_builds_one_tree(monkeypatch):
    twiggy = [t for n in (3, 4, 5) for t in catalog_of(n) if t.brittle_twig() is not None]
    built = counted_constructions(monkeypatch)
    for tree in twiggy:
        built.clear()
        reduce_by_twig(tree, tree.brittle_twig())
        assert len(built) == 1


def test_total_order_laws():
    for n in (2, 3, 4):
        catalog = list(enumerate_regular(n))
        comparator = TreeComparator()
        ordered = sorted(catalog, key=functools.cmp_to_key(comparator.compare))
        for i, j in itertools.combinations(range(len(ordered)), 2):
            assert comparator.compare(ordered[i], ordered[j]) == -1
            assert comparator.compare(ordered[j], ordered[i]) == 1
        for tree in catalog:
            assert comparator.compare(tree, tree) == 0


def test_deletion_places_live_in_the_edge_order():
    comparator = TreeComparator()
    for tree in enumerate_regular(4):
        if tree.brittle_twig() is not None:
            continue
        smaller, place = tree.delete_top_pair()
        comparator.key(tree)
        order = comparator._orders[(smaller.n, smaller.canonical_key())]
        assert order.index(place) >= 0


@pytest.mark.parametrize("n", [3, 4, pytest.param(5, marks=pytest.mark.long)])
def test_rule_order_matches_the_recursive_comparison(n):
    catalog = list(enumerate_regular(n))
    expected = sorted(catalog, key=functools.cmp_to_key(RecursiveComparator().compare))
    assert [t.canonical_key() for t in rule_order(n)] == [
        t.canonical_key() for t in expected
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.long)])
def test_orbit_keys_match_the_rebuilt_trees(n):
    """The rule keys read smaller types off the split orbits and resolve
    deletion places against the smaller type's edge order; the trees that
    delete_top_pair and reduce_by_twig build are the oracle.  An edge order
    names each place once, so equal indices are equal places."""
    comparator = TreeComparator()
    for tree in catalog_of(n):
        key = comparator.key(tree)
        twig = side_labels_brittle_twig(tree)
        if twig is None:
            smaller, place = tree.delete_top_pair()
            orbits = _relabelled_orbits(tree.split_orbits(), _deletion_map(n))
            assert orbits == smaller.canonical_key()
            order = comparator._orders[(n - 1, orbits)]
            assert order.places == descriptor_places(smaller)
            assert key[2] == order.index(place)
        else:
            orbits = _relabelled_orbits(tree.split_orbits(), _twig_map(n, twig))
            assert orbits == reduce_by_twig(tree, twig).canonical_key()


def counted_constructions(monkeypatch):
    """The list every SymbicTree construction appends its tree to."""
    built = []
    init = SymbicTree.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SymbicTree, "__init__", counting_init)
    return built


def test_rule_keys_build_no_tree(monkeypatch):
    """Smaller types, their edge orders and deletion places are read off
    split masks: the rule order builds no tree."""
    catalog = catalog_of(5)
    built = counted_constructions(monkeypatch)
    assert len(rule_order(5, catalog)) == 1395
    assert built == []


def test_rule_keys_build_no_tree_index_per_cell(monkeypatch):
    """The brittle twig and the top-pair site of a cell are read off its
    key's split masks, and so are the edge orders of the smaller types: no
    tree gets a tree index."""
    catalog = enumerate_regular(5)
    built = collections.Counter()
    index = SymbicTree._index

    def counting_index(self):
        if "index" not in self._cache:
            built[self.n] += 1
        return index(self)

    monkeypatch.setattr(SymbicTree, "_index", counting_index)
    rule_order(5, catalog)
    assert not built


@pytest.mark.long
def test_rule_keys_at_n7_build_no_tree(monkeypatch):
    """The rule keys of every n = 7 catalog code, read off the code's
    orbits: pairwise distinct, and no tree built."""
    built = counted_constructions(monkeypatch)
    comparator = TreeComparator()
    keys = {comparator._key(7, _code_orbits(7, *code)) for code in _regular_codes(7)}
    assert len(keys) == 427140
    assert built == []


@pytest.mark.parametrize("n", [5, pytest.param(6, marks=pytest.mark.long)])
def test_deferred_cells_are_tested_again_only_when_a_ridge_is_covered(n, monkeypatch):
    """Each placement test beyond the first test of every cell is a retest
    of a deferred cell that gained a covered ridge; there are fewer such
    retests than cells."""
    catalog = catalog_of(n)
    tests = []
    blockers = shelling._PlacedCells.blockers

    def counting_blockers(self, cell):
        tests.append(cell)
        return blockers(self, cell)

    monkeypatch.setattr(shelling._PlacedCells, "blockers", counting_blockers)
    order = shelling_order(n, catalog)
    assert len(order) < len(tests) <= 2 * len(order)


def test_trees_sharing_a_key_are_refused(monkeypatch):
    """Keys that fail to separate two combinatorial types raise, in the
    sort and in the comparison alike."""
    monkeypatch.setattr(EdgeOrder, "index", lambda self, place: 0)
    with pytest.raises(AssertionError):
        rule_order(3)
    comparator = TreeComparator()
    with pytest.raises(AssertionError):
        for a, b in itertools.combinations(enumerate_regular(3), 2):
            comparator.compare(a, b)


@pytest.mark.parametrize("n", [3, 4])
def test_shelling_order_matches_the_linear_scan(n):
    assert [t.canonical_key() for t in shelling_order(n)] == [
        t.canonical_key() for t in scanning_shelling_order(n)
    ]


@given(
    st.sampled_from([3, 4]),
    st.booleans(),
    st.sampled_from(["as is", "swapped", "shuffled"]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_verify_shelling_matches_the_pairwise_scan(n, shelled, edit, rng):
    cells = list(cell_orders(n)[shelled])
    if edit == "swapped":
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(len(cells)), 2)
            cells[i], cells[j] = cells[j], cells[i]
    elif edit == "shuffled":
        rng.shuffle(cells)
    bad = verify_shelling(cells)
    assert (bad and (bad.earlier, bad.cell)) == pairwise_verify(cells)


def test_complex_is_pure_and_matches_catalog():
    complex_ = build_complex(3)
    assert len(complex_.cells) == 12
    assert all(len(c) == 2 for c in complex_.cells)
    assert len(complex_.vertices) == 9


def test_shelling_passes_small_n():
    for n in (2, 3, 4):
        counterexample, ordered = shelling_check(n)
        assert counterexample is None
        assert len(ordered) == len(enumerate_regular(n))


def test_verify_rejects_orders_starting_with_disjoint_cells():
    cells = [t.split_orbits() for t in enumerate_regular(3)]
    disjoint = None
    for a, b in itertools.combinations(cells, 2):
        if not a & b:
            disjoint = (a, b)
            break
    assert disjoint is not None
    rest = [c for c in cells if c not in disjoint]
    bad = verify_shelling([disjoint[0], disjoint[1]] + rest)
    assert bad is not None
    assert bad.earlier == disjoint[0] and bad.cell == disjoint[1]


def test_verify_input_validation():
    cells = [t.split_orbits() for t in enumerate_regular(3)]
    with pytest.raises(ValueError):
        verify_shelling(cells + [cells[0]])  # duplicate
    with pytest.raises(ValueError):
        verify_shelling([cells[0], frozenset(list(cells[1])[:1])])  # not pure


def test_rule_order_alone_is_not_a_shelling_at_n4():
    """The literal recursive comparison fails the shelling condition from
    n=4 on (the two trunk extensions of the first smaller tree share only
    the {n, n'} orbit); the deferral repair in shelling_order fixes it."""
    cells = [t.split_orbits() for t in rule_order(4)]
    assert verify_shelling(cells) is not None
    repaired = [t.split_orbits() for t in shelling_order(4)]
    assert verify_shelling(repaired) is None
    assert sorted(map(sorted, (map(str, c) for c in cells))) == sorted(
        map(sorted, (map(str, c) for c in repaired))
    )


def test_shelling_order_is_deterministic():
    first = [t.split_orbits() for t in shelling_order(3)]
    second = [t.split_orbits() for t in shelling_order(3)]
    assert first == second


@pytest.mark.long
def test_shelling_n5():
    counterexample, ordered = shelling_check(5)
    assert counterexample is None
    assert len(ordered) == 1395


@pytest.mark.long
def test_shelling_n6():
    counterexample, ordered = shelling_check(6, catalog_of(6))
    assert counterexample is None
    assert len(ordered) == 22185
    cells = repr([cell_sort_key(t.split_orbits()) for t in ordered]).encode()
    assert hashlib.sha256(cells).hexdigest() == (
        "789ca83714bbc1bf68347e12979e5f09d8456f4bc3faaabdc9f0ef96b16e3436"
    )


@pytest.mark.long
def test_total_order_sampled_n5():
    rng = random.Random(5)
    catalog = list(enumerate_regular(5))
    comparator = TreeComparator()
    for _ in range(400):
        a, b, c = rng.sample(catalog, 3)
        ab, bc, ac = (
            comparator.compare(a, b),
            comparator.compare(b, c),
            comparator.compare(a, c),
        )
        if ab == -1 and bc == -1:
            assert ac == -1
        assert comparator.compare(b, a) == -ab
