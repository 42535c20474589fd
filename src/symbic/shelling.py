"""The simplicial complex of symbic trees and its shelling order.

Maximal cells are regular n+n trees identified with their split-orbit sets.
The total order on cells is recursive: delete the top leaf pair and compare
the smaller trees, falling back to attachment places along a fixed
topological edge order, with brittle-twig trees sorted after twig-free ones
by twig sequence and twig-reduced recursion.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Optional, Sequence

from .counting import TreeCatalog, enumerate_regular, orbit_sort_key
from .trees import MalformedTreeError, SymbicTree, label_key

VERIFY_CAP = 5


class EdgeOrder:
    """Total order of attachment places of a symbic tree: the anchor trunk
    endpoint first, then every edge (leaf and internal, color-swapped copies
    separately) extending the path partial order from the anchor, then the
    far trunk endpoint when the trunk has one."""

    __slots__ = ("tree", "anchor", "places", "_index")

    def __init__(self, tree: SymbicTree, anchor: Optional[int] = None):
        if anchor is None:
            anchor = tree.canonical_endpoint()
        trunk = tree.trunk()
        if anchor not in (trunk[0], trunk[-1]):
            raise MalformedTreeError("anchor must be a trunk endpoint")
        self.tree = tree
        self.anchor = anchor
        keyed = []
        for u, v, _ in tree.edges():
            near, far = (u, v) if self._closer(u, v, anchor) else (v, u)
            descriptor = tree.edge_descriptor(near, far)
            far_labels = tree.side_labels(near, far)
            smallest = min(far_labels, key=label_key)
            depth = len(tree.path(anchor, near)) - 1
            keyed.append((label_key(smallest) + (depth,), ("edge", descriptor)))
        keyed.sort(key=lambda kv: kv[0])
        places: list[tuple] = [("near",)]
        places.extend(place for _, place in keyed)
        if len(trunk) > 1:
            places.append(("far",))
        self.places = places
        self._index = {place: i for i, place in enumerate(places)}
        if len(self._index) != len(places):
            raise AssertionError("edge descriptors collided; order is ambiguous")

    def _closer(self, u: int, v: int, anchor: int) -> bool:
        return len(self.tree.path(anchor, u)) <= len(self.tree.path(anchor, v))

    def index(self, place: tuple) -> int:
        if place == ("far",) and place not in self._index:
            raise MalformedTreeError("one-vertex trunk has no far endpoint")
        return self._index[place]

    def __len__(self) -> int:
        return len(self.places)


def edge_order(tree: SymbicTree, anchor: Optional[int] = None) -> EdgeOrder:
    return EdgeOrder(tree, anchor)


def reduce_by_twig(tree: SymbicTree, twig: Sequence[int]) -> SymbicTree:
    """Collapse the brittle twig: the caterpillar holding leaf n (n with the
    primed twig leaves) becomes the single leaf n', and mirror-wise on the
    twig branch.  Deleting the twig's index pairs leaves n at the old
    attachment point, so the surviving top pair swaps colors afterwards."""
    doomed = set()
    for idx in twig:
        doomed.add(idx)
        doomed.add(-idx)
    reduced = tree.delete_leaves(doomed)
    top = reduced.n
    adj, leaf_vertex = reduced._graph_copy()
    leaf_vertex[top], leaf_vertex[-top] = leaf_vertex[-top], leaf_vertex[top]
    # swapping the labels of one pair of leaf vertices keeps the involution
    swapped = SymbicTree(reduced.n, adj, leaf_vertex, involution_hint=reduced.involution())
    if swapped.validate() is not None:
        raise MalformedTreeError("twig reduction did not yield a symbic tree")
    return swapped


class TreeComparator:
    """Implements the recursive shelling comparison; caches per combinatorial
    type since deletions and twigs only depend on the type."""

    def __init__(self) -> None:
        self._info: dict = {}
        self._orders: dict = {}

    def _tree_info(self, tree: SymbicTree):
        key = tree.canonical_key()
        if key not in self._info:
            twig = tree.brittle_twig() if tree.n >= 2 else None
            if twig is not None:
                self._info[key] = (twig, reduce_by_twig(tree, twig), None)
            elif tree.n >= 2:
                smaller, place = tree.delete_top_pair()
                self._info[key] = (None, smaller, place)
            else:
                self._info[key] = (None, None, None)
        return self._info[key]

    def _order_of(self, tree: SymbicTree) -> EdgeOrder:
        key = tree.canonical_key()
        if key not in self._orders:
            self._orders[key] = EdgeOrder(tree)
        return self._orders[key]

    def compare(self, first: SymbicTree, second: SymbicTree) -> int:
        """-1 when first precedes second, 0 for equal combinatorial type."""
        if first.n != second.n:
            raise ValueError("comparison needs trees on the same leaf set")
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


def compare_trees(first: SymbicTree, second: SymbicTree) -> int:
    return TreeComparator().compare(first, second)


def rule_order(n: int, catalog: Optional[TreeCatalog] = None) -> list[SymbicTree]:
    """All regular n+n trees sorted by the recursive comparison alone."""
    if catalog is None:
        catalog = enumerate_regular(n)
    comparator = TreeComparator()
    return sorted(catalog, key=functools.cmp_to_key(comparator.compare))


def shelling_order(
    n: int, catalog: Optional[TreeCatalog] = None
) -> list[SymbicTree]:
    """The verified shelling order: recursive-rule priority with minimal
    deferral.

    The recursive comparison alone is not a shelling order for n >= 4: the
    two trunk extensions of a smaller tree S share exactly the {n, n'}
    split orbit whenever S has no branch orbits to tie them together, and
    every cell that could bridge them sits in a later group.  Cells are
    therefore laid down in comparison order but a cell whose shelling
    condition cannot yet be met waits until the cells that support it have
    been placed; the result is the lexicographically earliest shelling
    refinement of the rule order.
    """
    ordered = rule_order(n, catalog)
    placed: list[SymbicTree] = []
    placed_cells: list[frozenset] = []
    ridge_first: dict[frozenset, int] = {}
    pending: list[SymbicTree] = []

    def try_place(tree: SymbicTree) -> bool:
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
    if pending:
        raise RuntimeError(
            "deferral repair failed to complete a shelling order"
        )
    return placed


class SymbicComplex(NamedTuple):
    """Pure simplicial complex: vertices are split orbits, maximal cells the
    orbit sets of regular trees."""

    n: int
    vertices: frozenset
    cells: tuple


def build_complex(n: int, catalog: Optional[TreeCatalog] = None) -> SymbicComplex:
    if catalog is None:
        catalog = enumerate_regular(n)
    cells = tuple(sorted((t.split_orbits() for t in catalog), key=_cell_sort_key))
    vertices = frozenset().union(*cells) if cells else frozenset()
    if any(len(c) != n - 1 for c in cells):
        raise ValueError("complex is not pure")
    return SymbicComplex(n, vertices, cells)


def _cell_sort_key(cell: frozenset) -> tuple:
    return tuple(sorted(orbit_sort_key(o) for o in cell))


class ShellingCounterExample(NamedTuple):
    earlier: frozenset  # C'
    cell: frozenset  # C
    detail: str


def verify_shelling(
    cells_in_order: Sequence[frozenset],
) -> Optional[ShellingCounterExample]:
    """Direct check of the shelling condition: for every pair C' < C some
    earlier C'' differing from C in exactly one vertex has
    C' . C contained in C'' . C.  Returns the first violating pair."""
    cells = [frozenset(c) for c in cells_in_order]
    if len(set(cells)) != len(cells):
        raise ValueError("duplicate maximal cells in the order")
    if len({len(c) for c in cells}) > 1:
        raise ValueError("complex is not pure")
    vertex_ids: dict = {}
    packed: list[frozenset] = []
    for cell in cells:
        for vertex in cell:
            vertex_ids.setdefault(vertex, len(vertex_ids))
        packed.append(frozenset(vertex_ids[v] for v in cell))
    ridge_first: dict[frozenset, int] = {}
    for idx, cell in enumerate(packed):
        covered = {
            x for x in cell if ridge_first.get(cell - {x}, idx) < idx
        }
        # the pair (C', C) fails exactly when every covered direction of C
        # lies inside C', i.e. covered <= C'
        for j in range(idx):
            if covered <= packed[j]:
                return ShellingCounterExample(
                    cells[j],
                    cells[idx],
                    "no earlier cell differs from C in exactly one vertex "
                    "while containing the intersection",
                )
        for x in cell:
            ridge = cell - {x}
            ridge_first.setdefault(ridge, idx)
    return None


def shelling_check(n: int, catalog: Optional[TreeCatalog] = None):
    """Order the catalog and verify the shelling property."""
    if n > VERIFY_CAP:
        raise ValueError(f"n={n} exceeds verification cap {VERIFY_CAP}")
    ordered = shelling_order(n, catalog)
    return verify_shelling([t.split_orbits() for t in ordered]), ordered
