"""The simplicial complex of symbic trees and its shelling order.

Maximal cells are regular n+n trees identified with their split-orbit sets.
The total order on cells is recursive: delete the top leaf pair and compare
the smaller trees, falling back to attachment places along a fixed
topological edge order, with brittle-twig trees sorted after twig-free ones
by twig sequence and twig-reduced recursion.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .counting import TreeCatalog, cell_sort_key, enumerate_regular
from .trees import MalformedTreeError, SymbicTree, label_key

VERIFY_CAP = 6


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
    """Implements the recursive shelling comparison as one sort key per
    combinatorial type, memoized since deletions and twigs only depend on
    the type."""

    def __init__(self) -> None:
        self._keys: dict = {}
        self._types: dict = {}
        self._orders: dict = {}

    def _order_of(self, tree: SymbicTree) -> EdgeOrder:
        key = tree.canonical_key()
        if key not in self._orders:
            self._orders[key] = EdgeOrder(tree)
        return self._orders[key]

    def key(self, tree: SymbicTree) -> tuple:
        """() for n <= 1; (0, key of the smaller tree, index of the deletion
        place in its edge order) when deleting n, n' leaves a symbic tree;
        (1, twig, key of the twig reduction) otherwise.  Twig-free trees
        therefore sort first, twigs lexicographically with prefixes first."""
        memo = (tree.n, tree.canonical_key())
        key = self._keys.get(memo)
        if key is None:
            if tree.n < 2:
                key = ()
            elif (twig := tree.brittle_twig()) is not None:
                key = (1, twig, self.key(reduce_by_twig(tree, twig)))
            else:
                smaller, place = tree.delete_top_pair()
                key = (0, self.key(smaller), self._order_of(smaller).index(place))
            if self._types.setdefault(key, memo) != memo:
                raise AssertionError("distinct trees share a shelling key")
            self._keys[memo] = key
        return key

    def compare(self, first: SymbicTree, second: SymbicTree) -> int:
        """-1 when first precedes second, 0 for equal combinatorial type."""
        if first.n != second.n:
            raise ValueError("comparison needs trees on the same leaf set")
        a, b = self.key(first), self.key(second)
        return (a > b) - (a < b)


def compare_trees(first: SymbicTree, second: SymbicTree) -> int:
    return TreeComparator().compare(first, second)


def rule_order(n: int, catalog: Optional[TreeCatalog] = None) -> list[SymbicTree]:
    """All regular n+n trees sorted by the recursive comparison alone."""
    if catalog is None:
        catalog = enumerate_regular(n)
    return sorted(catalog, key=TreeComparator().key)


class _PlacedCells:
    """The cells laid down so far: every ridge (cell minus one vertex) they
    have, and per vertex the int bitset of the placed cells holding it."""

    __slots__ = ("count", "ridges", "holders")

    def __init__(self) -> None:
        self.count = 0
        self.ridges: set[frozenset] = set()
        self.holders: dict = {}

    def blockers(self, cell: frozenset) -> int:
        """Bitset of the placed cells C' for which the pair (C', cell) fails
        the shelling condition: C' holds every covered vertex x of cell,
        one whose ridge cell - {x} some placed cell already has."""
        common = (1 << self.count) - 1
        for x in cell:
            if common and cell - {x} in self.ridges:
                common &= self.holders.get(x, 0)
        return common

    def add(self, cell: frozenset) -> None:
        bit = 1 << self.count
        for x in cell:
            self.ridges.add(cell - {x})
            self.holders[x] = self.holders.get(x, 0) | bit
        self.count += 1


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
    shell = _PlacedCells()
    pending: list[SymbicTree] = []

    def try_place(tree: SymbicTree) -> bool:
        cell = tree.split_orbits()
        if shell.blockers(cell):
            return False
        shell.add(cell)
        placed.append(tree)
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
    cells = tuple(sorted((t.split_orbits() for t in catalog), key=cell_sort_key))
    vertices = frozenset().union(*cells) if cells else frozenset()
    if any(len(c) != n - 1 for c in cells):
        raise ValueError("complex is not pure")
    return SymbicComplex(n, vertices, cells)


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
    shell = _PlacedCells()
    for cell in cells:
        blockers = shell.blockers(cell)
        if blockers:
            j = (blockers & -blockers).bit_length() - 1  # the lowest set bit
            return ShellingCounterExample(
                cells[j],
                cell,
                "no earlier cell differs from C in exactly one vertex "
                "while containing the intersection",
            )
        shell.add(cell)
    return None


def shelling_check(n: int, catalog: Optional[TreeCatalog] = None):
    """Order the catalog and verify the shelling property."""
    if n > VERIFY_CAP:
        raise ValueError(f"n={n} exceeds verification cap {VERIFY_CAP}")
    ordered = shelling_order(n, catalog)
    return verify_shelling([t.split_orbits() for t in ordered]), ordered
