"""The simplicial complex of symbic trees and its shelling order.

Maximal cells are regular n+n trees identified with their split-orbit sets.
The total order on cells is recursive: delete the top leaf pair and compare
the smaller trees, falling back to attachment places along a fixed
topological edge order, with brittle-twig trees sorted after twig-free ones
by twig sequence and twig-reduced recursion.  The brittle twig, the site
of the top pair, the types of the smaller trees and their edge orders are
read off split masks: the comparison builds no tree.  The shelling works on
cells and ridges as int bitmasks over orbit ids.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence

from .counting import TreeCatalog, _catalog_for, _relabelled_orbits
from .trees import (
    MalformedTreeError,
    SymbicTree,
    _anchor_side,
    _brittle_twig,
    _key_masks,
    _mask_labels,
    _place_of_site,
    _swap,
    _top_pair_site,
)

VERIFY_CAP = 6


class EdgeOrder:
    """Total order of attachment places of the symbic trees of type
    (n, key): the anchor trunk endpoint first, then every edge (leaf and
    internal, color-swapped copies separately) extending the path partial
    order from the anchor, then the far trunk endpoint when the trunk has
    one.  The anchor is trunk()[0]; an edge is named by its far side, the
    labels away from the anchor, and edges are sorted by the smallest label
    of the far side, then by the far side's size, largest first.  Edges
    whose far sides share the smallest label lie on the path from the anchor
    to that leaf, so their far sides are strictly nested and the larger one
    is the nearer edge.

    The far sides are read off the key's split masks.  A leaf edge's far
    side is its label.  A swap-invariant split is a trunk edge, whose far
    side misses the anchor's block.  A split whose swap is its complement is
    the flipped edge of a one-vertex trunk, and the midpoint cuts it into
    two halves with far sides S and swap(S): unlike the split, the far side
    tells the two color-swapped halves apart (they yield different
    attachments).  Any other edge lies off the trunk, and its far side is
    the side disjoint from its own swap."""

    __slots__ = ("places", "_index", "_near")

    def __init__(self, n: int, key: frozenset):
        splits = _key_masks(key)
        full = (1 << 2 * n) - 1
        near = _anchor_side(n, splits)
        far = [1 << bit for bit in range(2 * n)]
        for s in splits:
            swapped = _swap(s, n)
            if swapped == s:
                far.append(s ^ full if s & near else s)
            elif swapped == s ^ full:
                far += (s, swapped)
            else:
                far.append(s ^ full if s & swapped else s)
        far.sort(key=lambda side: (side & -side, -side.bit_count()))
        places: list[tuple] = [("near",)]
        places.extend(("edge", _mask_labels(side)) for side in far)
        if near:
            places.append(("far",))
        self.places = places
        self._index = {place: i for i, place in enumerate(places)}
        if len(self._index) != len(places):
            raise AssertionError("edge descriptors collided; order is ambiguous")
        self._near = _mask_labels(near or full)  # all labels for a one-vertex trunk

    def index(self, place: tuple) -> int:
        try:
            return self._index[place]
        except (KeyError, TypeError):
            raise MalformedTreeError(f"{place!r} is not a place of this edge order") from None


def reduce_by_twig(tree: SymbicTree, twig: Sequence[int]) -> SymbicTree:
    """Collapse the brittle twig: the caterpillar holding leaf n (n with the
    primed twig leaves) becomes the single leaf n', and mirror-wise on the
    twig branch.  Deleting the twig's index pairs leaves n at the old
    attachment point, so the label map of :func:`_twig_map` also swaps the
    colors of the surviving top pair."""
    reduced = tree._relabelled(_twig_map(tree.n, twig))
    if reduced.validate() is not None:
        raise MalformedTreeError("twig reduction did not yield a symbic tree")
    return reduced


def _deletion_map(n: int) -> dict:
    """Delete n, n': the labels of 1..n-1 keep their names."""
    return {s * i: s * i for i in range(1, n) for s in (1, -1)}


def _twig_map(n: int, twig: Sequence[int]) -> dict:
    """The label map of reduce_by_twig: drop the twig's indices, renumber
    the survivors in order, and swap the colors of the top survivor."""
    survivors = [i for i in range(1, n + 1) if i not in twig]
    label_map = {s * i: s * j for j, i in enumerate(survivors, start=1) for s in (1, -1)}
    top = survivors[-1]
    label_map[top], label_map[-top] = label_map[-top], label_map[top]
    return label_map


class TreeComparator:
    """Implements the recursive shelling comparison as one sort key per
    combinatorial type (n, key), memoized since deletions and twigs only
    depend on the type.  The brittle twig and the site of the top pair are
    read off the split masks of the key, the type of a deletion or a twig
    reduction off its split orbits renamed, and a deletion's place off the
    smaller type's edge order, so no tree is built or walked."""

    def __init__(self) -> None:
        self._keys: dict = {}
        self._types: dict = {}
        self._orders: dict = {}

    def key(self, tree: SymbicTree) -> tuple:
        """() for n <= 1; (0, key of the smaller tree, index of the deletion
        place in its edge order) when deleting n, n' leaves a symbic tree;
        (1, twig, key of the twig reduction) otherwise.  Twig-free trees
        therefore sort first, twigs lexicographically with prefixes first."""
        return self._key(tree.n, tree.canonical_key())

    def _key(self, n: int, orbits: frozenset) -> tuple:
        memo = (n, orbits)
        key = self._keys.get(memo)
        if key is None:
            splits = _key_masks(orbits)
            if n < 2:
                key = ()
            elif (twig := _brittle_twig(n, splits)) is not None:
                reduced = _relabelled_orbits(orbits, _twig_map(n, twig))
                key = (1, twig, self._key(n - len(twig), reduced))
            else:
                smaller = (n - 1, _relabelled_orbits(orbits, _deletion_map(n)))
                order = self._orders.get(smaller)
                if order is None:
                    order = self._orders[smaller] = EdgeOrder(*smaller)
                place = _place_of_site(_top_pair_site(n, splits), order._near)
                key = (0, self._key(*smaller), order.index(place))
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


def rule_order(n: int, catalog: Optional[TreeCatalog] = None) -> list[SymbicTree]:
    """All regular n+n trees sorted by the recursive comparison alone."""
    return sorted(_catalog_for(n, catalog), key=TreeComparator().key)


def _vertices(cell: int) -> Iterator[int]:
    """The vertices of a cell bitmask, each as its own bit."""
    while cell:
        x = cell & -cell
        yield x
        cell ^= x


class _PlacedCells:
    """The cells laid down so far, as int bitmasks over orbit ids numbered
    in order of first sight: every ridge (cell minus one vertex) they have,
    and per vertex bit the int bitset of the placed cells holding it."""

    __slots__ = ("count", "ridges", "holders", "ids")

    def __init__(self) -> None:
        self.count = 0
        self.ridges: set[int] = set()
        self.holders: dict[int, int] = {}
        self.ids: dict = {}  # orbit -> its bit

    def code(self, cell: frozenset) -> int:
        """The bitmask of a cell's orbits."""
        ids, out = self.ids, 0
        for orbit in cell:
            bit = ids.get(orbit)
            if bit is None:
                bit = ids[orbit] = 1 << len(ids)
            out |= bit
        return out

    def blockers(self, cell: int) -> int:
        """Bitset of the placed cells C' for which the pair (C', cell) fails
        the shelling condition: C' holds every covered vertex x of cell,
        one whose ridge cell - {x} some placed cell already has."""
        common = (1 << self.count) - 1
        for x in _vertices(cell):
            if common and cell ^ x in self.ridges:
                common &= self.holders.get(x, 0)
        return common

    def add(self, cell: int) -> list[int]:
        """Lay the cell down; returns those of its ridges that no placed
        cell had."""
        bit = 1 << self.count
        new = []
        for x in _vertices(cell):
            ridge = cell ^ x
            if ridge not in self.ridges:
                self.ridges.add(ridge)
                new.append(ridge)
            self.holders[x] = self.holders.get(x, 0) | bit
        self.count += 1
        return new


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

    After each placement the waiting cells are swept in deferral order
    until a sweep places none, and a sweep tests again only the cells that
    gained a covered ridge since their last test: a cell whose covered
    ridges did not change keeps every blocker it had.
    """
    ordered = rule_order(n, catalog)
    placed: list[SymbicTree] = []
    shell = _PlacedCells()
    pending: dict[SymbicTree, int] = {}  # deferred tree -> cell, in deferral order
    waiting: dict[int, list[SymbicTree]] = {}  # uncovered ridge -> deferred trees
    dirty: set[SymbicTree] = set()  # deferred trees with a newly covered ridge

    def try_place(tree: SymbicTree, cell: int) -> bool:
        if shell.blockers(cell):
            return False
        for ridge in shell.add(cell):
            dirty.update(waiting.pop(ridge, ()))
        placed.append(tree)
        return True

    for tree in ordered:
        cell = shell.code(tree.split_orbits())
        if not try_place(tree, cell):
            pending[tree] = cell
            for x in _vertices(cell):
                ridge = cell ^ x
                if ridge not in shell.ridges:
                    waiting.setdefault(ridge, []).append(tree)
            continue
        while dirty:
            for deferred in list(pending):
                if deferred in dirty:
                    dirty.remove(deferred)
                    if try_place(deferred, pending[deferred]):
                        del pending[deferred]
            dirty.intersection_update(pending)  # placed cells marked by a later ridge
    if pending:
        raise RuntimeError(
            "deferral repair failed to complete a shelling order"
        )
    return placed


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
        code = shell.code(cell)
        blockers = shell.blockers(code)
        if blockers:
            j = (blockers & -blockers).bit_length() - 1  # the lowest set bit
            return ShellingCounterExample(
                cells[j],
                cell,
                "no earlier cell differs from C in exactly one vertex "
                "while containing the intersection",
            )
        shell.add(code)
    return None


def shelling_check(n: int, catalog: Optional[TreeCatalog] = None):
    """Order the catalog and verify the shelling property."""
    if n > VERIFY_CAP:
        raise ValueError(f"n={n} exceeds verification cap {VERIFY_CAP}")
    ordered = shelling_order(n, catalog)
    return verify_shelling([t.split_orbits() for t in ordered]), ordered
