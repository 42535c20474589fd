"""Symmetric bicolored trees ("symbic trees"): structure, validation, surgery.

A tree on 2n leaves labeled 1..n (row color) and 1'..n' (column color) with
rational internal edge lengths.  Leaf labels are signed integers internally:
+i is the row leaf i, -i is the column leaf i'.  Leaf edges carry no length
(``None``) and never enter metric computations.

Normal form maintained by the builder:

* every leaf label hangs off its own degree-1 leaf vertex;
* zero-length internal edges are contracted (singular trees are represented
  by honest smaller trees);
* internal edges whose far side holds a single leaf are contracted (a finite
  stub under a leaf edge is meaningless since leaf lengths are ignored);
* degree-2 internal vertices with two internal edges are smoothed, then, if
  the color-swapping involution flips an edge end-for-end, that edge is
  re-subdivided by an explicit fixed midpoint vertex.  This makes "the fixed
  points form a path" checkable on vertices alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import or_
from typing import Iterable, NamedTuple, Optional

from .tropical import parse_rational

Label = int  # +i row leaf, -i column leaf
Split = frozenset  # frozenset of labels: one side of an internal edge
Orbit = frozenset  # frozenset of one or two Splits swapped by the involution


class MalformedTreeError(ValueError):
    """The input graph is not a usable leaf-labeled tree at all."""


class InvalidMoveError(ValueError):
    """An attachment/transition choice that cannot yield a symbic tree."""

    def __init__(self, message: str, violation: "Violation | None" = None):
        super().__init__(message)
        self.violation = violation


class Violation(NamedTuple):
    """A failed symbic axiom: condition 1 bicolored splits, 2 positive
    lengths, 3 involution symmetry, 4 fixed set is a path."""

    condition: int
    detail: str
    witness: object = None


def label_key(label: Label) -> tuple[int, int]:
    return (abs(label), 0 if label > 0 else 1)


def format_label(label: Label) -> str:
    return str(label) if label > 0 else f"{-label}p"


def parse_label(text: str) -> Label:
    if not isinstance(text, str):
        raise MalformedTreeError(f"bad leaf label {text!r}")
    text = text.strip()
    neg = text.endswith("p") or text.endswith("'")
    body = text[:-1] if neg else text
    try:
        idx = int(body)
    except ValueError as exc:
        raise MalformedTreeError(f"bad leaf label {text!r}") from exc
    if idx < 1:
        raise MalformedTreeError(f"bad leaf label {text!r}")
    return -idx if neg else idx


def _vertex_id(value: object) -> int:
    """A vertex id read from JSON: an integer, and not ``true``/``false``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedTreeError(f"vertex id {value!r} is not an integer")
    return value


@functools.lru_cache(maxsize=1 << 16)
def _mask_labels(mask: int) -> frozenset:
    """The signed labels of a label mask, interned: every split of every tree
    with the same mask shares one frozenset.  The cache holds every mask at
    n <= 8 (fewer than 4**n each)."""
    return frozenset(
        b // 2 + 1 if b % 2 == 0 else -(b // 2 + 1)
        for b in range(mask.bit_length())
        if mask >> b & 1
    )


_NO_EDGES: dict = {}  # the neighbours of a vertex missing from a graph
_MISSING = object()  # the length of a missing edge: equal to no length


def _row_bits(n: int) -> int:
    """The label-mask bits of the row leaves 1, 2, ..., n."""
    return (4**n - 1) // 3


def _label_bit(label: Label) -> int:
    """The label-mask bit of a signed label: 2i - 2 for i, 2i - 1 for i'."""
    return 2 * label - 2 if label > 0 else -2 * label - 1


def _swap(mask: int, n: int) -> int:
    """A label mask with the colors swapped, i <-> i' for every index: the
    involution's image of a side."""
    rows = _row_bits(n)
    return (mask & rows) << 1 | mask >> 1 & rows


def _split(mask: int, n: int) -> Split:
    """The split of an edge with a side of label mask ``mask``: the side
    without +1 (bit 0), interned."""
    return _mask_labels(mask ^ (1 << 2 * n) - 1 if mask & 1 else mask)


@functools.lru_cache(maxsize=1 << 16)
def _split_orbit(mask: int, n: int) -> Orbit:
    """The orbit of the split of an edge with a side of label mask
    ``mask``: the split and its color swap, one split when the swap fixes
    it (a trunk edge).  Interned, as the splits are."""
    return frozenset((_split(mask, n), _split(_swap(mask, n), n)))


@functools.lru_cache(maxsize=1 << 16)
def _orbit_masks(orbit: Orbit) -> tuple[int, ...]:
    """The label masks of the splits of an orbit, one per split."""
    return tuple(sum(1 << _label_bit(label) for label in split) for split in orbit)


def _key_masks(key: frozenset) -> list[int]:
    """The split masks of a canonical key: one label mask per split."""
    return [mask for orbit in key for mask in _orbit_masks(orbit)]


def _brittle_twig(n: int, splits: list[int]) -> Optional[tuple[int, ...]]:
    """The brittle twig of a tree read off its split masks, one label mask
    per split, either side: the largest side holding n' whose other labels
    are two or more row leaves and no column leaf.  A split inside that side
    would cut off a one-colored side, so its labels hang along one path from
    pos(n'); they are ordered by the number of splits that separate each from
    n', ties (a shared vertex) ascending."""
    shift = 2 * n - 1  # n' is label-mask bit 2n - 1
    nprime = 1 << shift
    full = (1 << 2 * n) - 1
    columns = _row_bits(n) << 1
    best = 0
    for side in splits:
        if not side & nprime:
            side ^= full
        exposed = side ^ nprime
        if not exposed & columns and exposed.bit_count() > max(best.bit_count(), 1):
            best = exposed
    if not best:
        return None

    def hops(label: Label) -> int:
        bit = _label_bit(label)
        return sum((side >> bit ^ side >> shift) & 1 for side in splits)

    return tuple(sorted(_mask_labels(best), key=lambda label: (hops(label), label)))


def _top_pair_site(n: int, splits: list[int]) -> tuple:
    """The site of :meth:`SymbicTree.top_pair_site` read off a tree's split
    masks, one label mask per split, either side.  Turned away from n, the
    sides are nested or disjoint; the maximal ones are the sides of the
    internal edges at pos(n), and the labels in none of them hang at pos(n).
    A swap-invariant side is the side of a trunk edge.  The two sides of a
    trunk edge come in the order of their lowest label bits.  Two sides that
    swap into each other are two branches of a one-vertex trunk."""
    if n < 2:
        raise MalformedTreeError("nothing to delete below n=2")
    leaf_n, nprime = 1 << (2 * n - 2), 1 << (2 * n - 1)
    full = (1 << 2 * n) - 1
    away = {side ^ full if side & leaf_n else side for side in splits}
    around, covered = [], 0
    for side in sorted(away, key=int.bit_count, reverse=True):
        if not side & covered:
            around.append(side)
            covered |= side
    at_pos = full ^ covered  # the labels at pos(n), n among them
    if at_pos & nprime:
        if len(around) == 1:
            # the branches at the next trunk vertex: its side less the side
            # of the trunk edge beyond it, the largest trunk side inside
            (side,) = around
            beyond = max(
                (s for s in away if s != side and s | side == side and _swap(s, n) == s),
                key=int.bit_count,
                default=0,
            )
            return ("endpoint", _mask_labels(side ^ beyond))
        if len(around) == 2:
            a, b = sorted(around, key=lambda side: side & -side)
            if _swap(a, n) == b:
                return ("vertex",)
            return ("trunk-edge", (_mask_labels(a), _mask_labels(b)))
        raise MalformedTreeError("unexpected valence at the (n, n') vertex")
    if len(around) + at_pos.bit_count() != 3:  # n and two more neighbours
        raise MalformedTreeError("leaf n must sit at a trivalent vertex")
    partner = at_pos ^ leaf_n
    if partner:
        if partner & _row_bits(n):
            raise MalformedTreeError("same-color cherry at leaf n")
        return ("edge", _mask_labels(partner))
    # the side away from n' is the side away from the trunk, hence away
    # from the canonical endpoint of the smaller tree
    a, b = around
    return ("edge", _mask_labels(b if a & nprime else a))


def _anchor_rank(side: int) -> int:
    """The sort key of a trunk end by its side of the trunk edge at it: the
    lowest bit, a row bit since the side is swap-invariant.  The anchor is
    the end of larger rank, whose branches carry the *larger* smallest row
    index; anchoring at the smaller one breaks the shelling (the two
    trunk-extension cells of a smaller tree share the {n, n'} split, and
    only this orientation yields an earlier one-swap neighbor for the later
    of them)."""
    return side & -side


def _anchor_side(n: int, splits: list[int]) -> int:
    """The labels on the anchor's branches read off a tree's split masks,
    one label mask per split, either side; 0 for a one-vertex trunk.  The
    trunk edges are the swap-invariant splits.  Their sides without leaf 1
    point away from the trunk vertex whose branches hold leaf 1, so those
    that hold no other are the trunk's end blocks other than leaf 1's,
    which has the least rank (bit 0) and is never the anchor."""
    full = (1 << 2 * n) - 1
    sides = {s ^ full if s & 1 else s for s in splits if _swap(s, n) == s}
    return max(_ends(sides), key=_anchor_rank, default=0)


def _ends(sides: set[int]) -> list[int]:
    """The oriented split sides of a set that hold no other one."""
    return [x for x in sides if not any(y != x and y | x == x for y in sides)]


def _away_sides(
    n: int, source: "SymbicTree | frozenset", base: Optional[int] = None
) -> list[tuple[Orbit, int, int]]:
    """Per internal edge of an n+n tree: its split orbit, the label mask of
    its side away from the base point O, and its length.  From a tree, off
    its index, O the trunk vertex ``base``, lengths over the index scale: in
    normal form only internal edges have (nonzero) lengths.  From a
    canonical key, off its split masks, O the trunk end opposite the anchor
    (``correspond.base_point``'s default), lengths 1: a trunk edge (a
    swap-invariant split) points at the anchor's side, a branch edge at its
    side disjoint from its swap; a split whose swap is its complement is
    the two halves of a flipped edge, and both count."""
    if isinstance(source, SymbicTree):
        index = source._index()
        o = index.slot[base]
        dist, parent, last, mask = index.dist, index.parent, index.last, index.mask
        return [
            (_split_orbit(side, n), mask[0] ^ side if i <= o <= last[i] else side, length)
            for i, side in enumerate(mask)
            if i and (length := dist[i] - dist[parent[i]])
        ]
    full = (1 << 2 * n) - 1
    edges = [(orbit, side, _swap(side, n)) for orbit in source for side in _orbit_masks(orbit)]
    trunk = [side for _, side, swapped in edges if swapped == side]
    anchor = _anchor_side(n, trunk) if trunk else 0
    out = []
    for orbit, side, swapped in edges:
        if swapped == side:
            out.append((orbit, side if side & anchor else full ^ side, 1))
        elif swapped == full ^ side:
            out += [(orbit, side, 1), (orbit, swapped, 1)]
        else:
            out.append((orbit, full ^ side if side & swapped else side, 1))
    return out


def _path_form(n: int, weighted: Iterable[tuple[int, int]]) -> list[int]:
    """Per entry (i, j), row-major, the weights summed over the edges on the
    path from O to where the paths O -> i and O -> j' part, given (side away
    from O, weight) per edge: the edges with i and j' on that side."""
    form = [0] * (n * n)
    for away, weight in weighted:
        cols = [j for j in range(n) if away >> 2 * j + 1 & 1]
        for i in range(n):
            if away >> 2 * i & 1:
                for j in cols:
                    form[i * n + j] += weight
    return form


def _is_caterpillar(n: int, key: frozenset) -> bool:
    """A single-vertex trunk and internal vertices forming a path, off the
    split masks of a key: no swap-invariant split (a trunk edge), and at
    most two oriented sides hold no other, one per end of the path."""
    full, splits = (1 << 2 * n) - 1, _key_masks(key)
    if any(_swap(s, n) == s for s in splits):
        return False
    return len(_ends({x for s in splits for x in (s, full ^ s)})) <= 2


def _has_caterpillar_branches(n: int, key: frozenset) -> bool:
    """Every branch holds at most one cherry (a vertex with leaves of both
    colors), off the split masks of a key.  The off-trunk edges' sides away
    from the trunk are nested or disjoint, one per off-trunk vertex, whose
    labels are its side less the sides inside it."""
    rows = _row_bits(n)
    away = {x for _, x, _ in _away_sides(n, key) if _swap(x, n) != x}
    cherries = []
    for x in away:
        at = x & ~functools.reduce(or_, [y for y in away if y != x and y | x == x], 0)
        if at & rows and at & rows << 1:
            cherries.append(x)
    return all(sum(c | x == x for c in cherries) < 2 for x in away)


def _place_of_site(site: tuple, near: frozenset) -> tuple:
    """The place in a tree's edge order of a site read off a tree one pair
    larger, given ``near``, the labels on the branches at the anchor (every
    label for a one-vertex trunk).  A trunk edge is named by its side away
    from the anchor endpoint; a trunk endpoint is near or far; an edge and
    the vertex of a one-vertex trunk are places already."""
    if site[0] in ("edge", "vertex"):
        return site
    if site[0] == "endpoint":
        return ("near",) if site[1] <= near else ("far",)
    a, b = site[1]
    return ("edge", a if not near & a else b)


class _TreeIndex(NamedTuple):
    """One depth-first walk of a tree from an arbitrary root.  Vertices are
    numbered in preorder, so the subtree of position i is the run i..last[i].
    Per position: the parent's position (-1 at the root), the internal path
    length from the root as an integer depth over ``scale`` (the lcm of the
    internal lengths' denominators, so a depth d is the length d / scale),
    and the mask of the leaf labels in the subtree (bits 0, 1, 2, 3, ...
    for labels 1, 1', 2, 2', ...)."""

    slot: dict  # vertex -> preorder position
    order: tuple  # preorder position -> vertex
    parent: tuple
    last: tuple
    dist: tuple
    mask: tuple
    scale: int

    def meet(self, i: int, j: int) -> int:
        """Position of the lowest common ancestor of positions i and j."""
        last, parent = self.last, self.parent
        while not i <= j <= last[i]:
            i = parent[i]
        return i


def _preorder(adj: dict, root: int) -> dict[int, Optional[int]]:
    """Parent pointers (None at the root) of a depth-first walk over root's
    component, in preorder: every subtree is a contiguous run.  The stack
    holds bare vertices, each marked with its parent when pushed; on a tree
    a vertex is pushed once, by its parent, so the walk is the one a stack
    of (vertex, parent) pairs marked when popped would give."""
    up: dict[int, Optional[int]] = {root: None}
    walk: dict[int, Optional[int]] = {}
    stack = [root]
    pop, push = stack.pop, stack.append
    while stack:
        a = pop()
        walk[a] = up[a]
        for b in adj[a]:
            if b not in up:
                up[b] = a
                push(b)
    return walk


class SymbicTree:
    """Immutable-by-convention symbic tree candidate.

    Construction normalizes the graph; :meth:`validate` checks the four
    symbic axioms and is the only place that *reports* failures rather than
    raising.  Structurally broken inputs raise :class:`MalformedTreeError`.
    """

    __slots__ = ("n", "adj", "leaf_vertex", "_cache")

    def __init__(
        self,
        n: int,
        adj: dict[int, dict[int, Optional[Fraction]]],
        leaf_vertex: dict[Label, int],
        involution_hint: Optional[dict[int, int]] = None,
    ):
        self.n = n
        self.adj = adj
        self.leaf_vertex = leaf_vertex
        self._cache: dict = {}
        _normalize(self, involution_hint)

    # -- basic structure ---------------------------------------------------

    def labels(self) -> list[Label]:
        return sorted(self.leaf_vertex, key=label_key)

    def vertices(self) -> list[int]:
        return sorted(self.adj)

    def leaf_vertices(self) -> set[int]:
        return set(self.leaf_vertex.values())

    def internal_vertices(self) -> list[int]:
        leaves = self.leaf_vertices()
        return sorted(v for v in self.adj if v not in leaves)

    def pos(self, label: Label) -> int:
        """Attachment vertex of a leaf: the unique neighbor of its leaf vertex."""
        lv = self.leaf_vertex[label]
        (att,) = self.adj[lv]
        return att

    def internal_edges(self) -> list[tuple[int, int, Fraction]]:
        """The edges that carry a length: exactly those between internal vertices."""
        return [e for e in self.edges() if e[2] is not None]

    def edges(self) -> list[tuple[int, int, Optional[Fraction]]]:
        # sorted by (u, v): no two edges share both ends, so lengths never compare
        return sorted(
            (u, v, length) for u, nbrs in self.adj.items() for v, length in nbrs.items() if u <= v
        )

    # -- metric ------------------------------------------------------------

    def _index(self) -> _TreeIndex:
        """The rooted walk behind every distance, path and side query, built
        on first use.  The involution search builds it during normalization
        and reads its subtree masks as the edge splits; normalization drops
        it again if it then inserts a flip midpoint."""
        index = self._cache.get("index")
        if index is None:
            adj = self.adj
            walk = _preorder(adj, next(iter(adj)))
            order = tuple(walk)
            size = len(order)
            slot = {v: i for i, v in enumerate(order)}
            parent = [-1] * size
            lengths = [None] * size  # of the edge up from each position
            for i in range(1, size):
                v = order[i]
                p = walk[v]
                parent[i] = slot[p]
                lengths[i] = adj[p][v]
            scale = math.lcm(*(x.denominator for x in lengths if x is not None))
            dist = [0] * size
            for i in range(1, size):
                x = lengths[i]
                up = dist[parent[i]]
                dist[i] = up if x is None else up + x.numerator * (scale // x.denominator)
            mask = [0] * size
            for label, lv in self.leaf_vertex.items():
                mask[slot[lv]] = 1 << _label_bit(label)
            last = list(range(size))
            for i in range(size - 1, 0, -1):
                p = parent[i]
                mask[p] |= mask[i]
                if last[p] < last[i]:
                    last[p] = last[i]
            index = _TreeIndex(
                slot, order, tuple(parent), tuple(last), tuple(dist), tuple(mask), scale
            )
            self._cache["index"] = index
        return index

    def distance(self, u: int, v: int) -> Fraction:
        """Internal path length between two vertices (leaf edges count 0)."""
        index = self._index()
        i, j = index.slot[u], index.slot[v]
        dist = index.dist
        return Fraction(dist[i] + dist[j] - 2 * dist[index.meet(i, j)], index.scale)

    def path(self, u: int, v: int) -> list[int]:
        index = self._index()
        i, j = index.slot[u], index.slot[v]
        m = index.meet(i, j)
        up, down = [], []
        while i != m:
            up.append(index.order[i])
            i = index.parent[i]
        while j != m:
            down.append(index.order[j])
            j = index.parent[j]
        return up + [index.order[m]] + down[::-1]

    # -- splits and keys ----------------------------------------------------

    def _side_mask(self, u: int, v: int) -> int:
        """Label mask of the component of v when the edge (u, v) is removed."""
        if v not in self.adj[u]:
            raise MalformedTreeError(f"({u}, {v}) is not an edge")
        index = self._index()
        i, j = index.slot[u], index.slot[v]
        return index.mask[j] if index.parent[j] == i else index.mask[0] ^ index.mask[i]

    def side_labels(self, u: int, v: int) -> frozenset:
        """Labels in the component of v when the edge (u, v) is removed."""
        return _mask_labels(self._side_mask(u, v))

    def _edge_with_descriptor(self, descriptor: object) -> Optional[tuple[int, int]]:
        """The edge (u, v), u < v, whose far side, the labels on the side
        not containing the canonical trunk endpoint, equals ``descriptor``,
        or None; no two edges share one (see ``EdgeOrder``).  Each edge's
        far side is read off the index as a mask and compared with the
        descriptor's mask."""
        if not isinstance(descriptor, (set, frozenset)):
            return None
        if not descriptor <= self.leaf_vertex.keys():
            return None
        want = sum(1 << _label_bit(label) for label in descriptor)
        index = self._index()
        anchor = index.slot[self.canonical_endpoint()]
        order, parent, last, mask = index.order, index.parent, index.last, index.mask
        for j in range(1, len(order)):
            side = mask[j] ^ mask[0] if j <= anchor <= last[j] else mask[j]
            if side == want:
                u, v = order[parent[j]], order[j]
                return (u, v) if u < v else (v, u)
        return None

    def splits(self) -> dict[frozenset, Split]:
        """Map internal edge {u, v} -> its split side not containing +1, in
        the order of :meth:`edges`.  Read off the tree index on every call
        rather than stored."""
        return {frozenset(edge): _split(side, self.n) for edge, side in self._edge_sides()}

    def _edge_sides(self) -> list[tuple[tuple[int, int], int]]:
        """Per internal edge (u, v), u < v, in sorted order: the label mask
        of v's side, read off the index position below the edge."""
        index = self._index()
        order, parent, mask = index.order, index.parent, index.mask
        full = mask[0]
        leaves = self.leaf_vertices()
        out = []
        for i in range(1, len(order)):
            u, v = order[parent[i]], order[i]  # the subtree of i is v's side
            if u in leaves or v in leaves:  # a leaf edge
                continue
            out.append(((u, v), mask[i]) if u < v else ((v, u), full ^ mask[i]))
        out.sort()
        return out

    def split_orbits(self) -> frozenset:
        """Splits grouped into orbits of the involution; one element per
        internal edge up to symmetry."""
        if "orbits" not in self._cache:
            self._cache["orbits"] = frozenset(self._edge_orbits().values())
        return self._cache["orbits"]

    def _edge_orbits(self) -> dict[frozenset, Orbit]:
        """Map internal edge {u, v} -> the orbit of its split.  The
        involution sends an edge's sides onto its image's sides with the
        colors swapped, so the image's split is the swapped mask's."""
        self.involution()  # refuses a tree without one
        return {frozenset(edge): _split_orbit(side, self.n) for edge, side in self._edge_sides()}

    def canonical_key(self) -> frozenset:
        """Equal keys iff equal combinatorial type; blind to lengths/ids."""
        return self.split_orbits()

    # -- involution and validation ------------------------------------------

    def involution(self) -> dict[int, int]:
        sigma = self._cache["sigma"]  # the verdict of _normalize, found or not
        if sigma is None:
            raise MalformedTreeError("no length-preserving color-swapping symmetry")
        return sigma

    def fixed_vertices(self) -> set[int]:
        """The fixed points of the involution, read off sigma; no leaf is
        one, since sigma swaps i and i'.  They go into the set in ascending
        order, so its iteration order, which the violation witnesses print,
        depends on the vertices alone."""
        return set(sorted(v for v, w in self.involution().items() if v == w))

    def validate(self) -> Optional[Violation]:
        """Check the four symbic axioms; returns the first violation found.
        The verdict is cached: trees are immutable by convention."""
        if "violation" not in self._cache:
            self._cache["violation"] = self._first_violation()
        return self._cache["violation"]

    def _first_violation(self) -> Optional[Violation]:
        rows = _row_bits(self.n)
        full = self._index().mask[0]
        sides = self._edge_sides()
        for _, side in sides:
            for s in (side, full ^ side):
                if not s & rows or not s & (rows << 1):
                    return Violation(1, "split with one color on a side", _mask_labels(s))
        for (u, v), _ in sides:
            if self.adj[u][v].numerator <= 0:  # the sign of a rational, read exactly
                return Violation(2, "nonpositive internal edge length", (u, v))
        if self._cache["sigma"] is None:
            return Violation(3, "no length-preserving color-swapping symmetry")
        fixed = self.fixed_vertices()
        if not fixed:
            return Violation(4, "involution has no fixed vertex")
        fixed_deg = {v: sum(1 for w in self.adj[v] if w in fixed) for v in fixed}
        if any(d > 2 for d in fixed_deg.values()):
            worst = max(fixed_deg, key=lambda v: fixed_deg[v])
            return Violation(4, "fixed set is not a path", worst)
        # a vertex subset of a tree is connected iff it spans |subset| - 1 edges
        if sum(fixed_deg.values()) // 2 != len(fixed) - 1:
            return Violation(4, "fixed set is disconnected", fixed)
        return None

    # -- trunk and shape predicates -------------------------------------------

    def trunk(self) -> tuple[int, ...]:
        """The fixed path, ordered; starts at the canonical endpoint, the
        end of larger :func:`_anchor_rank`."""
        if "trunk" in self._cache:
            return self._cache["trunk"]
        fixed = self.fixed_vertices()
        if len(fixed) == 1:
            path = tuple(fixed)
        else:
            deg = {v: sum(1 for w in self.adj[v] if w in fixed) for v in fixed}
            ends = [v for v in fixed if deg[v] <= 1]
            if len(ends) != 2:
                raise MalformedTreeError("fixed set is not a path")
            path = tuple(self.path(*ends))
            first, last = self._side_mask(path[1], path[0]), self._side_mask(path[-2], path[-1])
            if _anchor_rank(last) > _anchor_rank(first):
                path = path[::-1]
        self._cache["trunk"] = path
        return path

    def canonical_endpoint(self) -> int:
        """The anchor trunk endpoint (single trunk vertex when the trunk is
        a point): reference point for edge descriptors and the shelling
        order's least element."""
        return self.trunk()[0]

    def is_regular(self) -> bool:
        """A valid tree with n-1 split orbits, the most a valid tree has: the
        regular trees are the maximal cells.  In normal form, with t trunk
        vertices, the orbits are the t-1 trunk edges and one per swapped pair
        of off-trunk internal edges.  Branches come in swapped pairs (a branch
        mapped to itself would fix its root, which would lie on the trunk);
        one branch of each pair gives n labels in all.  A branch on k labels
        has at most k-1 internal edges, with equality iff it is trivalent.
        Every trunk vertex carries a branch pair, or its degree is at most 2
        and the normal form removes it.  So there are at most (t-1) + (n-t) =
        n-1 orbits, with equality iff every trunk vertex carries exactly one
        branch pair and every branch is trivalent."""
        return self.validate() is None and len(self.split_orbits()) == self.n - 1

    def is_caterpillar(self) -> bool:
        """Single-vertex trunk and internal vertices forming a path; a tree
        without a trunk is refused."""
        self.trunk()
        return _is_caterpillar(self.n, self.canonical_key())

    def has_caterpillar_branches(self) -> bool:
        """Every branch contains at most one cherry; a tree without a trunk
        is refused."""
        self.trunk()
        return _has_caterpillar_branches(self.n, self.canonical_key())

    # -- brittle twigs -------------------------------------------------------

    def brittle_twig(self) -> Optional[tuple[int, ...]]:
        """The uni-colored caterpillar (i_1, ..., i_k), k >= 2, exposed by
        removing the column leaf n'; None when deleting n, n' stays symbic.
        i_1 is the cherry partner of n'; the sequence runs along the twig.
        Read off the split masks of the internal edges by
        :func:`_brittle_twig`."""
        return _brittle_twig(self.n, [side for _, side in self._edge_sides()])

    # -- surgery --------------------------------------------------------------

    def _graph_copy(self) -> tuple[dict, dict]:
        return (
            {u: dict(nbrs) for u, nbrs in self.adj.items()},
            dict(self.leaf_vertex),
        )

    def _relabelled(self, label_map: dict[Label, Label]) -> "SymbicTree":
        """The one move behind relabelling, leaf deletion and twig reduction:
        rename each leaf by a signed label map and remove the leaves of the
        labels it does not map.  The involution goes down as the hint; it
        stays valid when the map deletes whole index pairs and sends each
        surviving pair i, i' to a pair j, j' or j', j."""
        adj = {u: dict(nbrs) for u, nbrs in self.adj.items()}
        leaf_vertex = {}
        for label, lv in self.leaf_vertex.items():
            if label in label_map:
                leaf_vertex[label_map[label]] = lv
            else:
                (att,) = adj.pop(lv)
                del adj[att][lv]
        return SymbicTree(len(leaf_vertex) // 2, adj, leaf_vertex, self._cache.get("sigma"))

    def relabel(self, index_map: dict[int, int]) -> "SymbicTree":
        """Rename leaf indices; ``index_map`` must send the surviving indices
        bijectively onto 1..m."""
        return self._relabelled(
            {s * i: s * index_map[i] for i in range(1, self.n + 1) for s in (1, -1)}
        )

    def delete_leaves(self, labels: Iterable[Label]) -> "SymbicTree":
        """Drop leaf labels (both colors of each index) and renumber the
        survivors to 1..m preserving order."""
        doomed = set(labels)
        if doomed - self.leaf_vertex.keys() or any(-l not in doomed for l in doomed):
            raise MalformedTreeError("deletion must remove index pairs i, i'")
        survivors = [i for i in range(1, self.n + 1) if i not in doomed]
        return self._relabelled(
            {s * i: s * j for j, i in enumerate(survivors, start=1) for s in (1, -1)}
        )

    def top_pair_site(self) -> tuple:
        """Where the leaves n and n' hang, read off this tree alone: the first
        half of :meth:`delete_top_pair`.  ("edge", labels) is already a place
        of the smaller tree's edge order.  ("vertex",), where n and n' hang
        at a one-vertex trunk between two swapped branches, is already a
        place of the smaller tree, whose trunk is that vertex.
        ("trunk-edge", (side, side)) and ("endpoint", branch labels of the
        next trunk vertex) still need the smaller tree's anchor, see
        :meth:`place_of_site`.  No label set holds n or n'.  Read off the
        split masks of the internal edges by :func:`_top_pair_site`."""
        return _top_pair_site(self.n, [side for _, side in self._edge_sides()])

    def place_of_site(self, site: tuple) -> tuple:
        """The second half of :meth:`delete_top_pair`: the place in this
        tree's edge order of a site read off a tree one pair larger, by
        :func:`_place_of_site` with the labels on the branches at this
        tree's anchor, its side of the trunk."""
        trunk = self.trunk()
        near = self._side_mask(trunk[1], trunk[0]) if len(trunk) > 1 else self._index().mask[0]
        return _place_of_site(site, _mask_labels(near))

    def delete_top_pair(self) -> tuple["SymbicTree", tuple]:
        """Delete leaves n and n', returning the smaller tree and the place
        n was attached at, as an element of the smaller tree's edge order:
        ("near",), ("far",) or ("edge", edge descriptor); or ("vertex",),
        the vertex of a one-vertex trunk, which no edge order lists (n and n'
        hung there between two swapped branches, so the tree is not
        regular)."""
        site = self.top_pair_site()
        smaller = self.delete_leaves({self.n, -self.n})
        return smaller, smaller.place_of_site(site)

    def attach_top_pair(self, place: tuple, length: Fraction | int = 1) -> "SymbicTree":
        """Attach a new leaf pair (n+1, (n+1)') at a place descriptor from
        :meth:`delete_top_pair` / the shelling edge order; at ("vertex",)
        both leaves hang at the vertex of a one-vertex trunk, and ``length``
        is not used.  Raises :class:`InvalidMoveError` when the result is
        not symbic."""
        k = self.n + 1
        length = parse_rational(length)
        if length <= 0:
            raise InvalidMoveError("attachment edge length must be positive")
        adj, leaf_vertex = self._graph_copy()
        counter = max(adj)
        sigma = dict(self.involution())  # extended to every new vertex

        def new_vertex() -> int:
            nonlocal counter
            counter += 1
            return counter

        def hang(x: int, label: Label) -> None:
            lv = new_vertex()
            adj[lv] = {x: None}
            adj[x][lv] = None
            leaf_vertex[label] = lv

        leaves = self.leaf_vertices()

        def subdivide(a: int, b: int) -> int:
            old = adj[a].pop(b)
            del adj[b][a]
            x = new_vertex()
            if old is None:
                leafv, att = (a, b) if a in leaves else (b, a)
                adj[x] = {leafv: None, att: length}
                adj[leafv][x] = None
                adj[att][x] = length
            else:
                half = Fraction(old, 2)
                adj[x] = {a: half, b: half}
                adj[a][x] = half
                adj[b][x] = half
            return x

        # n+1 hangs at x and (n+1)' at its mirror image x2; x2 = x is fixed
        if place in (("near",), ("far",)):
            trunk = self.trunk()
            if place == ("far",) and len(trunk) == 1:
                raise InvalidMoveError("one-vertex trunk has no far endpoint")
            v = trunk[0] if place == ("near",) else trunk[-1]
            x = x2 = new_vertex()
            adj[x] = {v: length}
            adj[v][x] = length
            hang(x, k)
        elif place == ("vertex",):
            trunk = self.trunk()
            if len(trunk) != 1:
                raise InvalidMoveError("only a one-vertex trunk takes a pair at its vertex")
            x = x2 = trunk[0]
            hang(x, k)
        elif len(place) == 2 and place[0] == "edge":
            target = self._edge_with_descriptor(place[1])
            if target is None:
                raise InvalidMoveError(f"no edge with descriptor {set(place[1])}")
            u, v = target
            mirror = (sigma[u], sigma[v])
            x = x2 = subdivide(u, v)
            hang(x, k)
            if frozenset(mirror) != frozenset(target):
                x2 = subdivide(*mirror)
        else:
            raise InvalidMoveError(f"unknown place {place!r}")
        hang(x2, -k)
        sigma[x], sigma[x2] = x2, x
        sigma[leaf_vertex[k]], sigma[leaf_vertex[-k]] = leaf_vertex[-k], leaf_vertex[k]
        tree = SymbicTree(k, adj, leaf_vertex, involution_hint=sigma)
        violation = tree.validate()
        if violation is not None:
            raise InvalidMoveError(f"attachment breaks axiom: {violation}", violation)
        return tree

    def contract_orbit(self, orbit: Orbit) -> "SymbicTree":
        """Contract the edge(s) of one split orbit; the singular type is
        represented as the honest smaller-orbit tree.  The edges get length
        0 and the normal form contracts them, mapping the involution
        handed down through its merges."""
        edges = [e for e, s in self.splits().items() if s in orbit]
        if not edges:
            raise InvalidMoveError("orbit not present in this tree")
        adj, leaf_vertex = self._graph_copy()
        for u, v in edges:
            adj[u][v] = adj[v][u] = Fraction(0)
        return SymbicTree(self.n, adj, leaf_vertex, self.involution())

    def expansions(self, orbit: Orbit) -> dict[Orbit, "SymbicTree"]:
        """All regular symbic trees reachable by contracting ``orbit`` and
        re-expanding the fat vertex it leaves behind, keyed by the newly
        created orbit.  The original tree appears under ``orbit`` itself."""
        singular = self.contract_orbit(orbit)
        sigma = singular.involution()
        leaves = singular.leaf_vertices()

        def allowed_degree(v: int) -> int:
            if sigma[v] != v:
                return 3
            trunk_edges = sum(
                1 for w in singular.adj[v] if w not in leaves and sigma[w] == w
            )
            return 2 + trunk_edges

        fat = [
            v
            for v in singular.internal_vertices()
            if len(singular.adj[v]) > allowed_degree(v)
        ]
        if not fat:
            raise InvalidMoveError("contraction produced no expandable vertex")
        f = min(fat)
        out: dict[Orbit, SymbicTree] = {}
        incident = sorted(singular.adj[f])
        for r in range(2, len(incident) - 1):
            for group in itertools.combinations(incident, r):
                candidate = _expand_vertex(singular, f, group)
                if candidate is None or not candidate.is_regular():
                    continue
                new_orbits = candidate.split_orbits() - singular.split_orbits()
                if len(new_orbits) != 1:
                    continue
                out[next(iter(new_orbits))] = candidate
        return out

    def transition(self, contract: Orbit, expand: Orbit) -> "SymbicTree":
        """Contract one orbit and expand another: the basic move between
        regular symbic trees.  ``expand`` names the orbit to create."""
        if expand == contract:
            raise InvalidMoveError("transition must change the tree")
        options = self.expansions(contract)
        if expand not in options:
            raise InvalidMoveError("expansion choice does not yield a symbic tree")
        return options[expand]

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "vertices": self.vertices(),
            "edges": [
                {
                    "u": u,
                    "v": v,
                    "len": None if length is None else str(length),
                }
                for u, v, length in self.edges()
            ],
            "leaves": {
                format_label(l): v
                for l, v in sorted(self.leaf_vertex.items(), key=lambda kv: label_key(kv[0]))
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SymbicTree":
        try:
            edges = data["edges"]
            leaves = data["leaves"]
        except (TypeError, KeyError) as exc:
            raise MalformedTreeError("tree JSON needs 'edges' and 'leaves'") from exc
        vertices = data.get("vertices", [])
        if not isinstance(edges, list) or not isinstance(vertices, list):
            raise MalformedTreeError("tree JSON 'edges' and 'vertices' must be lists")
        if not isinstance(leaves, dict):
            raise MalformedTreeError("tree JSON 'leaves' must map labels to vertex ids")
        adj: dict[int, dict[int, Optional[Fraction]]] = {}
        for v in vertices:
            adj[_vertex_id(v)] = {}
        for e in edges:
            if not isinstance(e, dict) or "u" not in e or "v" not in e:
                raise MalformedTreeError("every tree edge needs 'u' and 'v'")
            u, v = _vertex_id(e["u"]), _vertex_id(e["v"])
            if v in adj.get(u, ()):
                raise MalformedTreeError(f"edge ({u}, {v}) is listed twice")
            raw = e.get("len")
            length = None if raw is None else parse_rational(raw)
            adj.setdefault(u, {})[v] = length
            adj.setdefault(v, {})[u] = length
        leaf_vertex = {parse_label(key): _vertex_id(v) for key, v in leaves.items()}
        indices = sorted({abs(l) for l in leaf_vertex})
        n = len(indices)
        if indices != list(range(1, n + 1)) or len(leaf_vertex) != 2 * n:
            raise MalformedTreeError("leaves must be exactly 1..n and 1'..n'")
        if "n" in data and (type(data["n"]) is not int or data["n"] != n):
            raise MalformedTreeError("declared n must be the integer count of leaf pairs")
        return cls(n, adj, leaf_vertex)

    def to_dot(self) -> str:
        """DOT export: row leaves blue, column leaves red, trunk edges bold."""
        label_of = {v: l for l, v in self.leaf_vertex.items()}
        try:
            trunk = set(self.trunk())
        except MalformedTreeError:
            trunk = set()
        lines = ["graph symbic {", "  node [shape=point];"]
        for v in self.vertices():
            if v in label_of:
                l = label_of[v]
                color = "blue" if l > 0 else "red"
                lines.append(
                    f'  v{v} [shape=plaintext, label="{format_label(l)}", fontcolor={color}];'
                )
        for u, v, length in self.edges():
            attrs = []
            if length is None:
                leaf = u if u in label_of else v
                attrs.append("color=" + ("blue" if label_of[leaf] > 0 else "red"))
            else:
                attrs.append(f'label="{length}"')
                if u in trunk and v in trunk:
                    attrs.append("style=bold")
                    attrs.append("penwidth=2")
            lines.append(f"  v{u} -- v{v} [{', '.join(attrs)}];")
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"SymbicTree(n={self.n})"


# -- construction internals ----------------------------------------------------


def _normalize(tree: SymbicTree, involution_hint: Optional[dict[int, int]]) -> None:
    """Validate the raw graph, bring it to the normal form of the module
    docstring in place, and record the involution (or None) in
    ``_cache["sigma"]``.

    The normal form is reached by one scan over the internal vertices in
    adjacency order, making each single change where it is found: contract
    a zero-length edge into the scanned vertex, drop a degree-1 internal
    vertex, smooth a degree-2 vertex with two lengths, or move a leaf edge
    off a stub.  Only two changes can make an already scanned vertex
    changeable again: a contraction changes the scanned vertex's own
    edges, so it is tested again, and dropping a degree-1 vertex lowers its
    neighbour's degree, so the scan goes back to that neighbour.  The
    changes are thus those of a rescan from the first vertex after each
    one.  The validation pass notes whether any length is zero; when none
    is, the scan skips the zero-edge test, since smoothing sums positive
    lengths and the other moves make no new length.  The validation reads
    each length's sign once, off its numerator, and looks a missing
    neighbour dict up as a shared empty one, so it allocates nothing per
    entry.  A valid ``involution_hint`` replaces the search, which runs on
    the normal form before any flip midpoint exists, so the only vertex of
    degree 2 it meets is the centre of the n = 1 star.  An edge the
    involution flips joins a vertex to its image, so it is read off
    sigma.  When zero-length edges were contracted, the hint is first
    mapped through the merges: if the set of zero edges is closed under
    the hint, as a contracted orbit is, the hint followed by the merge map
    is the contracted tree's involution, whichever end of each edge
    survived."""
    adj, leaf_vertex = tree.adj, tree.leaf_vertex
    n = tree.n
    expected = {s * i for i in range(1, n + 1) for s in (1, -1)}
    if n < 1 or set(leaf_vertex) != expected:
        raise MalformedTreeError("leaf labels must be exactly 1..n and 1'..n'")
    leaves = set(leaf_vertex.values())
    if len(leaves) != 2 * n:
        raise MalformedTreeError("leaf vertices must be distinct")
    for lv in leaves:
        if len(adj.get(lv, _NO_EDGES)) != 1 or next(iter(adj[lv].values())) is not None:
            raise MalformedTreeError("each leaf needs one lengthless leaf edge")
    has_zero = False
    for u, nbrs in adj.items():
        for v, length in nbrs.items():
            if v == u:
                raise MalformedTreeError(f"self-loop at vertex {u}")
            back = adj.get(v, _NO_EDGES).get(u, _MISSING)
            if back is not length and back != length:
                raise MalformedTreeError("asymmetric adjacency")
            if length is None:
                if u not in leaves and v not in leaves:
                    raise MalformedTreeError("lengthless edge between internal vertices")
            elif length.numerator <= 0:  # the sign of a rational, read exactly
                if length:
                    raise MalformedTreeError("negative edge length")
                has_zero = True
    edge_count = sum(len(nbrs) for nbrs in adj.values()) // 2
    if edge_count != len(adj) - 1:
        raise MalformedTreeError("not a tree (wrong edge count)")
    if len(_preorder(adj, next(iter(adj)))) != len(adj):
        raise MalformedTreeError("not a tree (disconnected)")

    internal = [v for v in adj if v not in leaves]
    merged: dict[int, int] = {}  # a contracted vertex -> the one it went into
    i = 0
    while i < len(internal):
        v = internal[i]
        i += 1
        nbrs = adj.get(v)
        if nbrs is None:
            continue
        zero = has_zero and [w for w, L in nbrs.items() if L is not None and L == 0]
        if zero:
            w = zero[0]
            for t, L in list(adj[w].items()):
                if t == v:
                    continue
                del adj[t][w]
                adj[v][t] = L
                adj[t][v] = L
            adj[v].pop(w, None)
            del adj[w]
            merged[w] = v
            i -= 1  # v took w's edges: test it again
            continue
        if len(nbrs) == 0:
            raise MalformedTreeError("isolated internal vertex")
        if len(nbrs) == 1:
            (u,) = nbrs
            del adj[u][v]
            del adj[v]
            if u not in leaves:  # u lost an edge: rewind to it
                i = min(i, internal.index(u))
            continue
        if len(nbrs) == 2:
            (a, la), (b, lb) = nbrs.items()
            if la is not None and lb is not None:
                del adj[a][v]
                del adj[b][v]
                del adj[v]
                adj[a][b] = adj[b][a] = la + lb
            elif (la is None) != (lb is None):
                # a stub under a leaf edge carries no information: the
                # leaf re-attaches at the inner endpoint
                leaf_side, inner = (a, b) if la is None else (b, a)
                del adj[inner][v]
                del adj[v]
                adj[leaf_side] = {inner: None}
                adj[inner][leaf_side] = None
    if not any(v not in leaves for v in adj):
        raise MalformedTreeError("tree has no internal vertex")

    if involution_hint is not None and merged:
        # a merge target is never merged itself: the scan leaves it with
        # no zero edge, and no later change gives it one
        involution_hint = {v: merged.get(w, w) for v, w in involution_hint.items()}
    sigma: Optional[dict[int, int]]
    if involution_hint is not None and _check_involution(tree, involution_hint):
        sigma = {v: involution_hint[v] for v in adj}
    else:
        sigma = _find_involution(tree)
    if sigma is not None:
        # sigma covers every vertex; an edge it flips joins a vertex to its image
        flipped = [(u, v) for u, v in sigma.items() if u < v and v in adj[u]]
        if flipped:
            ((u, v),) = flipped  # an involution of a tree has a single center
            length = adj[u].pop(v)
            del adj[v][u]
            m = max(adj) + 1
            half = Fraction(length, 2)
            adj[m] = {u: half, v: half}
            adj[u][m] = half
            adj[v][m] = half
            sigma[m] = m
            tree._cache.pop("index", None)
    tree._cache["sigma"] = sigma


def _check_involution(tree: SymbicTree, sigma: dict[int, int]) -> bool:
    """Whether sigma is a length-preserving involution of the tree's graph
    that swaps each leaf i with i'.

    Sigma is checked to be an involution on every vertex, so it is a
    bijection of the vertices, and the adjacency is symmetric, so each
    edge is checked once, from its smaller end."""
    adj = tree.adj
    if not set(adj) <= set(sigma):
        return False
    for label, lv in tree.leaf_vertex.items():
        if sigma.get(lv) != tree.leaf_vertex.get(-label):
            return False
    for u, nbrs in adj.items():
        image_nbrs = adj.get(sigma[u])
        if image_nbrs is None or sigma.get(sigma[u]) != u:
            return False
        for v, length in nbrs.items():
            if u < v:
                image = image_nbrs.get(sigma[v], _MISSING)
                if image is not length and image != length:
                    return False
    return True


def _find_involution(tree: SymbicTree) -> Optional[dict[int, int]]:
    """Reconstruct the color-swapping symmetry from edge splits on the
    index: the edge above a non-root position j has j's subtree mask on its
    lower side, and its image is the edge with that mask's color swap
    (bit 2k-2 <-> 2k-1) on one side.  On the lower side the image keeps the
    orientation, and sigma sends j to the image's lower end; on the upper
    side it flips it, and sigma sends j to the image's upper end.  Either
    way the other end is the image of j's parent, which gives the root's
    image from position 1.  One dict keyed by subtree mask finds the image.

    Two edges share a subtree mask only along a run of degree-2 vertices,
    which sit at consecutive positions: the flip midpoint of a normalized
    tree, or the centre of the n = 1 star under a leaf root.  The dict
    holds the bottom of each run, and the image is as far above it as j is
    above the bottom of its own run for a kept orientation, or below the
    top of its own run for a flipped one.  ``_check_involution`` certifies
    the result, lengths included."""
    index = tree._index()
    order, parent, mask = index.order, index.parent, index.mask
    full, rows, size = mask[0], _row_bits(tree.n), len(order)
    bottom = dict(zip(mask[1:], range(1, size)))  # the lowest position of each mask
    sigma = {}
    for j in range(size - 1, 0, -1):  # ends at position 1, whose parent is the root
        m = mask[j]
        swapped = (m & rows) << 1 | m >> 1 & rows
        k = bottom.get(swapped)
        if k is not None:  # the image keeps the orientation
            k -= bottom[m] - j
            image, up = k, parent[k]
        else:
            k = bottom.get(full ^ swapped)
            if k is None:
                return None
            top = j
            while mask[top - 1] == m:
                top -= 1
            k -= j - top
            image, up = parent[k], k
        sigma[order[j]] = order[image]
    sigma[order[0]] = order[up]
    return sigma if _check_involution(tree, sigma) else None


def _expand_vertex(
    tree: SymbicTree, f: int, group: tuple[int, ...]
) -> Optional[SymbicTree]:
    """Pull the ``group`` neighbors of f onto a new vertex (mirrored through
    the involution); returns None for structurally impossible choices."""
    sigma = tree.involution()
    adj, leaf_vertex = tree._graph_copy()
    group_set = set(group)
    mirror_set = {sigma[w] for w in group}
    if sigma[f] == f:
        if group_set == mirror_set:
            moves = [(f, group_set)]
        elif not group_set & mirror_set:
            moves = [(f, group_set), (f, mirror_set)]
        else:
            return None
    else:
        if sigma[f] in group_set:
            return None
        moves = [(f, group_set), (sigma[f], mirror_set)]
    counter = max(adj)
    for origin, members in moves:
        if not members <= set(adj[origin]):
            return None
        if len(adj[origin]) - len(members) < 1:
            return None
        counter += 1
        g = counter
        adj[g] = {}
        for w in members:
            length = adj[origin].pop(w)
            del adj[w][origin]
            adj[g][w] = length
            adj[w][g] = length
        adj[origin][g] = Fraction(1)
        adj[g][origin] = Fraction(1)
    # the new vertices of a mirrored pair of moves swap; a lone one is fixed
    new = range(counter - len(moves) + 1, counter + 1)
    try:
        return SymbicTree(tree.n, adj, leaf_vertex, {**sigma, **dict(zip(new, reversed(new)))})
    except MalformedTreeError:
        return None


# -- basic constructions --------------------------------------------------------


def tree_of_single_pair() -> SymbicTree:
    """The unique 1+1 symbic tree: leaves 1, 1' joined through the fixed
    midpoint vertex."""
    adj: dict[int, dict[int, Optional[Fraction]]] = {
        0: {1: None, 2: None},
        1: {0: None},
        2: {0: None},
    }
    return SymbicTree(1, adj, {1: 1, -1: 2})


def star_tree(n: int) -> SymbicTree:
    """All 2n leaves at one point: the shape of a rank-one matrix."""
    adj: dict[int, dict[int, Optional[Fraction]]] = {0: {}}
    leaf_vertex = {}
    nxt = 1
    for i in range(1, n + 1):
        for sign in (1, -1):
            adj[nxt] = {0: None}
            adj[0][nxt] = None
            leaf_vertex[sign * i] = nxt
            nxt += 1
    return SymbicTree(n, adj, leaf_vertex)
