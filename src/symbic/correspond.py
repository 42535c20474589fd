"""The bijection between symmetric tropical rank-2 matrices and symbic trees.

``matrix_from_tree`` sums, per entry (i, j), the lengths of the edges whose
side away from the base point holds both i and j', read off the tree index
(``trees._away_sides``); ``tree_from_matrix`` rebuilds the tree from the
matrix through an exact leaf metric.  Round trips are exact: rationals in,
rationals out, tolerance zero.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import sub
from typing import Optional, Sequence

from .tropical import (
    TropMatrix,
    TropicalError,
    _integer_grid,
    canonicalize_mod_lineality,
    sym_trop_rank,
)
from .trees import (
    MalformedTreeError,
    SymbicTree,
    _away_sides,
    _path_form,
    format_label,
    label_key,
    tree_of_single_pair,
)


class NotRankTwoError(TropicalError):
    """The matrix has symmetric tropical rank > 2; no tree exists."""


class RankOneMatrixError(TropicalError):
    """The matrix has symmetric tropical rank 1: its tree degenerates to a
    star, which we report instead of emitting."""


class ReconstructionError(TropicalError):
    """The derived leaf metric was not realizable; impossible for genuine
    rank-2 input and so indicates an internal contradiction."""


def base_point(tree: SymbicTree, base: Optional[int] = None) -> int:
    """Resolve and sanity-check the base point O: any fixed trunk vertex.
    The default is the trunk end opposite the anchor, so the end whose
    branches carry the smaller smallest row-leaf index (the single trunk
    vertex for one-point trunks), which lines up with how the worked
    matrices read off a tree."""
    trunk = tree.trunk()
    if base is None:
        return trunk[-1]
    if base not in trunk:
        raise MalformedTreeError("base point must be a fixed trunk vertex")
    return base


def matrix_from_tree(tree: SymbicTree, base: Optional[int] = None) -> TropMatrix:
    """Entry (i, j): distance from O to the vertex where the paths O -> i
    and O -> j' part, the total length of the edges with i and j' on their
    side away from O (``trees._path_form``); symmetric of symmetric
    tropical rank <= 2."""
    o = base_point(tree, base)
    n = tree.n
    scale = tree._index().scale
    sums = _path_form(n, [(away, length) for _, away, length in _away_sides(n, tree, o)])
    matrix = TropMatrix([Fraction(x, scale) for x in sums[i : i + n]] for i in range(0, n * n, n))
    assert matrix.is_symmetric(), "tree symmetry must make the matrix symmetric"
    return matrix


def path_matrix_from_tree(tree: SymbicTree) -> TropMatrix:
    """Entry (i, j): total internal length of the path from leaf i to leaf
    j'.  Its negative has symmetric tropical rank 2 max-plus-wise."""
    n = tree.n
    rows = []
    for i in range(1, n + 1):
        pi = tree.pos(i)
        rows.append([tree.distance(pi, tree.pos(-j)) for j in range(1, n + 1)])
    return TropMatrix(rows)


def leaf_distances(tree: SymbicTree, base: Optional[int] = None) -> tuple[Fraction, ...]:
    """Internal distances from the base point to the row leaves 1..n."""
    o = base_point(tree, base)
    return tuple(tree.distance(o, tree.pos(i)) for i in range(1, tree.n + 1))


def lineality_identity_check(tree: SymbicTree, base: Optional[int] = None) -> bool:
    """2 A_T + B_T must equal D (tropical-times) D^T with D the distances
    from O to the leaves; true for every valid tree."""
    o = base_point(tree, base)
    a = matrix_from_tree(tree, o)
    b = path_matrix_from_tree(tree)
    d = leaf_distances(tree, o)
    n = tree.n
    return all(
        2 * a.entry(i, j) + b.entry(i, j) == d[i - 1] + d[j - 1]
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )


class LeafMetric:
    """Exact pairwise internal path lengths between the 2n leaf labels."""

    __slots__ = ("labels", "dist")

    def __init__(self, labels: Sequence[int], dist: dict[tuple[int, int], Fraction]):
        self.labels = tuple(sorted(labels, key=label_key))
        self.dist = dist

    def distance(self, x: int, y: int) -> Fraction:
        if x == y:
            return Fraction(0)
        return self.dist[(x, y) if (x, y) in self.dist else (y, x)]

    def four_point_violation(self) -> Optional[tuple]:
        """First quadruple where the two largest of the three pair-sums
        differ, or None when the metric is additive."""
        for quad in itertools.combinations(self.labels, 4):
            w, x, y, z = quad
            sums = sorted(
                (
                    self.distance(w, x) + self.distance(y, z),
                    self.distance(w, y) + self.distance(x, z),
                    self.distance(w, z) + self.distance(x, y),
                )
            )
            if sums[1] != sums[2]:
                return quad
        return None


def leaf_metric_from_matrix(matrix: TropMatrix) -> LeafMetric:
    """Distances between leaf attachment points recovered from the matrix.

    The tree lives inside the tropical convex hull of the columns with the
    tropical Hilbert metric: row leaf i sits at column i, and column leaf j'
    sits where the j-th coordinate ray attaches, at the point with
    coordinates min_l (M_kl - M_jl).  Both positions shift by a common
    translation under simultaneous tropical row/column scaling, so every
    pairwise distance is invariant on the matrix's lineality class.

    The distances are those of :func:`_integer_leaf_metric`, divided by its
    scale L as ``Fraction``s.
    """
    labels, dist, scale = _integer_leaf_metric(matrix)
    return LeafMetric(labels, {pair: Fraction(d, scale) for pair, d in dist.items()})


def _integer_leaf_metric(matrix: TropMatrix) -> tuple[list[int], dict[tuple[int, int], int], int]:
    """The leaf metric of :func:`leaf_metric_from_matrix` on the matrix's
    integer grid (see :func:`symbic.tropical._integer_grid`): the labels
    1, 1', 2, 2', ..., n, n' in that order, the distance of every label
    pair (x, y) with x before y times L, as an int, and L, the lcm of the
    entries' denominators.  Refuses a matrix of symmetric tropical rank
    above 2."""
    rank = sym_trop_rank(matrix)
    if rank > 2:
        raise NotRankTwoError(f"symmetric tropical rank {rank} > 2")
    grid, scale = _integer_grid(matrix)
    labels, positions = [], []  # positions[t] is the position of labels[t]
    for i, row_i in enumerate(grid, start=1):
        labels += (i, -i)
        positions.append([row[i - 1] for row in grid])
        positions.append([min(map(sub, row_k, row_i)) for row_k in grid])
    dist = {}
    for (x, px), (y, py) in itertools.combinations(zip(labels, positions), 2):
        diffs = list(map(sub, px, py))
        dist[x, y] = max(diffs) - min(diffs)
    return labels, dist, scale


def _steiner_tree(
    labels: Sequence[int], metric: dict[tuple[int, int], int], scale: int
) -> tuple[dict, dict]:
    """Exact sequential insertion of labeled points into a metric tree.

    ``metric`` holds the distance of every label pair (x, y), x before y
    in ``labels``, times ``scale``, as an int; the labels are inserted in
    order.  Returns (adjacency of internal vertices with Fraction lengths,
    position vertex of every label).  Labels may share positions.  Every
    walk starts at vertex 0, the position of the first label, so the tree
    keeps parent pointers toward it.

    The walk runs on the distances doubled, which makes each Gromov
    product gamma integral.  Edge lengths become ``Fraction``s over
    2 * ``scale`` once, on return: one ``Fraction`` per edge, shared by
    both directions, with every vertex's neighbours in the walk's order.
    """
    x0 = labels[0]
    dist: dict[tuple[int, int], int] = {(x0, x0): 0}
    for (x, y), d in metric.items():
        dist[x, y] = dist[y, x] = 2 * d
    adj: dict[int, dict[int, int]] = {0: {}}
    up: dict[int, int] = {}
    pos: dict[int, int] = {x0: 0}
    placed = [x0]
    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter

    def misfit(z: int, y: int) -> ReconstructionError:
        path = f"({format_label(x0)}, {format_label(y)})"
        return ReconstructionError(f"not a tree metric: cannot place {format_label(z)} on {path}")

    for z in labels[1:]:
        best2, ystar = max((dist[x0, z] + dist[x0, y] - dist[y, z], y) for y in placed)
        gamma = best2 // 2
        stub = dist[x0, z] - gamma
        if gamma < 0 or stub < 0:
            raise misfit(z, ystar)
        # walk from pos(x0) = 0 toward pos(ystar) for distance gamma
        steps = [pos[ystar]]
        while steps[-1] != 0:
            steps.append(up[steps[-1]])
        steps.pop()
        walked = 0
        attach = 0
        while walked < gamma:
            if not steps:
                raise misfit(z, ystar)
            nxt = steps.pop()
            length = adj[attach][nxt]
            if walked + length <= gamma:
                walked += length
                attach = nxt
            else:
                mid = fresh()
                first = gamma - walked
                second = length - first
                del adj[attach][nxt]
                del adj[nxt][attach]
                adj[mid] = {attach: first, nxt: second}
                adj[attach][mid] = first
                adj[nxt][mid] = second
                up[mid], up[nxt] = attach, mid
                attach = mid
                walked = gamma
        if stub == 0:
            pos[z] = attach
        else:
            w = fresh()
            adj[w] = {attach: stub}
            adj[attach][w] = stub
            up[w] = attach
            pos[z] = w
        placed.append(z)
    half = 2 * scale
    lengths: dict[int, dict[int, Fraction]] = {}
    for u, nb in adj.items():  # an edge's length is made once, at its first end
        lengths[u] = {
            v: lengths[v][u] if v in lengths else Fraction(l, half) for v, l in nb.items()
        }
    return lengths, pos


def tree_from_matrix(matrix: TropMatrix) -> SymbicTree:
    """Reconstruct the symbic tree of a symmetric matrix of symmetric
    tropical rank 2 (singular cone boundaries give singular-type trees).

    Rank-1 input degenerates to a star and is reported via
    :class:`RankOneMatrixError` rather than returned; the 1x1 case is the
    honest single-pair tree.  The rebuilt tree must fit every leaf distance
    exactly: that fit certifies the leaf metric as a tree metric.

    The leaf metric stays on the integer grid from the matrix through the
    Steiner insertion to the fit, which compares integers: the tree
    index's integer depths, brought from the tree's length scale to the
    lcm S of L and that scale, against the metric times S / L.  The fit
    reads the normalized tree, not the Steiner adjacency: normalization
    moves a leaf off a pendant stub and drops the stub's length, so a
    metric that places a leaf on a stub is refused only by the tree as
    built.
    """
    if matrix.n == 1:
        return tree_of_single_pair()
    rank = sym_trop_rank(matrix)
    if rank > 2:
        raise NotRankTwoError(f"symmetric tropical rank {rank} > 2")
    if rank == 1:
        raise RankOneMatrixError(
            "rank-one matrix: the tree degenerates to a star"
        )
    labels, metric, scale = _integer_leaf_metric(matrix)
    adj, pos = _steiner_tree(labels, metric, scale)
    # attach explicit leaf vertices
    leaf_vertex = {}
    nxt = max(adj) + 1
    for label, vertex in pos.items():
        adj[nxt] = {vertex: None}
        adj[vertex][nxt] = None
        leaf_vertex[label] = nxt
        nxt += 1
    tree = SymbicTree(matrix.n, adj, leaf_vertex)
    index = tree._index()
    common = math.lcm(scale, index.scale)
    depth = [d * (common // index.scale) for d in index.dist]
    unit = common // scale
    slot = {label: index.slot[v] for label, v in tree.leaf_vertex.items()}
    last, parent = index.last, index.parent
    for (x, y), wanted in metric.items():
        i, j = slot[x], slot[y]
        m = i  # climbs to the lowest common ancestor, as in _TreeIndex.meet
        while not m <= j <= last[m]:
            m = parent[m]
        fitted = depth[i] + depth[j] - 2 * depth[m]
        if fitted != wanted * unit:
            pair = f"({format_label(x)}, {format_label(y)})"
            raise ReconstructionError(
                f"tree distance {Fraction(fitted, common)} at {pair}, metric {Fraction(wanted, scale)}"
            )
    violation = tree.validate()
    if violation is not None:
        raise ReconstructionError(f"reconstruction is not symbic: {violation}")
    return tree


def matrices_agree_mod_lineality(a: TropMatrix, b: TropMatrix) -> bool:
    return canonicalize_mod_lineality(a) == canonicalize_mod_lineality(b)
