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
from operator import add, sub
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
    labels, table, scale = _integer_leaf_metric(matrix)
    size = len(labels)
    return LeafMetric(
        labels,
        {
            (labels[s], labels[t]): Fraction(table[s * size + t], scale)
            for s, t in itertools.combinations(range(size), 2)
        },
    )


def _integer_leaf_metric(matrix: TropMatrix) -> tuple[list[int], list[int], int]:
    """The leaf metric of :func:`leaf_metric_from_matrix` on the matrix's
    integer grid x (see :func:`symbic.tropical._integer_grid`): the labels
    1, 1', 2, 2', ..., n, n' in that order, the flat 2n x 2n table of
    their distances times L, as ints, whose entry s * 2n + t is the
    distance of the labels at positions s and t, and L, the lcm of the
    entries' denominators.  Refuses a matrix of symmetric tropical rank
    above 2, and so an asymmetric one, before the grid is read.

    On a symmetric grid the map f(v)_k = min_l (x_kl - v_l) swaps the
    position p_i of every row leaf i (column i) with the position q_i of
    its column leaf i' (q_i = f(p_i)), and keeps their Hilbert distances:
    - f(q_i) = p_i: l = i gives f(q_i)_k <= x_ki, and q_i[l] <= x_lk - x_ik
      for every l, so x_kl - q_i[l] >= x_ik = x_ki;
    - a <= u - v <= b coordinatewise gives -b <= f(u) - f(v) <= -a, so f
      does not expand the metric;
    - so f, which swaps the 2n positions in pairs, keeps their distances:
      d(i', j') = d(i, j) and d(i, j') = d(j, i').
    So one table up[j][k] = max_l (x_jl - x_kl) gives q_j = -up[j] and
    d(j, k) = up[j][k] + up[k][j], and only the n(n + 1)/2 distances
    d(i, j'), i <= j, are spreads, of (x_ik + up[j][k])_k.
    """
    rank = sym_trop_rank(matrix)
    if rank > 2:
        raise NotRankTwoError(f"symmetric tropical rank {rank} > 2")
    grid, scale = _integer_grid(matrix)
    n = len(grid)
    up = [[max(map(sub, row_j, row_k)) for row_k in grid] for row_j in grid]
    mixed = [[0] * n for _ in range(n)]  # mixed[i][j] = d(i, j') = d(j, i')
    for i, row_i in enumerate(grid):
        for j in range(i, n):
            diffs = sorted(map(add, row_i, up[j]))
            mixed[i][j] = mixed[j][i] = diffs[-1] - diffs[0]
    size = 2 * n
    labels, table = [], [0] * (size * size)
    for i, (up_i, down_i, mixed_i) in enumerate(zip(up, zip(*up), mixed)):
        labels += (i + 1, -i - 1)
        rows = list(map(add, up_i, down_i))  # d(i, k)
        s = 2 * i * size  # row i, then row i' from s + size
        table[s : s + size : 2] = table[s + size + 1 : s + 2 * size : 2] = rows
        table[s + 1 : s + size : 2] = table[s + size : s + 2 * size : 2] = mixed_i
    return labels, table, scale


def _steiner_tree(labels: Sequence[int], table: Sequence[int], scale: int) -> tuple[dict, dict]:
    """Exact sequential insertion of labeled points into a metric tree.

    ``table`` is the flat distance table of :func:`_integer_leaf_metric`:
    entry s * len(labels) + t is the distance of labels[s] and labels[t]
    times ``scale``, as an int; the labels are inserted in order.  Returns
    (adjacency of internal vertices with Fraction lengths, position vertex
    of every label).  Labels may share positions.  Every walk starts at
    vertex 0, the position of the first label x0, so the tree keeps parent
    pointers toward it.

    The labels placed before the one at position p are those at positions
    0..p-1, so the Gromov products of label p with each of them, seen from
    x0, come from one pass over the first p entries of rows 0 and p; ties
    go to the larger label int.  The walk runs on the distances doubled,
    which makes each Gromov product gamma integral.  Edge lengths become
    ``Fraction``s over 2 * ``scale`` on return, one per distinct length, so
    the two directions of an edge, and mirrored edges, share one object;
    every vertex's neighbours are in the walk's order.
    """
    size = len(labels)
    x0 = labels[0]
    row0 = table[:size]
    adj: dict[int, dict[int, int]] = {0: {}}
    up: dict[int, int] = {}
    pos: dict[int, int] = {x0: 0}
    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter

    def misfit(z: int, y: int) -> ReconstructionError:
        path = f"({format_label(x0)}, {format_label(y)})"
        return ReconstructionError(f"not a tree metric: cannot place {format_label(z)} on {path}")

    for p in range(1, size):
        z = labels[p]
        # gamma = d(x0, z) + d(x0, y) - d(y, z), the doubled Gromov product, at its largest y
        best, ystar = max(zip(map(sub, row0, table[p * size : p * size + p]), labels))
        gamma = row0[p] + best
        stub = 2 * row0[p] - gamma
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
    half = 2 * scale
    fraction = {l: Fraction(l, half) for l in {l for nb in adj.values() for l in nb.values()}}
    return {u: {v: fraction[l] for v, l in nb.items()} for u, nb in adj.items()}, pos


def tree_from_matrix(matrix: TropMatrix) -> SymbicTree:
    """Reconstruct the symbic tree of a symmetric matrix of symmetric
    tropical rank 2 (singular cone boundaries give singular-type trees).

    Rank-1 input degenerates to a star and is reported via
    :class:`RankOneMatrixError` rather than returned; the 1x1 case is the
    honest single-pair tree.  The rebuilt tree must fit every leaf distance
    exactly: that fit certifies the leaf metric as a tree metric.

    The leaf metric stays on the integer grid, as one table indexed by
    label position, from the matrix through the Steiner insertion to the
    fit, which walks the label pairs in order and compares integers: the
    tree index's integer depths, brought from the tree's length scale to
    the lcm S of L and that scale, against the metric times S / L.  The fit
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
    labels, table, scale = _integer_leaf_metric(matrix)
    adj, pos = _steiner_tree(labels, table, scale)
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
    slot = [index.slot[tree.leaf_vertex[label]] for label in labels]
    last, parent = index.last, index.parent
    size = len(labels)
    for (s, i), (t, j) in itertools.combinations(enumerate(slot), 2):
        m = i  # climbs to the lowest common ancestor, as in _TreeIndex.meet
        while not m <= j <= last[m]:
            m = parent[m]
        fitted = depth[i] + depth[j] - 2 * depth[m]
        wanted = table[s * size + t]
        if fitted != wanted * unit:
            pair = f"({format_label(labels[s])}, {format_label(labels[t])})"
            raise ReconstructionError(
                f"tree distance {Fraction(fitted, common)} at {pair}, metric {Fraction(wanted, scale)}"
            )
    violation = tree.validate()
    if violation is not None:
        raise ReconstructionError(f"reconstruction is not symbic: {violation}")
    return tree


def matrices_agree_mod_lineality(a: TropMatrix, b: TropMatrix) -> bool:
    return canonicalize_mod_lineality(a) == canonicalize_mod_lineality(b)
