import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symbic import correspond
from symbic.acceptance import four_pair_chain_tree
from symbic.correspond import (
    LeafMetric,
    NotRankTwoError,
    RankOneMatrixError,
    ReconstructionError,
    _steiner_tree,
    base_point,
    leaf_distances,
    leaf_metric_from_matrix,
    lineality_identity_check,
    matrices_agree_mod_lineality,
    matrix_from_tree,
    path_matrix_from_tree,
    tree_from_matrix,
)
from symbic.counting import enumerate_regular, orbit_sort_key, random_regular_tree
from symbic.matroid import CayleyMatrix, cayley_matrix, ground_set
from symbic.trees import MalformedTreeError, SymbicTree, format_label, tree_of_single_pair
from symbic.tropical import (
    TropicalError,
    TropMatrix,
    _integer_grid,
    hilbert_distance,
    rank_one_matrix,
    sym_trop_rank,
)
from test_trees import branches, cherries, divergence_vertex, split_set, with_orbit_lengths
from test_tropical import column

PERMUTED = TropMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def divergences(tree, base=None):
    """The base point O, and per entry (i, j) the vertex where the paths
    O -> i and O -> j' part, found by walking the tree: the oracle of the
    split-side reading behind ``matrix_from_tree`` and ``cayley_matrix``."""
    o = base_point(tree, base)
    cols = [tree.pos(-j) for j in range(1, tree.n + 1)]
    table = []
    for i in range(1, tree.n + 1):
        pi = tree.pos(i)
        table.append([divergence_vertex(tree, o, pi, pj) for pj in cols])
    return o, table


def walk_matrix_from_tree(tree, base=None):
    """Entry (i, j): the distance from O to the walked divergence vertex."""
    o, table = divergences(tree, base)
    return TropMatrix([[tree.distance(o, v) for v in row] for row in table])


def walk_cayley_matrix(tree, base=None):
    """The Cayley matrix with its node rows grouped by the walked
    divergence vertex's orbit {v, sigma v}, the base point's excluded, in
    the order of each orbit's first pair."""
    o, table = divergences(tree, base)
    sigma = tree.involution()
    n = tree.n
    pairs = ground_set(n)
    orbit = {(i, j): frozenset((table[i - 1][j - 1], sigma[table[i - 1][j - 1]])) for i, j in pairs}
    nodes = list(dict.fromkeys(orb for orb in orbit.values() if orb != frozenset((o,))))
    assert len(nodes) == n - 1
    rows = [tuple(1 if orbit[p] == node else 0 for p in pairs) for node in nodes]
    rows += [tuple((i == c) + (j == c) for i, j in pairs) for c in range(1, n + 1)]
    return CayleyMatrix(n, len(nodes), pairs, tuple(rows))


@given(st.integers(2, 9), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_split_side_readers_match_the_walk(n, rng):
    """``matrix_from_tree`` and ``cayley_matrix`` read split sides; the
    walk to each divergence vertex is the oracle, on random trees with
    random rational lengths, from every trunk vertex, and on a face with
    one orbit contracted (a longer trunk or a flipped edge)."""
    tree = random_regular_tree(n, rng)
    orbits = sorted(tree.split_orbits(), key=orbit_sort_key)
    lengths = {orbit: Fraction(rng.randint(1, 60), rng.randint(1, 12)) for orbit in orbits}
    tree = with_orbit_lengths(tree, lengths)
    for base in tree.trunk():
        assert matrix_from_tree(tree, base) == walk_matrix_from_tree(tree, base)
        assert cayley_matrix(tree, base) == walk_cayley_matrix(tree, base)
    face = tree.contract_orbit(rng.choice(orbits))
    for base in face.trunk():
        assert matrix_from_tree(face, base) == walk_matrix_from_tree(face, base)


def test_single_pair_tree_maps_to_zero_matrix():
    t = tree_of_single_pair()
    assert matrix_from_tree(t) == TropMatrix([[0]])
    assert path_matrix_from_tree(t) == TropMatrix([[0]])
    assert tree_from_matrix(TropMatrix([[5]])).canonical_key() == t.canonical_key()


def test_worked_four_pair_matrices():
    tree = four_pair_chain_tree(1, 2, 3)
    assert len(tree.split_orbits()) == 3
    assert matrix_from_tree(tree) == TropMatrix(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 2], [0, 0, 2, 5]]
    )
    assert path_matrix_from_tree(tree) == TropMatrix(
        [[2, 0, 3, 6], [0, 2, 3, 6], [3, 3, 0, 3], [6, 6, 3, 0]]
    )
    assert leaf_distances(tree) == (1, 1, 2, 5)
    assert lineality_identity_check(tree)


def test_base_point_prefers_smallest_row_branch():
    tree = four_pair_chain_tree(1, 2, 3)
    o = base_point(tree)
    assert tree.pos(1) in tree.adj[o] or tree.distance(o, tree.pos(1)) == 1
    # the 4-end would give different distances
    other = tree.trunk()[0] if tree.trunk()[0] != o else tree.trunk()[-1]
    assert leaf_distances(tree, other) != leaf_distances(tree, o)
    with pytest.raises(MalformedTreeError):
        base_point(tree, tree.pos(1))  # not a fixed trunk vertex


def min_row_end(tree):
    """The base point as first defined: the trunk end whose branches carry
    the smaller smallest row index."""
    trunk = tree.trunk()
    if len(trunk) == 1:
        return trunk[0]

    def min_row(v):
        rows = (l for br in branches(tree) if br.trunk_vertex == v for l in br.labels if l > 0)
        return min(rows, default=tree.n + 1)

    return min((trunk[0], trunk[-1]), key=lambda v: (min_row(v), v))


def test_default_base_point_is_the_min_row_end():
    checked = 0
    for n in range(1, 6):
        for tree in enumerate_regular(n):
            assert base_point(tree) == min_row_end(tree)
            checked += len(tree.trunk()) > 1
    rng = random.Random(11)
    for _ in range(300):
        tree = random_regular_tree(rng.randint(1, 8), rng)
        assert base_point(tree) == min_row_end(tree)
        checked += len(tree.trunk()) > 1
    assert checked > 1000


def test_negated_path_matrix_is_max_plus_rank_two():
    """-B viewed min-plus-wise is B viewed max-plus-wise (up to global
    negation), so its symmetric tropical rank must be 2."""
    rng = random.Random(3)
    for _ in range(20):
        tree = random_regular_tree(rng.randint(2, 5), rng)
        b = path_matrix_from_tree(tree)
        negated = TropMatrix([[-x for x in row] for row in b.rows])
        assert sym_trop_rank(negated) <= 2


def test_leaf_metric_of_permuted_example():
    metric = leaf_metric_from_matrix(PERMUTED)
    # leaves 1 and 1' share a vertex; 2 pairs with 3'
    assert metric.distance(1, -1) == 0
    assert metric.distance(2, -3) == 0
    assert metric.distance(1, -2) == 2
    assert metric.four_point_violation() is None


def test_leaf_metric_star_for_rank_one():
    metric = leaf_metric_from_matrix(rank_one_matrix([0, 1, 2]))
    for x in metric.labels:
        for y in metric.labels:
            assert metric.distance(x, y) == 0


def test_leaf_metric_of_worked_example():
    a = matrix_from_tree(four_pair_chain_tree(1, 2, 3))
    metric = leaf_metric_from_matrix(a)
    assert metric.distance(3, 4) == 3  # the paths split at the b-node


def all_pairs_leaf_table(matrix):
    """``_integer_leaf_metric`` by its definition, with no rank test and no
    symmetry assumed: every label's position on the integer grid x, row
    leaf i at column i and column leaf i' at min_l (x_kl - x_il), and the
    Hilbert distance of every ordered pair of positions, as (labels, flat
    table, scale)."""
    grid, scale = _integer_grid(matrix)
    labels, positions = [], []
    for i, row_i in enumerate(grid, start=1):
        labels += (i, -i)
        positions.append([row[i - 1] for row in grid])
        positions.append([min(a - b for a, b in zip(row_k, row_i)) for row_k in grid])
    table = []
    for ps in positions:
        for pt in positions:
            diffs = [a - b for a, b in zip(ps, pt)]
            table.append(max(diffs) - min(diffs))
    return labels, table, scale


def label_distances(labels, table):
    """The flat table keyed by ordered label pair."""
    size = len(labels)
    return {
        (x, y): table[s * size + t] for s, x in enumerate(labels) for t, y in enumerate(labels)
    }


@st.composite
def symmetric_rational_matrices(draw):
    """Symmetric matrices of every rank, n = 1..7: tree matrices and tie-heavy
    grids of small rationals, each shifted along the lineality space by a
    vector with mixed denominators."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        rows = matrix_from_tree(random_regular_tree(n, random.Random(draw(st.integers(0, 2**32))))).rows
    else:
        entries = {
            (i, j): Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 1, 2, 3))))
            for i in range(n)
            for j in range(i, n)
        }
        rows = [[entries[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    shift = draw(st.lists(st.fractions(-9, 9, max_denominator=12), min_size=n, max_size=n))
    return TropMatrix(rows).add(rank_one_matrix(shift))


@given(symmetric_rational_matrices())
@example(TropMatrix([[Fraction(1, 2)]]))
@example(TropMatrix([[0, Fraction(1, 3)], [Fraction(1, 3), Fraction(-2, 5)]]))
@settings(max_examples=300, deadline=None)
def test_leaf_table_matches_the_all_pairs_oracle(matrix):
    """With the rank scan stubbed, so at every rank, the table built on the
    color swap equals the all-pairs one, labels and scale included; and the
    all-pairs table is itself invariant under the swap i <-> i'."""
    labels, table, scale = all_pairs_leaf_table(matrix)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(correspond, "sym_trop_rank", lambda matrix: 2)
        assert correspond._integer_leaf_metric(matrix) == (labels, table, scale)
    d = label_distances(labels, table)
    for i, j in itertools.product(range(1, matrix.n + 1), repeat=2):
        assert d[-i, -j] == d[i, j]
        assert d[i, -j] == d[j, -i]


def test_asymmetric_grid_breaks_the_swap_and_is_refused(monkeypatch):
    """The swap needs a symmetric grid: on this one it fails, so the leaf
    metric and the rebuild refuse the grid before any metric is built."""
    grid = TropMatrix([[1, 2, 1], [1, 2, 1], [3, 3, 2]])
    d = label_distances(*all_pairs_leaf_table(grid)[:2])
    assert (d[1, 2], d[-1, -2]) == (1, 0)

    def built(matrix):
        raise AssertionError("a leaf metric was built")

    monkeypatch.setattr(correspond, "_integer_grid", built)
    for rebuild in (leaf_metric_from_matrix, tree_from_matrix):
        with pytest.raises(TropicalError, match="^symmetric matrix required$"):
            rebuild(grid)


def test_tree_from_matrix_reproduces_known_topology():
    tree = tree_from_matrix(PERMUTED)
    assert tree.validate() is None
    assert tree.is_regular()
    assert len(tree.trunk()) == 2
    assert cherries(tree) == frozenset({(1, 1), (2, 3), (3, 2)})
    assert matrices_agree_mod_lineality(matrix_from_tree(tree), PERMUTED)


def test_rank_errors():
    with pytest.raises(NotRankTwoError):
        tree_from_matrix(TropMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(RankOneMatrixError):
        tree_from_matrix(rank_one_matrix([0, 1, 2]))
    with pytest.raises(NotRankTwoError):
        leaf_metric_from_matrix(TropMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_round_trip_tree_matrix_tree():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(1, 6)
        tree = random_regular_tree(n, rng)
        matrix = matrix_from_tree(tree)
        assert sym_trop_rank(matrix) <= 2
        rebuilt = tree_from_matrix(matrix)
        assert rebuilt.canonical_key() == tree.canonical_key()
        assert sorted(l for _, _, l in rebuilt.internal_edges()) == sorted(
            l for _, _, l in tree.internal_edges()
        )


def test_round_trip_matrix_tree_matrix_mod_lineality():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(2, 5)
        tree = random_regular_tree(n, rng)
        shift = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        matrix = matrix_from_tree(tree).add(rank_one_matrix(shift))
        rebuilt = tree_from_matrix(matrix)
        assert matrices_agree_mod_lineality(matrix_from_tree(rebuilt), matrix)


def test_transpose_invariance():
    """A symmetric matrix's tree equals its own color swap."""
    rng = random.Random(31)
    for _ in range(40):
        tree = random_regular_tree(rng.randint(2, 5), rng)
        matrix = matrix_from_tree(tree)
        rebuilt = tree_from_matrix(matrix)
        swapped_leaves = {-l: v for l, v in rebuilt.leaf_vertex.items()}
        adj = {u: dict(nb) for u, nb in rebuilt.adj.items()}
        swapped = SymbicTree(rebuilt.n, adj, swapped_leaves)
        assert swapped.canonical_key() == rebuilt.canonical_key()


def principal_submatrix(matrix, indices):
    return TropMatrix(
        [[matrix.entry(i, j) for j in indices] for i in indices]
    )


def test_principal_submatrices_give_induced_subtrees():
    """The submatrix's tree is the induced subtree, except that deletion can
    expose uni-colored parts (the brittle-twig phenomenon); the submatrix's
    own tree must be symbic, so those parts retract and exactly the
    bicolored splits of the induced subtree survive."""
    rng = random.Random(41)
    done = 0
    retracted = 0
    while done < 80:
        n = rng.randint(3, 6)
        tree = random_regular_tree(n, rng)
        size = rng.randint(2, n - 1)
        keep = sorted(rng.sample(range(1, n + 1), size))
        sub = principal_submatrix(matrix_from_tree(tree), keep)
        if sym_trop_rank(sub) == 1:
            continue  # the induced subtree collapses to a star
        subtree = tree_from_matrix(sub)
        dropped = [i for i in range(1, n + 1) if i not in keep]
        induced = tree.delete_leaves({s * i for i in dropped for s in (1, -1)})
        if induced.validate() is None:
            assert subtree.canonical_key() == induced.canonical_key()
        else:
            retracted += 1
            bicolored = {
                side
                for side in split_set(induced)
                if any(l > 0 for l in side) and any(l < 0 for l in side)
                and not (
                    all(l > 0 for l in _complement(induced, side))
                    or all(l < 0 for l in _complement(induced, side))
                )
            }
            assert split_set(subtree) == bicolored
        done += 1
    assert retracted > 0  # the interesting branch was exercised


def _complement(tree, side):
    labels = set(tree.labels())
    return frozenset(labels - side)


def test_reconstructions_always_have_path_fixed_sets():
    """No reconstructed rank <= 2 tree can have three fixed branches."""
    rng = random.Random(53)
    for _ in range(80):
        tree = random_regular_tree(rng.randint(2, 6), rng)
        rebuilt = tree_from_matrix(matrix_from_tree(tree))
        assert rebuilt.validate() is None


def fraction_metric(labels, dist, scale):
    """The ``LeafMetric`` of an integer leaf metric (labels, distances
    times ``scale``, ``scale``)."""
    return LeafMetric(labels, {pair: Fraction(d, scale) for pair, d in dist.items()})


def integer_metric(metric):
    """A ``LeafMetric`` as ``_steiner_tree`` reads it: its labels, the flat
    table of its distances times the lcm L of their denominators, indexed
    by label position, and L."""
    scale = math.lcm(*(d.denominator for d in metric.dist.values()))
    labels = list(metric.labels)
    table = [int(metric.distance(x, y) * scale) for x in labels for y in labels]
    return labels, table, scale


def pair_distances(matrix):
    """The integer leaf metric of the matrix with its distances keyed by
    label pair (x, y), x before y: (labels, distances, scale)."""
    labels, table, scale = correspond._integer_leaf_metric(matrix)
    size = len(labels)
    dist = {
        (labels[s], labels[t]): table[s * size + t]
        for s, t in itertools.combinations(range(size), 2)
    }
    return labels, dist, scale


def cook(monkeypatch, labels, dist, scale):
    """Hand ``tree_from_matrix`` the integer leaf metric with the given
    distances of label pairs, whatever the matrix."""
    size = len(labels)
    table = [0] * (size * size)
    for s, t in itertools.combinations(range(size), 2):
        table[s * size + t] = table[t * size + s] = dist[labels[s], labels[t]]
    monkeypatch.setattr(correspond, "_integer_leaf_metric", lambda matrix: (labels, table, scale))


def test_reconstruction_error_on_cooked_metric(monkeypatch):
    # a symmetric matrix passing the rank test cannot fail the four-point
    # condition, so hand the reconstruction a cooked metric directly
    labels, dist, scale = pair_distances(PERMUTED)
    dist[1, -2] = 99 * scale
    assert fraction_metric(labels, dist, scale).four_point_violation() is not None
    cook(monkeypatch, labels, dist, scale)
    with pytest.raises(ReconstructionError, match=r"\(\d+p?, \d+p?\)"):
        tree_from_matrix(PERMUTED)


def test_fit_check_names_its_witness(monkeypatch):
    """A metric that Steiner insertion places but the rebuilt tree does not
    fit is refused at the first mismatching pair, with both distances."""
    labels, dist, scale = pair_distances(PERMUTED)
    dist[-1, -2] = 99 * scale
    cook(monkeypatch, labels, dist, scale)
    with pytest.raises(ReconstructionError, match=r"^tree distance 2 at \(1p, 2p\), metric 99$"):
        tree_from_matrix(PERMUTED)


def test_fit_reads_the_normalized_tree(monkeypatch):
    """Every distance to the last label, 4', raised by 1 makes Steiner
    insertion hang 4' on a pendant stub of length 1.  Normalization moves
    the leaf off the stub and drops its length, so the tree as built puts
    4' at distance 0 from 1, and the fit refuses the metric; a fit of the
    Steiner adjacency would not."""
    matrix = matrix_from_tree(random_regular_tree(4, random.Random(2)))
    labels, dist, scale = pair_distances(matrix)
    for pair in dist:
        if labels[-1] in pair:
            dist[pair] += scale
    cook(monkeypatch, labels, dist, scale)
    with pytest.raises(ReconstructionError, match=r"^tree distance 0 at \(1, 4p\), metric 1$"):
        tree_from_matrix(matrix)


def test_gromov_product_ties_go_to_the_larger_label(monkeypatch):
    """Seen from 1, 2' has Gromov product 5/2 with both 1' and 2.  The tie
    goes to the larger label int, 2, as the oracle's maximum over (value,
    label) pairs has it, and the walk toward 2, of length 2, cannot go
    5/2, so the error names 2."""
    labels = [1, -1, 2, -2]
    dist = {(1, -1): 2, (1, 2): 2, (-1, 2): 2, (1, -2): 4, (-1, -2): 1, (2, -2): 1}
    message = r"^not a tree metric: cannot place 2p on \(1, 2\)$"
    with pytest.raises(ReconstructionError, match=message):
        fraction_steiner_tree(fraction_metric(labels, dist, 1))
    cook(monkeypatch, labels, dist, 1)
    with pytest.raises(ReconstructionError, match=message):
        tree_from_matrix(matrix_from_tree(random_regular_tree(2, random.Random(0))))


def fraction_fit_tree(n, metric):
    """The steps of ``tree_from_matrix`` after the leaf metric, as they were
    before the fit moved to the integer grid: Steiner insertion, the tree
    built, and every leaf distance of the tree compared with the metric in
    ``Fraction``s, then ``validate``."""
    adj, pos = fraction_steiner_tree(metric)
    leaf_vertex = {}
    nxt = max(adj) + 1
    for label, vertex in pos.items():
        adj[nxt] = {vertex: None}
        adj[vertex][nxt] = None
        leaf_vertex[label] = nxt
        nxt += 1
    tree = SymbicTree(n, adj, leaf_vertex)
    for x, y in itertools.combinations(tree.labels(), 2):
        fitted, wanted = tree.distance(tree.pos(x), tree.pos(y)), metric.distance(x, y)
        if fitted != wanted:
            pair = f"({format_label(x)}, {format_label(y)})"
            raise ReconstructionError(f"tree distance {fitted} at {pair}, metric {wanted}")
    violation = tree.validate()
    if violation is not None:
        raise ReconstructionError(f"reconstruction is not symbic: {violation}")
    return tree


@given(
    st.integers(2, 7),
    st.randoms(use_true_random=False),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=7, max_size=7),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_integer_fit_matches_the_fraction_fit_on_cooked_metrics(n, rng, shift, data):
    """On the leaf metric of a shifted tree matrix, unchanged, with one
    distance moved, or with every distance to one label moved alike (a
    pendant stub when raised), ``tree_from_matrix`` gives the tree or the
    error of the ``Fraction`` fit."""
    matrix = matrix_from_tree(random_regular_tree(n, rng)).add(rank_one_matrix(shift[:n]))
    labels, dist, scale = pair_distances(matrix)
    moved = data.draw(st.sampled_from(["none", "one pair", "one label"]))
    delta = data.draw(st.integers(-2 * scale, 3 * scale))
    if moved == "one pair":
        dist[data.draw(st.sampled_from(sorted(dist)))] += delta
    elif moved == "one label":
        label = data.draw(st.sampled_from(labels))
        for pair in dist:
            if label in pair:
                dist[pair] += delta
    oracle = fraction_metric(labels, dist, scale)
    with pytest.MonkeyPatch.context() as monkeypatch:
        cook(monkeypatch, labels, dist, scale)
        got = reconstruction_outcome(tree_from_matrix, matrix)
    assert got == reconstruction_outcome(lambda m: fraction_fit_tree(m.n, oracle), matrix)


# -- the reconstruction as it was, in Fraction arithmetic with the four-point ---
# -- pre-scan: the oracle ---------------------------------------------------------


def fraction_leaf_metric(matrix):
    """``leaf_metric_from_matrix`` in ``Fraction`` arithmetic: positions in
    the tropical convex hull of the columns, one ``hilbert_distance`` per
    label pair."""
    rank = sym_trop_rank(matrix)
    if rank > 2:
        raise NotRankTwoError(f"symmetric tropical rank {rank} > 2")
    n = matrix.n
    position = {}
    for i in range(1, n + 1):
        position[i] = column(matrix, i)
        position[-i] = tuple(
            min(matrix.entry(k, l) - matrix.entry(i, l) for l in range(1, n + 1))
            for k in range(1, n + 1)
        )
    labels = [s * i for i in range(1, n + 1) for s in (1, -1)]
    dist = {}
    for x, y in itertools.combinations(labels, 2):
        dist[(x, y)] = hilbert_distance(position[x], position[y])
    return LeafMetric(labels, dist)


def fraction_steiner_tree(metric):
    """``_steiner_tree`` in ``Fraction`` arithmetic: the same insertion
    order, walk, edge splits, vertex numbering and errors."""
    labels = list(metric.labels)
    x0 = labels[0]
    adj = {0: {}}
    up = {}
    pos = {x0: 0}
    placed = [x0]
    counter = 0

    def fresh():
        nonlocal counter
        counter += 1
        return counter

    def misfit(z, y):
        path = f"({format_label(x0)}, {format_label(y)})"
        return ReconstructionError(f"not a tree metric: cannot place {format_label(z)} on {path}")

    for z in labels[1:]:
        gammas = [
            (metric.distance(x0, z) + metric.distance(x0, y) - metric.distance(y, z), y)
            for y in placed
        ]
        best2, ystar = max(gammas)
        gamma = best2 / 2
        stub = metric.distance(x0, z) - gamma
        if gamma < 0 or stub < 0:
            raise misfit(z, ystar)
        steps = [pos[ystar]]
        while steps[-1] != 0:
            steps.append(up[steps[-1]])
        steps.pop()
        walked = Fraction(0)
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
    return adj, pos


def four_point_tree_from_matrix(matrix):
    """``tree_from_matrix`` before the rebuilt tree's exact fit became its
    only certificate and before the leaf metric and the Steiner insertion
    moved to the integer grid: symmetry checked up front, the four-point
    condition scanned before Steiner insertion, all in ``Fraction``s."""
    matrix.require_symmetric()
    if matrix.n == 1:
        return tree_of_single_pair()
    rank = sym_trop_rank(matrix)
    if rank > 2:
        raise NotRankTwoError(f"symmetric tropical rank {rank} > 2")
    if rank == 1:
        raise RankOneMatrixError(
            "rank-one matrix: the tree degenerates to a star"
        )
    metric = fraction_leaf_metric(matrix)
    bad = metric.four_point_violation()
    if bad is not None:
        raise ReconstructionError(f"four-point condition fails on {bad}")
    adj, pos = fraction_steiner_tree(metric)
    full_adj = {u: dict(nbrs) for u, nbrs in adj.items()}
    leaf_vertex = {}
    nxt = max(full_adj) + 1
    for label, vertex in pos.items():
        full_adj[nxt] = {vertex: None}
        full_adj[vertex][nxt] = None
        leaf_vertex[label] = nxt
        nxt += 1
    tree = SymbicTree(matrix.n, full_adj, leaf_vertex)
    for x, y in itertools.combinations(tree.labels(), 2):
        if tree.distance(tree.pos(x), tree.pos(y)) != metric.distance(x, y):
            raise ReconstructionError("reconstructed tree does not fit the metric")
    violation = tree.validate()
    if violation is not None:
        raise ReconstructionError(f"reconstruction is not symbic: {violation}")
    return tree


def reconstruction_outcome(reconstruct, matrix):
    try:
        return reconstruct(matrix).to_json_dict()
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def reconstruction_inputs(draw):
    """Tree matrices with lineality shifts, tree matrices with a planted
    rank-3 block, small-integer symmetric matrices and asymmetric ones."""
    family = draw(st.sampled_from(["tree", "planted", "symmetric", "asymmetric"]))
    if family in ("tree", "planted"):
        rng = random.Random(draw(st.integers(0, 2**32)))
        n = draw(st.integers(1 if family == "tree" else 3, 7))
        shift = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        rows = [list(row) for row in matrix_from_tree(random_regular_tree(n, rng)).rows]
        if family == "planted":
            # d on the diagonal and c off it: the 3x3 minor of diag(1, 1, 1)
            block = rng.sample(range(n), 3)
            c, d = rng.randint(-3, 3), rng.randint(1, 4)
            for i in block:
                for j in block:
                    rows[i][j] = c + d * (i == j)
        return TropMatrix(rows).add(rank_one_matrix(shift))
    n = draw(st.integers(1, 5) if family == "symmetric" else st.integers(2, 4))
    entries = {(i, j): draw(st.integers(-2, 3)) for i in range(n) for j in range(n)}
    if family == "symmetric":
        return TropMatrix([[entries[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])
    entries[0, 1] = entries[1, 0] + draw(st.integers(1, 3))
    return TropMatrix([[entries[i, j] for j in range(n)] for i in range(n)])


@given(reconstruction_inputs())
@settings(max_examples=200, deadline=None)
def test_reconstruction_matches_the_four_point_oracle(matrix):
    assert reconstruction_outcome(tree_from_matrix, matrix) == reconstruction_outcome(
        four_point_tree_from_matrix, matrix
    )


def outcome(compute, *args):
    """What ``compute`` returns, or the class and message of its error as
    one string."""
    try:
        return compute(*args)
    except TropicalError as exc:
        return f"{type(exc).__name__}: {exc}"


def ordered(adj):
    """Adjacency with its insertion orders, which the tree built from it
    inherits."""
    return [(u, list(nbrs.items())) for u, nbrs in adj.items()]


@given(
    reconstruction_inputs(),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=7, max_size=7),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_integer_reconstruction_matches_the_fraction_oracle(matrix, shift, data):
    """On every input, shifted along the lineality space by a vector with
    mixed denominators, the integer leaf metric equals the ``Fraction`` one
    exactly, or both refuse the matrix alike; Steiner insertion on it, and
    on the metric with one distance cooked, gives the oracle's adjacency,
    lengths, vertex numbering and positions, or the same error."""
    if matrix.is_symmetric():
        matrix = matrix.add(rank_one_matrix(shift[: matrix.n]))
    metric = outcome(leaf_metric_from_matrix, matrix)
    oracle = outcome(fraction_leaf_metric, matrix)
    if isinstance(oracle, str):
        assert metric == oracle
        return
    assert metric.labels == oracle.labels
    assert metric.dist == oracle.dist
    assert all(type(d) is Fraction for d in metric.dist.values())
    # one distance to the last label moved: Steiner insertion places some
    # such metrics (the exact fit refuses them later) and not others
    cooked = LeafMetric(metric.labels, dict(metric.dist))
    pair = data.draw(st.sampled_from(sorted(p for p in metric.dist if metric.labels[-1] in p)))
    cooked.dist[pair] += data.draw(st.fractions(min_value=-1, max_value=3, max_denominator=6))
    for m in (metric, cooked):
        got = outcome(lambda m: _steiner_tree(*integer_metric(m)), m)
        want = outcome(fraction_steiner_tree, m)
        if isinstance(want, str):
            assert got == want
        else:
            assert ordered(got[0]) == ordered(want[0])
            assert all(type(l) is Fraction for nbrs in got[0].values() for l in nbrs.values())
            assert list(got[1].items()) == list(want[1].items())
