import json
import itertools
import math
import random
from collections import deque
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbic import trees
from symbic.correspond import matrix_from_tree, tree_from_matrix
from symbic.counting import enumerate_regular, random_regular_tree
from symbic.shelling import EdgeOrder, reduce_by_twig
from symbic.trees import (
    InvalidMoveError,
    MalformedTreeError,
    SymbicTree,
    format_label,
    parse_label,
    star_tree,
    tree_of_single_pair,
)
from symbic.tropical import parse_rational


def build(n, edges, leaves):
    adj = {}
    for u, v, length in edges:
        value = None if length is None else Fraction(length)
        adj.setdefault(u, {})[v] = value
        adj.setdefault(v, {})[u] = value
    return SymbicTree(n, adj, dict(leaves))


def split_set(tree):
    """Every split of the tree, each stored by its side without +1."""
    return frozenset(tree.splits().values())


# -- the trunk and branch walk ------------------------------------------------
#
# The library reads caterpillar shapes and regularity off split masks; these
# walks over a built tree are their oracles.


class Branch(NamedTuple):
    trunk_vertex: int
    root: int  # first vertex off the trunk (may be a leaf vertex)
    labels: frozenset


def branches(tree):
    """Every branch: a trunk vertex, a neighbour off the trunk, and the
    labels on that neighbour's side, by trunk vertex, then neighbour."""
    trunk = set(tree.trunk())
    return tuple(
        Branch(t, nb, tree.side_labels(t, nb))
        for t in sorted(trunk)
        for nb in sorted(tree.adj[t])
        if nb not in trunk
    )


def branch_vertices(tree, branch):
    """The vertices of a branch, read off the tree index's preorder."""
    index = tree._index()
    t, r = index.slot[branch.trunk_vertex], index.slot[branch.root]
    if index.parent[r] == t:
        return set(index.order[r : index.last[r] + 1])
    return set(index.order[:t] + index.order[index.last[t] + 1 :])


def cherries(tree):
    """Pairs (i, j) such that row leaf i and column leaf j' share an
    attachment vertex."""
    at = {}
    for label in tree.leaf_vertex:
        at.setdefault(tree.pos(label), []).append(label)
    return frozenset(
        (i, -j) for labels in at.values() for i in labels if i > 0 for j in labels if j < 0
    )


def with_orbit_lengths(tree, lengths):
    """The tree with every edge of an orbit at the orbit's length, rebuilt
    through the constructor with the involution handed down: the oracle of
    ``fan.sample_interior``, which reads the matrix off a linear form
    instead of building this tree."""
    adj, leaf_vertex = tree._graph_copy()
    for edge, orbit in tree._edge_orbits().items():
        if orbit not in lengths:
            raise InvalidMoveError("missing length for an orbit")
        value = parse_rational(lengths[orbit])
        if value <= 0:
            raise InvalidMoveError("orbit lengths must be positive")
        u, v = tuple(edge)
        adj[u][v] = adj[v][u] = value
    return SymbicTree(tree.n, adj, leaf_vertex, involution_hint=tree.involution())


def identity_matrix_tree():
    """Three fixed edges meeting at a point: the tree of diag(1,1,1) with
    zero off-diagonal; its fixed set is a 3-star, not a path."""
    edges = [(0, 1, 1), (0, 2, 1), (0, 3, 1)]
    leaves = {}
    vid = 10
    for i, att in ((1, 1), (2, 2), (3, 3)):
        for sign in (1, -1):
            edges.append((vid, att, None))
            leaves[sign * i] = vid
            vid += 1
    return build(3, edges, leaves)


def two_vertex_trunk_pair_tree(t=1):
    """n=2 tree with trunk [1][2]."""
    edges = [(0, 1, t), (10, 0, None), (11, 0, None), (12, 1, None), (13, 1, None)]
    return build(2, edges, {1: 10, -1: 11, 2: 12, -2: 13})


def one_vertex_trunk_pair_tree(s=1):
    """n=2 tree with cherries (1,2') and (1',2) at a one-vertex trunk."""
    edges = [
        (0, 1, s), (0, 2, s),
        (10, 1, None), (11, 1, None), (12, 2, None), (13, 2, None),
    ]
    return build(2, edges, {1: 10, -2: 11, -1: 12, 2: 13})


def test_labels():
    assert parse_label("3") == 3
    assert parse_label("3p") == -3
    assert parse_label("3'") == -3
    assert format_label(-2) == "2p"
    with pytest.raises(MalformedTreeError):
        parse_label("0")


def test_single_pair_tree():
    t = tree_of_single_pair()
    assert t.validate() is None
    assert t.is_regular()
    assert t.split_orbits() == frozenset()
    assert len(t.trunk()) == 1
    assert t.brittle_twig() is None
    assert cherries(t) == frozenset({(1, 1)})


def test_star_tree_is_singular_but_symbic():
    s = star_tree(3)
    assert s.validate() is None
    assert not s.is_regular()
    assert s.split_orbits() == frozenset()


def test_identity_tree_fixed_set_is_not_a_path():
    t = identity_matrix_tree()
    violation = t.validate()
    assert violation is not None and violation.condition == 4


def test_one_color_split_is_flagged():
    # leaves 1, 2 on one side of an internal edge, 1', 2' on the other
    edges = [
        (0, 1, 1),
        (10, 0, None), (11, 0, None), (12, 1, None), (13, 1, None),
    ]
    t = build(2, edges, {1: 10, 2: 11, -1: 12, -2: 13})
    violation = t.validate()
    assert violation is not None and violation.condition == 1


def test_unmarked_midpoint_is_recentered_not_flagged():
    # a degree-2 fixed point off the metric center is a subdivision artifact:
    # the builder recenters it and the tree stays symmetric
    edges = [
        (0, 1, 1), (0, 2, 2),
        (10, 1, None), (11, 1, None), (12, 2, None), (13, 2, None),
    ]
    t = build(2, edges, {1: 10, -2: 11, -1: 12, 2: 13})
    assert t.validate() is None
    assert {l for _, _, l in t.internal_edges()} == {Fraction(3, 2)}


def test_asymmetric_lengths_are_flagged():
    # mirrored cherry edges with different lengths break the symmetry
    edges = [
        (0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 4, 2),
        (10, 1, None), (11, 3, None), (12, 3, None),
        (13, 2, None), (14, 4, None), (15, 4, None),
    ]
    t = build(3, edges, {3: 10, 1: 11, -2: 12, -3: 13, -1: 14, 2: 15})
    violation = t.validate()
    assert violation is not None and violation.condition == 3


def test_missing_involution_is_searched_once(monkeypatch):
    """Construction caches the search's verdict also when it finds no
    involution, so later checks never search again."""
    tree = random_regular_tree(4, random.Random(0))
    sigma = tree.involution()
    u, v, length = next(
        (u, v, length) for u, v, length in tree.internal_edges() if sigma[v] != v
    )
    adj, leaves = tree._graph_copy()
    adj[u][v] = adj[v][u] = length + 1
    search = trees._find_involution
    calls = []

    def counted(t):
        calls.append(t)
        return search(t)

    monkeypatch.setattr(trees, "_find_involution", counted)
    asymmetric = SymbicTree(4, adj, leaves)
    for _ in range(2):
        assert asymmetric.validate().condition == 3
        with pytest.raises(MalformedTreeError):
            asymmetric.involution()
    assert len(calls) == 1


def test_zero_length_edges_are_contracted():
    edges = [
        (0, 1, 0), (1, 2, 1), (1, 3, 1),
        (10, 2, None), (11, 2, None), (12, 3, None), (13, 3, None),
        (14, 0, None), (15, 0, None),
    ]
    t = build(3, edges, {1: 10, -2: 11, -1: 12, 2: 13, 3: 14, -3: 15})
    assert t.validate() is None
    assert len(t.split_orbits()) == 1  # the zero edge vanished


def test_splits_and_orbits_of_small_trees():
    two = two_vertex_trunk_pair_tree()
    assert len(two.splits()) == 1
    (orbit,) = two.split_orbits()
    assert orbit == frozenset({frozenset({2, -2})})
    one = one_vertex_trunk_pair_tree()
    (orbit,) = one.split_orbits()
    # both halves of the subdivided pair carry the same partition, stored by
    # the side not holding leaf 1
    assert orbit == frozenset({frozenset({-1, 2})})


def test_trunk_and_branches():
    two = two_vertex_trunk_pair_tree()
    trunk = two.trunk()
    assert len(trunk) == 2
    by_vertex = {}
    for br in branches(two):
        by_vertex.setdefault(br.trunk_vertex, []).append(br.labels)
    assert sorted(map(sorted, by_vertex[trunk[0]])) == [[-2], [2]]
    assert sorted(map(sorted, by_vertex[trunk[1]])) == [[-1], [1]]
    one = one_vertex_trunk_pair_tree()
    assert len(one.trunk()) == 1
    assert len(branches(one)) == 2


def test_anchor_is_larger_min_row_endpoint():
    two = two_vertex_trunk_pair_tree()
    anchor = two.canonical_endpoint()
    rows = {l for br in branches(two) if br.trunk_vertex == anchor for l in br.labels if l > 0}
    assert rows == {2}


def test_predicates_on_known_shapes():
    assert two_vertex_trunk_pair_tree().is_regular()
    one = one_vertex_trunk_pair_tree()
    assert one.is_regular()
    assert one.is_caterpillar()
    assert not two_vertex_trunk_pair_tree().is_caterpillar()
    assert one.has_caterpillar_branches()
    assert two_vertex_trunk_pair_tree().has_caterpillar_branches()
    assert cherries(one) == frozenset({(1, 2), (2, 1)})


def walk_is_caterpillar(tree):
    """The oracle of ``SymbicTree.is_caterpillar``: a single-vertex trunk,
    and every internal vertex with at most two internal neighbours."""
    if len(tree.trunk()) != 1:
        return False
    leaves = tree.leaf_vertices()
    for v in tree.internal_vertices():
        if sum(1 for w in tree.adj[v] if w not in leaves) > 2:
            return False
    return True


def walk_has_caterpillar_branches(tree):
    """The oracle of ``SymbicTree.has_caterpillar_branches``: the cherry
    vertices counted inside the vertex set of every branch."""
    cherry_vertices = {tree.pos(i) for i, _ in cherries(tree)}
    for br in branches(tree):
        inside = branch_vertices(tree, br)
        if sum(1 for v in cherry_vertices if v in inside) > 1:
            return False
    return True


def test_double_cherry_branch_is_not_caterpillar():
    found = False
    for tree in enumerate_regular(4):
        if len(tree.trunk()) == 1 and not tree.has_caterpillar_branches():
            found = True
            assert not tree.is_caterpillar()
            counts = []
            for br in branches(tree):
                inside = branch_vertices(tree, br)
                cherry_vertices = {tree.pos(i) for i, _ in cherries(tree)}
                counts.append(sum(1 for v in cherry_vertices if v in inside))
            assert max(counts) == 2
    assert found


def test_brittle_twigs_none_for_n2():
    assert two_vertex_trunk_pair_tree().brittle_twig() is None
    assert one_vertex_trunk_pair_tree().brittle_twig() is None


def test_brittle_twig_detection_matches_deletion():
    """delete-leaf(T, n) is symbic iff there is no brittle twig."""
    for n in (3, 4):
        for tree in enumerate_regular(n):
            twig = tree.brittle_twig()
            smaller = tree.delete_leaves({n, -n})
            if twig is None:
                assert smaller.validate() is None
            else:
                assert len(twig) >= 2
                assert all(1 <= i < n for i in twig)
                violation = smaller.validate()
                assert violation is not None and violation.condition == 1
                # i_1 is the cherry partner of n'
                assert tree.pos(twig[0]) == tree.pos(-n)


def side_labels_brittle_twig(tree):
    """The brittle twig by a side_labels scan over the internal edges: the
    oracle of the split-mask reader trees._brittle_twig."""
    nprime = -tree.n
    best = None
    for u, v, _ in tree.internal_edges():
        side = tree.side_labels(u, v)
        if nprime not in side:
            side = tree.side_labels(v, u)
        exposed = side - {nprime}
        if len(exposed) >= 2 and all(l > 0 for l in exposed):
            if best is None or len(exposed) > len(best):
                best = exposed
    if best is None:
        return None
    anchor = tree.pos(nprime)
    return tuple(sorted(best, key=lambda l: tree.distance(anchor, tree.pos(l))))


def rooted_late(tree):
    """The same tree with its adjacency in reverse order.  The index is
    rooted at the first vertex, a trunk vertex in generated trees; this
    roots it at the last one, often a leaf."""
    adj, leaves = tree._graph_copy()
    return SymbicTree(tree.n, dict(reversed(adj.items())), leaves)


def test_brittle_twig_matches_the_side_labels_scan():
    for n in (1, 2, 3, 4, 5):
        for tree in enumerate_regular(n):
            expected = side_labels_brittle_twig(tree)
            assert tree.brittle_twig() == expected
            assert rooted_late(tree).brittle_twig() == expected


@given(st.integers(1, 7), st.integers(0, 2**32), st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_brittle_twig_matches_the_side_labels_scan_on_random_trees(n, seed, face, late):
    rng = random.Random(seed)
    tree = random_regular_tree(n, rng)
    if face and n > 1:
        orbits = sorted(tree.split_orbits(), key=lambda o: sorted(map(sorted, o)))
        tree = tree.contract_orbit(rng.choice(orbits))
    if late:
        tree = rooted_late(tree)
    assert tree.brittle_twig() == side_labels_brittle_twig(tree)


def index_walk_top_pair_site(tree):
    """top_pair_site by a walk around pos(n) on the graph: the oracle of the
    split-mask reader trees._top_pair_site."""
    k = tree.n
    if k < 2:
        raise MalformedTreeError("nothing to delete below n=2")
    x, xp = tree.pos(k), tree.pos(-k)
    leaves = tree.leaf_vertices()
    if x == xp:
        others = [w for w in tree.adj[x] if w not in leaves]
        if len(others) == 1:
            u = others[0]
            trunk = set(tree.trunk())
            return (
                "endpoint",
                frozenset().union(
                    *(tree.side_labels(u, w) for w in tree.adj[u] if w not in trunk)
                ),
            )
        if len(others) == 2:
            u1, u2 = others
            a, b = tree.side_labels(x, u1), tree.side_labels(x, u2)
            if b == frozenset(-label for label in a):
                return ("vertex",)
            return ("trunk-edge", (a, b))
        raise MalformedTreeError("unexpected valence at the (n, n') vertex")
    others = [w for w in tree.adj[x] if w != tree.leaf_vertex[k]]
    if len(others) != 2:
        raise MalformedTreeError("leaf n must sit at a trivalent vertex")
    leaf_nbrs = [w for w in others if w in leaves]
    if leaf_nbrs:
        partner = next(l for l, lv in tree.leaf_vertex.items() if lv == leaf_nbrs[0])
        if partner > 0:
            raise MalformedTreeError("same-color cherry at leaf n")
        return ("edge", frozenset((partner,)))
    y1, y2 = others
    a = tree.side_labels(x, y1)
    if -k in a:
        a = tree.side_labels(x, y2)
    return ("edge", a)


def site_or_error(find, tree):
    """A site with the two sides of a trunk edge as a set (the walk lists
    them in adjacency order), or the class and message of the refusal."""
    try:
        site = find(tree)
    except MalformedTreeError as exc:
        return type(exc), str(exc)
    return (site[0], frozenset(site[1])) if site[0] == "trunk-edge" else site


def test_key_masks_give_the_twig_and_site_of_the_oracles_on_the_catalog():
    """The shelling keys read the twig and the site off a cell's key, one
    mask per split, where the tree's own readers have one per edge."""
    for n in (1, 2, 3, 4, 5):
        for tree in enumerate_regular(n):
            masks = trees._key_masks(tree.canonical_key())
            assert trees._brittle_twig(n, masks) == side_labels_brittle_twig(tree)
            expected = site_or_error(index_walk_top_pair_site, tree)
            assert site_or_error(SymbicTree.top_pair_site, tree) == expected
            assert site_or_error(lambda _: trees._top_pair_site(n, masks), tree) == expected


@given(st.integers(1, 7), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_top_pair_site_matches_the_index_walk_on_random_trees(n, seed):
    """Regular trees, every face of one orbit contracted, and copies of both
    rooted at their last vertex: the same site, or the same refusal.  The
    split masks of the key give the same site, and the same twig, as the
    edges' own masks."""
    rng = random.Random(seed)
    tree = random_regular_tree(n, rng)
    faces = [tree.contract_orbit(orbit) for orbit in tree.split_orbits()]
    for t in [tree, *faces]:
        for copy in (t, rooted_late(t)):
            expected = site_or_error(index_walk_top_pair_site, copy)
            assert site_or_error(SymbicTree.top_pair_site, copy) == expected
            masks = trees._key_masks(copy.canonical_key())
            assert site_or_error(lambda _: trees._top_pair_site(copy.n, masks), copy) == expected
            assert trees._brittle_twig(copy.n, masks) == side_labels_brittle_twig(copy)


def test_top_pair_site_refusals_match_the_index_walk():
    """The three refusals, on faces and on trees whose leaf n has a row
    leaf for a cherry partner: the same class and message, as below n = 2."""
    messages = set()
    for n in (2, 3, 4):
        for tree in enumerate_regular(n):
            for orbit in tree.split_orbits():
                face = tree.contract_orbit(orbit)
                expected = site_or_error(index_walk_top_pair_site, face)
                assert site_or_error(SymbicTree.top_pair_site, face) == expected
                if expected[0] is MalformedTreeError:
                    messages.add(expected[1])
        # the cherry partner k' of n swapped with the row leaf k
        for tree in enumerate_regular(n):
            site = tree.top_pair_site()
            if site[0] == "edge" and len(site[1]) == 1:
                (partner,) = site[1]
                adj, leaves = tree._graph_copy()
                leaves[partner], leaves[-partner] = leaves[-partner], leaves[partner]
                swapped = SymbicTree(n, adj, leaves)
                expected = site_or_error(index_walk_top_pair_site, swapped)
                assert site_or_error(SymbicTree.top_pair_site, swapped) == expected
                messages.add(expected[1])
    assert messages == {
        "unexpected valence at the (n, n') vertex",
        "leaf n must sit at a trivalent vertex",
        "same-color cherry at leaf n",
    }
    small = tree_of_single_pair()
    assert site_or_error(SymbicTree.top_pair_site, small) == site_or_error(
        index_walk_top_pair_site, small
    ) == (MalformedTreeError, "nothing to delete below n=2")


def test_specific_twig_sequences_exist():
    twigs = {t.brittle_twig() for t in enumerate_regular(3)}
    assert (1, 2) in twigs and (2, 1) in twigs


def test_delete_and_reattach_round_trip():
    rng = random.Random(9)
    done = 0
    while done < 120:
        n = rng.randint(2, 6)
        tree = random_regular_tree(n, rng)
        if tree.brittle_twig() is not None:
            continue
        smaller, place = tree.delete_top_pair()
        assert smaller.validate() is None
        back = smaller.attach_top_pair(place)
        assert back.canonical_key() == tree.canonical_key()
        done += 1


def lengths_by_split(tree):
    return {split: tree.adj[u][v] for (u, v), split in tree.splits().items()}


def test_pair_between_swapped_branches_round_trips():
    """n = 3 at a one-vertex trunk with unit edges to the cherries {1, 2'}
    and {1', 2}: deleting the pair leaves the flip midpoint as the trunk,
    and the pair comes back at that vertex, not on an edge."""
    leaf_vertex = {3: 10, -3: 11, 1: 12, -2: 13, -1: 14, 2: 15}
    adj = {0: {1: Fraction(1), 2: Fraction(1), 10: None, 11: None}}
    adj[1] = {0: Fraction(1), 12: None, 13: None}
    adj[2] = {0: Fraction(1), 14: None, 15: None}
    for v in (1, 2, 0):
        for w in adj[v]:
            adj.setdefault(w, {})[v] = adj[v][w]
    tree = SymbicTree(3, adj, leaf_vertex)
    assert tree.validate() is None and not tree.is_regular()
    assert tree.top_pair_site() == index_walk_top_pair_site(tree) == ("vertex",)
    smaller, place = tree.delete_top_pair()
    assert place == ("vertex",) and len(smaller.trunk()) == 1
    back = smaller.attach_top_pair(place)
    assert back.canonical_key() == tree.canonical_key()
    assert lengths_by_split(back) == lengths_by_split(tree)
    with pytest.raises(InvalidMoveError, match="one-vertex trunk"):
        two_vertex_trunk_pair_tree().attach_top_pair(("vertex",))


def test_int_lengths_are_halved_exactly():
    """An int length on the edge the involution flips, and on a trunk edge
    that an attachment subdivides, is halved as a Fraction, never a float."""

    def cherries(leaf_vertex):
        adj = {0: {1: 1, 10: None, 11: None}, 1: {0: 1, 12: None, 13: None}}
        for u in (0, 1):
            for w, length in adj[u].items():
                adj.setdefault(w, {})[u] = length
        return SymbicTree(2, adj, leaf_vertex)

    flip = cherries({1: 10, -2: 11, -1: 12, 2: 13})
    assert [length for _, _, length in flip.internal_edges()] == [Fraction(1, 2)] * 2
    trunk = cherries({1: 10, -1: 11, 2: 12, -2: 13})
    wider = trunk.attach_top_pair(("edge", frozenset({1, -1})), 3)
    for tree in (flip, wider):
        assert all(type(length) is Fraction for _, _, length in tree.internal_edges())


def test_attach_rejects_row_leaf_edges():
    t = tree_of_single_pair()
    with pytest.raises(InvalidMoveError):
        t.attach_top_pair(("edge", frozenset({1})))
    with pytest.raises(InvalidMoveError):
        t.attach_top_pair(("far",))
    with pytest.raises(InvalidMoveError):
        t.attach_top_pair(("edge", frozenset({5})))


def test_attach_places_of_single_pair_tree():
    t = tree_of_single_pair()
    near = t.attach_top_pair(("near",))
    assert near.canonical_key() == two_vertex_trunk_pair_tree().canonical_key()
    cherry = t.attach_top_pair(("edge", frozenset({-1})))
    assert cherry.canonical_key() == one_vertex_trunk_pair_tree().canonical_key()


def test_contract_orbit_gives_face():
    two = two_vertex_trunk_pair_tree()
    (orbit,) = two.split_orbits()
    face = two.contract_orbit(orbit)
    assert face.validate() is None
    assert face.split_orbits() == frozenset()
    assert face.canonical_key() == star_tree(2).canonical_key()
    with pytest.raises(InvalidMoveError):
        two.contract_orbit(frozenset({frozenset({1, -2})}))


def test_transitions_between_the_two_pair_trees():
    two = two_vertex_trunk_pair_tree()
    one = one_vertex_trunk_pair_tree()
    (orbit_two,) = two.split_orbits()
    (orbit_one,) = one.split_orbits()
    options = two.expansions(orbit_two)
    assert set(options) == {orbit_two, orbit_one}
    moved = two.transition(orbit_two, orbit_one)
    assert moved.canonical_key() == one.canonical_key()
    undone = moved.transition(orbit_one, orbit_two)
    assert undone.canonical_key() == two.canonical_key()
    with pytest.raises(InvalidMoveError):
        two.transition(orbit_two, orbit_two)


def test_branch_transitions_shorten_off_path_edges():
    """Contracting a branch edge off the trunk-to-cherry path admits
    resolutions that keep all other orbits."""
    target = None
    for tree in enumerate_regular(4):
        if len(tree.trunk()) == 1 and not tree.has_caterpillar_branches():
            target = tree
            break
    assert target is not None
    for orbit in target.split_orbits():
        options = target.expansions(orbit)
        assert orbit in options  # the original resolution is reachable
        for new_orbit, result in options.items():
            assert result.is_regular()
            assert result.split_orbits() == (target.split_orbits() - {orbit}) | {new_orbit}


def test_canonical_key_ignores_ids_and_lengths():
    a = two_vertex_trunk_pair_tree(t=1)
    b = two_vertex_trunk_pair_tree(t=Fraction(7, 3))
    edges = [(5, 9, 2), (20, 5, None), (21, 5, None), (22, 9, None), (23, 9, None)]
    c = build(2, edges, {1: 20, -1: 21, 2: 22, -2: 23})
    assert a.canonical_key() == b.canonical_key() == c.canonical_key()
    assert a.canonical_key() != one_vertex_trunk_pair_tree().canonical_key()


def test_contraction_key_is_subset():
    for tree in enumerate_regular(3):
        for orbit in tree.split_orbits():
            face = tree.contract_orbit(orbit)
            assert face.canonical_key() < tree.canonical_key()


def test_orbit_lengths_pair_up():
    rng = random.Random(21)
    for _ in range(40):
        tree = random_regular_tree(rng.randint(2, 6), rng)
        sigma = tree.involution()
        for u, v, length in tree.internal_edges():
            mirror = frozenset((sigma[u], sigma[v]))
            mu, mv = tuple(mirror)
            assert tree.adj[mu][mv] == length


def test_regular_catalog_invariants():
    for n in (1, 2, 3, 4):
        for tree in enumerate_regular(n):
            assert tree.validate() is None
            assert tree.is_regular()
            assert len(tree.split_orbits()) == n - 1
            for side in split_set(tree):
                assert any(l > 0 for l in side) and any(l < 0 for l in side)


def test_json_round_trip_and_dot():
    tree = one_vertex_trunk_pair_tree(s=Fraction(3, 2))
    data = tree.to_json_dict()
    again = SymbicTree.from_json_dict(json.loads(json.dumps(data)))
    assert again.canonical_key() == tree.canonical_key()
    assert sorted(l for _, _, l in again.internal_edges()) == sorted(
        l for _, _, l in tree.internal_edges()
    )
    dot = two_vertex_trunk_pair_tree().to_dot()
    assert "style=bold" in dot and "fontcolor=blue" in dot and "fontcolor=red" in dot
    assert dot.count("style=bold") == 1  # one trunk edge


def test_json_declared_n_must_match_the_leaves():
    data = {"edges": [{"u": 0, "v": 1, "len": None}, {"u": 0, "v": 2, "len": None}],
            "leaves": {"1": 1, "1p": 2}}
    assert SymbicTree.from_json_dict(data).n == 1
    assert SymbicTree.from_json_dict({**data, "n": 1}).n == 1
    for declared in (7, True, "1", 1.0):
        with pytest.raises(MalformedTreeError, match="declared n"):
            SymbicTree.from_json_dict({**data, "n": declared})


def test_malformed_inputs_raise():
    with pytest.raises(MalformedTreeError):
        build(1, [(0, 1, None)], {1: 1, -1: 1})  # shared leaf vertex
    with pytest.raises(MalformedTreeError):
        build(2, [(0, 1, 1), (10, 0, None), (11, 0, None)], {1: 10, -1: 11})
    with pytest.raises(MalformedTreeError):
        # right edge count, but a cycle 0-1-2 beside the detached cherry at 3
        build(
            2,
            [(0, 1, 1), (1, 2, 1), (2, 0, 1), (1, 5, None), (0, 6, None),
             (3, 7, None), (3, 8, None)],
            {1: 5, -1: 6, 2: 7, -2: 8},
        )
    with pytest.raises(MalformedTreeError):
        # negative length
        build(
            1,
            [(0, 1, None), (0, 2, None), (0, 3, -1), (3, 4, None), (3, 5, None)],
            {1: 1, -1: 2},
        )
    cherries = [(0, 1, None), (0, 2, None), (0, 3, 1), (3, 4, None), (3, 5, None)]
    pairs = {1: 1, -1: 2, 2: 4, -2: 5}
    for length in (0, 1):
        # a zero-length self-loop once deleted the vertex it hangs on
        with pytest.raises(MalformedTreeError, match="self-loop"):
            build(2, cherries + [(0, 0, length)], pairs)
    edges = [{"u": u, "v": v, "len": None if L is None else str(L)} for u, v, L in cherries]
    leaves = {format_label(label): v for label, v in pairs.items()}
    for repeat in ({"u": 0, "v": 3, "len": "1"}, {"u": 3, "v": 0, "len": "5"}):
        with pytest.raises(MalformedTreeError, match="listed twice"):
            SymbicTree.from_json_dict({"edges": edges + [repeat], "leaves": leaves})
    assert SymbicTree.from_json_dict({"edges": edges, "leaves": leaves}).n == 2


def test_relabel():
    two = two_vertex_trunk_pair_tree()
    swapped = two.relabel({1: 2, 2: 1})
    assert swapped.validate() is None
    # exchanging the two indices of the [1][2] tree reproduces the same type
    assert swapped.canonical_key() == two.canonical_key()
    one = one_vertex_trunk_pair_tree()
    assert one.relabel({1: 2, 2: 1}).canonical_key() == one.canonical_key()


# -- copy-and-rename oracles of the label-map move ------------------------------


def oracle_relabel(tree, index_map):
    """Relabelling as its own copy-and-rename body: an oracle of the
    label-map move behind SymbicTree.relabel."""
    new_leaves = {}
    for label, lv in tree.leaf_vertex.items():
        idx = index_map[abs(label)]
        new_leaves[idx if label > 0 else -idx] = lv
    adj, _ = tree._graph_copy()
    return SymbicTree(len(new_leaves) // 2, adj, new_leaves, tree._cache.get("sigma"))


def oracle_delete_leaves(tree, labels):
    """Deletion as its own body: pop the doomed leaves from a copy, then
    renumber the survivors."""
    adj, leaf_vertex = tree._graph_copy()
    for label in set(labels):
        lv = leaf_vertex.pop(label)
        (att,) = adj[lv]
        del adj[att][lv]
        del adj[lv]
    remaining = sorted({abs(l) for l in leaf_vertex})
    index_map = {old: new for new, old in enumerate(remaining, start=1)}
    leaf_vertex = {
        (index_map[abs(l)] if l > 0 else -index_map[abs(l)]): v
        for l, v in leaf_vertex.items()
    }
    return SymbicTree(len(remaining), adj, leaf_vertex, tree._cache.get("sigma"))


def oracle_reduce_by_twig(tree, twig):
    """Twig reduction in two constructions: delete the twig's index pairs,
    then build the tree again with the surviving top pair's colors swapped."""
    reduced = oracle_delete_leaves(tree, {s * i for i in twig for s in (1, -1)})
    top = reduced.n
    adj, leaf_vertex = reduced._graph_copy()
    leaf_vertex[top], leaf_vertex[-top] = leaf_vertex[-top], leaf_vertex[top]
    swapped = SymbicTree(reduced.n, adj, leaf_vertex, involution_hint=reduced.involution())
    if swapped.validate() is not None:
        raise MalformedTreeError("twig reduction did not yield a symbic tree")
    return swapped


def moved(build):
    """(ordered adjacency, leaf map, sigma) of the tree a move builds, read
    as ``normalized`` reads them, or (exception class, message)."""
    try:
        tree = build()
    except Exception as exc:  # the same failure, class and message
        return type(exc), str(exc)
    return (
        [(u, list(nbrs.items())) for u, nbrs in tree.adj.items()],
        tree.leaf_vertex,
        tree._cache["sigma"],
    )


def check_label_map_moves(tree, rng):
    """Relabel by a random permutation, delete the top pair and a random set
    of pairs, and reduce the brittle twig if there is one, each against its
    oracle.  Returns whether the tree has a twig."""
    n = tree.n
    perm = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
    assert moved(lambda: tree.relabel(perm)) == moved(lambda: oracle_relabel(tree, perm))
    dropped = rng.sample(range(1, n + 1), rng.randint(1, max(n - 1, 1)))
    for doomed in ({n, -n}, {s * i for i in dropped for s in (1, -1)}):
        assert moved(lambda: tree.delete_leaves(doomed)) == moved(
            lambda: oracle_delete_leaves(tree, doomed)
        )
    twig = tree.brittle_twig()
    if twig is not None:
        assert moved(lambda: reduce_by_twig(tree, twig)) == moved(
            lambda: oracle_reduce_by_twig(tree, twig)
        )
    return twig is not None


def test_label_map_moves_match_the_oracles_on_the_catalogs():
    rng = random.Random(14)
    twigs = sum(
        check_label_map_moves(tree, rng) for n in range(1, 6) for tree in enumerate_regular(n)
    )
    assert twigs > 100


@given(st.integers(1, 6), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_label_map_moves_match_the_oracles_on_random_trees(n, seed):
    rng = random.Random(seed)
    check_label_map_moves(random_regular_tree(n, rng), rng)


def test_deletion_refuses_half_pairs_and_absent_labels():
    tree = one_vertex_trunk_pair_tree()
    for doomed in ({2}, {-2}, {3, -3}):
        with pytest.raises(MalformedTreeError, match="index pairs"):
            tree.delete_leaves(doomed)


# -- breadth-first oracle for the tree index ------------------------------------


def bfs_parents(tree, start, blocked=()):
    parent = {start: None}
    queue = deque([start])
    while queue:
        a = queue.popleft()
        for b in tree.adj[a]:
            if b not in parent and b not in blocked:
                parent[b] = a
                queue.append(b)
    return parent


def bfs_path(tree, u, v):
    parent = bfs_parents(tree, u)
    out = [v]
    while out[-1] != u:
        out.append(parent[out[-1]])
    return out[::-1]


def bfs_distance(tree, u, v):
    path = bfs_path(tree, u, v)
    return sum((tree.adj[a][b] or Fraction(0) for a, b in zip(path, path[1:])), Fraction(0))


def bfs_component(tree, u, v):
    """Vertices in the component of v when the edge (u, v) is removed."""
    return set(bfs_parents(tree, v, blocked={u}))


def bfs_side_labels(tree, u, v):
    label_of = {v: l for l, v in tree.leaf_vertex.items()}
    return frozenset(label_of[w] for w in bfs_component(tree, u, v) if w in label_of)


def oracle_trunk(tree):
    """trunk() as first written: the fixed path from the end whose branches
    carry the larger smallest row index, found vertex by vertex."""
    fixed = tree.fixed_vertices()
    if len(fixed) == 1:
        return tuple(fixed)
    ends = [v for v in fixed if sum(1 for w in tree.adj[v] if w in fixed) <= 1]

    def min_row(v):  # the smallest row index on the branches at v
        side = 0
        for w in tree.adj[v]:
            if w not in fixed:
                side |= tree._side_mask(v, w)
        side &= trees._row_bits(tree.n)  # row i is bit 2i - 2
        return (side & -side).bit_length() // 2 + 1 if side else tree.n + 1

    start = max(ends, key=lambda v: (min_row(v), -v))
    (end,) = set(ends) - {start}
    return tuple(tree.path(start, end))


def edge_descriptor(tree, u, v):
    """The far side of the edge (u, v), read off the tree index: the labels
    on the side not containing the anchor of ``oracle_trunk``.  Unlike the
    split, this distinguishes the two color-swapped halves of a
    midpoint-subdivided edge (they yield different attachments)."""
    if v not in tree.adj[u]:
        raise MalformedTreeError(f"({u}, {v}) is not an edge")
    index = tree._index()
    i, j = index.slot[u], index.slot[v]
    below = j if index.parent[j] == i else i
    side = index.mask[below]
    if below <= index.slot[oracle_trunk(tree)[0]] <= index.last[below]:
        side ^= index.mask[0]
    return trees._mask_labels(side)


def bfs_edge_descriptor(tree, u, v):
    if tree.canonical_endpoint() in bfs_component(tree, u, v):
        return bfs_side_labels(tree, v, u)
    return bfs_side_labels(tree, u, v)


def divergence_vertex(tree, base, u, v):
    """Last common vertex of the paths base->u and base->v: the median of
    the three, which is the deepest of their pairwise meeting points.  Two
    of those coincide and the third lies below them, so when the first
    two differ the deeper of them is the median.  The walk behind the
    ``divergences`` oracle of ``matrix_from_tree`` and ``cayley_matrix``,
    which read the split sides instead."""
    index = tree._index()
    b, i, j = index.slot[base], index.slot[u], index.slot[v]
    x, y = index.meet(b, i), index.meet(i, j)
    return index.order[max(x, y) if x != y else index.meet(b, j)]


def bfs_divergence_vertex(tree, base, u, v):
    meet = base
    for a, b in zip(bfs_path(tree, base, u), bfs_path(tree, base, v)):
        if a != b:
            break
        meet = a
    return meet


def check_index_against_bfs(tree, rng):
    vertices = tree.vertices()
    for u in vertices:
        for v in vertices:
            assert tree.path(u, v) == bfs_path(tree, u, v)
            assert tree.distance(u, v) == bfs_distance(tree, u, v)
    for _ in range(40):
        base, u, v = (rng.choice(vertices) for _ in range(3))
        assert divergence_vertex(tree, base, u, v) == bfs_divergence_vertex(tree, base, u, v)
    symbic = tree.validate() is None
    for u, v, _ in tree.edges():
        for a, b in ((u, v), (v, u)):
            assert tree.side_labels(a, b) == bfs_side_labels(tree, a, b)
            if symbic:
                assert edge_descriptor(tree, a, b) == bfs_edge_descriptor(tree, a, b)
    if symbic:
        for br in branches(tree):
            expected = bfs_component(tree, br.trunk_vertex, br.root)
            assert branch_vertices(tree, br) == expected


@given(st.integers(2, 7), st.integers(0, 2**32), st.booleans())
@settings(max_examples=100, deadline=None)
def test_tree_index_matches_breadth_first_walks(n, seed, face):
    rng = random.Random(seed)
    tree = random_regular_tree(n, rng)
    if face:
        orbits = sorted(tree.split_orbits(), key=lambda o: sorted(map(sorted, o)))
        tree = tree.contract_orbit(rng.choice(orbits))
    check_index_against_bfs(tree, rng)


def test_tree_index_serves_trees_that_fail_validation():
    one_color = build(
        2,
        [(0, 1, 1), (10, 0, None), (11, 0, None), (12, 1, None), (13, 1, None)],
        {1: 10, 2: 11, -1: 12, -2: 13},
    )
    asymmetric = build(
        3,
        [
            (0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 4, 2),
            (10, 1, None), (11, 3, None), (12, 3, None),
            (13, 2, None), (14, 4, None), (15, 4, None),
        ],
        {3: 10, 1: 11, -2: 12, -3: 13, -1: 14, 2: 15},
    )
    for tree, condition in ((identity_matrix_tree(), 4), (one_color, 1), (asymmetric, 3)):
        assert tree.validate().condition == condition
        check_index_against_bfs(tree, random.Random(condition))


def test_hinted_involutions_match_the_search(monkeypatch):
    """Every constructor that hands down the involution hands down the one
    the distance search finds, and the search is never needed."""
    search = trees._find_involution
    made = []
    with monkeypatch.context() as patch:
        patch.setattr(trees, "_find_involution", None)
        for tree in enumerate_regular(4):
            made += [
                tree,
                tree.relabel({1: 3, 2: 1, 3: 4, 4: 2}),
                tree.delete_leaves({4, -4}),
                with_orbit_lengths(tree, {o: 2 for o in tree.split_orbits()}),
            ]
            twig = tree.brittle_twig()
            if twig is not None:
                made.append(reduce_by_twig(tree, twig))
            for orbit in tree.split_orbits():
                made.append(tree.contract_orbit(orbit))
                made += tree.expansions(orbit).values()
            if twig is None:
                smaller, place = tree.delete_top_pair()
                made.append(smaller.attach_top_pair(place))
        # every place of the edge order: the trunk ends, fixed trunk edges
        # and mirrored edge pairs, leaf edges among them
        for tree in enumerate_regular(3):
            for place in EdgeOrder(tree.n, tree.canonical_key()).places:
                try:
                    made.append(tree.attach_top_pair(place, 3))
                except InvalidMoveError:
                    pass
    for tree in made:
        assert tree.involution() == search(tree)
    # a wrong hint falls back to the search
    adj, leaves = made[0]._graph_copy()
    assert SymbicTree(4, adj, leaves, {v: v for v in adj}).involution() == made[0].involution()


# -- union-find oracle for orbit contraction -------------------------------------


def oracle_contract_orbit(tree, orbit):
    """contract_orbit by merging the ends of each edge of the orbit with a
    union-find, the involution handed down through the merges."""
    edges = [e for e, s in tree.splits().items() if s in orbit]
    adj, leaf_vertex = tree._graph_copy()
    merged = {}

    def find(w):
        while w in merged:
            w = merged[w]
        return w

    for edge in edges:
        u, v = (find(w) for w in tuple(edge))
        if u == v:
            continue
        for w, length in list(adj[v].items()):
            if w == u:
                continue
            del adj[w][v]
            adj[w][u] = length
            adj[u][w] = length
        adj[u].pop(v, None)
        del adj[v]
        merged[v] = u
    sigma = tree.involution()
    return SymbicTree(tree.n, adj, leaf_vertex, {w: find(sigma[w]) for w in adj})


def contraction_summary(tree):
    """What two contractions of one orbit share whichever vertices survive:
    the validity, the key and the length of each split's edge."""
    lengths = {}
    for edge, split in tree.splits().items():
        u, v = tuple(edge)
        lengths[split] = tree.adj[u][v]
    return tree.validate() is None, tree.canonical_key(), lengths


def sorted_orbits(tree):
    return sorted(tree.split_orbits(), key=lambda o: sorted(map(sorted, o)))


def check_contractions(tree, orbits):
    """Each contraction in ``orbits`` (pairs of orbits: one contraction,
    then another) against the union-find oracle, the search switched off
    while contracting: the handed-down involution is always accepted."""
    search = trees._find_involution
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trees, "_find_involution", None)
        made = []
        for first, second in orbits:
            face = tree.contract_orbit(first)
            made.append((tree, first, face))
            if second is not None:
                made.append((face, second, face.contract_orbit(second)))
    for source, orbit, face in made:
        assert contraction_summary(face) == contraction_summary(oracle_contract_orbit(source, orbit))
        assert face.involution() == search(face)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contractions_match_the_union_find(n):
    """Every orbit of every catalog tree, and every orbit of each face."""
    for tree in enumerate_regular(n):
        pairs = []
        for orbit in sorted_orbits(tree):
            rest = sorted_orbits(tree.contract_orbit(orbit)) or [None]
            pairs += [(orbit, second) for second in rest]
        check_contractions(tree, pairs)


@given(st.integers(2, 7), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_contractions_match_the_union_find_on_random_trees(n, seed):
    """A random orbit, then a random orbit of the face, on trees with
    random lengths."""
    rng = random.Random(seed)
    tree = random_regular_tree(n, rng)
    first = rng.choice(sorted_orbits(tree))
    rest = sorted_orbits(tree.contract_orbit(first))
    check_contractions(tree, [(first, rng.choice(rest) if rest else None)])


# -- distance-vector oracle for the involution search ---------------------------


def distance_vector_involution(tree):
    """The color-swapping symmetry reconstructed from internal distances:
    vertices keyed by their distance vectors to the leaf attachment points,
    each sent to the vertex whose vector is its own with the colors swapped."""
    internals = tree.internal_vertices()
    labels = tree.labels()
    leafset = tree.leaf_vertices()
    pos = {l: tree.pos(l) for l in labels}
    dist = {}
    for v in internals:
        d = {}
        for b, a in bfs_parents(tree, v).items():
            if b not in leafset:
                d[b] = Fraction(0) if a is None else d[a] + tree.adj[a][b]
        dist[v] = d
    index = {}
    for v in internals:
        key = tuple(dist[v][pos[l]] for l in labels)
        if key in index:
            return None
        index[key] = v
    sigma = {}
    for v in internals:
        w = index.get(tuple(dist[v][pos[-l]] for l in labels))
        if w is None:
            return None
        sigma[v] = w
    for label, lv in tree.leaf_vertex.items():
        sigma[lv] = tree.leaf_vertex[-label]
    return sigma if trees._check_involution(tree, sigma) else None


def search_variants(tree, rng):
    """The tree, a copy with one internal length changed and a copy with two
    leaf labels swapped, the last two built with no hint."""
    out = [tree]
    adj, leaves = tree._graph_copy()
    edges = tree.internal_edges()
    if edges:
        u, v, length = rng.choice(edges)
        adj[u][v] = adj[v][u] = length + rng.randint(1, 3)
        out.append(SymbicTree(tree.n, adj, leaves))
    adj, leaves = tree._graph_copy()
    a, b = rng.sample(sorted(leaves), 2)
    leaves[a], leaves[b] = leaves[b], leaves[a]
    out.append(SymbicTree(tree.n, adj, leaves))
    return out


@given(st.integers(1, 8), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_side_mask_search_matches_distance_vectors(n, seed):
    rng = random.Random(seed)
    for tree in search_variants(random_regular_tree(n, rng), rng):
        assert trees._find_involution(tree) == distance_vector_involution(tree)


def test_side_mask_search_matches_distance_vectors_on_contractions():
    rng = random.Random(0)
    found = 0
    for n in range(1, 5):
        for tree in enumerate_regular(n):
            for orbit in tree.split_orbits():
                for face in search_variants(tree.contract_orbit(orbit), rng):
                    sigma = trees._find_involution(face)
                    assert sigma == distance_vector_involution(face)
                    found += sigma is not None
    assert found > 300


def test_unhinted_flip_midpoint_gets_an_index_slot():
    """The search builds the index before the flip midpoint exists, so the
    midpoint's insertion must drop it."""
    # cherries (1, 2') and (2, 1') joined by one edge that the involution flips
    edges = [(0, 1, 2), (10, 0, None), (11, 0, None), (12, 1, None), (13, 1, None)]
    tree = build(2, edges, {1: 10, -2: 11, 2: 12, -1: 13})
    (mid,) = tree.trunk()
    assert mid not in (0, 1)
    assert set(tree._index().slot) == set(tree.adj)
    assert tree.distance(0, mid) == 1
    flips = 0
    for n in range(1, 5):
        for regular in enumerate_regular(n):
            # without the hint the midpoint is smoothed away and found again
            rebuilt = SymbicTree(n, *regular._graph_copy())
            assert set(rebuilt._index().slot) == set(rebuilt.adj)
            trunk = rebuilt.trunk()
            flips += len(trunk) == 1 and rebuilt.leaf_vertices().isdisjoint(rebuilt.adj[trunk[0]])
    assert flips > 0


# -- the restart-scan normalization as the oracle of _normalize ----------------


def oracle_preorder(adj, root):
    """The walk behind _preorder as a stack of (vertex, parent) pairs, each
    vertex marked when popped."""
    parent = {}
    stack = [(root, None)]
    while stack:
        a, p = stack.pop()
        if a not in parent:
            parent[a] = p
            stack.extend((b, a) for b in adj[a] if b not in parent)
    return parent


def oracle_check_involution(tree, sigma):
    adj = tree.adj
    if not set(adj) <= set(sigma):
        return False
    for label, lv in tree.leaf_vertex.items():
        if sigma.get(lv) != tree.leaf_vertex.get(-label):
            return False
    for u in adj:
        if sigma[u] not in adj or sigma.get(sigma[u]) != u:
            return False
        for v, length in adj[u].items():
            if adj.get(sigma[u], {}).get(sigma[v], "missing") != length:
                return False
    return True


def oracle_find_involution(tree):
    """The side-set search that preceded the edge-split search: an internal
    vertex is known by the set of the label masks of its sides, read off
    the index arrays in one pass, and its image is the vertex whose masks
    carry the swapped colors.  Leaves are mapped by their labels."""
    n = tree.n
    index = tree._index()
    full, parent = index.mask[0], index.parent
    around = [[] for _ in index.order]  # the side masks at each position
    for j in range(1, len(index.order)):
        m = index.mask[j]
        around[parent[j]].append(m)
        around[j].append(full ^ m)
    leaves = tree.leaf_vertices()
    slot = index.slot
    by_sides = {frozenset(around[slot[v]]): v for v in tree.adj if v not in leaves}
    sigma = {lv: tree.leaf_vertex[-label] for label, lv in tree.leaf_vertex.items()}
    for sides, v in by_sides.items():
        w = by_sides.get(frozenset(trees._swap(m, n) for m in sides))
        if w is None:
            return None
        sigma[v] = w
    return sigma if oracle_check_involution(tree, sigma) else None


def searched_at_normalization(make):
    """Build with ``make()``, comparing the edge-split search with the
    side-set oracle where _normalize calls it: on the normal form, before
    any flip midpoint goes in.  Returns the search's verdict and whether
    the index root was a leaf."""
    search = trees._find_involution
    seen = []

    def both(tree):
        found = search(tree)
        assert found == oracle_find_involution(tree)
        seen.append((found, tree._index().order[0] in tree.leaf_vertices()))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trees, "_find_involution", both)
        make()
    assert len(seen) == 1
    return seen[0]


def check_split_search(tree, rng):
    """The tree rebuilt from JSON as written and with a leaf listed first
    (the index root), rebuilt from its matrix, and rebuilt from JSON with
    two leaf labels swapped or one internal length cooked; the last two
    need not be symbic.  Returns how many searches ran from a leaf root."""
    data = tree.to_json_dict()
    leaf = rng.choice(sorted(tree.leaf_vertices()))
    leaf_first = dict(data, vertices=[leaf] + [v for v in data["vertices"] if v != leaf])
    swapped = dict(data, leaves=dict(data["leaves"]))
    a, b = rng.sample(sorted(swapped["leaves"]), 2)
    swapped["leaves"][a], swapped["leaves"][b] = swapped["leaves"][b], swapped["leaves"][a]
    variants = [data, leaf_first, swapped]
    internal = [i for i, e in enumerate(data["edges"]) if e["len"] is not None]
    if internal:
        cooked = dict(data, edges=list(data["edges"]))
        i = rng.choice(internal)
        length = parse_rational(cooked["edges"][i]["len"]) + rng.randint(1, 3)
        cooked["edges"][i] = dict(cooked["edges"][i], len=str(length))
        variants.append(cooked)
    leaf_roots = 0
    for k, variant in enumerate(variants):
        found, leaf_root = searched_at_normalization(lambda: SymbicTree.from_json_dict(variant))
        assert found is not None or k >= 2
        leaf_roots += leaf_root
    if tree.n > 1:
        found, _ = searched_at_normalization(lambda: tree_from_matrix(matrix_from_tree(tree)))
        assert found is not None
    return leaf_roots


@given(st.integers(1, 7), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_split_search_matches_the_side_set_search(n, seed):
    rng = random.Random(seed)
    assert check_split_search(random_regular_tree(n, rng), rng) >= 1


def test_split_search_matches_the_side_set_search_on_catalogs():
    """Every catalog tree for n <= 4: one-vertex trunks, whose flip
    midpoint the rebuild smooths away, and the n = 1 star among them."""
    rng = random.Random(1)
    one_vertex_trunks = 0
    for n in range(1, 5):
        for tree in enumerate_regular(n):
            assert check_split_search(tree, rng) >= 1
            one_vertex_trunks += len(tree.trunk()) == 1
    assert one_vertex_trunks > 10


class Graph(NamedTuple):
    """The parts of a tree that ``_check_involution`` reads."""

    adj: dict
    leaf_vertex: dict


def broken_involutions(tree, rng):
    """(case, graph, map) triples: the tree's involution, then four broken
    ones.  One vertex's image moved; the images of two vertices swapped,
    not both fixed, which is no involution; two same-colored leaves sent
    to each other and their images likewise, which keeps an involution
    but sends a leaf to the wrong color; and one edge of a mirrored pair
    given a length 1/L longer, L the lcm of the length denominators."""
    sigma = tree.involution()
    vertices = sorted(tree.adj)
    internal = [v for v in vertices if v not in tree.leaf_vertices()]
    out = [("intact", tree, sigma)]
    a = rng.choice(vertices)
    out.append(("moved", tree, {**sigma, a: rng.choice([v for v in vertices if v != sigma[a]])}))
    moving = [v for v in internal if sigma[v] != v] or [v for v in vertices if sigma[v] != v]
    a = rng.choice(moving)
    b = rng.choice([v for v in vertices if v not in (a, sigma[a])])
    out.append(("not an involution", tree, {**sigma, a: sigma[b], b: sigma[a]}))
    if tree.n > 1:
        i, j = rng.sample(range(1, tree.n + 1), 2)
        sign = rng.choice((1, -1))
        x, y = tree.leaf_vertex[sign * i], tree.leaf_vertex[sign * j]
        out.append(("wrong color", tree, {**sigma, x: y, y: x, sigma[x]: sigma[y], sigma[y]: sigma[x]}))
    mirrored = [(u, v) for u, v, _ in tree.internal_edges() if {sigma[u], sigma[v]} != {u, v}]
    if mirrored:
        u, v = rng.choice(mirrored)
        adj, leaf_vertex = tree._graph_copy()
        adj[u][v] = adj[v][u] = adj[u][v] + Fraction(1, tree._index().scale)
        out.append(("length", Graph(adj, leaf_vertex), sigma))
    return out


@given(st.integers(1, 5), st.integers(0, 2**32), st.booleans())
@settings(max_examples=200, deadline=None)
def test_involution_check_matches_the_oracle_on_broken_involutions(n, seed, rebuilt):
    """On a catalog tree, or the tree rebuilt from its matrix (where
    mirrored edges share one length object), the edge-once check agrees
    with the oracle's check of every adjacency entry on the involution
    and on each way of breaking it."""
    rng = random.Random(seed)
    tree = rng.choice(list(enumerate_regular(n)))
    if rebuilt and n > 1:
        tree = tree_from_matrix(matrix_from_tree(tree))
    for case, graph, sigma in broken_involutions(tree, rng):
        verdict = trees._check_involution(graph, sigma)
        assert verdict == oracle_check_involution(graph, sigma)
        assert verdict == (case == "intact"), case


def oracle_normalize(tree, involution_hint):
    """_normalize as it was before the zero-length scan was gated: every
    rescan tests every edge of every vertex against 0, and both symmetry
    checks compare lengths by value only."""
    adj, leaf_vertex = tree.adj, tree.leaf_vertex
    n = tree.n
    expected = {s * i for i in range(1, n + 1) for s in (1, -1)}
    if n < 1 or set(leaf_vertex) != expected:
        raise MalformedTreeError("leaf labels must be exactly 1..n and 1'..n'")
    leaves = set(leaf_vertex.values())
    if len(leaves) != 2 * n:
        raise MalformedTreeError("leaf vertices must be distinct")
    for lv in leaves:
        if len(adj.get(lv, {})) != 1 or next(iter(adj[lv].values())) is not None:
            raise MalformedTreeError("each leaf needs one lengthless leaf edge")
    for u, nbrs in adj.items():
        for v, length in nbrs.items():
            if adj.get(v, {}).get(u, "missing") != length:
                raise MalformedTreeError("asymmetric adjacency")
            if length is not None and length < 0:
                raise MalformedTreeError("negative edge length")
            if length is None and u not in leaves and v not in leaves:
                raise MalformedTreeError("lengthless edge between internal vertices")
    edge_count = sum(len(nbrs) for nbrs in adj.values()) // 2
    if edge_count != len(adj) - 1:
        raise MalformedTreeError("not a tree (wrong edge count)")
    if len(oracle_preorder(adj, next(iter(adj)))) != len(adj):
        raise MalformedTreeError("not a tree (disconnected)")

    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v in leaves or v not in adj:
                continue
            nbrs = adj[v]
            zero = [w for w, L in nbrs.items() if L is not None and L == 0]
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
                changed = True
                break
            if len(nbrs) == 0:
                raise MalformedTreeError("isolated internal vertex")
            if len(nbrs) == 1:
                (u,) = nbrs
                del adj[u][v]
                del adj[v]
                changed = True
                break
            if len(nbrs) == 2:
                (a, la), (b, lb) = nbrs.items()
                if la is not None and lb is not None:
                    del adj[a][v]
                    del adj[b][v]
                    del adj[v]
                    adj[a][b] = la + lb
                    adj[b][a] = la + lb
                    changed = True
                    break
                if (la is None) != (lb is None):
                    leaf_side, inner = (a, b) if la is None else (b, a)
                    del adj[inner][v]
                    del adj[v]
                    adj[leaf_side] = {inner: None}
                    adj[inner][leaf_side] = None
                    changed = True
                    break
    if not any(v not in leaves for v in adj):
        raise MalformedTreeError("tree has no internal vertex")

    if involution_hint is not None and oracle_check_involution(tree, involution_hint):
        sigma = {v: involution_hint[v] for v in adj}
    else:
        sigma = oracle_find_involution(tree)
    if sigma is not None:
        flipped = [
            (u, v)
            for u in adj
            for v in adj[u]
            if u < v and sigma.get(u) == v
        ]
        if flipped:
            ((u, v),) = flipped
            length = adj[u].pop(v)
            del adj[v][u]
            m = max(adj) + 1
            half = length / 2
            adj[m] = {u: half, v: half}
            adj[u][m] = half
            adj[v][m] = half
            sigma[m] = m
            tree._cache.pop("index", None)
    tree._cache["sigma"] = sigma


def raw_graph(n, rng):
    """A random regular tree's graph, made messy: degree-2 chains, zero-length
    edges and pendants, leaf stubs, equal lengths held by distinct objects;
    sometimes broken outright.  Returns (n, adj, leaf_vertex, hint)."""
    tree = random_regular_tree(n, rng)
    adj, leaves = tree._graph_copy()
    sigma = dict(tree.involution())
    fresh = [max(adj) + 1]

    def new_vertex():
        fresh[0] += 1
        adj[fresh[0]] = {}
        return fresh[0]

    def link(u, v, length):
        adj[u][v] = adj[v][u] = length

    def internal():
        leafset = set(leaves.values())
        return sorted(v for v in adj if v not in leafset)

    def length_edges():
        return sorted(
            (u, v) for u in adj for v, L in adj[u].items() if L is not None and u < v
        )

    def piece():
        return rng.choice([0, 1, Fraction(rng.randint(1, 5), rng.randint(1, 4))])

    for _ in range(rng.randint(0, 5)):
        move = rng.choice(["chain", "zero", "stub", "pendant", "copy"])
        if move == "chain" and length_edges():
            u, v = rng.choice(length_edges())
            length = adj[u].pop(v)
            del adj[v][u]
            prev = u
            for _ in range(rng.randint(1, 3)):
                w = new_vertex()
                cut = rng.choice([0, length, Fraction(length, 2), Fraction(length, 3)])
                link(prev, w, cut)
                length -= cut
                prev = w
            link(prev, v, length)
        elif move == "zero":
            u = rng.choice(internal())
            w = new_vertex()
            for t in [t for t in adj[u] if rng.random() < 0.5]:
                link(w, t, adj[u].pop(t))
                del adj[t][u]
            link(u, w, Fraction(0))
        elif move == "stub":
            lv = leaves[rng.choice(sorted(leaves))]
            (att,) = adj[lv]
            del adj[lv][att], adj[att][lv]
            s = new_vertex()
            link(lv, s, None)
            link(s, att, piece())
        elif move == "pendant":
            link(rng.choice(internal()), new_vertex(), piece())
        elif move == "copy" and length_edges():
            u, v = rng.choice(length_edges())
            adj[u][v] = Fraction(adj[u][v])

    on_edges = ["asym", "neg", "none", "cut", "missing", "lengths"]
    broken = rng.choice([None] * 6 + on_edges + ["label", "twin"])
    if broken in on_edges and not length_edges():
        broken = None
    if broken == "asym":
        u, v = rng.choice(length_edges())
        adj[u][v] = adj[u][v] + 1
    elif broken == "neg":
        u, v = rng.choice(length_edges())
        link(u, v, Fraction(-1))
    elif broken == "none":
        u, v = rng.choice(length_edges())
        link(u, v, None)
    elif broken == "label":
        leaves[n + 1] = leaves.pop(n)
    elif broken == "twin":
        leaves[1] = leaves[-1]
    elif broken == "cut":
        u, v = rng.choice(length_edges())
        del adj[u][v], adj[v][u]
        a, b = rng.sample(internal(), 2) if len(internal()) > 1 else (u, v)
        if b not in adj[a]:
            link(a, b, Fraction(1))
    elif broken == "missing":
        u, v = rng.choice(length_edges())
        del adj[u][v]
    elif broken == "lengths":
        u, v = rng.choice(length_edges())
        link(u, v, adj[u][v] + rng.randint(1, 3))

    hint = rng.choice([
        None,
        sigma,
        {**{v: v for v in adj}, **sigma},
        {v: v for v in adj},
        dict(zip(adj, rng.sample(sorted(adj), len(adj)))),
    ])
    return n, adj, leaves, hint


def normalized(n, adj, leaves, hint, oracle):
    """(ordered adjacency, leaf map, sigma) after normalizing copies of the
    graph, or (exception class, message)."""
    adj = {u: dict(nbrs) for u, nbrs in adj.items()}
    hint = None if hint is None else dict(hint)
    try:
        if oracle:
            tree = SymbicTree.__new__(SymbicTree)
            tree.n, tree.adj, tree.leaf_vertex, tree._cache = n, adj, dict(leaves), {}
            oracle_normalize(tree, hint)
        else:
            tree = SymbicTree(n, adj, dict(leaves), involution_hint=hint)
    except Exception as exc:  # the same failure, class and message
        return type(exc), str(exc)
    return (
        [(u, list(nbrs.items())) for u, nbrs in tree.adj.items()],
        tree.leaf_vertex,
        tree._cache["sigma"],
    )


@given(st.integers(1, 5), st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_normalize_matches_the_restart_scan_oracle(n, seed):
    graph = raw_graph(n, random.Random(seed))
    assert normalized(*graph, oracle=False) == normalized(*graph, oracle=True)


@given(st.integers(1, 6), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_preorder_matches_the_tuple_stack_walk(n, seed):
    """From every root, the same ordered parent map on trees.  A raw graph
    with the edge count of a tree but a cycle is disconnected; there the
    walks reach the same component, which is all the connectivity check of
    _normalize reads."""
    rng = random.Random(seed)
    _, adj, _, _ = raw_graph(n, rng)
    graphs = [random_regular_tree(n, rng).adj]
    if sum(map(len, adj.values())) == 2 * (len(adj) - 1):
        graphs.append(adj)
    for graph in graphs:
        for root in graph:
            walk, oracle = trees._preorder(graph, root), oracle_preorder(graph, root)
            if len(oracle) == len(graph):
                assert list(walk.items()) == list(oracle.items())
            else:
                assert walk.keys() == oracle.keys()


# -- the Fraction depths as the oracle of the integer index depths -------------


def fraction_depths(tree):
    """The index's root distances summed in Fractions along its walk, as the
    index held them before it held integer depths."""
    index = tree._index()
    dist = [Fraction(0)] * len(index.order)
    for i in range(1, len(index.order)):
        length = tree.adj[index.order[index.parent[i]]][index.order[i]]
        up = dist[index.parent[i]]
        dist[i] = up if length is None else up + length
    return dist


@given(st.integers(1, 6), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_integer_depths_match_the_fraction_depths(n, seed):
    rng = random.Random(seed)
    tree = random_regular_tree(n, rng)
    adj, leaves = tree._graph_copy()
    for u, v, _ in tree.internal_edges():
        adj[u][v] = adj[v][u] = Fraction(rng.randint(1, 40), rng.randint(1, 12))
    for t in (tree, SymbicTree(n, adj, leaves)):
        index = t._index()
        assert index.scale == math.lcm(*(x.denominator for _, _, x in t.internal_edges()))
        dist = fraction_depths(t)
        for u in t.adj:
            for v in t.adj:
                i, j = index.slot[u], index.slot[v]
                d = t.distance(u, v)
                assert type(d) is Fraction
                assert d == dist[i] + dist[j] - 2 * dist[index.meet(i, j)]


# -- the per-edge side-mask checks as the oracles of the index-array checks ----


def oracle_first_violation(tree):
    """_first_violation with two _side_mask calls per internal edge, the
    edges in sorted order."""
    rows = trees._row_bits(tree.n)
    for u, v, _ in tree.internal_edges():
        for side in (tree._side_mask(u, v), tree._side_mask(v, u)):
            if not side & rows or not side & (rows << 1):
                labels = trees._mask_labels(side)
                return trees.Violation(1, "split with one color on a side", labels)
    for u, v, length in tree.internal_edges():
        if length <= 0:
            return trees.Violation(2, "nonpositive internal edge length", (u, v))
    if tree._cache["sigma"] is None:
        return trees.Violation(3, "no length-preserving color-swapping symmetry")
    fixed = tree.fixed_vertices()
    if not fixed:
        return trees.Violation(4, "involution has no fixed vertex")
    fixed_deg = {v: sum(1 for w in tree.adj[v] if w in fixed) for v in fixed}
    if any(d > 2 for d in fixed_deg.values()):
        worst = max(fixed_deg, key=lambda v: fixed_deg[v])
        return trees.Violation(4, "fixed set is not a path", worst)
    if sum(fixed_deg.values()) // 2 != len(fixed) - 1:
        return trees.Violation(4, "fixed set is disconnected", fixed)
    return None


def oracle_edge_with_descriptor(tree, descriptor):
    """The edge search of attach_top_pair: edge_descriptor of every edge."""
    for u, v, _ in tree.edges():
        if edge_descriptor(tree, u, v) == descriptor:
            return u, v
    return None


@given(st.integers(1, 5), st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_index_checks_match_the_side_mask_oracles(n, seed):
    """On raw graphs, broken ones included, and on copies with the leaf
    labels shuffled (one-colored splits): the same involution and the same
    violation with the same witness.  Then on lengths set to 0 or below
    after construction, which only axiom 2 reports."""
    rng = random.Random(seed)
    n, adj, leaves, hint = raw_graph(n, rng)
    shuffled = dict(zip(leaves, rng.sample(sorted(leaves.values()), len(leaves))))
    for leaf_map in (leaves, shuffled):
        try:
            tree = SymbicTree(n, {u: dict(nb) for u, nb in adj.items()}, dict(leaf_map), hint)
        except MalformedTreeError:
            continue
        assert trees._find_involution(tree) == oracle_find_involution(tree)
        assert tree.validate() == oracle_first_violation(tree)
        edges = tree.internal_edges()
        for u, v, _ in rng.sample(edges, min(len(edges), 2)):
            tree.adj[u][v] = tree.adj[v][u] = Fraction(rng.randint(-2, 0), rng.randint(1, 3))
        tree._cache.pop("index", None)
        tree._cache.pop("violation", None)
        assert tree.validate() == oracle_first_violation(tree)


def test_edge_search_matches_the_descriptor_loop():
    """The mask search behind attach_top_pair finds the edge the loop over
    edge_descriptor finds, and no edge for descriptors no edge has."""
    rng = random.Random(5)
    for n in range(1, 5):
        for tree in enumerate_regular(n):
            places = EdgeOrder(tree.n, tree.canonical_key()).places
            descriptors = [p[1] for p in places if p[0] == "edge"]
            labels = tree.labels()
            descriptors += [
                frozenset(rng.sample(labels, rng.randint(0, len(labels)))),
                frozenset({n + 1}),
                frozenset({0}),
                list(descriptors[0]),
                set(descriptors[-1]),
            ]
            for descriptor in descriptors:
                expected = oracle_edge_with_descriptor(tree, descriptor)
                assert tree._edge_with_descriptor(descriptor) == expected


def oracle_splits(tree):
    """splits() with one _side_mask call per internal edge."""
    out = {}
    for u, v, _ in tree.internal_edges():
        side = tree._side_mask(u, v)
        if side & 1:  # the bit of label 1
            side ^= tree._index().mask[0]
        out[frozenset((u, v))] = trees._mask_labels(side)
    return out


def oracle_edge_orbits(tree):
    """_edge_orbits pairing each edge's split with the split of the edge's
    image under the involution."""
    sigma = tree.involution()
    by_edge = oracle_splits(tree)
    return {
        edge: frozenset((split, by_edge[frozenset(sigma[w] for w in edge)]))
        for edge, split in by_edge.items()
    }


@given(st.integers(1, 7), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_splits_and_orbits_match_the_side_mask_oracles(n, seed):
    """Regular trees, their faces and copies with no involution: the same
    splits in the same order, and the same orbits, or the same refusal."""
    rng = random.Random(seed)
    tree = random_regular_tree(n, rng)
    faces = [tree.contract_orbit(orbit) for orbit in tree.split_orbits()]
    for t in [tree, *faces, *search_variants(tree, rng)[1:]]:
        assert list(t.splits().items()) == list(oracle_splits(t).items())
        try:
            expected = oracle_edge_orbits(t)
        except MalformedTreeError:
            with pytest.raises(MalformedTreeError):
                t._edge_orbits()
        else:
            assert t._edge_orbits() == expected


# -- regularity by the orbit count ----------------------------------------------

def walk_is_regular(tree):
    """Regularity by the trunk and branch walk: n-1 split orbits, positive
    lengths, trivalent branches, and every trunk vertex carrying exactly
    one color-swapped branch pair."""
    if tree.validate() is not None:
        return False
    if len(tree.split_orbits()) != tree.n - 1:
        return False
    sigma = tree.involution()
    trunk = set(tree.trunk())
    by_vertex = {}
    for br in branches(tree):
        by_vertex.setdefault(br.trunk_vertex, []).append(br)
    for t in trunk:
        brs = by_vertex.get(t, [])
        if len(brs) != 2 or sigma[brs[0].root] != brs[1].root:
            return False
    for v in tree.internal_vertices():
        if v not in trunk and len(tree.adj[v]) != 3:
            return False
    return True


def check_regularity(tree):
    """The orbit count agrees with the walk, and no valid tree has more
    than n-1 orbits."""
    assert tree.is_regular() == walk_is_regular(tree)
    if tree.validate() is None:
        assert len(tree.split_orbits()) <= tree.n - 1


def faces_and_candidates(tree):
    """Every face of the tree (one contraction per nonempty orbit subset),
    and every re-expansion of a vertex of degree 4 or more of a one-orbit
    contraction that ``_expand_vertex`` builds."""
    faces = {tree.canonical_key(): tree}
    for orbit in sorted_orbits(tree):
        for face in list(faces.values()):
            if orbit in face.split_orbits():
                smaller = face.contract_orbit(orbit)
                faces.setdefault(smaller.canonical_key(), smaller)
    out = list(faces.values())
    for orbit in sorted_orbits(tree):
        singular = tree.contract_orbit(orbit)
        for v in singular.internal_vertices():
            incident = sorted(singular.adj[v])
            for r in range(2, len(incident) - 1):
                for group in itertools.combinations(incident, r):
                    candidate = trees._expand_vertex(singular, v, group)
                    if candidate is not None:
                        out.append(candidate)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_regularity_by_orbit_count_matches_the_walk_on_the_catalogs(n):
    for tree in enumerate_regular(n):
        for t in faces_and_candidates(tree):
            check_regularity(t)


@pytest.mark.long
def test_regularity_by_orbit_count_matches_the_walk_on_the_n5_catalog():
    for tree in enumerate_regular(5):
        for t in faces_and_candidates(tree):
            check_regularity(t)


@given(st.integers(1, 7), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_regularity_by_orbit_count_matches_the_walk_on_random_trees(n, seed):
    """A random tree, each one-orbit contraction, and a contraction of a
    random orbit subset."""
    rng = random.Random(seed)
    tree = random_regular_tree(n, rng)
    orbits = sorted_orbits(tree)
    face = tree
    for orbit in orbits:
        if rng.random() < 0.5:
            face = face.contract_orbit(orbit)
    for t in [tree, face, *(tree.contract_orbit(orbit) for orbit in orbits)]:
        check_regularity(t)


@given(st.integers(1, 5), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_regularity_by_orbit_count_matches_the_walk_on_raw_graphs(n, seed):
    """Messy and broken graphs, on the ones that construct."""
    n, adj, leaves, hint = raw_graph(n, random.Random(seed))
    try:
        tree = SymbicTree(n, adj, leaves, involution_hint=hint)
    except MalformedTreeError:
        return
    check_regularity(tree)


def test_regularity_by_orbit_count_matches_the_walk_on_stars():
    for tree in [tree_of_single_pair(), *(star_tree(n) for n in range(1, 7))]:
        check_regularity(tree)


def test_edge_descriptor_refuses_a_non_edge():
    tree = random_regular_tree(4, random.Random(3))
    with pytest.raises(MalformedTreeError, match=r"^\(0, 4\) is not an edge$"):
        tree.side_labels(0, 4)
    with pytest.raises(MalformedTreeError, match=r"^\(0, 4\) is not an edge$"):
        edge_descriptor(tree, 0, 4)
    for u in tree.adj:
        for v in tree.adj:
            if u != v and v not in tree.adj[u]:
                with pytest.raises(MalformedTreeError, match="is not an edge"):
                    tree.side_labels(u, v)
                with pytest.raises(MalformedTreeError, match="is not an edge"):
                    edge_descriptor(tree, u, v)
