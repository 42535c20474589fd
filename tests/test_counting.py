import itertools
import math
import random
from collections.abc import Iterator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbic import counting, fan, matroid, shelling
from symbic.counting import (
    FACE_CAP,
    SERIES_ORDER_CAP,
    RationalSeries,
    SizeCapError,
    TreeCatalog,
    _assemble_tree,
    _byte_tables,
    _code_orbits,
    _regular_codes,
    _relabelled_orbits,
    _renamed_mask,
    colored_branch_shapes,
    count_full_trunk,
    count_one_vertex_trunk,
    count_regular,
    enumerate_faces,
    enumerate_regular,
    orbit_sort_key,
    random_regular_tree,
    series_full_trunk,
    series_one_vertex_trunk,
    series_regular,
    set_partitions,
)
from symbic.trees import MalformedTreeError, SymbicTree
from symbic.tropical import TropicalError
from test_shelling import counted_constructions
from test_trees import branches

REGULAR_COUNTS = [1, 1, 2, 12, 111, 1395]
ORBIT_COUNTS = [None, 1, 2, 3, 8, 17, 47]  # S_n orbits of the catalog at n = 1..6


def contracted_faces(n: int) -> Iterator[tuple[frozenset, SymbicTree]]:
    """Every face (nonempty orbit subset of a maximal cell) of the complex
    of n+n symbic trees, once, with a representative contracted tree.  The
    empty face is the lineality class and is excluded."""
    if n > FACE_CAP:
        raise SizeCapError(f"n={n} exceeds face enumeration cap {FACE_CAP}")
    seen: set = set()
    for tree in enumerate_regular(n):
        orbits = sorted(tree.split_orbits(), key=orbit_sort_key)
        for r in range(1, len(orbits) + 1):
            for keep in itertools.combinations(orbits, r):
                key = frozenset(keep)
                if key in seen:
                    continue
                seen.add(key)
                face = tree
                for orbit in orbits:
                    if orbit not in key:
                        face = face.contract_orbit(orbit)
                yield key, face


def face_keys(n: int) -> set:
    """The oracle of enumerate_faces: the keys of the contracted face
    trees, each tree dropped once its key is read."""
    return {face.split_orbits() for _, face in contracted_faces(n)}


def compose(outer: RationalSeries, inner: RationalSeries) -> RationalSeries:
    """outer(inner(x)) by Horner's rule; inner's constant term must be 0.
    The oracle of the identity E = E2(E1)."""
    order = outer._match(inner)
    if inner.coeffs[0] != 0:
        raise ValueError("composition needs inner constant term 0")
    result = RationalSeries.constant(outer.coeffs[order], order)
    for k in range(order - 1, -1, -1):
        result = (result * inner).shift_const(outer.coeffs[k])
    return result


def test_one_vertex_trunk_recurrence():
    assert [count_one_vertex_trunk(n) for n in range(5)] == [0, 1, 1, 6, 54]
    assert count_one_vertex_trunk(2) == 1


def test_full_trunk_counts():
    assert [count_full_trunk(n) for n in range(5)] == [1, 1, 1, 3, 12]
    assert count_full_trunk(6) == 360


def test_series_arithmetic():
    s = RationalSeries([1, -4, 2], 12)
    root = s.sqrt()
    assert root * root == s
    geom = RationalSeries([1, -1], 8).reciprocal()
    assert geom.coeffs == tuple(Fraction(1) for _ in range(9))
    assert (geom * RationalSeries([1, -1], 8)).coeffs[0] == 1
    with pytest.raises(ValueError):
        RationalSeries([2, 1], 4).sqrt()
    with pytest.raises(ValueError):
        RationalSeries([0, 1], 4).reciprocal()


def test_series_composition_needs_zero_constant():
    outer = RationalSeries([1, 1, 1], 6)
    with pytest.raises(ValueError):
        compose(outer, RationalSeries([1, 1], 6))


def test_egf_values():
    e1 = series_one_vertex_trunk(12)
    assert [int(e1.egf_count(n)) for n in range(5)] == [0, 1, 1, 6, 54]
    for n in range(13):
        assert e1.egf_count(n) == count_one_vertex_trunk(n)
    e2 = series_full_trunk(10)
    for n in range(11):
        assert e2.egf_count(n) == count_full_trunk(n)
    e = series_regular(8)
    assert [int(e.egf_count(n)) for n in range(6)] == REGULAR_COUNTS
    assert e.coeffs[0] == 1


def test_composition_identity():
    """The full generating function is the trunk arrangement series composed
    with the one-vertex-trunk series."""
    order = 14
    composed = compose(series_full_trunk(order), series_one_vertex_trunk(order))
    assert composed == series_regular(order)


@pytest.mark.parametrize(
    "series",
    [series_one_vertex_trunk, series_full_trunk, series_regular],
    ids=lambda series: series.__name__,
)
def test_series_order_cap(series):
    assert series(SERIES_ORDER_CAP).order == SERIES_ORDER_CAP
    with pytest.raises(SizeCapError):
        series(SERIES_ORDER_CAP + 1)


def test_series_coefficients_refuse_floats_and_bools():
    assert RationalSeries(["1/10", 3], 2).coeffs == (Fraction(1, 10), 3, 0)
    for bad in (0.1, True):
        with pytest.raises(TropicalError):
            RationalSeries([1, bad])


def test_counting_methods_agree():
    for n in range(6):
        values = {count_regular(n, m) for m in ("recurrence", "egf", "constructive")}
        assert values == {REGULAR_COUNTS[n]}
    assert count_regular(8, "egf") == count_regular(8, "recurrence")


@pytest.mark.parametrize("method", ["recurrence", "egf", "constructive"])
def test_negative_n_is_refused_by_every_method(method):
    for n in (-1, -5):
        with pytest.raises(ValueError, match="n must be >= 0"):
            count_regular(n, method)


def test_branch_shape_counts_match_recurrence():
    for k in range(1, 6):
        labels = tuple(range(1, k + 1))
        assert len(colored_branch_shapes(labels)) == count_one_vertex_trunk(k)


def test_set_partitions_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52]
    for n, value in enumerate(bell):
        assert sum(1 for _ in set_partitions(tuple(range(n)))) == value


def test_catalog_entries_are_regular_with_right_orbit_count():
    for n in (1, 2, 3, 4, 5):
        catalog = enumerate_regular(n)
        assert len(catalog) == REGULAR_COUNTS[n]
        for key, tree in catalog.items():
            assert len(key) == max(n - 1, 0)
            assert tree.validate() is None
        # full validation of regularity is costly; sample at n=5
        sample = list(catalog)[:: max(1, len(catalog) // 40)]
        for tree in sample:
            assert tree.is_regular()


def test_trunk_block_statistics_match_composition_formula():
    """Group the catalog by its multiset of trunk block sizes and compare
    each group against the set-partition/arrangement product."""
    for n in (3, 4, 5):
        counts: dict[tuple, int] = {}
        for tree in enumerate_regular(n):
            trunk = tree.trunk()
            sizes = []
            for v in trunk:
                labels = {
                    abs(l)
                    for br in branches(tree)
                    if br.trunk_vertex == v
                    for l in br.labels
                }
                sizes.append(len(labels))
            counts[tuple(sorted(sizes))] = counts.get(tuple(sorted(sizes)), 0) + 1
        for shape, got in counts.items():
            m = len(shape)
            mult: dict[int, int] = {}
            for k in shape:
                mult[k] = mult.get(k, 0) + 1
            partitions = math.factorial(n)
            for k, c in mult.items():
                partitions //= math.factorial(k) ** c * math.factorial(c)
            arrangements = 1 if m <= 1 else math.factorial(m) // 2
            shapes_product = 1
            for k in shape:
                shapes_product *= count_one_vertex_trunk(k)
            assert got == partitions * arrangements * shapes_product


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_code_orbits_match_the_assembled_trees(n):
    """The orbits read off a code are those of the tree built from it."""
    codes = 0
    for seq, combo in _regular_codes(n):
        tree = _assemble_tree(n, seq, combo)
        assert _code_orbits(n, seq, combo) == tree.split_orbits()
        codes += 1
    assert codes == REGULAR_COUNTS[n]


def test_enumeration_caps():
    with pytest.raises(SizeCapError):
        enumerate_regular(8)
    with pytest.raises(ValueError):
        enumerate_regular(0)


def test_random_trees_are_regular():
    rng = random.Random(2)
    seen_n = set()
    for _ in range(60):
        n = rng.randint(1, 6)
        tree = random_regular_tree(n, rng)
        assert tree.is_regular()
        seen_n.add(n)
    assert seen_n == set(range(1, 7))


def test_faces_of_n2():
    by_dim = enumerate_faces(2)
    assert set(by_dim) == {1}
    assert len(by_dim[1]) == 2


def test_faces_of_n3():
    by_dim = enumerate_faces(3)
    assert len(by_dim[2]) == 12
    # ray types: 3 trunk splits {i,i'}, 3 cherry orbits, and 3 color-swapped
    # halvings like {1,3,2'}|{1',3',2} (the coarse fan's 6 rays plus the 3
    # subdivision rays)
    assert len(by_dim[1]) == 9
    for key, face in contracted_faces(3):
        assert face.validate() is None
        assert face.split_orbits() == key


@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.long)]
)
def test_faces_match_the_face_catalog(n):
    """enumerate_faces reads the orbit subsets off the cells; the oracle
    groups the keys of the contracted face trees by size."""
    expected: dict = {}
    for key in face_keys(n):
        expected.setdefault(len(key), set()).add(key)
    assert enumerate_faces(n) == expected


def test_face_enumeration_caps():
    with pytest.raises(SizeCapError, match="n=7 exceeds face enumeration cap 6"):
        enumerate_faces(7)
    with pytest.raises(ValueError, match=r"n must be >= 1 \(n=0 counts"):
        enumerate_faces(0)


@pytest.mark.long
def test_faces_at_n6():
    """The f-vector of the n = 6 complex, and the face catalog oracle."""
    by_dim = enumerate_faces(6)
    assert [len(by_dim[d]) for d in sorted(by_dim)] == [332, 5520, 24825, 40875, 22185]
    expected: dict = {}
    for key in face_keys(6):
        expected.setdefault(len(key), set()).add(key)
    assert by_dim == expected


def test_faces_are_downward_closed():
    faces = face_keys(4)
    for key in faces:
        for orbit in key:
            smaller = key - {orbit}
            if smaller:
                assert smaller in faces


@pytest.mark.long
def test_catalog_n6_count_and_orbits():
    catalog = enumerate_regular(6)
    assert len(catalog) == count_regular(6, "egf")
    for key, tree in catalog.items():
        assert len(key) == 5
    code_keys = {_code_orbits(6, seq, combo) for seq, combo in _regular_codes(6)}
    assert code_keys == set(catalog.trees)


def test_enumeration_refuses_a_tree_without_involution(monkeypatch):
    """The key comes off the code and the tree is built on first use; a
    built tree without an involution is refused then, as its own key would
    refuse it."""
    assemble = counting._assemble_tree

    def lopsided(n, seq, combo):
        tree = assemble(n, seq, combo)
        sigma = tree.involution()
        moved = [(u, v, length) for u, v, length in tree.internal_edges() if sigma[v] != v]
        if not moved:
            return tree
        u, v, length = moved[0]
        adj, leaves = tree._graph_copy()
        adj[u][v] = adj[v][u] = length + 1
        return SymbicTree(n, adj, leaves)

    monkeypatch.setattr(counting, "_assemble_tree", lopsided)
    catalog = enumerate_regular(3)
    with pytest.raises(MalformedTreeError):
        for tree in catalog:
            tree.edges()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.long)])
def test_every_code_builds_a_regular_symbic_tree(n):
    """The oracle of the lazy catalog: every code, built at once, is a
    regular symbic tree whose own split orbits are the key read off the
    code, and the catalog tree of that key builds the same tree on first
    use."""
    catalog = enumerate_regular(n)
    for seq, combo in _regular_codes(n):
        tree = _assemble_tree(n, seq, combo)
        key = _code_orbits(n, seq, combo)
        sigma = tree.involution()
        assert tree.validate() is None
        assert tree.is_regular()
        assert frozenset(tree._edge_orbits().values()) == key
        lazy = catalog.trees[key]
        assert lazy.to_json_dict() == tree.to_json_dict()
        assert lazy.involution() == sigma


@pytest.mark.parametrize(
    "sweep, built_trees",
    [
        pytest.param(lambda: shelling.shelling_check(5), 0, id="shelling_check(5)"),
        pytest.param(
            lambda: shelling.shelling_check(6), 0, id="shelling_check(6)", marks=pytest.mark.long
        ),
        pytest.param(lambda: enumerate_regular(6).orbits(), 0, id="orbits(6)"),
        pytest.param(lambda: matroid.union_bases(5, "all"), 0, id="union_bases(5)"),
        pytest.param(
            lambda: matroid.union_bases(5, "caterpillar_branches"),
            0,
            id="union_bases(5, caterpillar_branches)",
        ),
        pytest.param(lambda: matroid.conjecture_scan(5), 0, id="conjecture_scan(5)"),
        pytest.param(lambda: fan.refinement_check(4, 3), 0, id="refinement_check(4)"),
        pytest.param(lambda: fan.coarse_cells(5), 0, id="coarse_cells(5)"),
        pytest.param(
            lambda: fan.coarse_cells(6), 0, id="coarse_cells(6)", marks=pytest.mark.long
        ),
    ],
)
def test_catalog_sweeps_build_only_the_trees_they_read(sweep, built_trees, monkeypatch):
    """The shelling, its check, the orbits, the fan and the matroid sweeps
    read keys alone."""
    built = counted_constructions(monkeypatch)
    sweep()
    assert len(built) == built_trees


@pytest.mark.long
def test_constructive_count_at_n7():
    assert count_regular(7, "constructive") == 427140


def test_enumeration_refuses_a_repeated_type(monkeypatch):
    codes = counting._regular_codes

    def twice(n):
        for code in codes(n):
            yield code
            yield code

    monkeypatch.setattr(counting, "_regular_codes", twice)
    with pytest.raises(AssertionError, match="duplicate combinatorial type"):
        enumerate_regular(3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.long)])
def test_orbits_partition_the_catalog(n):
    catalog = enumerate_regular(n)
    orbits = catalog.orbits()
    assert catalog.orbits() is orbits  # cached on the catalog
    assert len(orbits) == ORBIT_COUNTS[n]
    assert sum(map(len, orbits.values())) == len(catalog)
    position = {key: k for k, key in enumerate(catalog.trees)}
    identity = tuple(range(1, n + 1))
    for rep, members in orbits.items():
        assert members[rep] == identity
        assert min(members, key=position.get) == rep
        assert all(sorted(p) == list(identity) for p in members.values())
    assert set().union(*orbits.values()) == set(catalog.trees)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_members_are_the_relabelled_representatives(n):
    """Renaming the representative tree itself, and keying the new tree by
    its own splits, gives each member's key."""
    catalog = enumerate_regular(n)
    for rep, members in catalog.orbits().items():
        tree = catalog.trees[rep]
        for key, p in members.items():
            assert tree.relabel(dict(zip(range(1, n + 1), p))).canonical_key() == key


def bfs_orbits(catalog):
    """TreeCatalog.orbits() as a breadth-first search from each
    representative under the generators (1 2) and (1 2 ... n): generator g
    sends member (key, p) to (key renamed by g, g after p)."""
    n = catalog.n
    generators = [(2, 1, *range(3, n + 1)), (*range(2, n + 1), 1)] if n > 1 else []
    label_maps = [
        {s * i: s * g[i - 1] for i in range(1, n + 1) for s in (1, -1)} for g in generators
    ]
    orbits, seen = {}, set()
    for rep in catalog.trees:
        if rep in seen:
            continue
        members = {rep: tuple(range(1, n + 1))}
        queue = [rep]
        for key in queue:
            p = members[key]
            for g, label_map in zip(generators, label_maps):
                image = _relabelled_orbits(key, label_map)
                if image not in members:
                    members[image] = tuple(g[i - 1] for i in p)
                    queue.append(image)
        seen.update(members)
        orbits[rep] = members
    return orbits


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbits_match_the_generator_search(n):
    """The same representatives in the same order and the same members.
    A member of an orbit of n! keys is reached by one permutation only, so
    there the permutations agree too."""
    catalog = enumerate_regular(n)
    swept, searched = catalog.orbits(), bfs_orbits(catalog)
    assert list(swept) == list(searched)
    for rep, members in swept.items():
        assert set(members) == set(searched[rep])
        if len(members) == math.factorial(n):
            assert members == searched[rep]


def test_orbits_refuse_a_catalog_not_closed_under_renaming():
    catalog = enumerate_regular(4)
    part = TreeCatalog(4, dict(list(catalog.items())[:20]))
    with pytest.raises(ValueError, match="not closed under renaming"):
        part.orbits()


@pytest.mark.long
def test_catalog_n6_keys_are_the_trees_own_orbits():
    """The n = 6 keys come off the codes; each equals the orbits read off
    its tree's own index."""
    for key, tree in enumerate_regular(6).items():
        assert frozenset(tree._edge_orbits().values()) == key


@pytest.fixture(scope="module")
def catalog4():
    return enumerate_regular(4)


@pytest.mark.parametrize(
    "call",
    [
        lambda c: shelling.rule_order(3, c),
        lambda c: shelling.shelling_check(3, c),
        lambda c: matroid.union_bases(3, "all", c),
        lambda c: matroid.basis_transition_check(3, c),
        lambda c: matroid.conjecture_scan(3, c),
        lambda c: fan.refinement_check(3, 3, c),
        lambda c: fan.coarse_cells(3, 3, c),
    ],
    ids=[
        "rule_order", "shelling_check", "union_bases", "basis_transition_check",
        "conjecture_scan", "refinement_check", "coarse_cells",
    ],
)
def test_whole_catalog_calls_refuse_a_catalog_of_another_size(catalog4, call):
    with pytest.raises(ValueError, match="catalog is for n=4, not n=3"):
        call(catalog4)


@given(
    st.lists(st.integers(0, 2**24 - 1), max_size=24),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_byte_tables_rename_bit_by_bit(images, masks):
    """Each bit of a mask goes to its image, bits past the images drop
    out: those in the padding of the last table and those past it."""
    tables = _byte_tables(images)
    for mask in masks:
        expected = 0
        for k, image in enumerate(images):
            if mask >> k & 1:
                expected |= image
        assert _renamed_mask(tables, mask) == expected
