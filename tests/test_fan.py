import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symbic.counting
import symbic.fan
from symbic.acceptance import four_pair_chain_tree
from symbic.correspond import matrix_from_tree, tree_from_matrix
from symbic.counting import cell_sort_key, enumerate_regular, orbit_sort_key, random_regular_tree
from symbic.fan import (
    RefinementCounterExample,
    _certified_signature,
    _grid_masks,
    _minor_table,
    _renamed_masks,
    _sampling_form,
    _signature_masks,
    coarse_cells,
    generic_length_tuples,
    refinement_check,
    sample_interior,
    signature,
)
from symbic.tropical import (
    _PERMS,
    TropMatrix,
    TropicalError,
    _integer_grid,
    _minor_sums,
    canonicalize_mod_lineality,
    rank_one_matrix,
    sym_trop_rank,
    trop_rank,
)
from symbic.trees import InvalidMoveError, MalformedTreeError, SymbicTree, _orbit_masks, _swap
from test_correspond import divergences, outcome, reconstruction_outcome
from test_counting import contracted_faces
from test_trees import with_orbit_lengths
from test_tropical import (
    Minor,
    all_minors,
    argmin_monomials,
    mixed_rationals,
    monomial_of_permutation,
    picked_minor_sums,
    small_integers,
)


def test_generic_tuples_are_distinct_positive():
    for values in generic_length_tuples(4, 5):
        assert len(set(values)) == 5
        assert all(v > 0 for v in values)
    with pytest.raises(Exception):
        generic_length_tuples(40, 10)


def test_sample_interior_stays_in_the_cone():
    tree = four_pair_chain_tree(1, 1, 1)  # lengths replaced by the sample
    sample = sample_interior(tree, generic_length_tuples(1, 3)[0])
    # the sample must live in the same cone: its tree reconstructs to the
    # same combinatorial type
    from symbic.correspond import tree_from_matrix

    assert tree_from_matrix(sample).canonical_key() == tree.canonical_key()


def test_sample_interior_rejects_bad_lengths():
    tree = four_pair_chain_tree(1, 2, 3)
    with pytest.raises(InvalidMoveError):
        sample_interior(tree, (Fraction(1), Fraction(2), Fraction(0)))
    with pytest.raises(InvalidMoveError):
        sample_interior(tree, (Fraction(1), Fraction(2), Fraction(2)))
    with pytest.raises(InvalidMoveError):
        sample_interior(tree, (Fraction(1), Fraction(2)))


def test_sample_interior_parses_lengths_exactly():
    tree = four_pair_chain_tree(1, 1, 1)
    exact = sample_interior(tree, (Fraction(1, 10), Fraction(1, 5), Fraction(2)))
    assert sample_interior(tree, ("1/10", "1/5", 2)) == exact
    with pytest.raises(TropicalError):
        sample_interior(tree, (0.1, Fraction(1, 5), Fraction(2)))
    with pytest.raises(TropicalError):
        sample_interior(tree, (True, 2, 3))
    with pytest.raises(TropicalError):
        sample_interior(tree, ("1/0", 2, 3))


def oracle_sample(tree, lengths):
    """The tree rebuild that ``sample_interior`` replaced: a new tree at the
    given orbit lengths, its matrix read off in ``Fraction``, canonicalized."""
    orbits = sorted(tree.split_orbits(), key=orbit_sort_key)
    sampled = with_orbit_lengths(tree, dict(zip(orbits, lengths)))
    return canonicalize_mod_lineality(matrix_from_tree(sampled))


def assert_samples_match(tree, a, b):
    # a, b, a on one instance: a form corrupted by the first call shows
    for lengths in (a, b, a):
        assert sample_interior(tree, lengths).rows == oracle_sample(tree, lengths).rows


POSITIVE_LENGTHS = st.fractions(min_value=Fraction(1, 30), max_value=30, max_denominator=30)


@given(
    st.integers(min_value=3, max_value=6),
    st.randoms(use_true_random=False),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_sample_interior_matches_the_tree_rebuild(n, rng, data):
    tree = random_regular_tree(n, rng)
    lengths = st.lists(POSITIVE_LENGTHS, min_size=n - 1, max_size=n - 1, unique=True)
    assert_samples_match(tree, data.draw(lengths), data.draw(lengths))


def test_sample_interior_matches_the_tree_rebuild_on_the_catalogs():
    for n in (3, 4):
        a, b = generic_length_tuples(2, n - 1)
        mixed = tuple(Fraction(k + 2, 2 * k + 1) for k in range(n - 1))
        for tree in enumerate_regular(n):
            assert_samples_match(tree, a, b)
            assert_samples_match(tree, mixed, a)


@st.composite
def carried_grid_matrices(draw):
    """Matrices that carry their integer grid, as the library makes them:
    tree matrices, n <= 7, at the sampler's mixed-denominator lengths or
    at drawn orbit lengths, all times one factor (so that the grid and its
    scale may share a divisor); and interior samples of n <= 5 trees at
    distinct positive lengths, prime reciprocals included."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        tree = random_regular_tree(draw(st.integers(1, 7)), rng)
        if draw(st.booleans()):
            orbits = sorted(tree.split_orbits(), key=orbit_sort_key)
            factor = draw(st.sampled_from((1, 2, 6, Fraction(1, 4))))
            lengths = draw(st.lists(POSITIVE_LENGTHS, min_size=len(orbits), max_size=len(orbits)))
            tree = with_orbit_lengths(tree, {o: factor * x for o, x in zip(orbits, lengths)})
        return matrix_from_tree(tree)
    n = draw(st.integers(1, 5))
    tree = random_regular_tree(n, rng)
    size = len(tree.split_orbits())
    distinct = st.lists(POSITIVE_LENGTHS, min_size=size, max_size=size, unique=True)
    return sample_interior(tree, draw(st.sampled_from(generic_length_tuples(2, size)) | distinct))


@given(carried_grid_matrices())
@settings(max_examples=150, deadline=None)
def test_carried_grids_match_their_parsed_twins(matrix):
    """A matrix that carries its integer grid reads as its twin parsed from
    its ``Fraction`` rows, which reads the entries' ratios: the same grid
    and scale, under both flags, and the same ranks, signature and rebuilt
    tree, or the same error.  Each carried int over the scale is its entry,
    one ``Fraction`` object per distinct int, and the grid handed out is a
    copy."""
    twin = TropMatrix(matrix.rows)
    assert matrix._grid is not None and twin._grid is None
    for symmetric in (False, True):
        assert outcome(_integer_grid, matrix, symmetric) == outcome(_integer_grid, twin, symmetric)
    grid, scale = matrix._grid
    pairs = list(zip(itertools.chain(*grid), itertools.chain(*matrix.rows)))
    assert all(Fraction(g, scale) == x for g, x in pairs)
    assert len({g for g, _ in pairs}) == len({id(x) for _, x in pairs})
    for compute in (sym_trop_rank, trop_rank, signature):
        assert outcome(compute, matrix) == outcome(compute, twin)
    assert reconstruction_outcome(tree_from_matrix, matrix) == reconstruction_outcome(
        tree_from_matrix, twin
    )
    handed, _ = _integer_grid(matrix)
    handed[0][0] += 1
    assert _integer_grid(matrix) == _integer_grid(twin)


def test_sample_interior_raises_what_the_tree_rebuild_raises():
    leaf_vertex = {label: 10 + 2 * abs(label) + (label < 0) for label in (1, -1, 2, -2, 3, -3)}
    # three fixed vertices on a fixed center, one leaf pair on each: the
    # involution exists but its fixed set is a star, not a path
    star = {0: {1: Fraction(1), 2: Fraction(1), 3: Fraction(1)}}
    for v in (1, 2, 3):
        star[v] = {0: Fraction(1), leaf_vertex[v]: None, leaf_vertex[-v]: None}
    # a chain 1 - 1' - 2 - 2' whose unequal lengths have no involution
    chain = {0: {1: Fraction(1)}, 1: {0: Fraction(1), 2: Fraction(2)}, 2: {1: Fraction(2)}}
    for v, (x, y) in zip((0, 1, 2), ((1, -1), (2, 3), (-2, -3))):
        chain[v].update({leaf_vertex[x]: None, leaf_vertex[y]: None})
    for adj, message in ((star, "not a path"), (chain, "symmetry")):
        for v in list(adj):
            for w, length in adj[v].items():
                adj.setdefault(w, {})[v] = length
        tree = SymbicTree(3, adj, dict(leaf_vertex))
        for sampler in (oracle_sample, sample_interior):
            with pytest.raises(MalformedTreeError, match=message):
                sampler(tree, (Fraction(1), Fraction(2), Fraction(3)))


def path_walk_sampling_form(tree):
    """The oracle of ``_sampling_form``: the form walked on the built tree.
    Entry (i, j) of ``matrix_from_tree`` is the path length from the base
    point O to the vertex ``divergences`` gives for (i, j), so its
    coefficients count each orbit's edges on that path, and
    ``canonicalize_mod_lineality`` is linear in the entries."""
    edge_orbits = tree._edge_orbits()
    orbits = sorted(set(edge_orbits.values()), key=orbit_sort_key)
    column = {orbit: k for k, orbit in enumerate(orbits)}
    o, table = divergences(tree)
    counts = {}
    for v in {v for row in table for v in row}:
        path = tree.path(o, v)  # internal vertices only: no leaf edge on it
        counts[v] = [0] * len(orbits)
        for edge in zip(path, path[1:]):
            counts[v][column[edge_orbits[frozenset(edge)]]] += 1
    n = tree.n
    m = [[counts[v] for v in row] for row in table]
    # canonicalizing subtracts x_i + x_j, where x_1 = m_11 / 2 and
    # x_j = m_1j - m_11 / 2; doubled, every coefficient stays an integer
    x = [m[0][0]] + [[2 * a - b for a, b in zip(m[0][j], m[0][0])] for j in range(1, n)]
    form = tuple(
        tuple(
            tuple(2 * a - b - c for a, b, c in zip(m[i][j], x[i], x[j])) for j in range(n)
        )
        for i in range(n)
    )
    return orbits, form


def split_mask_sampling_form(n, key):
    """The sampling form as first read off the split masks, through the
    path matrix B: by ``lineality_identity_check``, 2 A + B is in the
    lineality space, B_ij the internal length of the path from leaf i to
    leaf j', so A canonicalizes as -B / 2 does: doubled, entry (i, j) is
    B_1i + B_1j - B_11 - B_ij, whatever the base point.  An orbit's
    coefficient in B_ij counts its edges that separate i from j'.  A key
    stores the side without leaf 1 of each split: with r_i, c_j its bits of
    i and j', the split's share of the entry is c_i - c_1 + r_i (2 c_j - 1).
    A split whose swap is its complement is the two halves of a flipped
    edge and counts twice."""
    orbits = sorted(key, key=orbit_sort_key)
    full = (1 << 2 * n) - 1
    indices = range(n)
    coeffs = []
    for orbit in orbits:
        f = [0] * (n * n)
        for m in _orbit_masks(orbit):
            w = 2 if _swap(m, n) == full ^ m else 1
            c = [w * (m >> 2 * j + 1 & 1) for j in indices]
            share = [
                c[i] - c[0] + (2 * cj - w if m >> 2 * i & 1 else 0) for i in indices for cj in c
            ]
            f = [a + b for a, b in zip(f, share)]
        coeffs.append(f)
    entries = list(zip(*coeffs)) or [()] * (n * n)
    return orbits, tuple(tuple(entries[i * n : i * n + n]) for i in indices)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.long)])
def test_path_form_matches_the_path_matrix_reading_on_the_catalog(n):
    """The sampling form is the canonicalized path form; its first reading,
    through the path matrix's split counts, is the oracle on every catalog
    key."""
    for key in enumerate_regular(n).trees:
        assert _sampling_form(n, key) == split_mask_sampling_form(n, key)


def test_path_form_matches_the_path_matrix_reading_on_faces():
    for n in (3, 4):
        for key, _ in contracted_faces(n):
            assert _sampling_form(n, key) == split_mask_sampling_form(n, key)


def assert_key_read_form(tree):
    assert _sampling_form(tree.n, tree.canonical_key()) == path_walk_sampling_form(tree)


@pytest.mark.parametrize("n", [3, 4, 5, pytest.param(6, marks=pytest.mark.long)])
def test_sampling_form_matches_the_path_walk_on_the_catalog(n):
    for tree in enumerate_regular(n):
        assert_key_read_form(tree)


def has_flipped_edge(tree):
    full = (1 << 2 * tree.n) - 1
    return any(
        _swap(m, tree.n) == full ^ m for orbit in tree.split_orbits() for m in _orbit_masks(orbit)
    )


def test_sampling_form_matches_the_path_walk_on_contracted_faces():
    flipped = 0
    for n in (3, 4):
        for _, face in contracted_faces(n):
            assert_key_read_form(face)
            flipped += has_flipped_edge(face)
    # the two halves of a flipped edge are one split counted twice
    assert flipped > 0
    # every orbit contracted: a star, whose form is all empty
    star = four_pair_chain_tree(1, 2, 3)
    for orbit in star.split_orbits():
        star = star.contract_orbit(orbit)
    assert_key_read_form(star)
    assert sample_interior(star, ()).rows == oracle_sample(star, ()).rows


@given(st.integers(min_value=3, max_value=8), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_sampling_form_matches_the_path_walk_on_random_trees(n, rng):
    assert_key_read_form(random_regular_tree(n, rng))


def test_two_samples_of_one_tree_read_the_form_once(monkeypatch):
    calls = []
    read = symbic.fan._sampling_form

    def counted(n, key):
        calls.append(key)
        return read(n, key)

    monkeypatch.setattr(symbic.fan, "_sampling_form", counted)
    tree = four_pair_chain_tree(1, 2, 3)
    a, b = generic_length_tuples(2, 3)
    assert sample_interior(tree, a).rows == oracle_sample(tree, a).rows
    assert sample_interior(tree, b).rows == oracle_sample(tree, b).rows
    assert calls == [tree.canonical_key()]


def test_signature_of_permuted_matrix():
    m = TropMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    sig = dict()
    for rows, cols, monomials in signature(m):
        sig[(rows, cols)] = monomials
    full = sig[((1, 2, 3), (1, 2, 3))]
    assert full == argmin_monomials(m, Minor((1, 2, 3), (1, 2, 3)))
    assert full == frozenset(
        {(((1, 2), (1, 2), (3, 3))), (((1, 3), (1, 3), (2, 2)))}
    )


def test_signature_of_zero_matrix_has_every_monomial():
    m = TropMatrix([[0] * 3] * 3)
    for rows, cols, monomials in signature(m):
        minor = Minor(rows, cols)
        every = {
            monomial_of_permutation(minor, perm)
            for perm in itertools.permutations(range(3))
        }
        assert monomials == frozenset(every)


def test_signature_needs_n_at_least_3(monkeypatch):
    with pytest.raises(TropicalError):
        signature(TropMatrix([[0, 0], [0, 0]]))

    def enumerate_nothing(n):
        raise AssertionError("enumerated a catalog too small to sign")

    # the whole-catalog calls refuse before any enumeration
    monkeypatch.setattr(symbic.counting, "enumerate_regular", enumerate_nothing)
    for n in (2, 1, 0, -1):
        for call in (coarse_cells, refinement_check):
            with pytest.raises(TropicalError, match="signatures need n >= 3"):
                call(n)


def test_signature_refuses_asymmetric_input():
    # symmetric except one entry: the monomials are in the symmetric
    # variables x_ij, so an asymmetric matrix has no signature
    entries = [[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 7, 0]]
    with pytest.raises(TropicalError):
        signature(TropMatrix(entries))
    entries[3][2] = 6
    assert len(signature(TropMatrix(entries))) == 16


def oracle_signature(m):
    """Every 3x3 minor (R, C) through the Fraction ``trop_det``, with no
    scaling and no transpose sharing."""
    return frozenset(
        (mi.rows, mi.cols, argmin_monomials(m, mi)) for mi in all_minors(m.n, 3)
    )


@st.composite
def fan_matrices(draw):
    """Symmetric matrices with n = 3..5: random entries, small integers
    (many ties) or mixed denominators, or a cone sample of a random regular tree at
    distinct positive lengths."""
    n = draw(st.integers(min_value=3, max_value=5))
    if draw(st.booleans()):
        cells = draw(st.sampled_from([mixed_rationals, small_integers]))
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries[i][j] = entries[j][i] = draw(cells)
        return TropMatrix(entries)
    tree = random_regular_tree(n, draw(st.randoms(use_true_random=False)))
    positive = st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12)
    lengths = draw(st.lists(positive, min_size=n - 1, max_size=n - 1, unique=True))
    return sample_interior(tree, lengths)


@given(fan_matrices())
@settings(max_examples=150, deadline=None)
def test_signature_matches_the_fraction_oracle(m):
    assert signature(m) == oracle_signature(m)


def test_signature_is_lineality_invariant():
    tree = four_pair_chain_tree(2, 3, 5)
    m = matrix_from_tree(tree)
    shifted = m.add(rank_one_matrix([Fraction(1, 3), -2, 7, Fraction(5, 2)]))
    assert signature(m) == signature(shifted)


def test_samples_of_one_cone_share_signatures():
    tree = four_pair_chain_tree(1, 2, 3)
    first, second = generic_length_tuples(2, 3)
    assert signature(sample_interior(tree, first)) == signature(
        sample_interior(tree, second)
    )


def test_every_symmetric_minor_is_degenerate_on_cone_samples():
    for n in (3, 4):
        for tree in enumerate_regular(n):
            sample = sample_interior(tree, generic_length_tuples(1, n - 1)[0])
            assert sym_trop_rank(sample) <= 2
            sig = signature(sample)
            assert len(sig) == len(list(all_minors(n, 3)))
            assert all(len(monomials) >= 2 for _, _, monomials in sig)


def test_refinement_check_small_n():
    assert refinement_check(3, samples_per_tree=5) is None
    assert refinement_check(4, samples_per_tree=3) is None


def test_refinement_check_needs_two_samples():
    for samples in (1, 0):
        with pytest.raises(ValueError):
            refinement_check(3, samples_per_tree=samples)


def test_refinement_check_catches_mixed_samples(monkeypatch):
    catalog = enumerate_regular(3)
    trees = list(catalog)
    calls = []
    honest_sampler = symbic.fan.sample_interior

    def corrupted_sampler(tree, lengths):
        # first call per tree answers honestly, later calls sample a
        # different tree's cone
        calls.append(tree)
        bait = trees[0] if tree.canonical_key() != trees[0].canonical_key() else trees[1]
        honest = calls.count(tree) == 1
        return honest_sampler(tree if honest else bait, lengths)

    monkeypatch.setattr(symbic.fan, "sample_interior", corrupted_sampler)
    # every catalog tree is certified; refusing the certificate reaches the
    # sampled loop and its corrupted sampler
    monkeypatch.setattr(symbic.fan, "_certified_signature", lambda form: None)
    bad = refinement_check(3, samples_per_tree=2)
    assert isinstance(bad, RefinementCounterExample)
    assert bad.lengths_a == generic_length_tuples(2, 2)[0]
    assert coarse_cells(3, 2) == (bad, [])


def test_coarse_cells_n3():
    bad, groups = coarse_cells(3)
    assert bad is None and len(groups) == 9
    assert sorted(len(keys) for _, keys in groups) == [1, 1, 1, 1, 1, 1, 2, 2, 2]
    assert sum(len(keys) for _, keys in groups) == 12


def test_coarse_cells_n4_bounded_by_catalog():
    bad, groups = coarse_cells(4)
    assert bad is None
    assert len(groups) <= 111
    assert len(groups) == 75  # computed value; no published expectation


def sampled_coarse_cells(n, samples_per_tree=3, catalog=None):
    """The sampled signing pass that ``coarse_cells`` runs only on trees
    it cannot certify, here on every tree: each tree signed at every
    generic sample, grouped by its first sample's signature."""
    first, *others = generic_length_tuples(samples_per_tree, n - 1)
    groups = {}
    for key, tree in (catalog or enumerate_regular(n)).items():
        sig = signature(sample_interior(tree, first))
        for lengths in others:
            if signature(sample_interior(tree, lengths)) != sig:
                return RefinementCounterExample(key, first, lengths), []
        groups.setdefault(sig, []).append(key)
    cells = [(sig, tuple(sorted(keys, key=cell_sort_key))) for sig, keys in groups.items()]
    return None, sorted(cells, key=lambda cell: (len(cell[1]), list(map(cell_sort_key, cell[1]))))


def test_coarse_cells_match_the_sampled_pass():
    for n in (3, 4):
        assert coarse_cells(n) == sampled_coarse_cells(n)


def test_refinement_and_coarse_cells_n5():
    catalog = enumerate_regular(5)
    cells = coarse_cells(5, 3, catalog=catalog)
    bad, groups = cells
    assert bad is None
    # computed value, equal to the count over the Fraction oracle's
    # signatures; no published expectation
    assert len(groups) == 855
    assert cells == sampled_coarse_cells(5, 3, catalog)


def test_every_catalog_tree_is_certified():
    for n in (3, 4, 5):
        for tree in enumerate_regular(n):
            assert _certified_signature(_sampling_form(n, tree.canonical_key())[1]) is not None


def mask_signature(n, masks):
    """The signature a mask form stands for, read bit by bit: per minor
    (R, C) of the sweep, the monomials of its set bits' permutations, and
    the transpose (C, R) with the same set."""
    out = set()
    for (rows, cols, monomials), mask in zip(_minor_table(n), masks, strict=True):
        argmin = frozenset(m for k, m in enumerate(monomials) if mask >> k & 1)
        out |= {(rows, cols, argmin), (cols, rows, argmin)}
    return frozenset(out)


@pytest.mark.parametrize("n", [3, 4, pytest.param(5, marks=pytest.mark.long)])
def test_each_trees_certificate_is_its_representatives_renamed(n):
    """The oracle of signing one tree per S_n orbit: every catalog tree,
    certified on its own form, has its representative's mask form renamed
    by the orbit's p, and the signature that mask form stands for is the
    representative's with every index i renamed p[i - 1]."""
    for rep, members in enumerate_regular(n).orbits().items():
        masks = _certified_signature(_sampling_form(n, rep)[1])
        for key, p in members.items():
            own = _certified_signature(_sampling_form(n, key)[1])
            assert own == _renamed_masks(n, p, masks)
            perm = dict(zip(range(1, n + 1), p))
            assert mask_signature(n, own) == renamed_signature(mask_signature(n, masks), perm)


@pytest.mark.parametrize("n", [3, 4])
def test_an_orbit_the_certificate_refuses_is_sampled(n, monkeypatch):
    """Refusing the certificate for one representative sends exactly its
    orbit through the sampled loop, and the groups stay the sampled
    pass's; the loop takes that orbit's trees in catalog order, so a
    sampler that lies on its second call is caught at the orbit's first
    tree in the catalog."""
    catalog = enumerate_regular(n)
    orbits = catalog.orbits()
    cell_of = {key: k for k, (_, keys) in enumerate(coarse_cells(n)[1]) for key in keys}
    refused = max(orbits, key=lambda rep: len(orbits[rep]))
    refused_form = _sampling_form(n, refused)[1]
    certify = symbic.fan._certified_signature
    monkeypatch.setattr(
        symbic.fan,
        "_certified_signature",
        lambda form: None if form == refused_form else certify(form),
    )
    sweeps, sampled = counted_signings(monkeypatch)
    assert coarse_cells(n) == sampled_coarse_cells(n)
    assert len(sweeps) == len(orbits)
    assert len(sampled) == 3 * len(orbits[refused]) > 3

    honest_sampler = symbic.fan.sample_interior
    calls = []

    def lying_sampler(tree, lengths):
        # honest on the first call per tree, then a tree of another cell
        key = tree.canonical_key()
        calls.append(key)
        bait = next(t for k, t in catalog.items() if cell_of[k] != cell_of[key])
        return honest_sampler(tree if calls.count(key) == 1 else bait, lengths)

    monkeypatch.setattr(symbic.fan, "sample_interior", lying_sampler)
    first = next(key for key in catalog.trees if key in orbits[refused])
    bad = refinement_check(n, samples_per_tree=2)
    assert bad.tree_key == first
    assert set(calls) == {first}


@pytest.mark.long
def test_coarse_cells_n6():
    bad, groups = coarse_cells(6)
    assert bad is None
    # computed value, equal to the count of a recorded run that certified
    # every tree on its own; no published expectation
    assert len(groups) == 12555
    assert sum(len(keys) for _, keys in groups) == 22185


def counted_signings(monkeypatch):
    """Record the size of every certified sweep and every sampled
    signature that ``symbic.fan`` makes from now on."""
    sweeps, sampled = [], []
    certify, sign = symbic.fan._certified_signature, symbic.fan.signature

    def counted_sweep(form):
        sweeps.append(len(form))
        return certify(form)

    def counted_signature(matrix):
        sampled.append(matrix.n)
        return sign(matrix)

    monkeypatch.setattr(symbic.fan, "_certified_signature", counted_sweep)
    monkeypatch.setattr(symbic.fan, "signature", counted_signature)
    return sweeps, sampled


@given(
    st.integers(min_value=3, max_value=6),
    st.randoms(use_true_random=False),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_certified_signature_is_every_samples_signature(n, rng, data):
    tree = random_regular_tree(n, rng)
    certified = _certified_signature(_sampling_form(n, tree.canonical_key())[1])
    assert certified is not None
    lengths = st.lists(POSITIVE_LENGTHS, min_size=n - 1, max_size=n - 1, unique=True)
    for _ in range(2):
        sig = signature(sample_interior(tree, data.draw(lengths)))
        assert mask_signature(n, certified) == sig
        assert _signature_masks(n, sig) == certified


def test_incomparable_minimal_forms_are_refused():
    """A 3x3 grid of forms in two lengths whose identity term (2, 0) and
    transposition (1 2) term (0, 2) are both minimal and incomparable: the
    argmin moves inside the cone, (1, 2) and (2, 1) sign differently."""
    big = (5, 5)

    def form_with(corner):
        entries = {(0, 0): corner, (0, 1): (0, 1), (0, 2): big, (1, 2): big}
        return tuple(
            tuple(entries.get((min(i, j), max(i, j)), (0, 0)) for j in range(3))
            for i in range(3)
        )

    # packed by hand: coefficient k in bits 8k..8k+7, guard bit 7 of each
    def pack(form):
        return [[a + (b << 8) for a, b in row] for row in form]

    def signed_at(form, x, y):
        return signature(TropMatrix([[a * x + b * y for a, b in row] for row in form]))

    guard = 1 << 7 | 1 << 15
    incomparable = form_with((2, 0))
    assert _grid_masks(pack(incomparable), guard) is None
    assert _certified_signature(incomparable) is None
    assert signed_at(incomparable, 1, 2) != signed_at(incomparable, 2, 1)
    # with a dominated corner (0, 0) the identity term wins on the whole cone
    dominated = form_with((0, 0))
    certified = _grid_masks(pack(dominated), guard)
    assert certified is not None and certified == _certified_signature(dominated)
    for x, y in ((1, 2), (2, 1), (7, 3)):
        assert mask_signature(3, certified) == signed_at(dominated, x, y)


@st.composite
def sweep_grids(draw):
    """Symmetric integer grids with n = 3..7: entries in [0, 3], or wide
    ints packed as ``_certified_signature`` packs a form, 1 to 10 fields of
    coefficients in [-M, M], each field 1 + bits(6 M) wide."""
    n = draw(st.integers(3, 7))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):

        def cell():
            return rng.randint(0, 3)

    else:
        bound = draw(st.integers(1, 12))
        width = (6 * bound).bit_length() + 1
        shifts = range(0, width * draw(st.integers(1, 10)), width)

        def cell():
            return sum(rng.randint(-bound, bound) << shift for shift in shifts)

    grid = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = cell()
    return grid


@given(sweep_grids())
@settings(max_examples=150, deadline=None)
def test_minor_sweep_matches_the_picked_sums(grid):
    """The 3x3 sweep gives every 3x3 minor (R, C) with C >= R, in
    ``_minor_table`` order, the sums of the listing oracle, in ``_PERMS``
    order."""
    want = [sums for _, _, sums in picked_minor_sums(grid, 3, True, _PERMS)]
    assert len(want) == len(_minor_table(len(grid)))
    assert list(_minor_sums(grid)) == want


def renamed_signature(sig, perm):
    """A signature with every index i renamed perm[i]."""

    def pair(i, j):
        return (perm[i], perm[j]) if perm[i] <= perm[j] else (perm[j], perm[i])

    return frozenset(
        (
            tuple(sorted(perm[i] for i in rows)),
            tuple(sorted(perm[j] for j in cols)),
            frozenset(tuple(sorted(pair(i, j) for i, j in monomial)) for monomial in monomials),
        )
        for rows, cols, monomials in sig
    )


@st.composite
def permuted_matrices(draw):
    """A symmetric matrix from ``fan_matrices`` and a permutation of its
    indices, 1-based."""
    m = draw(fan_matrices())
    images = draw(st.permutations(range(1, m.n + 1)))
    return m, dict(zip(range(1, m.n + 1), images))


@given(permuted_matrices())
@settings(max_examples=100, deadline=None)
def test_signature_is_equivariant(case):
    """Renaming a symmetric matrix's indices, rows and columns together,
    renames the rows, columns and monomials of its signature."""
    m, perm = case
    renamed = [[None] * m.n for _ in range(m.n)]
    for i in range(m.n):
        for j in range(m.n):
            renamed[perm[i + 1] - 1][perm[j + 1] - 1] = m.rows[i][j]
    assert signature(TropMatrix(renamed)) == renamed_signature(signature(m), perm)
