import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symbic import matroid
from symbic.acceptance import four_pair_double_cherry_tree
from symbic.correspond import matrix_from_tree
from symbic.counting import SizeCapError, enumerate_regular, random_regular_tree
from symbic.matroid import (
    CayleyMatrix,
    ConjectureReport,
    _bases,
    _cayley,
    _echelon,
    _kernel,
    _reduce,
    basis_transition_table,
    basis_transition_check,
    cayley_matrix,
    check_basis_transitions,
    conjecture_scan,
    exact_rank,
    ground_set,
    matroid_bases,
    render_conjecture_report,
    union_bases,
)
from symbic.trees import (
    InvalidMoveError,
    _away_sides,
    _has_caterpillar_branches,
    _is_caterpillar,
    star_tree,
    tree_of_single_pair,
)
from symbic.tropical import TropicalError
from test_correspond import walk_cayley_matrix
from test_counting import contracted_faces
from test_trees import walk_has_caterpillar_branches, walk_is_caterpillar, with_orbit_lengths


def oracle_bases(tree, base=None):
    """The basis search as first written: Fraction elimination, every
    candidate reduced against the whole echelon and normalized at its pivot."""
    cm = cayley_matrix(tree, base)
    pairs = cm.columns
    vectors = {p: [Fraction(x) for x in cm.column(p)] for p in pairs}
    target = 2 * tree.n - 1
    results = []

    def reduce(vec, echelon):
        vec = list(vec)
        for pivot, basis_vec in echelon:
            if vec[pivot]:
                factor = vec[pivot]
                vec = [a - factor * b for a, b in zip(vec, basis_vec)]
        for idx, value in enumerate(vec):
            if value:
                return idx, [a / value for a in vec]
        return None

    def extend(start, chosen, echelon):
        if len(chosen) == target:
            results.append(frozenset(chosen))
            return
        remaining_needed = target - len(chosen)
        for idx in range(start, len(pairs) - remaining_needed + 1):
            step = reduce(vectors[pairs[idx]], echelon)
            if step is None:
                continue
            extend(idx + 1, chosen + [pairs[idx]], echelon + [step])

    extend(0, [], [])
    return frozenset(results)


def as_columns(cm, masks):
    """Column masks of ``_bases`` as frozensets of columns, bit by bit."""
    return frozenset(
        frozenset(c for k, c in enumerate(cm.columns) if mask >> k & 1) for mask in masks
    )


def primal_bases(cm):
    """The integer basis search the dual replaced: depth-first over the
    columns of the matrix itself, one reducer step per candidate column."""
    pairs = cm.columns
    vectors = list(zip(*cm.rows))
    target = len(cm.rows)
    results = []

    def extend(start, chosen, echelon):
        if len(chosen) == target:
            results.append(frozenset(chosen))
            return
        for idx in range(start, len(pairs) - (target - len(chosen)) + 1):
            step = _reduce(vectors[idx], echelon)
            if step is not None:
                extend(idx + 1, chosen + [pairs[idx]], echelon + [step])

    extend(0, [], [])
    return frozenset(results)


def full_reduction_bases(cm):
    """The dual search the incremental one replaced: depth-first over the
    kernel columns in order, every candidate reduced against the whole
    chosen echelon from scratch, leaves included; complements as masks."""
    width = len(cm.columns)
    kernel = _kernel(cm.rows, width)
    if kernel is None:
        return frozenset()
    everything = (1 << width) - 1
    vectors = list(zip(*kernel))
    target = len(kernel)
    results = []

    def extend(start, chosen, echelon):
        if len(echelon) == target:
            results.append(everything ^ chosen)
            return
        for idx in range(start, width - (target - len(echelon)) + 1):
            step = _reduce(vectors[idx], echelon)
            if step is not None:
                extend(idx + 1, chosen | 1 << idx, echelon + [step])

    extend(0, 0, [])
    return frozenset(results)


def reference_reduce(vec, echelon):
    """The reducer as first written, with a generator per row operation, a
    division by every gcd and a scan for the pivot."""
    for p, b in echelon:
        vp = vec[p]
        if vp:
            bp = b[p]
            vec = [bp * x - vp * y for x, y in zip(vec, b)]
    g = math.gcd(*vec)
    if not g:
        return None
    row = tuple(x // g for x in vec)
    return next(i for i, x in enumerate(row) if x), row


def oracle_rank(rows):
    """Textbook Gaussian elimination over Fraction."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, len(work)):
            factor = work[r][col] / work[rank][col]
            work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def test_ground_set():
    assert ground_set(2) == ((1, 1), (1, 2), (2, 2))
    assert len(ground_set(5)) == 15


def test_exact_rank():
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([]) == 0
    assert exact_rank([["1/10", "3/10"], [1, 3]]) == 1


def test_exact_rank_refuses_floats_and_bools():
    # Fraction(0.1) is the binary float, not 1/10: these rows as written are
    # proportional, yet the float reading would give rank 2
    with pytest.raises(TropicalError):
        exact_rank([[0.1, 0.3], [1, 3]])
    with pytest.raises(TropicalError):
        exact_rank([[True, 0], [0, 1]])


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def rational_matrices(draw):
    """Small rational matrices with zero rows and rows that are rational
    combinations of earlier rows mixed in."""
    cols = draw(st.integers(0, 5))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["free", "zero", "dependent"]))
        if kind == "zero":
            rows.append([Fraction(0)] * cols)
        elif kind == "dependent" and rows:
            coefficients = [draw(small_rationals) for _ in rows]
            rows.append([sum(c * row[k] for c, row in zip(coefficients, rows)) for k in range(cols)])
        else:
            rows.append([draw(small_rationals) for _ in range(cols)])
    return rows


@given(rational_matrices())
@example([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1], [0, 0]])
@settings(max_examples=200, deadline=None)
def test_exact_rank_matches_fraction_gauss(rows):
    assert exact_rank(rows) == oracle_rank(rows)


@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), max_size=6))
@settings(max_examples=300, deadline=None)
def test_reducer_keeps_a_primitive_echelon(vectors):
    """Each new row is primitive, zero at every earlier pivot, has its pivot
    as first nonzero entry, and the echelon spans what was pushed in."""
    echelon = []
    for vec in vectors:
        step = _reduce(vec, echelon)
        if step is None:
            assert oracle_rank([b for _, b in echelon] + [vec]) == len(echelon)
            continue
        pivot, row = step
        assert math.gcd(*row) == 1
        assert all(x == 0 for x in row[:pivot]) and row[pivot]
        assert all(row[p] == 0 for p, _ in echelon)
        echelon.append(step)
    pushed = [b for _, b in echelon]
    assert oracle_rank(pushed) == len(echelon) == oracle_rank(pushed + vectors)


int_vectors = st.lists(st.integers(-9, 9), min_size=5, max_size=5)


@given(st.lists(int_vectors, max_size=5), int_vectors, st.integers(-4, 4))
@example([], [0, 0, 0, 0, 0], 1)  # a zero vector
@example([[2, 4, 0, 6, 2], [0, 3, 3, 0, -6]], [1, 1, 1, 1, 1], -3)  # gcd > 1 both ways
@example([[0, -1, 2, 0, 1]], [0, 2, -4, 0, -2], 1)  # lies in the span
@settings(max_examples=300, deadline=None)
def test_reducer_matches_the_reference(rows, vec, scale):
    """Against every prefix of an ``_echelon``-built echelon, and against
    the echelon the reference builds, the reducer returns the reference's
    (pivot, row) pair, row a tuple, or None."""
    echelon = _echelon(rows)
    reference = []
    for row in rows:
        step = reference_reduce(row, reference)
        if step is not None:
            reference.append(step)
    assert echelon == reference
    vec = [scale * x for x in vec]
    for k in range(len(echelon) + 1):
        step = _reduce(vec, echelon[:k])
        assert step == reference_reduce(vec, echelon[:k])
        assert step is None or type(step[1]) is tuple
        assert _reduce(tuple(vec), echelon[:k]) == step


def test_cayley_of_single_pair_tree():
    cm = cayley_matrix(tree_of_single_pair())
    assert cm.node_count == 0
    assert cm.columns == ((1, 1),)
    assert cm.rows == ((2,),)
    assert cm.rank() == 1


def test_cayley_rejects_singular_trees():
    with pytest.raises(InvalidMoveError):
        cayley_matrix(star_tree(3))


def test_worked_cayley_matrix():
    cm = cayley_matrix(four_pair_double_cherry_tree(1, 2, 3))
    assert cm.node_count == 3
    assert cm.rank() == 7
    by_pair = {pair: cm.column(pair) for pair in cm.columns}
    # the fork node parameter marks exactly the pairs (1,4) and (2,3)
    fork_rows = {
        tuple(i for i, x in enumerate(column[:3]) if x)
        for pair, column in by_pair.items()
        if pair in ((1, 4), (2, 3))
    }
    assert len(fork_rows) == 1
    # diagonal pairs diverge at the base point: no node entry, a single 2
    for i in range(1, 5):
        column = by_pair[(i, i)]
        assert column[:3] == (0, 0, 0)
        assert column[3:].count(2) == 1 and column[3:].count(0) == 3


def test_cayley_rank_is_2n_minus_1():
    for n in (2, 3, 4):
        for tree in enumerate_regular(n):
            assert cayley_matrix(tree).rank() == 2 * n - 1


def test_cayley_column_space_matches_edge_impulses():
    """The cone is linearly spanned by the unit-impulse matrices of each
    orbit plus the scaling directions; the Cayley rows span the same space."""
    from symbic.counting import orbit_sort_key

    for tree in enumerate_regular(3):
        orbits = sorted(tree.split_orbits(), key=orbit_sort_key)
        pairs = ground_set(tree.n)
        impulse_rows = []
        base_m = matrix_from_tree(
            with_orbit_lengths(tree, {orbit: Fraction(2) for orbit in orbits})
        )
        for target in orbits:
            lengths = {orbit: Fraction(1 if orbit == target else 2) for orbit in orbits}
            bumped_m = matrix_from_tree(with_orbit_lengths(tree, lengths))
            impulse_rows.append(
                [base_m.entry(i, j) - bumped_m.entry(i, j) for i, j in pairs]
            )
        for coordinate in range(1, tree.n + 1):
            impulse_rows.append(
                [(i == coordinate) + (j == coordinate) for i, j in pairs]
            )
        cm = cayley_matrix(tree)
        stacked = list(cm.rows) + impulse_rows
        assert exact_rank(impulse_rows) == exact_rank(cm.rows) == exact_rank(stacked)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.long)])
def test_key_read_cayley_matrix_matches_the_walk_on_the_catalog(n):
    """A whole-catalog sweep reads each Cayley matrix off the key alone,
    for the default base point; the walk over the built tree is the
    oracle on every catalog key."""
    for key, tree in enumerate_regular(n).items():
        assert _cayley(n, _away_sides(n, key)) == walk_cayley_matrix(tree)


def assert_caterpillar_filters_match_the_walk(tree):
    key = tree.canonical_key()
    assert tree.is_caterpillar() == walk_is_caterpillar(tree)
    assert _is_caterpillar(tree.n, key) == walk_is_caterpillar(tree)
    assert tree.has_caterpillar_branches() == walk_has_caterpillar_branches(tree)
    assert _has_caterpillar_branches(tree.n, key) == walk_has_caterpillar_branches(tree)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.long)])
def test_caterpillar_filters_read_off_the_key_match_the_walk(n):
    """The caterpillar filters read split masks (the matroid sweeps pass a
    key's); the walk over the built tree is the oracle on every catalog
    tree."""
    for tree in enumerate_regular(n):
        assert_caterpillar_filters_match_the_walk(tree)


def test_caterpillar_filters_match_the_walk_on_faces():
    """Contracted trees too: longer trunks, flipped edges and branches
    with vertices of higher degree."""
    for n in (3, 4):
        for _, face in contracted_faces(n):
            assert_caterpillar_filters_match_the_walk(face)


def test_bases_n2_brute_force():
    for tree in enumerate_regular(2):
        cm = cayley_matrix(tree)
        expected = set()
        for subset in itertools.combinations(cm.columns, 3):
            rows = [[cm.column(p)[r] for p in subset] for r in range(3)]
            if exact_rank(rows) == 3:
                expected.add(frozenset(subset))
        assert matroid_bases(tree) == frozenset(expected)


def test_bases_independent_of_base_point():
    for n in (2, 3):
        for tree in enumerate_regular(n):
            trunk = tree.trunk()
            if len(trunk) < 2:
                continue
            assert matroid_bases(tree, trunk[0]) == matroid_bases(tree, trunk[-1])



def test_cayley_matrix_is_built_once_per_tree_and_base(monkeypatch):
    """``matroid_bases`` reads the Cayley matrix that ``cayley_matrix`` has
    just built on the same tree; another base point gets its own."""
    calls = []
    read = matroid._away_sides

    def counted(n, source, base=None):
        calls.append(base)
        return read(n, source, base)

    monkeypatch.setattr(matroid, "_away_sides", counted)
    tree = random_regular_tree(4, random.Random(3))
    cm = cayley_matrix(tree)
    assert matroid_bases(tree) == as_columns(cm, _bases(cm))
    assert cayley_matrix(tree, tree.trunk()[-1]) is cm
    assert len(calls) == 1
    assert cayley_matrix(tree, tree.trunk()[0]) is not cm  # a two-vertex trunk
    assert len(calls) == 2


@given(st.integers(2, 4), st.integers(0, 2**32))
@example(5, 2024)
@settings(max_examples=60, deadline=None)
def test_bases_match_fraction_oracle(n, seed):
    tree = random_regular_tree(n, random.Random(seed))
    assert matroid_bases(tree) == oracle_bases(tree)


@st.composite
def integer_matrices(draw):
    """Small int matrices, r <= 5 rows and m <= 9 columns, sometimes square,
    with integer combinations of earlier rows and zero columns mixed in."""
    r = draw(st.integers(1, 5))
    m = r if draw(st.booleans()) else draw(st.integers(0, 9))
    zero_columns = draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=2))
    rows = []
    for _ in range(r):
        if rows and draw(st.integers(0, 3)) == 0:
            coefficients = [draw(st.integers(-2, 2)) for _ in rows]
            rows.append(tuple(sum(c * row[k] for c, row in zip(coefficients, rows)) for k in range(m)))
        else:
            rows.append(tuple(
                0 if k in zero_columns else draw(st.integers(-3, 3)) for k in range(m)
            ))
    return CayleyMatrix(0, 0, tuple(range(m)), tuple(rows))


def identity_beside(block):
    """The matrix [I | B] for the rows of B.  Its kernel rows are
    [-B^T | I], so kernel column i is row i of B negated: rows of B equal
    up to sign or scale give dependent kernel columns, and a zero row of B
    gives a zero kernel column, a coloop of [I | B]."""
    r, k = len(block), len(block[0])
    rows = tuple(tuple(int(i == j) for j in range(r)) + tuple(b) for i, b in enumerate(block))
    return CayleyMatrix(0, 0, tuple(range(r + k)), rows)


def assert_kernel(rows, width):
    """A K^T = 0 and rank K = m - r for independent rows; None otherwise."""
    kernel = _kernel(rows, width)
    if exact_rank(rows) < len(rows):
        assert kernel is None
        return
    assert len(kernel) == width - len(rows) == exact_rank(kernel)
    for row in rows:
        for vec in kernel:
            assert len(vec) == width
            assert sum(a * x for a, x in zip(row, vec)) == 0


@given(integer_matrices())
@example(CayleyMatrix(0, 0, (0, 1, 2), ((1, 2, 3), (2, 4, 6))))  # dependent rows
@example(CayleyMatrix(0, 0, (0, 1, 2), ((0, 1, 0), (0, 0, 2), (3, 0, 0))))  # m == r
@example(CayleyMatrix(0, 0, (0, 1, 2, 3), ((0, 2, 0, 4), (0, 1, 1, 0))))  # a zero column
@example(CayleyMatrix(0, 0, (0, 1), ((1, 1), (1, -1), (0, 1))))  # m < r
# last-level kernel columns equal, opposite and scaled, and a zero column
@example(identity_beside([(1, 2), (-1, -2), (2, 4), (0, 0)]))
# the same after the first choice, and a multiple of that column reduces to zero
@example(identity_beside([(1, 0, 0), (0, 1, 1), (1, 1, 1), (1, -1, -1), (3, 2, 2), (2, 0, 0), (0, 0, 0)]))
@settings(max_examples=300, deadline=None)
def test_bases_match_the_primal_search(cm):
    assert_kernel(cm.rows, len(cm.columns))
    bases = _bases(cm)
    assert bases == full_reduction_bases(cm)
    assert as_columns(cm, bases) == primal_bases(cm)


def distinct_cayley_matrices(n):
    return {cm.rows: cm for cm in map(cayley_matrix, enumerate_regular(n))}.values()


def test_bases_match_the_primal_search_on_every_cayley_matrix():
    for n in (1, 2, 3, 4):
        for cm in distinct_cayley_matrices(n):
            assert_kernel(cm.rows, len(cm.columns))
            masks = _bases(cm)
            assert masks == full_reduction_bases(cm)
            bases = as_columns(cm, masks)
            assert bases == primal_bases(cm)
            assert bases and all(len(b) == 2 * n - 1 for b in bases)


@pytest.mark.long
def test_bases_match_the_primal_search_on_every_cayley_matrix_n5():
    matrices = list(distinct_cayley_matrices(5))
    assert len(matrices) == 690
    for cm in matrices:
        assert_kernel(cm.rows, len(cm.columns))
        masks = _bases(cm)
        assert masks == full_reduction_bases(cm)
        assert as_columns(cm, masks) == primal_bases(cm)


def test_kernel_of_a_worked_matrix():
    # back-substitution clears column 1 from the first row, (2, 0, -3, 1);
    # the pivot entries are 2 and 1, so L = 2 on the free columns 2 and 3
    rows = ((2, 1, 0, 1), (0, 1, 3, 0))
    assert _kernel(rows, 4) == [[3, -6, 2, 0], [-1, 0, 0, 2]]
    assert _kernel(((1, 2), (2, 4)), 2) is None
    assert _kernel(((1, 0), (0, 1)), 2) == []
    assert_kernel(rows, 4)


@pytest.mark.long
def test_union_bases_n5_caterpillar_branches():
    catalog = enumerate_regular(5)
    everything = union_bases(5, "all", catalog)
    assert len(everything) == 3655
    assert everything == union_bases(5, "caterpillar_branches", catalog)


def test_union_bases_filters():
    assert union_bases(2, "all") == union_bases(2, "full_caterpillar")
    # sizes as computed by the Fraction elimination the integer kernel replaced
    for n, size in ((2, 1), (3, 6), (4, 104)):
        catalog = enumerate_regular(n)
        everything = union_bases(n, "all", catalog)
        assert len(everything) == size
        assert everything == union_bases(n, "caterpillar_branches", catalog)
        assert len(union_bases(n, "full_caterpillar", catalog)) == size
    with pytest.raises(ValueError):
        union_bases(3, "bogus")
    with pytest.raises(SizeCapError):
        union_bases(7, "all")


def test_transition_checks_pass():
    for n in (2, 3, 4, 5):
        assert basis_transition_check(n) is None


def test_transition_check_catches_corruption():
    faces, bases = basis_transition_table(3)
    target = next(face for face, cells in faces.items() if len(cells) > 1)
    faces[target] = faces[target][:1]  # drop every neighbor of one cone
    broken = check_basis_transitions(faces, bases)
    assert broken is not None
    assert broken.face == target


def test_conjecture_scan_reports():
    r2 = conjecture_scan(2)
    assert r2.equal and r2.union_all_count == r2.union_caterpillar_count == 1
    r3 = conjecture_scan(3)
    assert r3.union_all_count == 6
    text = render_conjecture_report(r3)
    assert "trunk-edge contractions" in text.lower() or "trunk" in text
    assert str(r3.union_all_count) in text


def test_report_lists_missing_bases_when_unequal():
    from symbic.matroid import ConjectureReport

    fake = ConjectureReport(
        n=3,
        equal=False,
        union_all_count=6,
        union_caterpillar_count=5,
        missing_bases=(((1, 1), (1, 2)),),
    )
    text = render_conjecture_report(fake)
    assert "(1,1)" in text and "(1,2)" in text



def test_transition_witness_is_a_set_of_pairs(monkeypatch):
    """The table holds masks; the witness the check returns holds pairs."""
    table = basis_transition_table

    def neighbourless(n, catalog=None):
        faces, bases = table(n, catalog)
        return {face: cells[:1] for face, cells in faces.items()}, bases

    monkeypatch.setattr(matroid, "basis_transition_table", neighbourless)
    witness = basis_transition_check(3)
    assert witness is not None and len(witness.basis) == 5
    assert witness.basis in matroid_bases(enumerate_regular(3).trees[witness.cell])


FILTERS = {
    "all": lambda t: True,
    "caterpillar_branches": lambda t: t.has_caterpillar_branches(),
    "full_caterpillar": lambda t: t.is_caterpillar(),
}


def per_tree_bases(catalog):
    """The sweep the orbit representatives replaced: every tree of the
    catalog, bases computed once per distinct Cayley matrix; key -> bases
    as frozensets of pairs."""
    memo = {}
    out = {}
    for key, tree in catalog.items():
        cm = cayley_matrix(tree)
        if cm.rows not in memo:
            memo[cm.rows] = as_columns(cm, _bases(cm))
        out[key] = memo[cm.rows]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.long)])
def test_orbit_sweep_matches_the_per_tree_sweep(n):
    """Per-key bases, the three unions and the conjecture report, each read
    off the orbit representatives, equal those of every tree's own bases."""
    catalog = enumerate_regular(n)
    expected = per_tree_bases(catalog)
    cm = cayley_matrix(next(iter(catalog)))
    if n <= matroid.TRANSITION_CAP:
        _, table = basis_transition_table(n, catalog)
        assert {key: as_columns(cm, masks) for key, masks in table.items()} == expected
    unions = {}
    for which, keep in FILTERS.items():
        unions[which] = frozenset().union(
            *(b for key, b in expected.items() if keep(catalog.trees[key]))
        )
        assert union_bases(n, which, catalog) == unions[which]
    everything, caterpillar = unions["all"], unions["full_caterpillar"]
    assert conjecture_scan(n, catalog) == ConjectureReport(
        n,
        everything == caterpillar,
        len(everything),
        len(caterpillar),
        tuple(sorted(tuple(sorted(b)) for b in everything - caterpillar)),
    )


@pytest.mark.parametrize("n", [3, 4, 5])
def test_filters_are_constant_on_each_orbit(n):
    catalog = enumerate_regular(n)
    for rep, members in catalog.orbits().items():
        for keep in FILTERS.values():
            assert {keep(catalog.trees[key]) for key in members} == {keep(catalog.trees[rep])}


def rename_bases(bases, p):
    return frozenset(
        frozenset(tuple(sorted((p[i - 1], p[j - 1]))) for i, j in basis) for basis in bases
    )


@given(st.integers(1, 5), st.integers(0, 2**32))
@example(5, 7)
@settings(max_examples=40, deadline=None)
def test_renaming_a_tree_renames_its_bases(n, seed):
    rng = random.Random(seed)
    tree = random_regular_tree(n, rng)
    p = list(range(1, n + 1))
    rng.shuffle(p)
    renamed = tree.relabel(dict(zip(range(1, n + 1), p)))
    assert matroid_bases(renamed) == rename_bases(matroid_bases(tree), p)


@pytest.mark.long
def test_conjecture_scan_n6():
    report = conjecture_scan(6)
    assert (report.union_all_count, report.union_caterpillar_count) == (216648, 215748)
    assert not report.equal and len(report.missing_bases) == 900
