import itertools
import random
from collections import Counter
from fractions import Fraction
from operator import getitem, itemgetter
from typing import Iterable, Iterator

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symbic.correspond import matrix_from_tree
from symbic.counting import random_regular_tree
from symbic.fan import _monomial, signature
from symbic.tropical import (
    MAX_MINOR_SIZE,
    MAX_NUMERAL_DIGITS,
    MinorSizeError,
    TropMatrix,
    TropicalError,
    _all_3x3_minors_degenerate,
    _all_minors_degenerate,
    _class_size,
    _integer_grid,
    _principal_pairs_tie,
    _tallies,
    canonicalize_mod_lineality,
    hilbert_distance,
    parse_rational,
    rank_one_matrix,
    sym_trop_rank,
    trop_rank,
)

def column(m: TropMatrix, j: int) -> tuple[Fraction, ...]:
    """Column j (1-based) of the matrix, read off its rows."""
    return tuple(row[j - 1] for row in m.rows)


# -- the Fraction oracle: minors and tropical determinants by definition -----
#
# The library evaluates minors only on the integer grid (``_integer_grid``).
# These are the literal definitions over ``Fraction``, with no scaling and
# no transpose sharing, kept as the oracle for the rank scans and for
# ``symbic.fan.signature``.


class Minor:
    """Row/column index sets (1-based, strictly increasing) of a k x k minor."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: Iterable[int], cols: Iterable[int]):
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        if len(self.rows) != len(self.cols) or len(self.rows) < 2:
            raise TropicalError("minor needs equal row/col counts, size >= 2")
        for idx in (self.rows, self.cols):
            if any(a >= b for a, b in zip(idx, idx[1:])) or idx[0] < 1:
                raise TropicalError("minor indices must be strictly increasing, >= 1")

    @property
    def size(self) -> int:
        return len(self.rows)

    def check_against(self, m: TropMatrix) -> None:
        if self.rows[-1] > m.n or self.cols[-1] > m.n:
            raise TropicalError("minor indices exceed matrix size")
        if self.size > MAX_MINOR_SIZE:
            raise MinorSizeError(f"minor size {self.size} > cap {MAX_MINOR_SIZE}")


def all_minors(n: int, size: int) -> Iterator[Minor]:
    for rows in itertools.combinations(range(1, n + 1), size):
        for cols in itertools.combinations(range(1, n + 1), size):
            yield Minor(rows, cols)


def trop_det(m: TropMatrix, minor: Minor) -> tuple[Fraction, frozenset]:
    """Tropical determinant of a minor: the minimum over permutations of the
    entry sum, together with the full set of minimizing permutations.

    A permutation is the tuple (s(0), ..., s(k-1)) pairing minor row i with
    minor column s(i) (0-based positions into the index tuples).
    """
    minor.check_against(m)
    rows = [m.rows[i - 1] for i in minor.rows]
    cols = [j - 1 for j in minor.cols]
    best = None
    argmin = []
    for perm in itertools.permutations(range(minor.size)):
        total = sum(rows[i][cols[perm[i]]] for i in range(minor.size))
        if best is None or total < best:
            best = total
            argmin = [perm]
        elif total == best:
            argmin.append(perm)
    assert best is not None
    return best, frozenset(argmin)


def monomial_of_permutation(minor: Minor, perm: tuple) -> tuple:
    """The monomial in the variables x_{ij} (i <= j) picked out by a
    permutation of a symmetric minor: a sorted multiset of unordered pairs."""
    if sorted(perm) != list(range(minor.size)):
        raise TropicalError("not a permutation of the minor size")
    pairs = zip(minor.rows, (minor.cols[s] for s in perm))
    return tuple(sorted((r, c) if r <= c else (c, r) for r, c in pairs))


def argmin_monomials(m: TropMatrix, minor: Minor) -> frozenset:
    _, perms = trop_det(m, minor)
    return frozenset(monomial_of_permutation(minor, p) for p in perms)


def minor_degenerate(m: TropMatrix, minor: Minor) -> bool:
    """Ordinary degeneracy: the minimum is attained by >= 2 permutations."""
    _, perms = trop_det(m, minor)
    return len(perms) >= 2


def sym_minor_degenerate(m: TropMatrix, minor: Minor) -> bool:
    """Symmetric degeneracy: the argmin permutations cover >= 2 distinct
    monomials of the symmetric determinant."""
    m.require_symmetric()
    return len(argmin_monomials(m, minor)) >= 2


IDENTITY_LIKE = TropMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
PERMUTED = TropMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
FULL3 = Minor((1, 2, 3), (1, 2, 3))

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=9
)


def brute_min_expansion(m, rows, cols):
    """Independent recursive (Laplace-style) min-plus expansion, k <= 4."""
    if len(rows) == 1:
        return m.entry(rows[0], cols[0])
    best = None
    for i, r in enumerate(rows):
        rest = rows[:i] + rows[i + 1 :]
        value = m.entry(r, cols[0]) + brute_min_expansion(m, rest, cols[1:])
        if best is None or value < best:
            best = value
    return best


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(2) == Fraction(2)
    with pytest.raises(TropicalError):
        parse_rational("a/b")
    with pytest.raises(TropicalError):
        parse_rational("1/0")
    assert parse_rational("1e3") == 1000
    assert parse_rational("-25e-2") == Fraction(-1, 4)
    for bad in (True, False, None, 1.5):
        with pytest.raises(TropicalError):
            parse_rational(bad)


def test_parse_rational_bounds_numeral_size():
    limit = MAX_NUMERAL_DIGITS
    assert parse_rational("9" * limit) == 10**limit - 1
    assert parse_rational(f"1/{'9' * limit}").denominator == 10**limit - 1
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    for bad in (
        "1" * (limit + 1),
        f"1/{'1' * (limit + 1)}",
        f"1e{limit}",
        f"1e-{limit}",
        "1e1000000",
        "1e-1000000",
        10**limit,
        -(10**limit),
    ):
        with pytest.raises(TropicalError):
            parse_rational(bad)


def test_matrix_must_be_square():
    with pytest.raises(TropicalError):
        TropMatrix([[1, 2]])
    with pytest.raises(TropicalError):
        TropMatrix([])


def test_trop_det_identity_pattern():
    value, perms = trop_det(IDENTITY_LIKE, FULL3)
    assert value == 0
    # exactly the two 3-cycles attain the minimum
    assert perms == frozenset({(1, 2, 0), (2, 0, 1)})


def test_trop_det_two_by_two_all_zero():
    m = TropMatrix([[0, 0], [0, 0]])
    value, perms = trop_det(m, Minor((1, 2), (1, 2)))
    assert value == 0
    assert len(perms) == 2


def test_trop_det_matches_brute_force_expansion():
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randint(2, 4)
        n = rng.randint(k, 5)
        m = TropMatrix(
            [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(n)]
        )
        rows = tuple(sorted(rng.sample(range(1, n + 1), k)))
        cols = tuple(sorted(rng.sample(range(1, n + 1), k)))
        value, perms = trop_det(m, Minor(rows, cols))
        assert value == brute_min_expansion(m, rows, cols)
        for perm in perms:
            assert sum(m.entry(rows[i], cols[perm[i]]) for i in range(k)) == value


def test_minor_validation():
    with pytest.raises(TropicalError):
        Minor((1,), (1,))
    with pytest.raises(TropicalError):
        Minor((2, 1), (1, 2))
    with pytest.raises(TropicalError):
        trop_det(TropMatrix([[0, 0], [0, 0]]), Minor((1, 3), (1, 2)))
    big = Minor(tuple(range(1, 11)), tuple(range(1, 11)))
    with pytest.raises(MinorSizeError):
        big.check_against(TropMatrix([[0] * 12] * 12))


def test_symmetry_is_checked_before_the_size_cap():
    """On the integer ratios, before the cap: an oversized asymmetric matrix
    gets the symmetry error, an oversized symmetric one the cap error; the
    ordinary scan checks only the cap, and a signature only symmetry."""
    symmetric = [[i + j for j in range(10)] for i in range(10)]
    asymmetric = [row[:] for row in symmetric]
    asymmetric[9][8] = Fraction(1, 3)
    with pytest.raises(TropicalError, match="^symmetric matrix required$") as info:
        sym_trop_rank(TropMatrix(asymmetric))
    assert not isinstance(info.value, MinorSizeError)
    for rows in (symmetric, asymmetric):
        with pytest.raises(MinorSizeError, match=r"^matrix size 10 > cap 9$"):
            trop_rank(TropMatrix(rows))
    with pytest.raises(MinorSizeError, match=r"^matrix size 10 > cap 9$"):
        sym_trop_rank(TropMatrix(symmetric))
    with pytest.raises(TropicalError, match="^symmetric matrix required$"):
        signature(TropMatrix([row[7:] for row in asymmetric[7:]]))


def test_monomials_of_permutations():
    assert monomial_of_permutation(FULL3, (0, 1, 2)) == ((1, 1), (2, 2), (3, 3))
    cycle = monomial_of_permutation(FULL3, (1, 2, 0))
    other_cycle = monomial_of_permutation(FULL3, (2, 0, 1))
    assert cycle == other_cycle == ((1, 2), (1, 3), (2, 3))
    swap = monomial_of_permutation(FULL3, (1, 0, 2))
    assert swap == ((1, 2), (1, 2), (3, 3))
    with pytest.raises(TropicalError):
        monomial_of_permutation(FULL3, (0, 0, 1))


def test_symmetric_degeneracy_examples():
    # unique monomial despite two argmin permutations
    assert minor_degenerate(IDENTITY_LIKE, FULL3)
    assert not sym_minor_degenerate(IDENTITY_LIKE, FULL3)
    assert sym_minor_degenerate(PERMUTED, FULL3)
    zero = TropMatrix([[0] * 3] * 3)
    for minor in all_minors(3, 2):
        assert sym_minor_degenerate(zero, minor)
    assert sym_minor_degenerate(zero, FULL3)


def test_rank_examples():
    assert trop_rank(IDENTITY_LIKE) == 2
    assert sym_trop_rank(IDENTITY_LIKE) == 3
    assert sym_trop_rank(PERMUTED) == 2
    assert trop_rank(TropMatrix([[0] * 3] * 3)) == 1
    x = [Fraction(0), Fraction(1), Fraction(2)]
    assert sym_trop_rank(rank_one_matrix(x)) == 1


def test_sym_rank_needs_symmetry():
    asym = TropMatrix([[0, 1], [2, 0]])
    with pytest.raises(TropicalError):
        sym_trop_rank(asym)


def test_sym_rank_dominates_ordinary_rank_on_random_symmetric():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randint(2, 5)
        entries = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries[i][j] = entries[j][i] = Fraction(rng.randint(-4, 4))
        m = TropMatrix(entries)
        assert sym_trop_rank(m) >= trop_rank(m)


def test_hilbert_examples():
    assert hilbert_distance([1, 2, 3], [1, 2, 3]) == 0
    assert hilbert_distance([1, 0, 0], [0, 1, 0]) == 2
    # two columns of the worked 4x4 matrix at a=1, b=2, c=3
    a = TropMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 2], [0, 0, 2, 5]])
    assert hilbert_distance(column(a, 1), column(a, 2)) == 2
    with pytest.raises(TropicalError):
        hilbert_distance([1], [1, 2])


@given(st.lists(rationals, min_size=1, max_size=6), st.data())
@settings(max_examples=120, deadline=None)
def test_hilbert_pseudometric_laws(x, data):
    y = data.draw(st.lists(rationals, min_size=len(x), max_size=len(x)))
    z = data.draw(st.lists(rationals, min_size=len(x), max_size=len(x)))
    c = data.draw(rationals)
    assert hilbert_distance(x, x) == 0
    assert hilbert_distance(x, y) == hilbert_distance(y, x) >= 0
    assert hilbert_distance(x, z) <= hilbert_distance(x, y) + hilbert_distance(y, z)
    assert hilbert_distance([v + c for v in x], y) == hilbert_distance(x, y)


def test_hilbert_zero_iff_constant_difference():
    assert hilbert_distance([1, 2, 3], [0, 1, 2]) == 0
    assert hilbert_distance([1, 2, 3], [0, 1, 3]) != 0


@given(
    st.integers(min_value=1, max_value=5),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_canonicalize_kills_lineality(n, data):
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            q = data.draw(rationals)
            entries[i][j] = entries[j][i] = q
    m = TropMatrix(entries)
    x = data.draw(st.lists(rationals, min_size=n, max_size=n))
    shifted = m.add(rank_one_matrix(x))
    canon = canonicalize_mod_lineality(m)
    assert canonicalize_mod_lineality(shifted) == canon
    # idempotent, first row zero
    assert canonicalize_mod_lineality(canon) == canon
    assert all(v == 0 for v in canon.rows[0])


def test_canonicalize_rank_one_is_zero():
    x = [Fraction(3, 2), Fraction(-1), Fraction(7)]
    zero = canonicalize_mod_lineality(rank_one_matrix(x))
    assert all(v == 0 for row in zero.rows for v in row)


def test_matrix_json_round_trip():
    m = TropMatrix([["1/2", "0"], ["0", "-3"]])
    again = TropMatrix.from_json_dict(m.to_json_dict())
    assert again == m
    with pytest.raises(TropicalError):
        TropMatrix.from_json_dict({"n": 3, "entries": [["0"]]})
    for declared in (True, 1.0, 2.0, "1", None, [1]):
        with pytest.raises(TropicalError, match="declared n"):
            TropMatrix.from_json_dict({"n": declared, "entries": [["0"]]})
    with pytest.raises(TropicalError, match="declared n"):
        TropMatrix.from_json_dict({"n": 2.0, "entries": [["0", "1"], ["1", "0"]]})
    assert TropMatrix.from_json_dict({"n": 1, "entries": [["0"]]}).n == 1
    for entries in (5, None, "12", [5, 6], ["12", "34"], [[0, 1], 2], {"a": [0]}):
        with pytest.raises(TropicalError):
            TropMatrix.from_json_dict({"entries": entries})
    for rows in (5, "12", [5, 6], ["12", "34"], [[True, 0], [0, 1]]):
        with pytest.raises(TropicalError):
            TropMatrix(rows)


# -- the integer-grid rank scans against the literal definition -------------


def oracle_rank(m, symmetric):
    """Rank by definition: every minor through ``trop_det`` over Fraction,
    transpose minors included."""
    for r in range(1, m.n):
        minors = all_minors(m.n, r + 1)
        if symmetric:
            degenerate = all(
                len({monomial_of_permutation(mi, p) for p in trop_det(m, mi)[1]}) >= 2
                for mi in minors
            )
        else:
            degenerate = all(len(trop_det(m, mi)[1]) >= 2 for mi in minors)
        if degenerate:
            return r
    return m.n


mixed_rationals = st.fractions(min_value=-12, max_value=12, max_denominator=12)
# many ties, so many degenerate minors
small_integers = st.integers(min_value=0, max_value=3)


@st.composite
def rank_matrices(draw):
    """Matrices with n = 2..5 of four kinds: asymmetric, symmetric, tree
    matrices shifted by a rational lineality term, and either of the last
    two with a planted principal 3x3 block of symmetric rank 3."""
    n = draw(st.integers(min_value=2, max_value=5))
    kind = draw(st.sampled_from(["asymmetric", "symmetric", "tree"]))
    cells = draw(st.sampled_from([mixed_rationals, small_integers]))
    if kind == "asymmetric":
        return TropMatrix([[draw(cells) for _ in range(n)] for _ in range(n)])
    if kind == "symmetric":
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries[i][j] = entries[j][i] = draw(cells)
        m = TropMatrix(entries)
    else:
        tree = random_regular_tree(n, draw(st.randoms(use_true_random=False)))
        shift = [draw(mixed_rationals) for _ in range(n)]
        m = matrix_from_tree(tree).add(rank_one_matrix(shift))
    if n >= 3 and draw(st.booleans()):
        block = draw(st.lists(st.sampled_from(range(n)), min_size=3, max_size=3, unique=True))
        top = max(x for row in m.rows for x in row) + 1 + abs(draw(mixed_rationals))
        entries = [list(row) for row in m.rows]
        for i in block:
            for j in block:
                entries[i][j] = Fraction(0) if i == j else top
        m = TropMatrix(entries)
    return m


@given(rank_matrices())
# rank 3, though every 3x3 minor (R, C) with C >= R is degenerate: a scan
# that skipped transpose minors of an asymmetric matrix would return 2
@example(TropMatrix([[2, 1, 1, 1], [1, 0, 0, 0], [2, 2, 1, 1], [0, 4, 0, 0]]))
# an n = 6 tree matrix with its last three indices overwritten by 0 on the
# diagonal and K off it, K above every other entry: symmetric rank 4
@example(
    TropMatrix(
        [
            ["0", "0", "0", "0", "10/11", "0"],
            ["0", "10/9", "10/9", "88/63", "0", "10/9"],
            ["0", "10/9", "19/9", "10/9", "0", "19/9"],
            ["0", "88/63", "10/9", "0", "353/99", "353/99"],
            ["10/11", "0", "0", "353/99", "0", "353/99"],
            ["0", "10/9", "19/9", "353/99", "353/99", "0"],
        ]
    )
)
# an n = 6 tree matrix shifted by x_i + x_j, x with denominators 1 to 6
@example(
    TropMatrix(
        [
            ["1", "-1/6", "91/12", "1/2", "13/3", "7/2"],
            ["-1/6", "-4/3", "659/84", "-2/3", "19/6", "7/3"],
            ["91/12", "659/84", "5/2", "5/4", "1/12", "17/4"],
            ["1/2", "-2/3", "5/4", "1/11", "-7/6", "34/11"],
            ["13/3", "19/6", "1/12", "-7/6", "-7/3", "11/6"],
            ["7/2", "7/3", "17/4", "34/11", "11/6", "167/22"],
        ]
    )
)
@settings(max_examples=200, deadline=None)
def test_rank_scans_match_the_definition(m):
    assert trop_rank(m) == oracle_rank(m, symmetric=False)
    if m.is_symmetric():
        assert sym_trop_rank(m) == oracle_rank(m, symmetric=True)
    else:
        with pytest.raises(TropicalError):
            sym_trop_rank(m)


def picked_minor_sums(grid, k, symmetric, perms):
    """The listing oracle of the integer grid: per k x k minor, the indices
    of its row set and column set among the k-subsets in
    ``itertools.combinations`` order, and its entry sum under each of
    ``perms``.  Row sets come in order, and per row set its column sets,
    from the row set on when ``symmetric``.  Every minor's columns are
    picked row by row, and each permutation's terms summed."""
    combos = list(itertools.combinations(range(len(grid)), k))
    pickers = [itemgetter(*cols) for cols in combos]
    for first, rows in enumerate(combos):
        sub = [grid[r] for r in rows]
        for second in range(first if symmetric else 0, len(combos)):
            pick = pickers[second]
            block = [pick(row) for row in sub]
            yield first, second, [sum(map(getitem, block, p)) for p in perms]


def monomial_classes(rows, cols):
    """The symmetric scan's class test before the class sizes: per
    permutation of the minor (rows, cols), in ``itertools.permutations``
    order, the index of its monomial among the minor's distinct monomials,
    numbered in order of first appearance.  Kept as the oracle of
    :func:`class_number_sym_rank`."""
    k = len(rows)
    places = {}
    block = [
        1 << 2 * places.setdefault((min(r, c), max(r, c)), len(places)) for r in rows for c in cols
    ]
    perms = itertools.permutations(range(k))
    codes = [sum(block[r * k + c] for r, c in enumerate(p)) for p in perms]
    index = {code: i for i, code in enumerate(dict.fromkeys(codes))}
    return tuple(map(index.__getitem__, codes))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_monomial_classes_number_the_sorted_monomials(k):
    """Two permutations of a minor share a class iff ``_monomial`` gives
    them the same sorted monomial, and classes count up from 0 in order of
    first appearance."""
    perms = list(itertools.permutations(range(k)))
    combos = list(itertools.combinations(range(1, 7), k))
    for rows, cols in itertools.product(combos, repeat=2):
        classes = monomial_classes(rows, cols)
        first_seen = {}
        for p, c in zip(perms, classes):
            assert first_seen.setdefault(_monomial(rows, cols, p), len(first_seen)) == c


def _monomial_class_sizes(rows, cols):
    """Per permutation of the minor (rows, cols), in ``itertools.permutations``
    order, how many permutations of the minor pick its monomial (see
    :func:`_monomial`): the oracle of the class sizes the symmetric rank scan
    reads off one argmin permutation (``_class_size``).

    A monomial holds an unordered pair {r, c} at most twice, as (r, c) and
    (c, r), so it is coded without sorting as a sum of 2-bit digits, one
    place per pair: :func:`picked_minor_sums` sums the k x k grid of codes
    as its one k x k minor, like the entries of a minor.  No digit carries,
    and equal codes are equal monomials.
    """
    k = len(rows)
    places = {}
    block = [
        [1 << 2 * places.setdefault((min(r, c), max(r, c)), len(places)) for c in cols]
        for r in rows
    ]
    [(_, _, codes)] = picked_minor_sums(block, k, False, itertools.permutations(range(k)))
    counts = Counter(codes)
    return bytes(map(counts.__getitem__, codes))


def assert_sizes_count_the_monomials(rows, cols, perms):
    monomials = [_monomial(rows, cols, p) for p in perms]
    counts = Counter(monomials)
    sizes = _monomial_class_sizes(rows, cols)
    assert list(sizes) == [counts[m] for m in monomials]
    return sizes


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_monomial_class_sizes_count_the_sorted_monomials(k):
    """Each permutation's class size is the number of permutations to
    which ``_monomial`` gives its sorted monomial, for every minor of a
    7 x 7 grid.  The largest class has 2^(k // 3) permutations, at most 4
    for k <= 6, one per direction of each 3-cycle of a principal minor."""
    perms = list(itertools.permutations(range(k)))
    combos = list(itertools.combinations(range(1, 8), k))
    largest = 0
    for rows, cols in itertools.product(combos, repeat=2):
        largest = max(largest, *assert_sizes_count_the_monomials(rows, cols, perms))
    assert largest == 2 ** (k // 3) <= 4


def random_symmetric(n, rng, high):
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = rng.randint(0, high)
    return TropMatrix(entries)


def assert_class_sizes_count_the_cycles(rows, cols, perms):
    """For every permutation of the minor (rows, cols), ``_class_size`` of
    its row -> column map equals the size of its monomial class."""
    sizes = _monomial_class_sizes(rows, cols)
    for p, size in zip(perms, sizes):
        assert _class_size(dict(zip(rows, map(cols.__getitem__, p)))) == size


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_class_size_is_two_to_the_long_cycles(k):
    """The symmetric scan's class size, 2^c for c the cycles of length >= 3
    of one permutation, is the size of its monomial class, for every
    permutation of every k x k minor of a 7 x 7 grid."""
    perms = list(itertools.permutations(range(k)))
    combos = list(itertools.combinations(range(1, 8), k))
    for rows, cols in itertools.product(combos, repeat=2):
        assert_class_sizes_count_the_cycles(rows, cols, perms)


def class_number_sym_rank(m):
    """``sym_trop_rank`` with the class test before the class sizes: a tied
    minor is degenerate iff its argmin permutations carry at least two
    class numbers of :func:`monomial_classes`."""
    grid = [[int(x) for x in row] for row in m.rows]

    def degenerate(rows, cols, totals):
        best = min(totals)
        classes = monomial_classes(rows, cols)
        return len({c for c, total in zip(classes, totals) if total == best}) >= 2

    for r in range(1, m.n):
        combos = list(itertools.combinations(range(m.n), r + 1))
        perms = list(itertools.permutations(range(r + 1)))
        if all(
            degenerate(combos[a], combos[b], totals)
            for a, b, totals in picked_minor_sums(grid, r + 1, True, perms)
        ):
            return r
    return m.n


@st.composite
def tie_heavy_symmetric(draw, sizes):
    """Symmetric integer matrices of a size from ``sizes``, entries in
    [0, 1] or [0, 3], the diagonal raised by 4 or not.  A raised diagonal
    makes minors whose only argmin permutations are a 3-cycle and its
    inverse, one monomial: about a third of these matrices then have a
    symmetric rank above their ordinary rank."""
    n = draw(st.sampled_from(sizes))
    high = draw(st.sampled_from([1, 3]))
    lift = draw(st.sampled_from([0, 4]))
    m = random_symmetric(n, draw(st.randoms(use_true_random=False)), high)
    return m.add(TropMatrix([[lift * (i == j) for j in range(n)] for i in range(n)]))


@given(tie_heavy_symmetric([6]))
@settings(max_examples=100, deadline=None)
def test_class_sizes_match_the_class_numbers(m):
    assert sym_trop_rank(m) == class_number_sym_rank(m)


@pytest.mark.long
@given(tie_heavy_symmetric([7, 8]))
@settings(max_examples=50, deadline=None)
def test_class_sizes_match_the_class_numbers_up_to_8(m):
    assert sym_trop_rank(m) == class_number_sym_rank(m)


def listing_all_minors_degenerate(grid, k, symmetric):
    """The rank scans' minor test before the subset expansion, kept as its
    oracle: every minor's k! sums listed by :func:`picked_minor_sums`; a
    tied minor of the symmetric scan is degenerate unless its ties are as
    many as the monomial class of one argmin permutation
    (:func:`_monomial_class_sizes`)."""
    combos = list(itertools.combinations(range(len(grid)), k))
    perms = list(itertools.permutations(range(k)))
    for first, second, totals in picked_minor_sums(grid, k, symmetric, perms):
        best = min(totals)
        ties = totals.count(best)
        if ties < 2:
            return False
        if symmetric:
            sizes = _monomial_class_sizes(combos[first], combos[second])
            if ties == sizes[totals.index(best)]:
                return False
    return True


@st.composite
def scan_grids(draw, sizes):
    """Integer grids of a size from ``sizes`` for both rank scans: tie-heavy
    symmetric (:func:`tie_heavy_symmetric`), asymmetric with entries in
    [0, 3] or [-50, 50], or a tree matrix with a principal 3 x 3 block of
    symmetric rank 3 planted at random indices: 0 on its diagonal and an
    entry above all others off it."""
    kind = draw(st.sampled_from(["tie heavy", "asymmetric", "planted"]))
    if kind == "tie heavy":
        return [[int(x) for x in row] for row in draw(tie_heavy_symmetric(sizes)).rows]
    n = draw(st.sampled_from(sizes))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "asymmetric":
        low, high = draw(st.sampled_from([(0, 3), (-50, 50)]))
        return [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]
    grid, _ = _integer_grid(matrix_from_tree(random_regular_tree(n, rng)))
    block = rng.sample(range(n), min(n, 3))
    top = max(map(max, grid)) + 1
    for i in block:
        for j in block:
            grid[i][j] = 0 if i == j else top
    return grid


def is_symmetric_grid(grid):
    return all(grid[i][j] == grid[j][i] for i in range(len(grid)) for j in range(i))


def assert_scans_match_the_listing(grid):
    """At every minor size, both scans (the symmetric one on a symmetric
    grid) give the listing's verdict; so do both flags of the 3x3 level on
    pair minima, at n < 3 too, where it has no minor."""
    n = len(grid)
    flags = (False, True) if is_symmetric_grid(grid) else (False,)
    tallies = _tallies(grid)
    for k in range(2, n + 1):
        for flag in flags:
            assert _all_minors_degenerate(tallies, k, flag) == listing_all_minors_degenerate(
                grid, k, flag
            ), (k, flag)
    for flag in flags:
        verdict = _all_3x3_minors_degenerate(grid, symmetric=flag)
        assert verdict == listing_all_minors_degenerate(grid, 3, flag), flag
        assert verdict == _all_minors_degenerate(tallies, 3, flag), flag


# A principal minor whose least sum, 0, only its two 3-cycles attain: one
# monomial, so not degenerate (symmetric rank 3, ordinary rank 2).
THREE_CYCLES_ONLY = [[4, 0, 0], [0, 4, 0], [0, 0, 4]]
# The 3-cycles and the swap (0, 2, 1) attain 0: two monomials, degenerate.
THREE_CYCLES_AND_A_SWAP = [[0, 0, 0], [0, 4, 0], [0, 0, 4]]
# Degenerate only through a tied pair: the least sum, 0, is attained by the
# identity and by (0, 2, 1), the two orientations of the 2x2 minor of rows
# 1, 2 on columns 1, 2, which are both 0 (its tie bit).
PAIR_TIE_ONLY = [[0, 9, 9], [9, 0, 0], [9, 0, 0]]
# Degenerate through two columns of row 0: (0, 2, 1), where it takes column
# 0, and (1, 2, 0), where it takes column 1, attain 0, each pair untied.
TWO_COLUMN_CHOICES = [[0, 0, 9], [9, 9, 0], [0, 0, 9]]
# Row 0 reaches the least sum, 0, untied through column 0 and through a
# tied pair on column 1; its three sums are 0, 1 and 22 (lo, lo + 1, ...).
# Entries are negative too.
A_CHOICE_AND_A_TIED_PAIR = [[0, 0, 20], [-9, 9, 0], [0, 0, 9]]
# Every 3x3 minor with its column set from its row set on is degenerate,
# but one below, rows (1, 2, 3) on columns (0, 1, 2), is not: the ordinary
# level must visit every column set.
NONDEGENERATE_ONLY_BELOW = [[0, 1, 1, 1], [0, 1, 1, 1], [1, 0, 0, 0], [0, 0, 1, 1]]
# Symmetric, every 3x3 minor degenerate, some non-principal ones only
# through a tied pair.
SYMMETRIC_PAIR_TIES = [[1, 1, 1, 1], [1, 0, 1, 0], [1, 1, 1, 1], [1, 0, 1, 0]]


@given(scan_grids(range(2, 8)))
@example(PAIR_TIE_ONLY)
@example(TWO_COLUMN_CHOICES)
@example(A_CHOICE_AND_A_TIED_PAIR)
@example(NONDEGENERATE_ONLY_BELOW)
@example(SYMMETRIC_PAIR_TIES)
@example(THREE_CYCLES_ONLY)
@example([[-3, 5, -1], [5, -2, 0], [-1, 0, -7]])
@example([[0, 1], [1, 0]])
@example([[0, 1], [3, -2]])
@settings(max_examples=150, deadline=None)
def test_rank_scans_match_the_listing(grid):
    assert_scans_match_the_listing(grid)


def assert_closed_forms_match(grid):
    """On a symmetric grid, the symmetric scan's k = 2 and k = 3 levels,
    closed form and on pair minima, give the listing's verdict and the
    subset expansion's."""
    tallies = _tallies(grid)
    verdicts = {2: _principal_pairs_tie(grid), 3: _all_3x3_minors_degenerate(grid, symmetric=True)}
    for k, verdict in verdicts.items():
        assert verdict == listing_all_minors_degenerate(grid, k, True), k
        assert verdict == _all_minors_degenerate(tallies, k, True), k


# X (tropical) X^T for x = (1/4, 3/4, 5/4, -7/4): entries in (1/2)Z, and an
# odd diagonal on the grid, so x_ii / 2 is no integer there.
FRACTIONAL_RANK_ONE = rank_one_matrix(["1/4", "3/4", "5/4", "-7/4"]).rows
# The same matrix with its last pair, (3, 4) and (4, 3), raised by 1/2.
ONE_FAILING_PAIR = [
    [x + Fraction(1, 2) * ({i, j} == {2, 3}) for j, x in enumerate(row)]
    for i, row in enumerate(FRACTIONAL_RANK_ONE)
]


@pytest.mark.parametrize(
    "rows, sym_rank, rank",
    [
        (THREE_CYCLES_ONLY, 3, 2),
        (THREE_CYCLES_AND_A_SWAP, 2, 2),
        (FRACTIONAL_RANK_ONE, 1, 1),
        (ONE_FAILING_PAIR, 2, 2),
    ],
    ids=["three cycles only", "three cycles and a swap", "fractional rank one", "one failing pair"],
)
def test_closed_form_levels_decide_the_examples(rows, sym_rank, rank):
    m = TropMatrix(rows)
    assert sym_trop_rank(m) == oracle_rank(m, symmetric=True) == sym_rank
    assert trop_rank(m) == oracle_rank(m, symmetric=False) == rank
    assert_closed_forms_match(_integer_grid(m)[0])


def test_rank_one_examples_are_as_described():
    """The fractional rank-one grid has scale 2 and an odd diagonal entry;
    the failing pair of its raised copy is its last one."""
    grid, scale = _integer_grid(TropMatrix(FRACTIONAL_RANK_ONE))
    assert scale == 2 and any(row[i] % 2 for i, row in enumerate(grid))
    raised, _ = _integer_grid(TropMatrix(ONE_FAILING_PAIR))
    assert _principal_pairs_tie([row[:3] for row in raised[:3]])
    assert not _principal_pairs_tie(raised)


@given(scan_grids(range(2, 8)))
@example(THREE_CYCLES_ONLY)
@example(THREE_CYCLES_AND_A_SWAP)
@example(_integer_grid(TropMatrix(FRACTIONAL_RANK_ONE))[0])
@example(_integer_grid(TropMatrix(ONE_FAILING_PAIR))[0])
@settings(max_examples=150, deadline=None)
def test_closed_form_levels_match_the_listing(grid):
    assume(is_symmetric_grid(grid))
    assert_closed_forms_match(grid)


def cap_grid(n, symmetric=True):
    """The tie-heavy grids of the CI cap and rank steps: random.Random(4)
    entries in [0, 3], filled row by row over i <= j, or over every cell
    when not ``symmetric``."""
    rng = random.Random(4)
    if not symmetric:
        return [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
    grid = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = rng.randint(0, 3)
    return grid


def test_cap_grids_are_the_ci_steps():
    """The CI steps check these first rows before pinning the ranks."""
    assert cap_grid(9)[0] == cap_grid(9, symmetric=False)[0] == [1, 2, 0, 3, 3, 1, 0, 0, 0]
    assert trop_rank(TropMatrix(cap_grid(9, symmetric=False))) == 8


@pytest.mark.long
@given(scan_grids([8, 9]))
@example(cap_grid(9))
@example(cap_grid(9, symmetric=False))
@settings(max_examples=12, deadline=None)
def test_rank_scans_match_the_listing_up_to_the_cap(grid):
    assert_scans_match_the_listing(grid)
    if is_symmetric_grid(grid):
        assert_closed_forms_match(grid)


@pytest.mark.long
def test_class_size_is_two_to_the_long_cycles_at_k7_and_k8():
    """For every permutation of three k = 7 and 8 minors of a 9 x 9 grid, a
    principal one and two with partly shared indices: the monomial class
    sizes count the sorted monomials, and the cycle count gives them."""
    for k in (7, 8):
        perms = list(itertools.permutations(range(k)))
        combos = list(itertools.combinations(range(1, 10), k))
        minors = [(combos[0], combos[0]), (combos[0], combos[-1]), (combos[1], combos[-2])]
        for rows, cols in minors:
            sizes = assert_sizes_count_the_monomials(rows, cols, perms)
            assert max(sizes) > 1  # shared indices: some monomials repeat
            assert_class_sizes_count_the_cycles(rows, cols, perms)


def test_monomial_class_sizes_count_the_sorted_monomials_at_k7():
    """Class sizes of three 7 x 7 minors of a 9 x 9 grid, a principal one
    and two with partly shared indices, against the sorted monomials."""
    perms = list(itertools.permutations(range(7)))
    combos = list(itertools.combinations(range(1, 10), 7))
    for rows, cols in [(combos[0], combos[0]), (combos[0], combos[-1]), (combos[1], combos[-2])]:
        sizes = assert_sizes_count_the_monomials(rows, cols, perms)
        assert max(sizes) > 1
