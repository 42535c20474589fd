"""Exact min-plus linear algebra: tropical rank tests and the Hilbert metric.

Entries are ``fractions.Fraction``.  The two rank scans, :func:`trop_rank`
and :func:`sym_trop_rank`, the fan signatures (``symbic.fan``) and the leaf
metric of ``symbic.correspond`` run on the matrix scaled once to an exact
integer grid (see :func:`_integer_grid`), and ``Fraction``s are made again
only for their results.  The "minimum attained twice" predicates that
define tropical rank are not robust under floating point, so no float ever
enters these computations.

The symmetric scan decides its 2 x 2 level in closed form: its 2 x 2
minors are all degenerate iff every principal one ties, 2 x_ij = x_ii +
x_jj (:func:`_principal_pairs_tie`).  Both scans decide their 3 x 3 level
on the 2 x 2 minima of row pairs (:func:`_all_3x3_minors_degenerate`).  A
minor's six permutations fall into three pairs by the column its first row
takes, and each pair is a 2 x 2 minor of its other two rows.  Stored
doubled, with a tie bit, q = 2 min(s, t) + [s = t], a pair's least sum and
its tie need one int, the tie a parity bit.  So a minor needs three sums
instead of six: it is degenerate unless the least of the three is even and
the other two exceed it by 2 or more.  A principal minor of the symmetric
scan keeps its six sums, since its two 3-cycles, which pick one monomial,
fall into different pairs.  The fan's signatures read every permutation's
sum, from the 3 x 3 sweep :func:`_minor_sums`.

At k = 2 of the ordinary scan and from k = 4 on in both, no minor's k!
permutation sums are listed.  Every minor is expanded along its last row
over column subsets (:func:`_all_minors_degenerate`): per row set, level j
holds, for each j-subset S of the columns, the least sum of the set's
first j rows over S and the number of permutations that attain it, packed
in one int (a tally, see :func:`_tallies`).  Level j comes from level j - 1
in j terms per subset, and a k x k minor's least sum and tie count in k
terms.  A minor of the symmetric scan whose ties might form one monomial is
decided by the cycles of one argmin permutation read back from the levels
(:func:`_argmin_image`, :func:`_class_size`).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import and_
from typing import Iterable, Iterator, Sequence

# The largest matrix the rank scans take.  They list no k! sums, so this no
# longer bounds a listing there: a row set's levels hold at most 2^9 subsets.
# The tallies' count field and the expansion's byte-sized subset indices are
# sized from it.  Raising it waits for a verification run of the scans on
# matrices above 9 x 9, against the tests' listing oracle, which sums every
# permutation of every minor (``picked_minor_sums``).
MAX_MINOR_SIZE = 9

# Outside input may spell a rational with at most this many decimal digits
# in its numerator and in its denominator (exponent notation included), so
# that a short string such as "1e1000000" cannot expand into a huge integer.
MAX_NUMERAL_DIGITS = 1000
_NUMERAL_LIMIT = 10**MAX_NUMERAL_DIGITS


class TropicalError(ValueError):
    """Bad input to a tropical-arithmetic operation."""


class MinorSizeError(TropicalError):
    """Matrix larger than the size cap :data:`MAX_MINOR_SIZE`."""


def parse_rational(cell: object) -> Fraction:
    """Accept Fraction, int, or a string like ``3`` / ``-5/7``.

    ``bool`` is refused although it is an ``int``: JSON ``true`` is no
    rational.  An int or string whose numerator or denominator has more
    than :data:`MAX_NUMERAL_DIGITS` digits is refused, a string before
    ``Fraction`` expands its exponent.  A Fraction passes unchecked, since
    only the library builds those.
    """
    if isinstance(cell, Fraction):
        return cell
    if isinstance(cell, bool):
        raise TropicalError(f"cannot parse rational from bool {cell!r}")
    if isinstance(cell, int):
        q = Fraction(cell)
    elif isinstance(cell, str):
        text = cell.strip()
        if _numeral_too_long(text):
            raise TropicalError(f"numeral {text[:20]!r}... exceeds {MAX_NUMERAL_DIGITS} digits")
        try:
            q = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise TropicalError(f"cannot parse rational {cell!r}") from exc
    else:
        raise TropicalError(f"cannot parse rational from {type(cell).__name__}")
    if abs(q.numerator) >= _NUMERAL_LIMIT or q.denominator >= _NUMERAL_LIMIT:
        raise TropicalError(f"rational exceeds {MAX_NUMERAL_DIGITS} digits")
    return q


def _numeral_too_long(text: str) -> bool:
    """A cheap guard run before ``Fraction`` expands a numeral string: the
    string is longer than "-p/q" with p and q at the digit bound, or its
    decimal exponent exceeds the bound."""
    if len(text) > 2 * MAX_NUMERAL_DIGITS + 2:
        return True
    _, e, exponent = text.lower().rpartition("e")
    try:
        return bool(e) and abs(int(exponent)) > MAX_NUMERAL_DIGITS
    except ValueError:
        return False  # not exponent notation; Fraction decides


class TropMatrix:
    """A square matrix with exact rational entries, read min-plus-wise.

    Indices are 1-based throughout, matching the leaf labels of the trees
    this package pairs matrices with.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Sequence[object]]):
        if isinstance(rows, (str, bytes)) or not isinstance(rows, Iterable):
            raise TropicalError(f"matrix entries must be a list, not {type(rows).__name__}")
        grid = tuple(tuple(parse_rational(x) for x in _row(row)) for row in rows)
        if not grid or any(len(row) != len(grid) for row in grid):
            raise TropicalError("matrix must be square and nonempty")
        self.n = len(grid)
        self.rows = grid

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i - 1][j - 1]

    def is_symmetric(self) -> bool:
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def require_symmetric(self) -> "TropMatrix":
        if not self.is_symmetric():
            raise TropicalError("symmetric matrix required")
        return self

    def add(self, other: "TropMatrix") -> "TropMatrix":
        """Entrywise (classical) sum; used for lineality shifts."""
        if other.n != self.n:
            raise TropicalError("size mismatch")
        return TropMatrix(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )

    def sub(self, other: "TropMatrix") -> "TropMatrix":
        if other.n != self.n:
            raise TropicalError("size mismatch")
        return TropMatrix(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TropMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, row)) for row in self.rows)
        return f"TropMatrix[{body}]"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "entries": [[str(x) for x in row] for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TropMatrix":
        try:
            entries = data["entries"]
        except (TypeError, KeyError) as exc:
            raise TropicalError("matrix JSON needs an 'entries' field") from exc
        mat = cls(entries)
        if "n" in data and (type(data["n"]) is not int or data["n"] != mat.n):
            raise TropicalError("declared n must be the integer size of the entry grid")
        return mat


def _row(row: object) -> Sequence[object]:
    if not isinstance(row, (list, tuple)):
        raise TropicalError(f"matrix row must be a list, not {type(row).__name__}")
    return row


def rank_one_matrix(x: Sequence[object]) -> TropMatrix:
    """X (tropical-times) X^T: the matrix with entries x_i + x_j."""
    xs = [parse_rational(v) for v in x]
    return TropMatrix(tuple(a + b for b in xs) for a in xs)


def trop_rank(m: TropMatrix) -> int:
    """Smallest r such that every (r+1) x (r+1) minor is degenerate."""
    _require_size(m)
    grid, _ = _integer_grid(m)
    tallies = _tallies(grid)
    if _all_minors_degenerate(tallies, 2, symmetric=False):
        return 1
    if _all_3x3_minors_degenerate(grid, symmetric=False):
        return 2
    return _rank_scan(tallies, 3, symmetric=False)


def sym_trop_rank(m: TropMatrix) -> int:
    """Smallest r such that every (r+1) x (r+1) minor is degenerate as a
    polynomial in the symmetric variables x_{ij}.  Scans all minors, not
    only principal ones.  An asymmetric matrix is refused before an
    oversized one."""
    ratios = _integer_ratios(m, symmetric=True)
    _require_size(m)
    grid, _ = _scaled(ratios)
    if _principal_pairs_tie(grid):
        return 1
    if _all_3x3_minors_degenerate(grid, symmetric=True):
        return 2
    return _rank_scan(_tallies(grid), 3, symmetric=True)


def _require_size(m: TropMatrix) -> None:
    if m.n > MAX_MINOR_SIZE:
        raise MinorSizeError(f"matrix size {m.n} > cap {MAX_MINOR_SIZE}")


def _rank_scan(tallies: list[list[int]], start: int, symmetric: bool) -> int:
    """The rank of a grid of tallies (:func:`_tallies`) whose rank is at
    least ``start``: the least r >= start whose (r + 1) x (r + 1) minors are
    all degenerate, by the subset expansion."""
    for r in range(start, len(tallies)):
        if _all_minors_degenerate(tallies, r + 1, symmetric):
            return r
    return len(tallies)


def _integer_grid(m: TropMatrix, symmetric: bool = False) -> tuple[list[list[int]], int]:
    """The entries of ``m`` times the lcm L of their denominators, as ints,
    and L; with ``symmetric``, an asymmetric ``m`` is refused.

    Every permutation sum of a minor is scaled by the same L > 0, so each
    minor keeps its argmin permutation set, and with it its argmin monomial
    set and its ordinary and symmetric degeneracy: the rank scans and the
    fan signatures may run on this grid exactly.
    """
    return _scaled(_integer_ratios(m, symmetric))


def _integer_ratios(m: TropMatrix, symmetric: bool) -> list[list[tuple[int, int]]]:
    """Each entry of ``m`` as its integer ratio (numerator, denominator),
    read once; with ``symmetric``, an asymmetric ``m`` is refused, on these
    ints, before any lcm is taken."""
    ratios = [list(map(Fraction.as_integer_ratio, row)) for row in m.rows]
    if symmetric and list(map(list, zip(*ratios))) != ratios:
        raise TropicalError("symmetric matrix required")
    return ratios


def _scaled(ratios: list[list[tuple[int, int]]]) -> tuple[list[list[int]], int]:
    """The integer grid and its scale L of :func:`_integer_grid`, the lcm
    taken over the distinct denominators."""
    scale = math.lcm(*{q for row in ratios for _, q in row})
    return [[p * (scale // q) for p, q in row] for row in ratios], scale


def _principal_pairs_tie(grid: list[list[int]]) -> bool:
    """Whether every 2 x 2 minor of a symmetric integer grid is degenerate,
    symmetric rank 1; stops at the first pair i < j that fails.

    That holds iff every principal 2 x 2 minor ties, 2 x_ij = x_ii + x_jj:
    then x_ij = a_i + a_j with a_i = x_ii / 2, and every minor on rows
    {i, j} and columns {k, l} ties too, x_ik + x_jl = x_il + x_jk.  The two
    permutations of a 2 x 2 minor never pick one monomial, so its symmetric
    degeneracy is its ordinary one."""
    diagonal = [row[i] for i, row in enumerate(grid)]
    return all(
        2 * x == a + b
        for i, (row, a) in enumerate(zip(grid, diagonal))
        for x, b in zip(row[i + 1 :], diagonal[i + 1 :])
    )


# The permutations of a 3x3 minor, in the order in which the minor sweep
# (_minor_sums) lists their sums.  On a principal minor, positions 3 and 4
# are the two 3-cycles; they pick the one monomial x_ij x_jk x_ki.
_PERMS = tuple(itertools.permutations(range(3)))


def _minor_sums(grid: list[list[int]]) -> Iterator[list[int]]:
    """Per 3x3 minor (R, C) with C >= R of a square grid, row sets in
    ``itertools.combinations`` order and per row set its column sets from
    R on, its entry sum under each permutation of ``_PERMS``.  The first
    minor of each row set is its principal one.  Only the fan's signatures
    read it, since they need every permutation's sum; the rank scans
    decide their 3x3 level on pair minima (:func:`_all_3x3_minors_degenerate`).

    Only C >= R is visited.  On a symmetric grid the transpose minor (C, R)
    has the same entry sums, its argmin permutations are the inverses, and
    a permutation and its inverse pick the same unordered pairs {r, c}: the
    same argmin monomial set and the same degeneracy."""
    combos = list(itertools.combinations(range(len(grid)), 3))
    for first, (i, j, k) in enumerate(combos):
        r0, r1, r2 = grid[i], grid[j], grid[k]
        for a, b, c in combos[first:]:
            x, y, z = r0[a], r0[b], r0[c]
            yield [
                x + r1[b] + r2[c],
                x + r1[c] + r2[b],
                y + r1[a] + r2[c],
                y + r1[c] + r2[a],
                z + r1[a] + r2[b],
                z + r1[b] + r2[a],
            ]


@functools.lru_cache(maxsize=None)
def _pair_plan(n: int) -> tuple[tuple, tuple, tuple]:
    """For the 3x3 minors of an n x n grid: the 3-subsets of range(n) in
    ``itertools.combinations`` order, the row sets and column sets of
    :func:`_all_3x3_minors_degenerate`; the 2-subsets in the same order, the
    column pairs of its pair tables; and per column set (a, b, c), a, b, c
    and the indices of its pairs (b, c), (a, c) and (a, b) among the
    2-subsets.  One plan serves every row set: the symmetric scan slices
    the column sets from the row set on."""
    combos = tuple(itertools.combinations(range(n), 3))
    pairs = tuple(itertools.combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    columns = tuple((a, b, c, index[b, c], index[a, c], index[a, b]) for a, b, c in combos)
    return combos, pairs, columns


def _all_3x3_minors_degenerate(grid: list[list[int]], symmetric: bool) -> bool:
    """Whether every 3x3 minor of an integer grid is degenerate
    (``symmetric``: as a polynomial in the x_{ij} of a symmetric grid);
    stops at the first minor that is not, row sets in
    ``itertools.combinations`` order and per row set its column sets.

    Each minor is expanded along its first row.  On rows (i, j, k) and
    columns (a, b, c), the six permutations fall into three pairs by the
    column that row i takes, and each pair is the 2x2 minor of rows j, k
    on the other two columns.  The pair table of rows (j, k), built on
    first use and dropped on return, holds per column pair b < c the
    doubled least 2x2 sum plus a tie bit, q = 2 min(s, t) + [s = t] for
    s = x_jb + x_kc and t = x_jc + x_kb.  The minor's three sums
    u = 2 x_ia + q(b, c), v = 2 x_ib + q(a, c) and w = 2 x_ic + q(a, b)
    are then twice each pair's least sum, plus 1 when that pair ties.  The
    least sum is attained once, and the minor not degenerate, iff the
    least of u, v, w is even (its pair does not tie) and the other two
    exceed it by at least 2 (no other pair reaches it).

    With the ``symmetric`` flag only the column sets C >= R are visited:
    the transpose minor has the same sums, inverse argmin permutations and
    the same argmin monomials.  Two permutations pick one monomial only
    when they are the two 3-cycles of a principal minor (no other 3x3
    minor has three indices shared by its rows and columns,
    :func:`_class_size`).  Those fall into different pairs, so the pair
    minima cannot tell them from two monomials: the principal minor, the
    first of each row set, sums its six permutations in ``_PERMS`` order
    and is degenerate iff its least sum is attained twice, unless its only
    two least sums are its 3-cycles'.  Every other minor of either scan is
    degenerate iff its least sum is attained twice.
    """
    combos, pairs, columns = _pair_plan(len(grid))
    doubled = [[x + x for x in row] for row in grid]
    tables: dict[tuple[int, int], list[int]] = {}
    rest = columns
    for first, (i, j, k) in enumerate(combos):
        r1, r2 = grid[j], grid[k]
        if symmetric:
            x, y, z = grid[i][i], grid[i][j], grid[i][k]
            sums = [
                x + r1[j] + r2[k],
                x + r1[k] + r2[j],
                y + r1[i] + r2[k],
                y + r1[k] + r2[i],
                z + r1[i] + r2[j],
                z + r1[j] + r2[i],
            ]
            least = min(sums)
            ties = sums.count(least)
            if ties < 2 or ties == 2 and sums[3] == sums[4] == least:
                return False
            rest = columns[first + 1 :]
        q = tables.get((j, k))
        if q is None:
            q = tables[j, k] = [
                s + s + (s == t) if s <= t else t + t
                for b, c in pairs
                for s in [r1[b] + r2[c]]
                for t in [r1[c] + r2[b]]
            ]
        d = doubled[i]
        for a, b, c, bc, ac, ab in rest:
            u, v, w = d[a] + q[bc], d[b] + q[ac], d[c] + q[ab]
            # u becomes the least of the three
            if u > v:
                u, v = v, u
            if u > w:
                u, w = w, u
            if not u & 1 and v > u + 1 < w:
                return False
    return True


# A tally packs a least sum s and the number t of permutations attaining it
# into the int s * 2^B + (t - 1).  B bits hold t - 1 < 9!, so tallies compare
# as their sums do, and then by tie count.
_COUNT_BITS = math.factorial(MAX_MINOR_SIZE).bit_length()
_TIES = (1 << _COUNT_BITS) - 1
_SUM = -1 << _COUNT_BITS


def _tallies(grid: list[list[int]]) -> list[list[int]]:
    """Each entry of an integer grid as the tally of a 1 x 1 minor: its sum,
    attained once."""
    return [[x << _COUNT_BITS for x in row] for row in grid]


def _all_minors_degenerate(grid: list[list[int]], k: int, symmetric: bool) -> bool:
    """Whether every k x k minor of a grid of tallies (:func:`_tallies`) is
    degenerate (``symmetric``: as a polynomial in the x_{ij}, i <= j);
    stops at the first row set with a minor that is not.

    Row sets come in ``itertools.combinations`` order.  Per row set, level
    j holds the tally of the minor on its first j rows and each j-subset of
    the columns (:func:`_expand`), and the row sets that share a row prefix
    come one after another and share its levels.  A minor's tally is then
    k terms of the last level.  With the ``symmetric`` flag only the
    column sets from the row set on are read: on a symmetric grid the
    transpose minor has the same sums, inverse argmin permutations and the
    same argmin monomials.

    A minor is degenerate when its least sum is attained twice.  On a
    symmetric grid the permutations of one monomial pick the same entries
    up to transposition, so the argmin set is a union of whole monomial
    classes: it is a single class, and the minor not degenerate, exactly
    when the tie count t is the class size of one argmin permutation.  A
    class has at most 2^(m // 3) members for m = |R & C| (one per direction
    of each cycle of length >= 3, :func:`_class_size`), so only the minors
    with 2 <= t <= 2^(m // 3) are looked at more closely.
    """
    n = len(grid)
    combos, shared, steps, candidates = _scan_plan(n, k)
    levels: list[list[int]] = []
    for first, rows in enumerate(combos):
        if not levels:
            levels.append(grid[rows[0]])
        for j in range(len(levels), k - 1):
            levels.append(_expand(levels[-1], grid[rows[j]], steps[j - 1]))
        last = steps[-1]
        if symmetric:
            last = [(parents[first:], cols[first:]) for parents, cols in last]
        tallies = _expand(levels[-1], grid[rows[-1]], last)
        if 0 in map(and_, tallies, itertools.repeat(_TIES)):
            return False
        if symmetric:
            places = candidates[first]
            if places is None:
                places = candidates[first] = _class_candidates(combos, first)
            for i, bound in zip(*places):
                ties = (tallies[i] & _TIES) + 1
                if ties <= bound and ties == _class_size(
                    _argmin_image(grid, rows, combos[first + i], levels, tallies[i])
                ):
                    return False
        del levels[shared[first] :]
    return True


def _expand(below: list[int], row: list[int], terms: Sequence[tuple[bytes, bytes]]) -> list[int]:
    """One level of the expansion: the tally of every subset S in ``terms``
    order from the tallies ``below`` of the level under it and the tallies
    of the next row.  ``terms`` holds one pair per place i of the subsets:
    the index in ``below`` of each S less its i-th column, and that column.

    The least of the |S| sums wins; on a tie of sums the counts add, and
    (t1 - 1) + (t2 - 1) + 1 is t1 + t2 - 1.  The first two terms are read
    in one pass."""
    (p, c), (q, d), *rest = terms
    level = [
        a if a < b & _SUM else b if b < a & _SUM else a + (b & _TIES) + 1
        for i, x, j, y in zip(p, c, q, d)
        for a in [below[i] + row[x]]
        for b in [below[j] + row[y]]
    ]
    for p, c in rest:
        level = [
            a if a < b & _SUM else b if b < a & _SUM else a + (b & _TIES) + 1
            for a, i, x in zip(level, p, c)
            for b in [below[i] + row[x]]
        ]
    return level


def _argmin_image(
    grid: list[list[int]], rows: Sequence[int], cols: Sequence[int], levels: list, tally: int
) -> dict[int, int]:
    """One argmin permutation of the minor (rows, cols) whose tally is
    ``tally``, as the column it gives each row, read back from the levels of
    the row set, from the last row up: a column whose term attains the
    least sum."""
    drops = _subset_drops(len(grid))
    mask = 0
    for c in cols:
        mask |= 1 << c
    least = tally & _SUM
    image = {}
    for j in range(len(rows) - 1, 0, -1):
        row, below = grid[rows[j]], levels[j - 1]
        for c, i in drops[mask]:
            if (below[i] & _SUM) + row[c] == least:
                break
        image[rows[j]] = c
        mask ^= 1 << c
        least -= row[c]
    image[rows[0]] = mask.bit_length() - 1
    return image


def _class_size(image: dict[int, int]) -> int:
    """The number of permutations of a minor that pick the monomial of the
    permutation ``image`` (row -> column): 2^c, c the number of its cycles
    of length >= 3.

    The pairs {r, image[r]} form a multigraph in which each index has one
    edge as a row and one as a column, so it is a union of paths, which
    start at rows that are no column, and of cycles of indices that are
    both.  The permutations of the same monomial orient its edges in each
    component; only a cycle of length >= 3 has two orientations that are
    different permutations.
    """
    cycles = 0
    for r in image:  # a cycle is counted from its least index
        x, length = image[r], 1
        while x in image and x > r:
            x, length = image[x], length + 1
        cycles += x == r and length >= 3
    return 1 << cycles


@functools.lru_cache(maxsize=None)
def _subset_drops(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Per bit mask S of a subset of range(n): for each column c in S, in
    increasing order, c and the index of S - {c} among the subsets of its
    size in ``itertools.combinations`` order."""
    index = [0] * (1 << n)
    for j in range(n + 1):
        for i, subset in enumerate(itertools.combinations(range(n), j)):
            index[sum(1 << c for c in subset)] = i
    return [tuple((c, index[s ^ 1 << c]) for c in range(n) if s >> c & 1) for s in range(1 << n)]


@functools.lru_cache(maxsize=None)
def _scan_plan(n: int, k: int) -> tuple[tuple, tuple, tuple, list]:
    """For the k x k minors of an n x n grid: the k-subsets of range(n) in
    ``itertools.combinations`` order, the row sets and column sets of the
    scan; per row set, how many of its first k - 1 rows the next row set
    shares (0 for the last), so the levels built on those rows are kept for
    it; per level j = 2..k, the terms of :func:`_expand` over the j-subsets
    in the same order (n <= 9, so every index fits a byte: there are at
    most C(9, 4) = 126 subsets of a size); and per row set, its symmetric
    scan's candidates, filled in by the first scan that reaches it
    (:func:`_class_candidates`).  Nothing here depends on matrix entries,
    so every scan of an n x n matrix may share it."""
    combos = tuple(itertools.combinations(range(n), k))
    shared = tuple(
        next((j for j in range(k - 1) if a[j] != b[j]), k - 1) for a, b in zip(combos, combos[1:])
    )
    drops = _subset_drops(n)
    steps = []
    for j in range(2, k + 1):
        subsets = itertools.combinations(range(n), j)
        ways = [drops[sum(1 << c for c in subset)] for subset in subsets]
        steps.append(
            tuple((bytes(w[i][1] for w in ways), bytes(w[i][0] for w in ways)) for i in range(j))
        )
    return combos, shared + (0,), tuple(steps), [None] * len(combos)


def _class_candidates(combos: tuple, first: int) -> tuple[bytes, bytes]:
    """The column sets C >= R of the row set R = combos[first] that share
    m >= 3 indices with it, as places counted from R, and 2^(m // 3), the
    largest monomial class of their minors."""
    rows = set(combos[first])
    shares = [len(rows.intersection(cols)) for cols in combos[first:]]
    places = [i for i, m in enumerate(shares) if m >= 3]
    return bytes(places), bytes(1 << shares[i] // 3 for i in places)


def hilbert_distance(x: Sequence[object], y: Sequence[object]) -> Fraction:
    """Tropical Hilbert metric: max_i(x_i - y_i) - min_i(x_i - y_i)."""
    xs = [parse_rational(v) for v in x]
    ys = [parse_rational(v) for v in y]
    if len(xs) != len(ys) or not xs:
        raise TropicalError("vectors must be nonempty and of equal length")
    diffs = [a - b for a, b in zip(xs, ys)]
    return max(diffs) - min(diffs)


def canonicalize_mod_lineality(m: TropMatrix) -> TropMatrix:
    """Subtract the unique X (tropical) X^T making the first row zero.

    Two symmetric matrices differing by a simultaneous tropical row/column
    scaling canonicalize to the same matrix; the map is idempotent.
    """
    m.require_symmetric()
    x1 = m.rows[0][0] / 2
    xs = [x1] + [m.rows[0][j] - x1 for j in range(1, m.n)]
    return m.sub(rank_one_matrix(xs))
