"""Exact min-plus linear algebra: tropical rank tests and the Hilbert metric.

Entries are ``fractions.Fraction``.  The two rank scans, :func:`trop_rank`
and :func:`sym_trop_rank`, the fan signatures (``symbic.fan``) and the leaf
metric of ``symbic.correspond`` run on the matrix scaled once to an exact
integer grid (see :func:`_integer_grid`), and ``Fraction``s are made again
only for their results.  The "minimum attained twice" predicates that
define tropical rank are not robust under floating point, so no float ever
enters these computations.

Every permutation sum of a minor, of grid entries or of monomial codes, is
one pattern (:func:`_term_pattern`) applied to the minor's k x k block in
row-major order and summed in runs of k; the minor sweep
(:func:`_minor_sums`) reads each block with one cell getter per column set.
The symmetric scan decides a tied minor by one count: its ties form a
single monomial exactly when they are as many as that monomial's
permutations (:func:`_monomial_class_sizes`).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import add, itemgetter
from typing import Iterable, Iterator, Sequence

# 9! = 362880 permutations per minor; enough for desk-scale matrices.
MAX_MINOR_SIZE = 9

# Outside input may spell a rational with at most this many decimal digits
# in its numerator and in its denominator (exponent notation included), so
# that a short string such as "1e1000000" cannot expand into a huge integer.
MAX_NUMERAL_DIGITS = 1000
_NUMERAL_LIMIT = 10**MAX_NUMERAL_DIGITS

Monomial = tuple[tuple[int, int], ...]
Permutation = tuple[int, ...]


class TropicalError(ValueError):
    """Bad input to a tropical-arithmetic operation."""


class MinorSizeError(TropicalError):
    """Minor exceeds the permutation-enumeration cap."""


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


def _monomial(rows: Sequence[int], cols: Sequence[int], perm: Permutation) -> Monomial:
    """The monomial in the variables x_{ij} (i <= j) that a permutation of
    the minor (rows, cols) picks out: a sorted multiset of unordered pairs."""
    return tuple(
        sorted((r, c) if r <= c else (c, r) for r, c in zip(rows, map(cols.__getitem__, perm)))
    )


def trop_rank(m: TropMatrix) -> int:
    """Smallest r such that every (r+1) x (r+1) minor is degenerate."""
    return _rank_scan(m, symmetric=False)


def sym_trop_rank(m: TropMatrix) -> int:
    """Smallest r such that every (r+1) x (r+1) minor is degenerate as a
    polynomial in the symmetric variables x_{ij}.  Scans all minors, not
    only principal ones."""
    m.require_symmetric()
    return _rank_scan(m, symmetric=True)


def _rank_scan(m: TropMatrix, symmetric: bool) -> int:
    if m.n > MAX_MINOR_SIZE:
        raise MinorSizeError(f"matrix size {m.n} > cap {MAX_MINOR_SIZE}")
    grid = _integer_grid(m)
    for r in range(1, m.n):
        if _all_minors_degenerate(grid, r + 1, symmetric):
            return r
    return m.n


def _integer_grid(m: TropMatrix) -> list[list[int]]:
    """The entries of ``m`` times the lcm L of their denominators, as ints.

    Every permutation sum of a minor is scaled by the same L > 0, so each
    minor keeps its argmin permutation set, and with it its argmin monomial
    set and its ordinary and symmetric degeneracy: the rank scans and the
    fan signatures may run on this grid exactly.
    """
    scale = _grid_scale(m)
    return [[x.numerator * (scale // x.denominator) for x in row] for row in m.rows]


def _grid_scale(m: TropMatrix) -> int:
    """The lcm L of the denominators of the entries of ``m``."""
    return math.lcm(*(x.denominator for row in m.rows for x in row))


def _all_minors_degenerate(grid: list[list[int]], k: int, symmetric: bool) -> bool:
    """Whether every k x k minor of the integer grid is degenerate
    (``symmetric``: as a polynomial in the x_{ij}, i <= j); stops at the
    first minor that is not.

    On a symmetric grid the permutations of one monomial pick the same
    entries up to transposition, so they have the same sum: a minor's
    argmin set is a union of whole monomial classes.  It is a single class,
    and the minor not degenerate, exactly when the tie count equals the
    class size of one argmin permutation (see
    :func:`_monomial_class_sizes`).  The sizes are computed on a minor's
    first tied argmin and kept for later scans (a table of all minors built
    up front takes about 1 s at n = 8, some 20 scans of a random 8 x 8
    matrix).
    """
    combos, _, sizes_of = _minor_plan(len(grid), k)
    for first, second, totals in _minor_sums(grid, k, symmetric):
        best = min(totals)
        ties = totals.count(best)
        if ties < 2:
            return False
        if symmetric:
            sizes = sizes_of.get((first, second))
            if sizes is None:
                sizes = sizes_of[first, second] = _monomial_class_sizes(
                    combos[first], combos[second]
                )
            if ties == sizes[totals.index(best)]:
                return False
    return True


def _minor_sums(
    grid: list[list[int]], k: int, symmetric: bool
) -> Iterator[tuple[int, int, list[int]]]:
    """Per k x k minor of the integer grid, the indices of its row set and
    column set in the scan order of :func:`_minor_plan`, and its entry sum
    under each permutation, in the order of :func:`_term_pattern`.  Row
    sets come in order, and per row set its column sets.

    Every minor is read the same way: its k rows of the grid concatenated,
    the column set's cell getter takes the minor's k x k block in row-major
    order, the term pattern lists each permutation's k terms in turn, and
    the sums of those runs of k are the permutation sums.

    The ``symmetric`` sweep visits a minor (R, C) only when C >= R.  On a
    symmetric grid the transpose minor (C, R) has the same entry sums, its
    argmin permutations are the inverses, and a permutation and its inverse
    pick the same unordered pairs {r, c}: the same argmin monomial set, and
    the same symmetric degeneracy.  The symmetric rank scan and the fan
    signatures (``symbic.fan``) both read this sweep.
    """
    combos, cells, _ = _minor_plan(len(grid), k)
    terms = _term_pattern(k)
    for first, rows in enumerate(combos):
        flat = [x for r in rows for x in grid[r]]
        for second in range(first if symmetric else 0, len(combos)):
            yield first, second, list(map(sum, zip(*[iter(terms(cells[second](flat)))] * k)))


@functools.lru_cache(maxsize=None)
def _minor_plan(n: int, k: int) -> tuple[tuple, tuple, dict]:
    """The k-subsets of range(n) in scan order; per column set, an
    itemgetter of its k * k cell positions in k rows of an n x n grid
    concatenated (the minor's block, row-major); and a dict that the
    symmetric scan fills: the monomial class sizes of a minor by its
    (row set, column set) indices.  Nothing here depends on matrix entries,
    so every scan of an n x n matrix may share it, and no sweep changes the
    first two."""
    combos = tuple(itertools.combinations(range(n), k))
    cells = tuple(itemgetter(*[r * n + c for r in range(k) for c in cols]) for cols in combos)
    return combos, cells, {}


@functools.lru_cache(maxsize=None)
def _term_pattern(k: int) -> itemgetter:
    """The one encoding of permutations: an itemgetter of the indices
    r * k + p[r], r = 0..k-1, for each permutation p of range(k) in
    ``itertools.permutations`` order.  Applied to a k x k block in
    row-major order, it gives each permutation's k terms in turn, so the
    sums of its runs of k are the permutation sums (see
    :func:`_minor_sums`).  The cell getter, the pattern and the run sums of
    an 8 x 8 minor take 4.0 ms against 7.2 ms for a Python loop over its
    k! permutations (CPython 3.11 on a 2-core x86-64 host)."""
    terms = itertools.chain.from_iterable(itertools.permutations(range(k)))
    return itemgetter(*map(add, terms, itertools.cycle(range(0, k * k, k))))


def _monomial_class_sizes(rows: Sequence[int], cols: Sequence[int]) -> bytes:
    """Per permutation of the minor (rows, cols), in the order of
    :func:`_term_pattern`, how many permutations of the minor pick its
    monomial (see :func:`_monomial`).

    A monomial holds an unordered pair {r, c} at most twice, as (r, c) and
    (c, r), so it is coded without sorting as a sum of 2-bit digits, one
    place per pair: the term pattern sums them like the entries of a minor.
    No digit carries, and equal codes are equal monomials.  A class holds
    at most 2^(k // 3) permutations (in a principal minor, one per choice
    of direction of each cycle of length >= 3; checked over every minor of
    a 9 x 9 grid), so 8 at the cap k = 9, and a byte holds each size.
    """
    k = len(rows)
    places: dict[tuple[int, int], int] = {}
    block = [
        1 << 2 * places.setdefault((min(r, c), max(r, c)), len(places)) for r in rows for c in cols
    ]
    codes = list(map(sum, zip(*[iter(_term_pattern(k)(block))] * k)))
    counts = Counter(codes)
    return bytes(map(counts.__getitem__, codes))


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
