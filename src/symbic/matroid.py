"""Cayley matrices of symbic-tree cones and their column matroids.

The cone of matrices of one tree is parameterized by one coordinate per
split orbit (node parameters: path distance from the base point O to each
internal node) plus n simultaneous-scaling directions.  Each symmetric
matrix coordinate (i, j) then reads off a column: an indicator of the node
where the paths O -> i and O -> j' part, read off the split sides by
``_cayley``, stacked over e_i + e_j.  All rank decisions are fraction-free
and exact, and all go through one integer reducer, ``_reduce``.  The bases are found through the dual matroid, as
the complements of the bases of the column matroid of an integer kernel
basis, by a depth-first search whose nodes carry the later kernel columns
already reduced against the chosen ones.  A whole-catalog sweep searches
only one key per orbit of the catalog under renaming the indices 1..n and
reads its Cayley matrix and its caterpillar filters off the key's split
masks, so it builds no tree.  It holds each basis as an int mask over the
ground pairs and renames masks through per-permutation byte tables;
frozensets of pairs are made only for what a caller gets back.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import neg, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from .correspond import base_point
from .counting import (
    SizeCapError,
    TreeCatalog,
    _byte_tables,
    _catalog_for,
    _renamed_mask,
    _subset_table,
)
from .trees import (
    InvalidMoveError,
    SymbicTree,
    _away_sides,
    _has_caterpillar_branches,
    _is_caterpillar,
    _path_form,
)
from .tropical import parse_rational

GroundPair = tuple[int, int]

BASES_CAP = 6
TRANSITION_CAP = 5


def ground_set(n: int) -> tuple[GroundPair, ...]:
    """Coordinates of a symmetric n x n matrix: pairs (i, j), i <= j, lex."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i, n + 1))


class CayleyMatrix(NamedTuple):
    """Node-parameter rows (one per non-base internal vertex orbit) stacked
    over the n lineality rows e_i + e_j, columns indexed by ground pairs."""

    n: int
    node_count: int
    columns: tuple[GroundPair, ...]
    rows: tuple[tuple[int, ...], ...]

    def column(self, pair: GroundPair) -> tuple[int, ...]:
        idx = self.columns.index(pair)
        return tuple(row[idx] for row in self.rows)

    def rank(self) -> int:
        return len(_echelon(self.rows))


def cayley_matrix(tree: SymbicTree, base: Optional[int] = None) -> CayleyMatrix:
    """The Cayley matrix of a regular tree's cone at the base point O;
    cached on the tree per O, as the tree is immutable by convention."""
    if not tree.is_regular():
        raise InvalidMoveError("Cayley matrix wants a regular tree")
    o = base_point(tree, base)
    cached = tree._cache.get(("cayley", o))
    if cached is None:
        cached = tree._cache["cayley", o] = _cayley(tree.n, _away_sides(tree.n, tree, o))
    return cached


def _cayley(n: int, sides: list) -> CayleyMatrix:
    """The Cayley matrix of a regular tree from its internal edges' split
    orbits and sides away from O (``trees._away_sides``).  The edges on
    the path from O to the vertex where O -> i and O -> j' part are those
    with i and j' on that side; the node rows group the pairs by the
    orbits of those edges, nonempty away from O, in first-pair order."""
    ids: dict = {}
    paths = _path_form(n, [(away, 1 << ids.setdefault(orbit, len(ids))) for orbit, away, _ in sides])
    pairs = ground_set(n)
    orbit_sets = [paths[i * n - n + j - 1] for i, j in pairs]
    node_sets = list(dict.fromkeys(filter(None, orbit_sets)))
    if len(node_sets) != n - 1:
        raise AssertionError("regular tree must have n-1 node-parameter orbits")
    rows = [tuple([int(x == node) for x in orbit_sets]) for node in node_sets]
    for coordinate in range(1, n + 1):
        rows.append(tuple((i == coordinate) + (j == coordinate) for i, j in pairs))
    return CayleyMatrix(n, len(node_sets), pairs, tuple(rows))


def _reduce(
    vec: Sequence[int], echelon: Iterable[tuple[int, tuple[int, ...]]]
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Reduce an int vector against an echelon of (pivot, primitive row)
    pairs by cross-multiplying, b[p]*v - v[p]*b, which zeroes v[p] with
    integer arithmetic only (fraction-free elimination, Bareiss 1968).
    Returns the new (pivot, primitive row) pair, or None when the vector
    lies in the echelon's span.  No modulus is taken: exact for any ints."""
    for p, b in echelon:
        vp = vec[p]
        if vp:
            bp = b[p]
            vec = list(map(sub, map(bp.__mul__, vec), map(vp.__mul__, b)))
    g = math.gcd(*vec)
    if not g:
        return None
    row = tuple(vec) if g == 1 else tuple(map(g.__rfloordiv__, vec))
    return row.index(next(filter(None, row))), row


def _echelon(rows: Iterable[Sequence[int]]) -> list[tuple[int, tuple[int, ...]]]:
    """The (pivot, primitive row) echelon of int rows, one reducer step per
    row; its length is the rank."""
    echelon: list[tuple[int, tuple[int, ...]]] = []
    for row in rows:
        step = _reduce(row, echelon)
        if step is not None:
            echelon.append(step)
    return echelon


def exact_rank(rows: Iterable[Sequence[object]]) -> int:
    """Rank of a matrix with rational entries, parsed as matrix entries are
    (a float or a bool raises ``TropicalError``): each row is cleared of
    denominators and pushed through the integer reducer."""
    scaled_rows = []
    for row in rows:
        scaled = [parse_rational(x) for x in row]
        lcm = math.lcm(*(x.denominator for x in scaled))
        scaled_rows.append([x.numerator * (lcm // x.denominator) for x in scaled])
    return len(_echelon(scaled_rows))


def _kernel(
    rows: Sequence[Sequence[int]], width: int
) -> Optional[list[list[int]]]:
    """Int rows spanning the kernel of linearly independent int rows of the
    given width, or None when the rows are dependent.

    After the forward pass, a back-substitution clears each pivot column
    from the rows above it that are nonzero there, each of which keeps its
    own pivot, so every row e is zero at every pivot but its own p.  Free
    column f then gives the kernel row with x_f = L, x_p = -(L / e[p]) e[f]
    at each pivot p and 0 elsewhere, L the lcm of the pivot entries."""
    echelon = _echelon(rows)
    if len(echelon) < len(rows):
        return None
    for k, step in enumerate(echelon):
        p = step[0]
        for i, (q, b) in enumerate(echelon[:k]):
            if b[p]:
                echelon[i] = q, _reduce(b, (step,))[1]
    pivots = {p for p, _ in echelon}
    lcm = math.lcm(*(e[p] for p, e in echelon))
    kernel = []
    for f in range(width):
        if f not in pivots:
            x = [0] * width
            x[f] = lcm
            for p, e in echelon:
                x[p] = -(lcm // e[p]) * e[f]
            kernel.append(x)
    return kernel


def _bases(cm: CayleyMatrix) -> frozenset[int]:
    """All full-rank column subsets of size ``len(cm.rows)`` of a Cayley
    matrix, none when its rows are dependent; each basis is an int mask
    over the columns, bit k for ``cm.columns[k]``.

    By matroid duality B is a basis of the column matroid of A exactly when
    its complement is a basis of the column matroid of K, whose rows span
    ker A (Oxley, Matroid Theory, 2nd ed., section 2.2).  So a depth-first
    search over the columns of K in order picks the cobases, and each basis
    is a complement.  With m columns and rank r the search is
    m - r = (n-1)(n-2)/2 deep instead of r = 2n - 1: 1, 3, 6, 10 against
    5, 7, 9, 11 for n = 3..6, shorter for every n up to ``BASES_CAP`` (the
    crossover is at n = 7).  An empty kernel (n <= 2) leaves the one basis
    of all columns.

    The search is incremental: each node holds its later columns already
    reduced against the chosen ones, as primitive rows zero at every chosen
    pivot, so choosing column s costs one single-step ``_reduce`` per later
    column, and a column that reduces to zero is dropped for the whole
    subtree.  The last choice needs no reduction.  A nonzero combination
    of echelon rows is nonzero at the pivot of the first row it uses, so a
    vector of the chosen span that is zero at every chosen pivot is zero.
    When one column is still needed after s, a later column c, zero at
    every chosen pivot as s is, is dependent on the chosen ones and s
    exactly when c - a s is such a vector for some rational a, that is
    when c = a s; both rows are primitive and nonzero, so a = 1 or -1.
    Column c completes a cobasis exactly when its row is neither s nor -s."""
    width = len(cm.columns)
    kernel = _kernel(cm.rows, width)
    if kernel is None:
        return frozenset()
    everything = (1 << width) - 1
    if not kernel:
        return frozenset((everything,))
    results: list[int] = []

    def extend(chosen: int, later: list, need: int) -> None:
        for k in range(len(later) - need + 1):
            idx, step = later[k]
            mask = chosen | 1 << idx
            if need == 1:
                results.append(everything ^ mask)
            elif need == 2:
                s = step[1]
                minus = tuple(map(neg, s))
                results.extend([
                    everything ^ mask ^ 1 << j
                    for j, (_, row) in later[k + 1:]
                    if row != s and row != minus
                ])
            else:
                echelon = (step,)
                extend(mask, [
                    (j, reduced)
                    for j, (_, row) in later[k + 1:]
                    if (reduced := _reduce(row, echelon))
                ], need - 1)

    columns = enumerate(zip(*kernel))
    extend(0, [(j, step) for j, col in columns if (step := _reduce(col, ()))], len(kernel))
    return frozenset(results)


@functools.lru_cache(maxsize=BASES_CAP + 1)
def _pair_tables(n: int) -> tuple[int, tuple, tuple]:
    """The ground-set masks split in two halves, low bits first, and a
    subset table of pair frozensets for each."""
    parts = [frozenset((pair,)) for pair in ground_set(n)]
    half = (len(parts) + 1) // 2
    empty: frozenset = frozenset()
    return half, _subset_table(parts[:half], empty), _subset_table(parts[half:], empty)


def _as_pairs(n: int, masks: Iterable[int]) -> frozenset:
    """Ground-set masks as the frozensets of pairs the API returns: one
    union of two table entries per mask, which reuses the entries' hashes."""
    half, low, high = _pair_tables(n)
    below = (1 << half) - 1
    return frozenset([low[mask & below] | high[mask >> half] for mask in masks])


@functools.lru_cache(maxsize=128)
def _renaming(n: int, p: tuple[int, ...]) -> tuple:
    """The byte tables of the map on ground-set masks that renames index i
    as p[i - 1]: bit (i, j) goes to bit (p[i-1], p[j-1]), sorted.  The
    cache holds every permutation up to n = 5."""
    pairs = ground_set(n)
    bit = {pair: 1 << k for k, pair in enumerate(pairs)}
    images = [bit[min(a, b), max(a, b)] for a, b in ((p[i - 1], p[j - 1]) for i, j in pairs)]
    return _byte_tables(images)


def matroid_bases(tree: SymbicTree, base: Optional[int] = None) -> frozenset:
    """All (2n-1)-subsets of matrix coordinates independent in the cone's
    span."""
    if tree.n > BASES_CAP:
        raise SizeCapError(f"n={tree.n} exceeds basis enumeration cap {BASES_CAP}")
    return _as_pairs(tree.n, _bases(cayley_matrix(tree, base)))


_FILTERS = {
    "all": lambda n, key: True,
    "caterpillar_branches": _has_caterpillar_branches,
    "full_caterpillar": _is_caterpillar,
}


def _orbit_bases(
    n: int, catalog: Optional[TreeCatalog], keep=_FILTERS["all"]
) -> tuple[TreeCatalog, dict[frozenset, frozenset[int]]]:
    """One sweep over the n+n catalog, enumerated after the cap check when
    none is given: the catalog, and orbit representative -> base masks for
    the representatives whose keys ``keep`` accepts, read off the keys.
    Renaming the indices permutes the ground pairs and keeps the shape, so
    the bases of an orbit member are the renamed bases of its
    representative, and the filters, which read the shape only, take one
    value on each orbit."""
    if n > BASES_CAP:
        raise SizeCapError(f"n={n} exceeds basis enumeration cap {BASES_CAP}")
    catalog = _catalog_for(n, catalog)
    return catalog, {
        rep: _bases(_cayley(n, _away_sides(n, rep)))
        for rep in catalog.orbits()
        if keep(n, rep)
    }


def _closure(n: int, masks: Iterable[int]) -> set[int]:
    """Ground-set masks closed under renaming the indices: each orbit of
    masks is imaged once, under every permutation."""
    renamings = [_renaming(n, p) for p in itertools.permutations(range(1, n + 1))]
    out: set[int] = set()
    for mask in masks:
        if mask not in out:
            out.update([_renamed_mask(tables, mask) for tables in renamings])
    return out


def union_bases(
    n: int, which: str = "all", catalog: Optional[TreeCatalog] = None
) -> frozenset:
    """Union of the basis collections over the catalog, optionally
    restricted to trees with caterpillar branches or full caterpillars."""
    if which not in _FILTERS:
        raise ValueError("which must be all, caterpillar_branches, or full_caterpillar")
    _, bases = _orbit_bases(n, catalog, _FILTERS[which])
    return _as_pairs(n, _closure(n, set().union(*bases.values())))


class TransitionCounterExample(NamedTuple):
    face: frozenset
    cell: frozenset
    basis: frozenset


def basis_transition_table(n: int, catalog: Optional[TreeCatalog] = None):
    """(face -> cells containing it, cell -> base masks) for the
    codimension-1 faces of the complex; n=2 uses the empty face shared by
    every cell.  Each cell's masks are its representative's, renamed."""
    if n > TRANSITION_CAP:
        raise SizeCapError(f"n={n} exceeds transition check cap {TRANSITION_CAP}")
    catalog, rep_bases = _orbit_bases(n, catalog)
    bases: dict[frozenset, frozenset[int]] = {}
    for rep, members in catalog.orbits().items():
        for key, p in members.items():
            tables = _renaming(n, p)
            bases[key] = frozenset([_renamed_mask(tables, mask) for mask in rep_bases[rep]])
    faces: dict[frozenset, list[frozenset]] = {}
    if n == 2:
        faces[frozenset()] = list(catalog.trees)
    else:
        for key in catalog.trees:
            for orbit in key:
                faces.setdefault(key - {orbit}, []).append(key)
    return faces, bases


def check_basis_transitions(
    faces: dict[frozenset, list[frozenset]], bases: dict[frozenset, frozenset]
) -> Optional[TransitionCounterExample]:
    """Every basis of a maximal cone containing a codimension-1 face must be
    a basis of another maximal cone containing that face.  The witness
    carries the basis as the table holds it."""
    for face, cells in faces.items():
        for cell in cells:
            others: frozenset = frozenset()
            for other in cells:
                if other != cell:
                    others = others | bases[other]
            for basis in bases[cell]:
                if basis not in others:
                    return TransitionCounterExample(face, cell, basis)
    return None


def basis_transition_check(
    n: int, catalog: Optional[TreeCatalog] = None
) -> Optional[TransitionCounterExample]:
    """The check on :func:`basis_transition_table`; the witness basis is a
    frozenset of ground pairs."""
    faces, bases = basis_transition_table(n, catalog)
    bad = check_basis_transitions(faces, bases)
    if bad is None:
        return None
    (basis,) = _as_pairs(n, [bad.basis])
    return bad._replace(basis=basis)


class ConjectureReport(NamedTuple):
    n: int
    equal: bool
    union_all_count: int
    union_caterpillar_count: int
    missing_bases: tuple


def conjecture_scan(n: int, catalog: Optional[TreeCatalog] = None) -> ConjectureReport:
    """Compare the full basis union against full-caterpillar trees only.
    Reports data; asserts nothing (the equality is an open question)."""
    catalog, bases = _orbit_bases(n, catalog)
    union_all = _closure(n, set().union(*bases.values()))
    union_cat = _closure(
        n, set().union(*(b for rep, b in bases.items() if _is_caterpillar(n, rep)))
    )
    missing = tuple(sorted(tuple(sorted(b)) for b in _as_pairs(n, union_all - union_cat)))
    return ConjectureReport(
        n=n,
        equal=union_all == union_cat,
        union_all_count=len(union_all),
        union_caterpillar_count=len(union_cat),
        missing_bases=missing,
    )


def render_conjecture_report(report: ConjectureReport) -> str:
    lines = [
        f"# Caterpillar basis scan, n = {report.n}",
        "",
        f"- bases over all regular trees: {report.union_all_count}",
        f"- bases over caterpillar trees only: {report.union_caterpillar_count}",
        f"- collections equal: {report.equal}",
        "",
    ]
    if report.missing_bases:
        lines.append("Bases not realized by any caterpillar tree:")
        lines.extend(
            "- " + ", ".join(f"({i},{j})" for i, j in basis)
            for basis in report.missing_bases
        )
    else:
        lines.append("Every basis is realized by a caterpillar tree.")
    lines += [
        "",
        "Caveat: trunk-edge contractions need not admit trunk-shortening",
        "transitions, so the reduction argument used for caterpillar branches",
        "does not settle this; the scan reports data only.",
    ]
    return "\n".join(lines) + "\n"
