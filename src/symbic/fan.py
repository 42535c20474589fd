"""Relating the symbic-tree fan to the coarse fan cut out by 3x3 minors.

A cone of the coarse fan is determined by which monomials attain the minimum
in every 3x3 minor.  Sampling a tree's cone at generic (distinct prime based)
edge lengths and comparing those argmin-monomial signatures tests that the
tree fan refines the coarse fan and counts coarse cells.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import getitem, mul
from typing import NamedTuple, Optional, Sequence

from .correspond import divergences
from .counting import (
    SizeCapError,
    TreeCatalog,
    _catalog_for,
    cell_sort_key,
    orbit_sort_key,
)
from .tropical import (
    TropMatrix,
    TropicalError,
    _integer_grid,
    _minor_plan,
    _monomial,
    parse_rational,
)
from .trees import InvalidMoveError, SymbicTree

FAN_CAP = 5

_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)

Signature = frozenset  # of (rows, cols, frozenset of monomials)


def generic_length_tuples(count: int, size: int) -> list[tuple[Fraction, ...]]:
    """Deterministic tuples of pairwise-distinct positive rationals: runs of
    primes and of prime reciprocals."""
    out = []
    for i in range(count):
        block = _PRIMES[(i // 2) * size : (i // 2) * size + size]
        if len(block) < size:
            raise SizeCapError("not enough primes for that many samples")
        values = tuple(Fraction(p) if i % 2 == 0 else Fraction(1, p) for p in block)
        out.append(values)
    return out


def sample_interior(tree: SymbicTree, lengths: Sequence[object]) -> TropMatrix:
    """Canonicalized matrix of the tree at the given orbit lengths: a point
    in the relative interior of the tree's cone.  Lengths are assigned to
    split orbits in a fixed deterministic order, are parsed exactly (floats
    and bools are refused) and must be positive and pairwise distinct.
    Entry (i, j) is the tree's form (i, j) dotted with the lengths scaled
    to a common denominator L, over 2L."""
    orbits, form = _sampling_form(tree)
    values = [parse_rational(v) for v in lengths]
    if len(values) != len(orbits):
        raise InvalidMoveError("need exactly one length per split orbit")
    if any(v <= 0 for v in values):
        raise InvalidMoveError("interior sample needs strictly positive lengths")
    if len(set(values)) != len(values):
        raise InvalidMoveError("interior sample wants pairwise distinct lengths")
    common = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (common // v.denominator) for v in values]
    half = 2 * common
    return TropMatrix(
        [Fraction(sum(map(mul, coeffs, scaled)), half) for coeffs in row] for row in form
    )


def _sampling_form(tree: SymbicTree) -> tuple[list, tuple]:
    """The split orbits in sampling order, and per entry (i, j) the integer
    coefficients, doubled, of the canonicalized matrix in the orbit lengths;
    cached on the tree, which is immutable by convention.  Entry (i, j) of
    ``matrix_from_tree`` is the path length from the base point O to the
    vertex ``divergences`` gives for (i, j), so its coefficients count each
    orbit's edges on that path, and ``canonicalize_mod_lineality`` is
    linear in the entries."""
    cached = tree._cache.get("sampling_form")
    if cached is not None:
        return cached
    edge_orbits = tree._edge_orbits()
    orbits = sorted(set(edge_orbits.values()), key=orbit_sort_key)
    column = {orbit: k for k, orbit in enumerate(orbits)}
    o, table = divergences(tree)
    counts: dict[int, list[int]] = {}
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
    cached = tree._cache["sampling_form"] = (orbits, form)
    return cached


def signature(matrix: TropMatrix) -> Signature:
    """Argmin monomial sets of every 3x3 minor (all row/column index pairs)
    of a symmetric matrix, computed on its integer grid.

    Only the minors (R, C) with C >= R are evaluated.  The transpose (C, R)
    of a symmetric matrix has the same monomial set, by the argument of the
    symmetric rank scan, and enters the signature with that set.
    """
    if matrix.n < 3:
        raise TropicalError("signatures need n >= 3")
    matrix.require_symmetric()
    grid = _integer_grid(matrix)
    perms, table = _minor_table(matrix.n)
    out = []
    for rows, row_ids, columns in table:
        sub = [grid[r] for r in row_ids]
        for cols, pick, monomials in columns:
            block = [pick(row) for row in sub]
            totals = [sum(map(getitem, block, p)) for p in perms]
            best = min(totals)
            argmin = frozenset(m for m, total in zip(monomials, totals) if total == best)
            out.append((rows, cols, argmin))
            if cols != rows:
                out.append((cols, rows, argmin))
    return frozenset(out)


@functools.lru_cache(maxsize=None)
def _minor_table(n: int) -> tuple[tuple, tuple]:
    """The permutations of size 3, and per row set R of an n x n matrix
    (1-based, with its 0-based grid rows) the column sets C >= R, each with
    its column picker and the monomial of every permutation of (R, C).
    The 0-based sets and pickers are the rank scan's plan (``_minor_plan``).

    None of this depends on the entries, so it is built once per size and
    shared, immutable, by every signature of that size."""
    perms = tuple(itertools.permutations(range(3)))
    combos, pickers, _, _ = _minor_plan(n, 3)
    labels = tuple(tuple(i + 1 for i in c) for c in combos)
    table = tuple(
        (
            rows,
            combos[first],
            tuple(
                (cols, pick, tuple(_monomial(rows, cols, p) for p in perms))
                for cols, pick in zip(labels[first:], pickers[first:])
            ),
        )
        for first, rows in enumerate(labels)
    )
    return perms, table


class RefinementCounterExample(NamedTuple):
    tree_key: frozenset
    lengths_a: tuple
    lengths_b: tuple


def refinement_check(
    n: int,
    samples_per_tree: int = 3,
    catalog: Optional[TreeCatalog] = None,
    sampler=sample_interior,
) -> Optional[RefinementCounterExample]:
    """Within each tree's cone, generic samples must share their signature
    (the tree fan refines the coarse 3x3-minor fan).  Sampling-based: two
    independent generic samples agreeing is the practical test, so fewer
    than two samples per tree are refused.  ``sampler`` exists for fault
    injection in tests."""
    if samples_per_tree < 2:
        raise ValueError("a refinement check compares at least 2 samples per tree")
    if n > FAN_CAP:
        raise SizeCapError(f"n={n} exceeds fan cap {FAN_CAP}")
    tuples = generic_length_tuples(samples_per_tree, n - 1)
    for key, tree in _catalog_for(n, catalog).items():
        seen = None
        for lengths in tuples:
            sig = signature(sampler(tree, lengths))
            if seen is None:
                seen = (sig, lengths)
            elif sig != seen[0]:
                return RefinementCounterExample(key, seen[1], lengths)
    return None


def signature_by_tree(
    n: int, catalog: Optional[TreeCatalog] = None
) -> dict[frozenset, Signature]:
    if n > FAN_CAP:
        raise SizeCapError(f"n={n} exceeds fan cap {FAN_CAP}")
    lengths = generic_length_tuples(1, n - 1)[0]
    return {
        key: signature(sample_interior(tree, lengths))
        for key, tree in _catalog_for(n, catalog).items()
    }


def coarse_cell_count(n: int, catalog: Optional[TreeCatalog] = None) -> int:
    """Number of distinct coarse-fan signatures over the catalog."""
    return len(set(signature_by_tree(n, catalog).values()))


def subdivision_witness(
    n: int = 3, catalog: Optional[TreeCatalog] = None
) -> list[tuple[Signature, tuple]]:
    """Group trees by coarse signature; at n=3 the 12 symbic cones fall onto
    9 coarse cells, three of which split into two cones each."""
    groups: dict[Signature, list] = {}
    for key, sig in signature_by_tree(n, catalog).items():
        groups.setdefault(sig, []).append(key)
    return [
        (sig, tuple(sorted(keys, key=cell_sort_key)))
        for sig, keys in sorted(groups.items(), key=lambda kv: _group_sort(kv[1]))
    ]


def _group_sort(keys: list) -> tuple:
    return (len(keys), tuple(sorted(cell_sort_key(k) for k in keys)))
