"""Relating the symbic-tree fan to the coarse fan cut out by 3x3 minors.

A cone of the coarse fan is determined by which monomials attain the minimum
in every 3x3 minor.  One exact sweep over a tree's integer length forms
certifies that these argmin-monomial signatures are constant on the tree's
open cone, which shows that the tree fan refines the coarse fan there and
counts coarse cells.  Renaming the indices permutes a tree's forms and
minors, so the sweep runs once per S_n orbit of the catalog, on its
representative, and every other member's signature is the
representative's, renamed.  Within a pass a signature is kept in mask form,
one byte per minor holding its argmin permutations; a tree the sweep cannot
certify is sampled at generic (distinct prime based) edge lengths instead.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import add, and_, getitem, lshift, mul
from typing import NamedTuple, Optional, Sequence

from .counting import (
    SizeCapError,
    TreeCatalog,
    _catalog_for,
    _subset_table,
    cell_sort_key,
    orbit_sort_key,
)
from .tropical import _PERMS, TropMatrix, TropicalError, _integer_grid, _minor_sums, parse_rational
from .trees import InvalidMoveError, SymbicTree, _away_sides

FAN_CAP = 6

_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)

Signature = frozenset  # of (rows, cols, frozenset of monomials)
Monomial = tuple[tuple[int, int], ...]
Permutation = tuple[int, ...]

# The mask bit of each permutation of a 3x3 minor, in the order in which
# the minor sweep (``tropical._minor_sums``) lists their sums, ``_PERMS``.
_BITS = (1, 2, 4, 8, 16, 32)


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
    The lengths are read as their integer ratios, lowest terms, and entry
    (i, j) is the tree's form (i, j) dotted with them scaled to a common
    denominator L, over 2L; the matrix carries those ints as its integer
    grid.  The form is cached on the tree, which is immutable by
    convention; a tree without an involution or whose fixed set is not a
    path is refused first."""
    cached = tree._cache.get("sampling_form")
    if cached is None:
        tree.trunk()
        cached = tree._cache["sampling_form"] = _sampling_form(tree.n, tree.canonical_key())
    orbits, form = cached
    ratios = [parse_rational(v).as_integer_ratio() for v in lengths]
    if len(ratios) != len(orbits):
        raise InvalidMoveError("need exactly one length per split orbit")
    if any(p <= 0 for p, _ in ratios):
        raise InvalidMoveError("interior sample needs strictly positive lengths")
    if len(set(ratios)) != len(ratios):
        raise InvalidMoveError("interior sample wants pairwise distinct lengths")
    common = math.lcm(*(q for _, q in ratios))
    scaled = [p * (common // q) for p, q in ratios]
    return TropMatrix._from_grid(
        [[sum(map(mul, coeffs, scaled)) for coeffs in row] for row in form], 2 * common
    )


def _sampling_form(n: int, key: frozenset) -> tuple[list, tuple]:
    """The split orbits of the n+n tree with canonical key ``key``, in
    sampling order, and per entry (i, j) the integer coefficients, doubled,
    of its canonicalized matrix in the orbit lengths, read off the split
    masks: 2 (P_ij - P_1i - P_1j + P_11), where orbit k's P_ij is 1 when one
    of its edges has i and j' on its side away from the base point O
    (``trees._away_sides``).  Row i of orbit k is 2 P_i. - s_i - s, with
    s_j = 2 P_1j - P_11."""
    orbits = sorted(key, key=orbit_sort_key)
    indices = range(n)
    zero = [0] * n
    doubled = {orbit: [zero] * n for orbit in orbits}  # orbit -> row i -> 2 P_i.
    for orbit, away, _ in _away_sides(n, key):
        row = [2 * (away >> 2 * j + 1 & 1) for j in indices]
        rows = doubled[orbit]
        for i in indices:
            if away >> 2 * i & 1:
                rows[i] = row  # the sides of an orbit's edges are disjoint
    coeffs = []
    for orbit in orbits:
        rows = doubled[orbit]
        if rows[0] is zero:  # s = 0
            coeffs.append(list(itertools.chain.from_iterable(rows)))
        else:
            first = rows[0][0] >> 1
            s = [x - first for x in rows[0]]
            coeffs.append([x - si - sj for row, si in zip(rows, s) for x, sj in zip(row, s)])
    entries = list(zip(*coeffs)) or [()] * (n * n)  # no orbit: every form is empty
    return orbits, tuple(tuple(entries[i * n : i * n + n]) for i in indices)


def signature(matrix: TropMatrix) -> Signature:
    """Argmin monomial sets of every 3x3 minor (all row/column index pairs)
    of a symmetric matrix, computed on its integer grid by
    :func:`_grid_signature`; the grid's ints are checked for symmetry."""
    if matrix.n < 3:
        raise TropicalError("signatures need n >= 3")
    grid, _ = _integer_grid(matrix, symmetric=True)
    return _grid_signature(grid)


def _grid_signature(grid: list[list[int]]) -> Signature:
    """The signature of a symmetric integer grid: per 3x3 minor, the
    monomials of its least permutation sums.

    The minor sweep (:func:`_minor_sums`) evaluates only the minors (R, C)
    with C >= R; the transpose (C, R) has the same monomial set and enters
    the signature with it."""
    out = []
    for (rows, cols, monomials), totals in zip(_minor_table(len(grid)), _minor_sums(grid)):
        best = min(totals)
        argmin = frozenset(itertools.compress(monomials, map(best.__eq__, totals)))
        out.append((rows, cols, argmin))
        if cols != rows:
            out.append((cols, rows, argmin))
    return frozenset(out)


def _grid_masks(grid: list[list[int]], guard: int) -> Optional[bytes]:
    """The mask form of the signature of a grid of packed linear forms (see
    :func:`_certified_signature`): per 3x3 minor (R, C) with C >= R, in
    ``_minor_table`` order, one byte whose bit k is set when the k-th
    permutation sum of the sweep is the least form.  That form must be
    coefficientwise <= every other: its guard bits must survive in every
    sum less the least one plus ``guard``.  The first minor where they do
    not gives None."""
    masks = []
    for totals in _minor_sums(grid):
        best = min(totals)
        if functools.reduce(and_, [t - best + guard for t in totals]) & guard != guard:
            return None
        masks.append(sum(itertools.compress(_BITS, map(best.__eq__, totals))))
    return bytes(masks)


def _certified_signature(form: tuple) -> Optional[bytes]:
    """The signature of every point of a tree's open cone, in mask form
    (:func:`_grid_masks`), from its sampling form (:func:`_sampling_form`),
    or None when the sweep cannot certify one.

    Each permutation sum of a minor is an integer linear form in the orbit
    lengths.  When one form f is coefficientwise <= every other, a positive
    length vector gives f the least value, and every other form a larger
    one unless it equals f: the argmin set is the forms equal to f on the
    whole cone, so it is every sample's.  Packing puts coefficient k of an
    entry in field k of one int, w bits per field.  A difference of two
    sums has fields of size at most 6 M, M the largest |coefficient|, so
    with guard bit G = 2^(w-1) > 6 M, field k of t - f + G is the
    coefficient difference plus G, in [0, 2 G): no borrow crosses a field,
    and G survives iff t >= f there.  Packed sums of equal forms are equal
    ints, and a dominating form is the least int, so ``min`` finds it.  No
    offset is needed: only differences of sums are read.

    The form is symmetric, so permutations with one monomial have one sum,
    and a minor's argmin permutations are a union of monomial classes: its
    mask and its argmin monomial set determine each other
    (:func:`_signature_masks`, :func:`_mask_signature`)."""
    bound = 6 * max(abs(c) for row in form for coeffs in row for c in coeffs)
    width = bound.bit_length() + 1
    shifts = range(0, width * len(form[0][0]), width)
    guard = sum(1 << shift + width - 1 for shift in shifts)
    grid = [[sum(map(lshift, coeffs, shifts)) for coeffs in row] for row in form]
    return _grid_masks(grid, guard)


def _monomial(rows: Sequence[int], cols: Sequence[int], perm: Permutation) -> Monomial:
    """The monomial in the variables x_{ij} (i <= j) that a permutation of
    the minor (rows, cols) picks out: a sorted multiset of unordered pairs."""
    return tuple(
        sorted((r, c) if r <= c else (c, r) for r, c in zip(rows, map(cols.__getitem__, perm)))
    )


@functools.lru_cache(maxsize=None)
def _minor_table(n: int) -> tuple:
    """Per 3x3 minor (R, C) with C >= R of an n x n matrix, row sets in
    ``itertools.combinations`` order and per row set its column sets from
    R on, as :func:`_minor_sums` sweeps them: its 1-based row and column
    sets and the monomial of every permutation of ``_PERMS``, the order of
    the sweep's sums.

    None of this depends on the entries, so it is built once per size and
    shared, immutable, by every signature of that size."""
    labels = [tuple(i + 1 for i in c) for c in itertools.combinations(range(n), 3)]
    return tuple(
        (rows, cols, tuple(_monomial(rows, cols, p) for p in _PERMS))
        for rows, cols in itertools.combinations_with_replacement(labels, 2)
    )


def _signature_masks(n: int, sig: Signature) -> bytes:
    """A signature of an n x n matrix in mask form: per minor of
    ``_minor_table(n)``, the permutations whose monomial is in the
    minor's argmin set."""
    argmin = {(rows, cols): monomials for rows, cols, monomials in sig}
    return bytes(
        sum(itertools.compress(_BITS, map(argmin[rows, cols].__contains__, monomials)))
        for rows, cols, monomials in _minor_table(n)
    )


def _mask_signature(n: int, masks: bytes, entries: dict) -> Signature:
    """The signature of a mask form: per minor (R, C) the monomials of its
    mask's permutations, and the transpose (C, R) with the same set.  The
    entries of minor k with mask m are made once and kept in ``entries``
    under 64 k + m."""
    table = _minor_table(n)
    slots = list(map(add, range(0, 64 * len(masks), 64), masks))
    for slot in set(slots).difference(entries):
        rows, cols, monomials = table[slot >> 6]
        argmin = frozenset(itertools.compress(monomials, [slot >> b & 1 for b in range(6)]))
        entries[slot] = ((rows, cols, argmin), (cols, rows, argmin))[: 1 + (cols != rows)]
    # from a dict, the set's table is sized once: half the memory of a
    # table grown entry by entry (n = 6: 12555 signatures of 400 entries)
    return frozenset(dict.fromkeys(itertools.chain.from_iterable(map(entries.__getitem__, slots))))


@functools.lru_cache(maxsize=None)
def _mask_map(a: tuple, b: tuple, transposed: bool) -> tuple[int, ...]:
    """Per 6-bit mask, its image when permutation s of a minor becomes
    permutation t with t(a(i)) = b(s(i)), read as the inverse of t when
    ``transposed``."""
    images = []
    for s in _PERMS:
        t = [0, 0, 0]
        for i in range(3):
            t[a[i]] = b[s[i]]
        if transposed:
            t = [t.index(k) for k in range(3)]
        images.append(1 << _PERMS.index(tuple(t)))
    return _subset_table(images, 0)


@functools.lru_cache(maxsize=1024)
def _mask_renaming(n: int, p: tuple[int, ...]) -> tuple[tuple[int, ...], tuple]:
    """The renaming of mask forms that renames index i as p[i - 1]: per
    minor of ``_minor_table(n)``, the index of its source minor and the
    table carrying the source's mask onto its own.  Permutation s of a
    source (R, C) picks the pairs (R[i], C[s(i)]); renamed, they are the
    pairs of the permutation t of (R', C'), R' and C' the sorted images,
    with t(a(i)) = b(s(i)), a(i) and b(j) the places of the images of R[i]
    and C[j].  When R' > C', the table holds (C', R') and the same pairs
    are those of the inverse of t.  The cache holds every permutation up
    to n = 6."""
    table = _minor_table(n)
    index = {(rows, cols): k for k, (rows, cols, _) in enumerate(table)}
    targets = {}
    for k, (rows, cols, _) in enumerate(table):
        new_rows, new_cols = (tuple(sorted(p[i - 1] for i in side)) for side in (rows, cols))
        a = tuple(new_rows.index(p[i - 1]) for i in rows)
        b = tuple(new_cols.index(p[j - 1]) for j in cols)
        transposed = new_rows > new_cols
        target = (new_cols, new_rows) if transposed else (new_rows, new_cols)
        targets[index[target]] = k, _mask_map(a, b, transposed)
    sources, maps = zip(*(targets[k] for k in range(len(table))))
    return sources, maps


def _renamed_masks(n: int, p: tuple[int, ...], masks: bytes) -> bytes:
    """The mask form of a signature renamed by p, index i to p[i - 1]."""
    sources, maps = _mask_renaming(n, p)
    return bytes(map(getitem, maps, map(masks.__getitem__, sources)))


class RefinementCounterExample(NamedTuple):
    tree_key: frozenset
    lengths_a: tuple
    lengths_b: tuple


def _sign_orbits(
    n: int, samples_per_tree: int, catalog: Optional[TreeCatalog]
) -> tuple[Optional[RefinementCounterExample], TreeCatalog, dict, dict]:
    """The size checks, then one signing pass over the catalog's S_n
    orbits: the first counterexample or None, the catalog, representative
    -> mask form for every representative the sweep certifies, and key ->
    signature of every tree of the other orbits, signed at the generic
    samples in catalog order.

    Renaming the indices by p carries a tree K onto p K, and p K's minor
    (R', C') onto K's (p^-1 R', p^-1 C') (its transpose, when the table
    holds that one) with the same six forms, up to one lineality form
    added to all six.  So the certificate holds for every member of an
    orbit or for none, and the members' argmin permutations are the
    representative's, renamed.  The orbit count, the sample length, is
    the same on an orbit too."""
    if samples_per_tree < 2:
        raise ValueError("a refinement check compares at least 2 samples per tree")
    if n > FAN_CAP:
        raise SizeCapError(f"n={n} exceeds fan cap {FAN_CAP}")
    if n < 3:
        raise TropicalError("signatures need n >= 3")
    first, *others = generic_length_tuples(samples_per_tree, n - 1)
    catalog = _catalog_for(n, catalog)
    certified, uncertified = {}, set()
    for rep, members in catalog.orbits().items():
        orbits, form = _sampling_form(n, rep)
        masks = _certified_signature(form) if len(orbits) == len(first) else None
        if masks is None:
            uncertified.update(members)
        else:
            certified[rep] = masks
    sampled = {}
    for key, tree in catalog.items():
        if key in uncertified:
            sig = signature(sample_interior(tree, first))
            for lengths in others:
                if signature(sample_interior(tree, lengths)) != sig:
                    return RefinementCounterExample(key, first, lengths), catalog, {}, {}
            sampled[key] = sig
    return None, catalog, certified, sampled


def refinement_check(
    n: int, samples_per_tree: int = 3, catalog: Optional[TreeCatalog] = None
) -> Optional[RefinementCounterExample]:
    """Within each tree's cone, generic samples must share their signature
    (the tree fan refines the coarse 3x3-minor fan): the first tree, in
    catalog order, whose samples disagree, or None.  One certified sweep
    per S_n orbit representative; a tree of an orbit the sweep cannot
    certify, or whose orbit count is not the sample length, is signed once
    per generic sample, as in :func:`coarse_cells`."""
    return _sign_orbits(n, samples_per_tree, catalog)[0]


def _coarse_groups(n: int, samples_per_tree: int, catalog: Optional[TreeCatalog]) -> tuple:
    """The pass of :func:`coarse_cells`: its counterexample and no groups,
    or None and the catalog keys grouped by mask form, one per coarse cell."""
    bad, catalog, certified, sampled = _sign_orbits(n, samples_per_tree, catalog)
    orbits, groups = catalog.orbits(), {}
    for rep, masks in certified.items():
        for key, p in orbits[rep].items():
            groups.setdefault(_renamed_masks(n, p, masks), []).append(key)
    for key, sig in sampled.items():
        groups.setdefault(_signature_masks(n, sig), []).append(key)
    return bad, groups


def coarse_cells(
    n: int, samples_per_tree: int = 3, catalog: Optional[TreeCatalog] = None
) -> tuple[Optional[RefinementCounterExample], list[tuple[Signature, tuple]]]:
    """One signing pass over the catalog.  Returns the first tree whose
    generic samples disagree, with no groups, or None and the trees
    grouped by the signature of their first sample, one group per coarse
    cell (at n=3 the 12 symbic cones fall onto 9 coarse cells, three of
    which split into two cones each).

    The pass (:func:`_sign_orbits`) certifies one tree per S_n orbit, the
    orbit's representative, exactly, on its whole cone, so every member's
    signature is the representative's, renamed, and no sample is taken;
    the trees of an orbit it cannot certify, or whose orbit count is not
    the sample length, are signed at each generic sample, and fewer than
    two samples per tree are refused.  A mask form and its monomial set
    determine each other, so the members are grouped by mask form
    (:func:`_coarse_groups`) and each group's signature is built once.
    The size checks come before any enumeration."""
    bad, groups = _coarse_groups(n, samples_per_tree, catalog)
    if bad is not None:
        return bad, []
    order = {key: cell_sort_key(key) for keys in groups.values() for key in keys}
    entries: dict = {}
    cells = [
        (_mask_signature(n, masks, entries), tuple(sorted(keys, key=order.get)))
        for masks, keys in groups.items()
    ]
    return None, sorted(cells, key=lambda cell: (len(cell[1]), list(map(order.get, cell[1]))))
