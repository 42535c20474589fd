"""Counting and enumerating regular symbic trees.

Three independent routes to the same numbers: the convolution recurrence for
one-vertex-trunk trees, exact truncated power series for the generating
functions, and constructive enumeration of the trees themselves.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .trees import Orbit, SymbicTree, _label_bit, _orbit_masks, _split_orbit
from .tropical import parse_rational

SERIES_ORDER_CAP = 30
ENUM_CAP = 7
FACE_CAP = 6


class SizeCapError(ValueError):
    """Requested n exceeds the documented desk-scale cap."""


# -- closed counts -------------------------------------------------------------


def count_one_vertex_trunk(n: int) -> int:
    """Number of n+n regular symbic trees whose trunk is a single vertex:
    a_1 = a_2 = 1, a_n = sum_k C(n, k) a_k a_{n-k} for n >= 3 (a_0 = 0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a = [0, 1, 1]
    for m in range(3, n + 1):
        a.append(sum(math.comb(m, k) * a[k] * a[m - k] for k in range(1, m)))
    return a[n]


def count_full_trunk(n: int) -> int:
    """Number of n+n regular symbic trees with an n-vertex trunk: a
    permutation of n read up to reversal, so n!/2 for n >= 2."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return 1 if n < 2 else math.factorial(n) // 2


# -- exact truncated power series -------------------------------------------------


class RationalSeries:
    """Truncated power series with exact rational coefficients, parsed as
    matrix entries are: a float or a bool raises ``TropicalError``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[object], order: Optional[int] = None):
        values = [parse_rational(c) for c in coeffs]
        if order is not None:
            values = values[: order + 1] + [Fraction(0)] * (order + 1 - len(values))
        if not values:
            raise ValueError("series needs at least the constant term")
        self.coeffs = tuple(values)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value: object, order: int) -> "RationalSeries":
        return cls([value], order)

    def egf_count(self, k: int) -> Fraction:
        """k! [x^k] of the series; an integer for counting series."""
        return self.coeffs[k] * math.factorial(k)

    def _match(self, other: "RationalSeries") -> int:
        if self.order != other.order:
            raise ValueError("series order mismatch")
        return self.order

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        self._match(other)
        return RationalSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        self._match(other)
        return RationalSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, factor: object) -> "RationalSeries":
        f = parse_rational(factor)
        return RationalSeries([f * a for a in self.coeffs])

    def shift_const(self, value: object) -> "RationalSeries":
        out = list(self.coeffs)
        out[0] += parse_rational(value)
        return RationalSeries(out)

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        order = self._match(other)
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return RationalSeries(out)

    def reciprocal(self) -> "RationalSeries":
        if self.coeffs[0] == 0:
            raise ValueError("reciprocal needs a nonzero constant term")
        inv = [Fraction(1) / self.coeffs[0]]
        for k in range(1, self.order + 1):
            acc = sum(self.coeffs[i] * inv[k - i] for i in range(1, k + 1))
            inv.append(-acc / self.coeffs[0])
        return RationalSeries(inv)

    def sqrt(self) -> "RationalSeries":
        """Square root for constant term 1: solve y*y = s triangularly."""
        if self.coeffs[0] != 1:
            raise ValueError("sqrt needs constant term 1")
        y = [Fraction(1)]
        for k in range(1, self.order + 1):
            acc = sum(y[i] * y[k - i] for i in range(1, k))
            y.append((self.coeffs[k] - acc) / 2)
        return RationalSeries(y)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalSeries) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"RationalSeries({[str(c) for c in self.coeffs]})"


def _discriminant(order: int) -> RationalSeries:
    return RationalSeries([1, -4, 2], order)


def series_one_vertex_trunk(order: int) -> RationalSeries:
    """E1(x) = (1 - sqrt(1 - 4x + 2x^2)) / 2."""
    if order > SERIES_ORDER_CAP:
        raise SizeCapError(f"series order {order} > cap {SERIES_ORDER_CAP}")
    root = _discriminant(order).sqrt()
    return (RationalSeries([1], order) - root).scale(Fraction(1, 2))


def series_full_trunk(order: int) -> RationalSeries:
    """E2(x) = (1 + x + 1/(1 - x)) / 2."""
    if order > SERIES_ORDER_CAP:
        raise SizeCapError(f"series order {order} > cap {SERIES_ORDER_CAP}")
    geom = RationalSeries([1, -1], order).reciprocal()
    return (RationalSeries([1, 1], order) + geom).scale(Fraction(1, 2))


def series_regular(order: int) -> RationalSeries:
    """E(x) = 3/4 - sqrt(1-4x+2x^2)/4 + 1/(1 + sqrt(1-4x+2x^2))."""
    if order > SERIES_ORDER_CAP:
        raise SizeCapError(f"series order {order} > cap {SERIES_ORDER_CAP}")
    root = _discriminant(order).sqrt()
    return (
        RationalSeries.constant(Fraction(3, 4), order)
        - root.scale(Fraction(1, 4))
        + root.shift_const(1).reciprocal()
    )


def count_regular(n: int, method: str = "recurrence") -> int:
    """Total number of n+n regular symbic trees by one of three routes."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if method == "egf":
        value = series_regular(max(n, 1)).egf_count(n)
        assert value.denominator == 1
        return int(value)
    if method == "constructive":
        return 1 if n == 0 else len(enumerate_regular(n))
    if method != "recurrence":
        raise ValueError("method must be recurrence, egf, or constructive")
    if n == 0:
        return 1
    # set partitions into trunk blocks weighted by one-vertex-trunk counts,
    # then arranged along the trunk up to reversal
    a = [count_one_vertex_trunk(k) for k in range(n + 1)]
    parts = [[0] * (n + 1) for _ in range(n + 1)]  # parts[m][j]: j items, m blocks
    parts[0][0] = 1
    for m in range(1, n + 1):
        for j in range(1, n + 1):
            parts[m][j] = sum(
                math.comb(j - 1, k - 1) * a[k] * parts[m - 1][j - k]
                for k in range(1, j + 1)
            )
    def weight(m: int) -> int:
        return 1 if m <= 1 else math.factorial(m) // 2

    return sum(weight(m) * parts[m][n] for m in range(1, n + 1))


# -- constructive enumeration ------------------------------------------------------


def set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [[first] + partial[i]] + partial[i + 1 :]
        yield [[first]] + partial


def colored_branch_shapes(labels: tuple[int, ...]) -> list:
    """All one-vertex-trunk branch structures on the given row indices, up
    to the color swap (normalized so the smallest index is row-colored).

    A structure is a signed index (single leaf) or a pair ("N", left, right);
    leaves sharing a parent must carry opposite colors.  The structures of
    each subset are made once per call and shared by every structure that
    contains them.
    """

    @functools.cache
    def rec(subset: tuple[int, ...]) -> list:
        if len(subset) == 1:
            return [subset[0], -subset[0]]
        head, tail = subset[0], subset[1:]
        out = []
        for bits in range(2 ** len(tail) - 1):
            left = (head,) + tuple(t for i, t in enumerate(tail) if bits >> i & 1)
            right = tuple(t for i, t in enumerate(tail) if not bits >> i & 1)
            for lt in rec(left):
                for rt in rec(right):
                    if isinstance(lt, int) and isinstance(rt, int) and (lt > 0) == (rt > 0):
                        continue
                    out.append(("N", lt, rt))
        return out

    return [s for s in rec(labels) if _color_of(s, labels[0]) > 0]


def _color_of(structure, index: int) -> int:
    """The signed leaf of ``index`` in a branch structure, 0 if absent."""
    if isinstance(structure, int):
        return structure if abs(structure) == index else 0
    return _color_of(structure[1], index) or _color_of(structure[2], index)


class TreeCatalog:
    """All regular n+n symbic trees, keyed by canonical combinatorial type."""

    __slots__ = ("n", "trees", "_orbits")

    def __init__(self, n: int, trees: dict[frozenset, SymbicTree]):
        self.n = n
        self.trees = trees
        self._orbits: Optional[dict] = None

    def orbits(self) -> dict[frozenset, dict[frozenset, tuple[int, ...]]]:
        """The orbits of the keys under renaming the indices 1..n, found on
        the keys alone: representative -> {member: p}, the representative
        being the first key of its orbit in catalog order (its own member,
        p the identity) and p a permutation carrying it onto the member,
        index i to p[i - 1], as ``tree.relabel({i: p[i - 1]})`` does.
        Cached; a catalog not closed under the renamings is refused.  One
        sweep of S_n per representative: its key is renamed by every
        permutation, in ``itertools.permutations`` order, one split mask per
        orbit through the permutation's bit table, and each member keeps
        the first permutation that reaches it."""
        if self._orbits is not None:
            return self._orbits
        n = self.n
        perms = list(itertools.permutations(range(1, n + 1)))
        tables = [
            _bit_table(tuple((s * i, s * p[i - 1]) for i in range(1, n + 1) for s in (1, -1)))
            for p in perms
        ]
        orbits: dict[frozenset, dict[frozenset, tuple[int, ...]]] = {}
        seen: set[frozenset] = set()
        for rep in self.trees:
            if rep in seen:
                continue
            masks = [_orbit_masks(orbit)[0] for orbit in rep]
            members: dict[frozenset, tuple[int, ...]] = {}
            for p, table in zip(perms, tables):
                image = _renamed_orbits(masks, table, n)
                if image not in self.trees:
                    raise ValueError("catalog is not closed under renaming the indices")
                members.setdefault(image, p)
            seen.update(members)
            orbits[rep] = members
        self._orbits = orbits
        return orbits

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self) -> Iterator[SymbicTree]:
        return iter(self.trees.values())

    def items(self):
        return self.trees.items()


def _assemble_tree(
    n: int,
    blocks: Sequence[tuple[int, ...]],
    structures: Sequence[object],
    rng: Optional[random.Random] = None,
) -> SymbicTree:
    """One trunk vertex per block in order, a mirrored branch pair at each.
    All lengths 1 unless an rng supplies random positive rationals; mirror
    copies share lengths so the metric stays symmetric."""

    def rand_length() -> Fraction:
        if rng is None:
            return Fraction(1)
        return Fraction(rng.randint(1, 12), rng.randint(1, 12))

    adj: dict[int, dict[int, Optional[Fraction]]] = {}
    leaf_vertex: dict[int, int] = {}
    counter = [-1]
    length_memo: dict[int, Fraction] = {}

    def vertex() -> int:
        counter[0] += 1
        adj[counter[0]] = {}
        return counter[0]

    def edge(u: int, v: int, length: Optional[Fraction]) -> None:
        adj[u][v] = length
        adj[v][u] = length

    def edge_length(structure) -> Fraction:
        key = id(structure)
        if key not in length_memo:
            length_memo[key] = rand_length()
        return length_memo[key]

    def grow(structure, mirrored: bool) -> int:
        if isinstance(structure, int):
            label = -structure if mirrored else structure
            lv = vertex()
            leaf_vertex[label] = lv
            return lv
        _, left, right = structure
        root = vertex()
        for child in (left, right):
            sub = grow(child, mirrored)
            edge(root, sub, None if isinstance(child, int) else edge_length(child))
        return root

    trunk_vertices = [vertex() for _ in blocks]
    sigma = {t: t for t in trunk_vertices}
    for t1, t2 in zip(trunk_vertices, trunk_vertices[1:]):
        edge(t1, t2, rand_length())
    for t, structure in zip(trunk_vertices, structures):
        start = counter[0] + 1
        for mirrored in (False, True):
            root = grow(structure, mirrored)
            edge(t, root, None if isinstance(structure, int) else edge_length(structure))
        # both copies grow in the same order: their vertex ids pair up
        half = (counter[0] + 1 - start) // 2
        for v in range(start, start + half):
            sigma[v], sigma[v + half] = v + half, v
    return SymbicTree(n, adj, leaf_vertex, involution_hint=sigma)


class _CatalogTree(SymbicTree):
    """A catalog tree holding its code and key.  The key answers
    :meth:`split_orbits`; any other use reads an unset slot, which builds
    the tree once with :func:`_assemble_tree` (the same ids, lengths and
    involution), refuses it without an involution, as the key would, and
    adopts its graph and cache."""

    __slots__ = ("_code", "_key")

    def __init__(self, n: int, code: tuple, key: frozenset):
        self.n = n
        self._code = code
        self._key = key

    def split_orbits(self) -> frozenset:
        return self._key

    def __getattr__(self, name: str):
        if name not in ("adj", "leaf_vertex", "_cache"):
            raise AttributeError(name)
        tree = _assemble_tree(self.n, *self._code)
        tree.involution()
        self.adj, self.leaf_vertex, self._cache = tree.adj, tree.leaf_vertex, tree._cache
        return getattr(self, name)


def _regular_codes(n: int) -> Iterator[tuple[tuple, tuple]]:
    """Every regular n+n cell as the (block sequence, branch structures) code
    that :func:`_assemble_tree` consumes: set partitions into trunk blocks
    (ordered up to reversal), each block realized by every one-vertex-trunk
    branch structure."""
    if n < 1:
        raise ValueError("n must be >= 1 (n=0 counts the empty tree)")
    shapes_memo: dict[tuple[int, ...], list] = {}

    def shapes(block: tuple[int, ...]) -> list:
        if block not in shapes_memo:
            shapes_memo[block] = colored_branch_shapes(block)
        return shapes_memo[block]

    for partition in set_partitions(tuple(range(1, n + 1))):
        blocks = [tuple(sorted(b)) for b in partition]
        if len(blocks) == 1:
            orders = [tuple(blocks)]
        else:
            orders = [
                seq
                for seq in itertools.permutations(blocks)
                if seq[0][0] < seq[-1][0]
            ]
        for seq in orders:
            for combo in itertools.product(*(shapes(b) for b in seq)):
                yield seq, combo


def _code_orbits(
    n: int, seq: Sequence[tuple[int, ...]], combo: Sequence[object]
) -> frozenset:
    """The split orbits of ``_assemble_tree(n, seq, combo)``, read off the
    code.  A trunk edge is a one-split orbit: the blocks before it, in both
    colors.  A non-leaf subtree S of a branch structure is the orbit
    {S, swap(S)} of the edge above it and its mirror.  On a one-vertex
    trunk the two branch edges smooth into one edge with a fixed midpoint,
    whose split is S | swap(S): the same orbit."""
    orbits = []
    before = 0
    for block in seq[:-1]:
        for label in block:
            before |= 1 << _label_bit(label) | 1 << _label_bit(-label)
        orbits.append(_split_orbit(before, n))

    def walk(structure) -> int:
        if isinstance(structure, int):
            return 1 << _label_bit(structure)
        mask = walk(structure[1]) | walk(structure[2])
        orbits.append(_split_orbit(mask, n))
        return mask

    for structure in combo:
        walk(structure)
    return frozenset(orbits)


def _subset_table(parts: Sequence, empty):
    """Per mask over ``parts`` (bit k for parts[k]), the union of its parts."""
    table = [empty]
    for part in parts:
        table += [t | part for t in table]
    return tuple(table)


def _byte_tables(images: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The renaming of bit masks that sends bit k to the mask images[k]: a
    subset table per byte, the last padded to 8 images with 0, so that
    bits past the images drop out."""
    padded = list(images) + [0] * (-len(images) % 8)
    return tuple(_subset_table(padded[low : low + 8], 0) for low in range(0, len(padded), 8))


def _renamed_mask(tables: tuple, mask: int) -> int:
    """The image of a mask under the byte tables of :func:`_byte_tables`."""
    image = 0
    for table in tables:
        image |= table[mask & 255]
        mask >>= 8
    return image


@functools.lru_cache(maxsize=1 << 12)
def _bit_table(moves: tuple) -> tuple[tuple[int, ...], ...]:
    """The byte tables renaming label masks by a signed label map, given as
    its (label, image) pairs; unmapped labels drop out."""
    image = {_label_bit(label): 1 << _label_bit(target) for label, target in moves}
    return _byte_tables([image.get(k, 0) for k in range(max(image, default=-1) + 1)])


def _renamed_orbits(masks: Sequence[int], table: tuple, m: int) -> frozenset:
    """The orbits of the split masks, one per orbit, renamed by a bit table
    onto the index pairs 1..m; a split left with fewer than two labels on a
    side drops out."""
    out = []
    for mask in masks:
        side = _renamed_mask(table, mask)
        if 2 <= side.bit_count() <= 2 * m - 2:
            out.append(_split_orbit(side, m))
    return frozenset(out)


def _relabelled_orbits(orbits: frozenset, label_map: dict) -> frozenset:
    """Split orbits moved by a signed label map that sends index pairs onto
    the pairs 1..m (i, i' to j, j' or to j', j): labels outside the map drop
    out of every split, a split left with fewer than two labels on a side
    drops out (with its mirror, which has the same sizes), and each split is
    stored as its side without +1, as SymbicTree.splits stores it.  Deleting
    leaf pairs from a tree restricts its splits and its involution, so this
    is the key of the tree with the unmapped leaves deleted and the rest
    renamed; a map onto every label deletes nothing and only renames.  Such
    a map commutes with the color swap, so one split mask per orbit is
    renamed, through the cached bit table of the map."""
    masks = [_orbit_masks(orbit)[0] for orbit in orbits]
    return _renamed_orbits(masks, _bit_table(tuple(label_map.items())), len(label_map) // 2)


def enumerate_regular(n: int) -> TreeCatalog:
    """Constructive catalog of all regular n+n symbic trees: one catalog
    tree per code of :func:`_regular_codes`, keyed by the key that
    :func:`_code_orbits` reads off the code and built on first use."""
    if n > ENUM_CAP:
        raise SizeCapError(f"n={n} exceeds enumeration cap {ENUM_CAP}")
    trees: dict[frozenset, SymbicTree] = {}
    for code in _regular_codes(n):
        key = _code_orbits(n, *code)
        if key in trees:
            raise AssertionError("duplicate combinatorial type generated")
        trees[key] = _CatalogTree(n, code, key)
    return TreeCatalog(n, trees)


def _catalog_for(n: int, catalog: Optional[TreeCatalog]) -> TreeCatalog:
    """The n+n catalog a whole-catalog call sweeps: enumerated when none is
    given, refused when the one given is for another n."""
    if catalog is None:
        return enumerate_regular(n)
    if catalog.n != n:
        raise ValueError(f"catalog is for n={catalog.n}, not n={n}")
    return catalog


def random_regular_tree(n: int, rng: random.Random) -> SymbicTree:
    """A random regular n+n symbic tree with random positive rational
    lengths (every shape reachable; uniformity not promised)."""
    items = list(range(1, n + 1))
    blocks: list[list[int]] = []
    for item in items:
        if blocks and rng.random() < 0.6:
            rng.choice(blocks).append(item)
        else:
            blocks.append([item])
    rng.shuffle(blocks)
    seq = [tuple(sorted(b)) for b in blocks]

    def random_structure(subset: tuple[int, ...]):
        if len(subset) == 1:
            return subset[0] if rng.random() < 0.5 else -subset[0]
        head, *tail = subset
        chosen = [t for t in tail if rng.random() < 0.5]
        left = tuple([head] + chosen)
        right = tuple(t for t in tail if t not in chosen)
        if not right:
            right = (left[-1],)
            left = left[:-1]
        lt = random_structure(left)
        rt = random_structure(right)
        if isinstance(lt, int) and isinstance(rt, int) and (lt > 0) == (rt > 0):
            rt = -rt
        return ("N", lt, rt)

    def normalize(structure, smallest: int):
        if _color_of(structure, smallest) < 0:
            def flip(s):
                if isinstance(s, int):
                    return -s
                return ("N", flip(s[1]), flip(s[2]))

            return flip(structure)
        return structure

    combo = [normalize(random_structure(b), b[0]) for b in seq]
    return _assemble_tree(n, seq, combo, rng=rng)


# -- faces of the simplicial complex -----------------------------------------------


def enumerate_faces(n: int) -> dict[int, set[frozenset]]:
    """Map dimension (number of surviving orbits) -> set of face keys.  A
    face is a nonempty subset of a cell's split orbits (the empty face is
    the lineality class and is excluded); the orbits are read off each
    cell's code by :func:`_code_orbits`, so no tree is built."""
    if n > FACE_CAP:
        raise SizeCapError(f"n={n} exceeds face enumeration cap {FACE_CAP}")
    by_dim: dict[int, set[frozenset]] = {}
    for seq, combo in _regular_codes(n):
        orbits = _code_orbits(n, seq, combo)
        for r in range(1, len(orbits) + 1):
            faces = map(frozenset, itertools.combinations(orbits, r))
            by_dim.setdefault(r, set()).update(faces)
    return by_dim


def orbit_sort_key(orbit: Orbit) -> tuple:
    return tuple(
        sorted(tuple(sorted(split, key=lambda l: (abs(l), l < 0))) for split in orbit)
    )


def cell_sort_key(cell: frozenset) -> tuple:
    """Sort key of a set of orbits: a cell, a tree's canonical key."""
    return tuple(sorted(orbit_sort_key(o) for o in cell))
