"""Seeded workloads of the symbic benchmark.

A workload turns a seed into a fixed list of items.  An item is one timed
call into the library's public API (``call``), a preparation that runs
before the timer starts (``prepare``, e.g. a fresh copy of a tree so that no
per-instance cache carries over between passes) and a check of the outcome
against an answer known by construction (``check``), which runs after the
timer stops.  ``state`` carries results from one item of a pass to the next
(the catalog built by one call is the input of the next).

Every item belongs to a latency class: ``first`` and ``second`` are the two
per-item streams of a workload, ``call`` marks a whole-catalog call that only
counts toward the pass time.  What the two streams are differs per workload
and is listed in README.md.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import symbic as S

FIRST, SECOND, CALL = "first", "second", "call"

# Regular n+n symbic trees per n: the paper's counts.
CATALOG_COUNTS = {0: 1, 1: 1, 2: 2, 3: 12, 4: 111, 5: 1395, 6: 22185}


def _no_input(state: dict) -> None:
    return None


@dataclass(frozen=True)
class Item:
    kind: str
    call: Callable[[Any], Any]
    check: Callable[[Any, dict], bool]
    prepare: Callable[[dict], Any] = _no_input


# Items per pass.  The n mixes put p50 and the tail percentile of every
# stream well inside one size class (README.md, "Size mixes").
SIZES = {
    "matrices": {
        "accept": {3: 8, 4: 8, 5: 40, 6: 3, 7: 1, 8: 1},
        "reject": {3: 3, 4: 3, 5: 3, 6: 40},
    },
    "cones": {"trees": {4: 30, 5: 2}, "catalog_n": 4},
    "catalog": {"catalog_n": 5, "trees_n": 7, "trees": 150},
}

# A few seconds per pass in all; the smoke test runs these.
TINY_SIZES = {
    "matrices": {"accept": {3: 3, 4: 2, 5: 1}, "reject": {3: 2, 4: 2, 5: 1}},
    "cones": {"trees": {3: 2, 4: 2}, "catalog_n": 3},
    "catalog": {"catalog_n": 4, "trees_n": 5, "trees": 4},
}


def pass_order(items: list[Item]) -> list[int]:
    """A pass runs the per-item streams, then the whole-catalog calls in
    order (later calls may use what earlier ones built)."""
    return [i for i, item in enumerate(items) if item.kind != CALL] + [
        i for i, item in enumerate(items) if item.kind == CALL
    ]


def build(workload: str, seed: int, sizes: dict | None = None) -> list[Item]:
    """The item list of one pass; the same seed gives the same items."""
    sizes = (sizes or SIZES)[workload]
    rng = random.Random(f"symbic-{workload}-{seed}")
    return ITEM_LISTS[workload](rng, sizes)


# -- shared helpers -------------------------------------------------------------


def _snapshot(tree: S.SymbicTree) -> tuple:
    return tree.n, {u: dict(nb) for u, nb in tree.adj.items()}, dict(tree.leaf_vertex)


def _fresh(snapshot: tuple) -> S.SymbicTree:
    """A new instance of a tree: the constructor normalizes its input in
    place and instances cache derived data, so every pass starts cold."""
    n, adj, leaves = snapshot
    return S.SymbicTree(n, {u: dict(nb) for u, nb in adj.items()}, dict(leaves))


def _internal_lengths(tree: S.SymbicTree) -> list:
    return sorted(length for _, _, length in tree.internal_edges())


# -- matrices: the matrix -> tree correspondence --------------------------------


def _planted_minor(matrix: S.TropMatrix) -> S.TropMatrix:
    """Overwrite the principal 3x3 block on the last three indices with 0 on
    the diagonal and K off it, K above every other entry: the identity is
    then the unique argmin of that minor, so the symmetric tropical rank
    exceeds 2.  Leaf labels are random, so the block covers random leaves.
    On the last indices it is the last 3x3 minor the scan reaches; at random
    indices the cost of a reject hinged on where the scan met it."""
    rows = [list(r) for r in matrix.rows]
    big = max(max(r) for r in rows) + 1
    block = range(matrix.n - 3, matrix.n)
    for i in block:
        for j in block:
            rows[i][j] = Fraction(0) if i == j else big
    return S.TropMatrix(rows)


def _accept_item(tree: S.SymbicTree) -> Item:
    matrix = S.matrix_from_tree(tree)
    key, lengths = tree.canonical_key(), _internal_lengths(tree)

    def check(rebuilt, state) -> bool:
        return (
            isinstance(rebuilt, S.SymbicTree)
            and rebuilt.canonical_key() == key
            and _internal_lengths(rebuilt) == lengths
            and S.matrices_agree_mod_lineality(S.matrix_from_tree(rebuilt), matrix)
        )

    return Item(FIRST, lambda _: S.tree_from_matrix(matrix), check)


def _reject_item(matrix: S.TropMatrix) -> Item:
    return Item(
        SECOND,
        lambda _: S.tree_from_matrix(matrix),
        lambda outcome, state: isinstance(outcome, S.NotRankTwoError),
    )


def matrices(rng: random.Random, sizes: dict) -> list[Item]:
    items = []
    for n, count in sizes["accept"].items():
        items += [_accept_item(S.random_regular_tree(n, rng)) for _ in range(count)]
    for n, count in sizes["reject"].items():
        for _ in range(count):
            tree_matrix = S.matrix_from_tree(S.random_regular_tree(n, rng))
            items.append(_reject_item(_planted_minor(tree_matrix)))
    rng.shuffle(items)
    return items


# -- cones: Cayley matroids and fan signatures ----------------------------------


def _matroid_item(snapshot: tuple) -> Item:
    n = snapshot[0]

    def call(tree):
        return S.cayley_matrix(tree).rank(), S.matroid_bases(tree)

    def check(outcome, state) -> bool:
        rank, bases = outcome
        if rank != 2 * n - 1 or not bases:
            return False
        if any(len(b) != 2 * n - 1 for b in bases):
            return False
        cm = S.cayley_matrix(_fresh(snapshot))
        ordered = sorted(tuple(sorted(b)) for b in bases)
        return all(
            S.exact_rank(list(zip(*(cm.column(p) for p in basis)))) == 2 * n - 1
            for basis in (ordered[0], ordered[-1])
        )

    return Item(FIRST, call, check, lambda state: _fresh(snapshot))


def _fan_item(snapshot: tuple) -> Item:
    n = snapshot[0]
    first, second = S.fan.generic_length_tuples(2, n - 1)

    def call(tree):
        return (
            S.signature(S.sample_interior(tree, first)),
            S.signature(S.sample_interior(tree, second)),
        )

    def check(outcome, state) -> bool:
        a, b = outcome
        return a == b and len(a) == math.comb(n, 3) ** 2

    return Item(SECOND, call, check, lambda state: _fresh(snapshot))


def _catalog_calls(n: int) -> list[Item]:
    """Whole-catalog calls made the way the acceptance criteria make them:
    each call enumerates the catalog itself."""

    def keep_union(bases, state) -> bool:
        state["union"] = bases
        return bool(bases)

    def same_report(report, state) -> bool:
        return report.n == n and report.union_all_count == len(state["union"])

    return [
        Item(CALL, lambda _: S.union_bases(n, "all"), keep_union),
        Item(
            CALL,
            lambda _: S.union_bases(n, "caterpillar_branches"),
            lambda bases, state: bases == state["union"],
        ),
        Item(CALL, lambda _: S.basis_transition_check(n), lambda out, state: out is None),
        Item(CALL, lambda _: S.conjecture_scan(n), same_report),
        Item(CALL, lambda _: S.refinement_check(n, 3), lambda out, state: out is None),
    ]


def cones(rng: random.Random, sizes: dict) -> list[Item]:
    items = []
    for n, count in sizes["trees"].items():
        for _ in range(count):
            snapshot = _snapshot(S.random_regular_tree(n, rng))
            items += [_matroid_item(snapshot), _fan_item(snapshot)]
    rng.shuffle(items)
    return items + _catalog_calls(sizes["catalog_n"])


# -- catalog: enumeration, shelling, faces, tree construction and surgery --------


def _relabel_item(tree: S.SymbicTree, rng: random.Random) -> Item:
    """Rename leaf indices by a random permutation.  The expected key moves
    every split's labels and, where label 1 lands in a split, takes the
    other side (keys store the side without label 1)."""
    n, snapshot = tree.n, _snapshot(tree)
    targets = list(range(1, n + 1))
    rng.shuffle(targets)
    perm = dict(zip(range(1, n + 1), targets))
    every = frozenset(s * i for i in range(1, n + 1) for s in (1, -1))

    def moved(split: frozenset) -> frozenset:
        side = frozenset(perm[l] if l > 0 else -perm[-l] for l in split)
        return every - side if 1 in side else side

    key = frozenset(frozenset(moved(s) for s in orbit) for orbit in tree.canonical_key())
    return Item(
        FIRST,
        lambda t: t.relabel(perm),
        lambda out, state: out.canonical_key() == key,
        lambda state: _fresh(snapshot),
    )


def _surgery_item(tree: S.SymbicTree) -> Item:
    """Delete the top leaf pair and attach it again where it was."""
    key, snapshot = tree.canonical_key(), _snapshot(tree)

    def call(t):
        smaller, place = t.delete_top_pair()
        return smaller, smaller.attach_top_pair(place)

    def check(outcome, state) -> bool:
        smaller, back = outcome
        return smaller.n == tree.n - 1 and back.canonical_key() == key

    return Item(SECOND, call, check, lambda state: _fresh(snapshot))


def _is_pure_complex(by_dim: dict, cells: set, top: int) -> bool:
    """The faces are exactly the nonempty subsets of the catalog's cells:
    the top dimension holds the cells and each lower dimension holds the
    facets of the one above."""
    if max(by_dim) != top or by_dim[top] != cells:
        return False
    for d in range(top, 1, -1):
        facets = {face - {v} for face in by_dim[d] for v in face}
        if facets != by_dim.get(d - 1, set()):
            return False
    return True


def catalog(rng: random.Random, sizes: dict) -> list[Item]:
    n = sizes["catalog_n"]

    def keep_catalog(cat, state) -> bool:
        state["catalog"] = cat
        state["keys"] = {key for key, _ in cat.items()}
        return len(cat) == CATALOG_COUNTS[n] == len(state["keys"])

    def keep_cells(order, state) -> bool:
        state["cells"] = [t.split_orbits() for t in order]
        return len(order) == len(state["keys"]) and set(state["cells"]) == state["keys"]

    calls = [
        Item(CALL, lambda _: S.enumerate_regular(n), keep_catalog),
        Item(
            CALL,
            lambda cat: S.shelling_order(n, cat),
            keep_cells,
            lambda state: state["catalog"],
        ),
        Item(
            CALL,
            lambda cells: S.verify_shelling(cells),
            lambda out, state: out is None,
            lambda state: state["cells"],
        ),
        Item(
            CALL,
            lambda _: S.enumerate_faces(n),
            lambda by_dim, state: _is_pure_complex(by_dim, state["keys"], n - 1),
        ),
    ]
    trees = [S.random_regular_tree(sizes["trees_n"], rng) for _ in range(sizes["trees"])]
    items = [_relabel_item(t, rng) for t in trees] + [_surgery_item(t) for t in trees]
    rng.shuffle(items)
    return calls + items


ITEM_LISTS = {"matrices": matrices, "cones": cones, "catalog": catalog}
