"""Acceptance checks: one callable per criterion, shared by the CLI
``selftest`` subcommand and the pytest acceptance suite.  Everything asserted
here is exact; there are no tolerances anywhere."""

from __future__ import annotations

import functools
import itertools
import random
import time
from fractions import Fraction
from typing import NamedTuple

from .correspond import (
    leaf_distances,
    leaf_metric_from_matrix,
    lineality_identity_check,
    matrices_agree_mod_lineality,
    matrix_from_tree,
    path_matrix_from_tree,
    tree_from_matrix,
)
from .counting import (
    count_full_trunk,
    count_one_vertex_trunk,
    count_regular,
    enumerate_regular,
    random_regular_tree,
)
from .fan import coarse_cells, signature
from .matroid import (
    basis_transition_check,
    cayley_matrix,
    conjecture_scan,
    union_bases,
)
from .shelling import TreeComparator, shelling_check
from .trees import SymbicTree
from .tropical import (
    TropMatrix,
    canonicalize_mod_lineality,
    hilbert_distance,
    rank_one_matrix,
    sym_trop_rank,
    trop_rank,
)


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str


def four_pair_chain_tree(a, b, c) -> SymbicTree:
    """The worked 4+4 example: trunk M - Q - R, a (1, 2') cherry pair
    hanging at M at distance a, leaves 3, 3' at Q (trunk edge b) and
    4, 4' at R (trunk edge c)."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    adj: dict = {}

    def edge(u, v, length):
        adj.setdefault(u, {})[v] = length
        adj.setdefault(v, {})[u] = length

    # 0 = M, 1 = Q, 2 = R, 3 = cherry(1,2'), 4 = cherry(2,1')
    edge(0, 1, b)
    edge(1, 2, c)
    edge(0, 3, a)
    edge(0, 4, a)
    leaves = {}
    for label, att, vid in (
        (1, 3, 10), (-2, 3, 11), (2, 4, 12), (-1, 4, 13),
        (3, 1, 14), (-3, 1, 15), (4, 2, 16), (-4, 2, 17),
    ):
        edge(vid, att, None)
        leaves[label] = vid
    return SymbicTree(4, adj, leaves)


def four_pair_double_cherry_tree(a, b, c) -> SymbicTree:
    """The worked Cayley example: one-vertex trunk O; each branch forks at
    distance a into cherries (1, 2') at distance b and (3, 4') at distance
    c from O (so b > a and c > a are required)."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if not (Fraction(0) < a < b and a < c):
        raise ValueError("lengths must satisfy 0 < a < b, a < c")
    adj: dict = {}

    def edge(u, v, length):
        adj.setdefault(u, {})[v] = length
        adj.setdefault(v, {})[u] = length

    # 0 = O; 1, 2 = fork vertices; 3..6 = cherry vertices
    edge(0, 1, a)
    edge(0, 2, a)
    edge(1, 3, b - a)
    edge(1, 4, c - a)
    edge(2, 5, b - a)
    edge(2, 6, c - a)
    leaves = {}
    for label, att, vid in (
        (1, 3, 10), (-2, 3, 11), (3, 4, 12), (-4, 4, 13),
        (-1, 5, 14), (2, 5, 15), (-3, 6, 16), (4, 6, 17),
    ):
        edge(vid, att, None)
        leaves[label] = vid
    return SymbicTree(4, adj, leaves)


# the worked Cayley block matrix, columns relabeled by their matrix
# coordinates; node rows are the three fork parameters, then the four
# simultaneous-scaling rows
_CAYLEY_COLUMNS = [
    (1, 4), (2, 3), (1, 2), (3, 4), (1, 1),
    (1, 3), (2, 2), (2, 4), (3, 3), (4, 4),
]
_CAYLEY_ROWS = [
    (1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (1, 0, 1, 0, 2, 1, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0, 2, 1, 0, 0),
    (0, 1, 0, 1, 0, 1, 0, 0, 2, 0),
    (1, 0, 0, 1, 0, 0, 0, 1, 0, 2),
]


def criterion_counting() -> CriterionResult:
    t0 = time.perf_counter()
    expected = [1, 1, 2, 12, 111, 1395]
    ok = True
    notes = []
    for method in ("recurrence", "egf", "constructive"):
        got = [count_regular(n, method) for n in range(6)]
        if got != expected:
            ok = False
            notes.append(f"{method}: {got}")
    if [count_one_vertex_trunk(n) for n in range(5)] != [0, 1, 1, 6, 54]:
        ok = False
        notes.append("one-vertex-trunk sequence off")
    if [count_full_trunk(n) for n in range(5)] != [1, 1, 1, 3, 12]:
        ok = False
        notes.append("full-trunk sequence off")
    detail = f"three methods agree on {expected} ({time.perf_counter() - t0:.1f}s)"
    return CriterionResult(1, "counting", ok, detail if ok else "; ".join(notes))


def criterion_rank_examples() -> CriterionResult:
    identity_like = TropMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    permuted = TropMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    checks = [
        trop_rank(identity_like) == 2,
        sym_trop_rank(identity_like) == 3,
        sym_trop_rank(permuted) == 2,
    ]
    return CriterionResult(
        2,
        "rank examples",
        all(checks),
        "diag(1,1,1): tropical 2, symmetric 3; permuted matrix: symmetric 2",
    )


# Random trees, n <= 6, sent through matrix_from_tree and back.
_ROUND_TRIPS = 500


def criterion_round_trips(seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    for i in range(_ROUND_TRIPS):
        n = rng.randint(1, 6)
        tree = random_regular_tree(n, rng)
        matrix = matrix_from_tree(tree)
        rebuilt = tree_from_matrix(matrix)
        if rebuilt.canonical_key() != tree.canonical_key():
            return CriterionResult(3, "round trips", False, f"key mismatch at trial {i}")
        if sorted(l for _, _, l in rebuilt.internal_edges()) != sorted(
            l for _, _, l in tree.internal_edges()
        ):
            return CriterionResult(3, "round trips", False, f"length mismatch at trial {i}")
        if not matrices_agree_mod_lineality(matrix_from_tree(rebuilt), matrix):
            return CriterionResult(3, "round trips", False, f"matrix mismatch at trial {i}")
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        3, "round trips", True, f"{_ROUND_TRIPS} random trees, n <= 6 ({elapsed:.1f}s)"
    )


def criterion_paper_matrices(seed: int = 0) -> CriterionResult:
    rng = random.Random(seed)
    for trial in range(20):
        a = Fraction(rng.randint(1, 30), rng.randint(1, 9))
        b = Fraction(rng.randint(1, 30), rng.randint(1, 9))
        c = Fraction(rng.randint(1, 30), rng.randint(1, 9))
        tree = four_pair_chain_tree(a, b, c)
        expected_a = TropMatrix(
            [[0, a, 0, 0], [a, 0, 0, 0], [0, 0, b, b], [0, 0, b, b + c]]
        )
        expected_b = TropMatrix(
            [
                [2 * a, 0, a + b, a + b + c],
                [0, 2 * a, a + b, a + b + c],
                [a + b, a + b, 0, c],
                [a + b + c, a + b + c, c, 0],
            ]
        )
        if matrix_from_tree(tree) != expected_a:
            return CriterionResult(4, "paper matrices", False, f"A mismatch at {(a, b, c)}")
        if path_matrix_from_tree(tree) != expected_b:
            return CriterionResult(4, "paper matrices", False, f"B mismatch at {(a, b, c)}")
        if leaf_distances(tree) != (a, a, b, b + c):
            return CriterionResult(4, "paper matrices", False, f"D mismatch at {(a, b, c)}")
        if not lineality_identity_check(tree):
            return CriterionResult(4, "paper matrices", False, "2A + B identity failed")
    cm = cayley_matrix(four_pair_double_cherry_tree(1, 2, 3))
    reorder = [cm.columns.index(pair) for pair in _CAYLEY_COLUMNS]
    got_rows = [tuple(row[i] for i in reorder) for row in cm.rows]
    node_match = sorted(got_rows[: cm.node_count]) == sorted(_CAYLEY_ROWS[:3])
    lineality_match = got_rows[cm.node_count :] == _CAYLEY_ROWS[3:]
    ok = node_match and lineality_match
    return CriterionResult(
        4,
        "paper matrices",
        ok,
        "A, B, 2A+B = D (x) D^T at 20 random rational lengths; "
        "Cayley block matrix matches up to row order",
    )


def criterion_shelling(include_long: bool = False) -> CriterionResult:
    t0 = time.perf_counter()
    sizes = {}
    for n in (3, 4) + ((5,) if include_long else ()):
        counterexample, ordered = shelling_check(n)
        if counterexample is not None:
            return CriterionResult(5, "shellability", False, f"n={n}: {counterexample}")
        sizes[n] = len(ordered)
    want = {3: 12, 4: 111, 5: 1395}
    ok = all(sizes[n] == want[n] for n in sizes)
    scope = ", ".join(f"n={n} ({sizes[n]} cells)" for n in sizes)
    return CriterionResult(
        5, "shellability", ok, f"verified {scope} ({time.perf_counter() - t0:.1f}s)"
    )


def criterion_fan() -> CriterionResult:
    t0 = time.perf_counter()
    groups = {}
    for n in (3, 4):
        bad, groups[n] = coarse_cells(n, 3)
        if bad is not None:
            return CriterionResult(6, "fan refinement", False, f"n={n}: {bad}")
    sizes = sorted(len(keys) for _, keys in groups[3])
    ok = len(groups[3]) == 9 and sizes == [1, 1, 1, 1, 1, 1, 2, 2, 2]
    return CriterionResult(
        6,
        "fan refinement",
        ok,
        f"n=3,4 signatures stable; 9 coarse cells over 12 cones, "
        f"groups {sizes} ({time.perf_counter() - t0:.1f}s)",
    )


def criterion_matroid() -> CriterionResult:
    t0 = time.perf_counter()
    catalogs = {n: enumerate_regular(n) for n in range(1, 6)}
    for n, catalog in catalogs.items():
        for tree in catalog:
            if cayley_matrix(tree).rank() != 2 * n - 1:
                return CriterionResult(7, "matroid", False, f"rank != {2*n-1} at n={n}")
    for n in (3, 4):
        everything = union_bases(n, "all", catalogs[n])
        if everything != union_bases(n, "caterpillar_branches", catalogs[n]):
            return CriterionResult(
                7, "matroid", False, f"caterpillar-branch union differs at n={n}"
            )
    for n in (2, 3, 4):
        bad = basis_transition_check(n, catalogs[n])
        if bad is not None:
            return CriterionResult(7, "matroid", False, f"transition fails at n={n}: {bad}")
    reports = {n: conjecture_scan(n, catalogs[n]) for n in (3, 4)}
    summary = "; ".join(
        f"n={n}: equal={r.equal} ({r.union_all_count} bases)" for n, r in reports.items()
    )
    return CriterionResult(
        7,
        "matroid",
        True,
        f"Cayley rank 2n-1 for n<=5; caterpillar-branch union equal n=3,4; "
        f"transitions Ok n<=4; scans: {summary} ({time.perf_counter() - t0:.1f}s)",
    )


def criterion_properties(seed: int = 0) -> CriterionResult:
    rng = random.Random(seed)

    def rand_vec(k):
        return [Fraction(rng.randint(-12, 12), rng.randint(1, 7)) for _ in range(k)]

    for _ in range(200):
        k = rng.randint(1, 6)
        x, y, z = rand_vec(k), rand_vec(k), rand_vec(k)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if hilbert_distance(x, x) != 0:
            return CriterionResult(8, "property suites", False, "d(x,x) != 0")
        if hilbert_distance(x, y) != hilbert_distance(y, x):
            return CriterionResult(8, "property suites", False, "asymmetric")
        if hilbert_distance(x, z) > hilbert_distance(x, y) + hilbert_distance(y, z):
            return CriterionResult(8, "property suites", False, "triangle fails")
        if hilbert_distance([v + c for v in x], y) != hilbert_distance(x, y):
            return CriterionResult(8, "property suites", False, "not scale invariant")
    for _ in range(60):
        n = rng.randint(2, 5)
        tree = random_regular_tree(n, rng)
        matrix = matrix_from_tree(tree)
        metric = leaf_metric_from_matrix(matrix)
        if metric.four_point_violation() is not None:
            return CriterionResult(8, "property suites", False, "four-point fails")
        shift = rank_one_matrix(rand_vec(n))
        shifted = matrix.add(shift)
        if canonicalize_mod_lineality(shifted) != canonicalize_mod_lineality(matrix):
            return CriterionResult(8, "property suites", False, "canonical form moved")
        if n >= 3 and signature(shifted) != signature(matrix):
            return CriterionResult(8, "property suites", False, "signature moved")
    # total-order laws: sorted positions agree with pairwise comparisons
    for n in (2, 3):
        catalog = list(enumerate_regular(n))
        comparator = TreeComparator()
        ordered = sorted(catalog, key=functools.cmp_to_key(comparator.compare))
        for i, j in itertools.combinations(range(len(ordered)), 2):
            if comparator.compare(ordered[i], ordered[j]) != -1:
                return CriterionResult(8, "property suites", False, "order inconsistency")
            if comparator.compare(ordered[j], ordered[i]) != 1:
                return CriterionResult(8, "property suites", False, "antisymmetry fails")
    return CriterionResult(
        8,
        "property suites",
        True,
        "pseudometric laws, four-point condition, lineality invariance, "
        "total-order laws",
    )


def run_all(include_long: bool = False, seed: int = 0) -> list[CriterionResult]:
    return [
        criterion_counting(),
        criterion_rank_examples(),
        criterion_round_trips(seed=seed),
        criterion_paper_matrices(seed=seed),
        criterion_shelling(include_long=include_long),
        criterion_fan(),
        criterion_matroid(),
        criterion_properties(seed=seed),
    ]
