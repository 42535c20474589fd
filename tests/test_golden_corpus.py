"""The golden corpus: the correspondence, both rank scans and the fan
signatures pinned on 660 fixed matrices by one sha256 digest.

The corpus holds 360 tree matrices, ``matrix_from_tree`` of
``random_regular_tree(n, Random(1000 n + s))`` for n = 1..9 and s < 40, in
four kinds by s mod 4: as built; shifted along the lineality space by a
vector with mixed denominators; a principal block planted (0 on its
diagonal, one more than the largest entry off it); one entry cooked by -1,
+1 or 1/2, kept symmetric.  Then come 300 symmetric grids with entries in
[0, 3], n = 2..5.  Every choice past the trees' own draws comes from
``Random(2026)``.

Per matrix the outcome of ``tree_from_matrix``, ``sym_trop_rank`` and
``trop_rank`` is recorded: the tree's JSON, the int, or the class and
message of the error.  Per tree, the JSON of ``matrix_from_tree`` and, for
n = 3..5, the signature of ``sample_interior`` at both
``generic_length_tuples`` are recorded too.  The digest is taken over the
records in order.

The corpus and its digest are fixed.  A change that moves an outcome on
purpose names it, with the old and new digests.  To find the first record
on which this checkout and another source tree differ, run from the root
of the repository:

    python tests/test_golden_corpus.py path/to/other/src
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

if __name__ == "__main__" and "--dump" not in sys.argv:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from symbic.correspond import matrix_from_tree, tree_from_matrix
from symbic.counting import random_regular_tree
from symbic.fan import generic_length_tuples, sample_interior, signature
from symbic.tropical import TropMatrix, rank_one_matrix, sym_trop_rank, trop_rank

DIGEST = "661e5e412be8814637edc8e0eac273fe0f8cdc548f07c9c1636b2cb7c1c6102c"


def corpus() -> list[tuple[str, object, TropMatrix]]:
    """The matrices in order, as (name, source tree or None, matrix)."""
    extra = random.Random(2026)
    out = []
    for n in range(1, 10):
        for s in range(40):
            tree = random_regular_tree(n, random.Random(1000 * n + s))
            matrix = matrix_from_tree(tree)
            kind = ("as-is", "shifted", "planted", "cooked")[s % 4]
            rows = [list(row) for row in matrix.rows]
            if kind == "shifted":
                shift = [Fraction(extra.randint(-6, 6), extra.randint(1, 7)) for _ in range(n)]
                matrix = matrix.add(rank_one_matrix(shift))
            elif kind == "planted":
                block = extra.sample(range(n), min(n, 3))
                top = max(map(max, rows)) + 1
                for i in block:
                    for j in block:
                        rows[i][j] = Fraction(0) if i == j else top
                matrix = TropMatrix(rows)
            elif kind == "cooked":
                i, j = extra.randrange(n), extra.randrange(n)
                delta = extra.choice((Fraction(-1), Fraction(1), Fraction(1, 2)))
                rows[i][j] += delta
                if i != j:
                    rows[j][i] += delta
                matrix = TropMatrix(rows)
            out.append((f"tree n={n} s={s} {kind}", tree, matrix))
    for g in range(300):
        n = extra.randint(2, 5)
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries[i][j] = entries[j][i] = extra.randint(0, 3)
        out.append((f"grid {g} n={n}", None, TropMatrix(entries)))
    return out


def outcome(compute, *args) -> str:
    """What ``compute`` returns, as text, or the class and message of its
    error."""
    try:
        value = compute(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    if hasattr(value, "to_json_dict"):
        return json.dumps(value.to_json_dict())
    if isinstance(value, frozenset):  # a signature
        return repr(sorted((rows, cols, sorted(argmin)) for rows, cols, argmin in value))
    return repr(value)


def records() -> list[tuple[str, str, str]]:
    """Per corpus matrix and per source tree, in order: (what, its input as
    text, its outcome)."""
    out = []
    for name, tree, matrix in corpus():
        entries = json.dumps(matrix.to_json_dict()["entries"])
        for compute in (tree_from_matrix, sym_trop_rank, trop_rank):
            out.append((f"{name} {compute.__name__}", entries, outcome(compute, matrix)))
        if tree is None:
            continue
        key = json.dumps(tree.to_json_dict())
        out.append((f"{name} matrix_from_tree", key, outcome(matrix_from_tree, tree)))
        if 3 <= tree.n <= 5:
            for k, lengths in enumerate(generic_length_tuples(2, tree.n - 1)):
                sample = lambda: signature(sample_interior(tree, lengths))  # noqa: E731
                out.append((f"{name} signature {k}", key, outcome(sample)))
    return out


def digest(recs: list[tuple[str, str, str]]) -> str:
    text = "".join(f"{what}\t{result}\n" for what, _, result in recs)
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_corpus_digest():
    recs = records()
    assert len(corpus()) == 660
    assert digest(recs) == DIGEST, (
        "an outcome moved; `python tests/test_golden_corpus.py OTHER_SRC` "
        "prints the first record that differs from another source tree"
    )


def first_difference(other_src: str) -> str:
    """The first record on which this checkout's source and ``other_src``
    differ, with its input and both outcomes, or a line saying none do."""
    env = dict(os.environ, PYTHONPATH=str(Path(other_src).resolve()))
    dump = subprocess.run(
        [sys.executable, __file__, "--dump"], env=env, capture_output=True, text=True, check=True
    )
    theirs = [tuple(r) for r in json.loads(dump.stdout)]
    ours = records()
    for (what, given, mine), (_, _, other) in zip(ours, theirs):
        if mine != other:
            return f"{what}\ninput: {given}\nhere:  {mine}\nthere: {other}"
    if len(ours) != len(theirs):
        return f"record counts differ: {len(ours)} here, {len(theirs)} there"
    return f"no record differs; digest {digest(ours)}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        print(json.dumps(records()))
    elif len(sys.argv) == 2:
        print(first_difference(sys.argv[1]))
    else:
        print(digest(records()))
