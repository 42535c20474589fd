"""Command-line interface.

Every subcommand is deterministic: identical inputs and seeds give
byte-identical outputs (collections are sorted before serialization).
Errors exit with status 1 and a structured JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import acceptance
from .correspond import matrix_from_tree, tree_from_matrix
from .counting import count_regular, enumerate_regular, orbit_sort_key
from .fan import _coarse_groups, coarse_cells
from .matroid import (
    BASES_CAP,
    TRANSITION_CAP,
    basis_transition_check,
    conjecture_scan,
    render_conjecture_report,
    union_bases,
)
from .shelling import shelling_check, shelling_order
from .trees import SymbicTree, format_label, label_key
from .tropical import TropMatrix, sym_trop_rank, trop_rank


class CommandError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _load_matrix(path: str) -> TropMatrix:
    p = Path(path)
    if not p.exists():
        raise CommandError("bad-input", f"no such file: {path}")
    try:
        if p.suffix.lower() == ".csv":
            with p.open(newline="") as fh:
                return TropMatrix([row for row in csv.reader(fh) if row])
        return TropMatrix.from_json_dict(json.loads(p.read_text()))
    except (OSError, ValueError, csv.Error) as exc:
        raise CommandError("bad-input", f"cannot read matrix from {path}: {exc}")


def _load_tree(path: str) -> SymbicTree:
    p = Path(path)
    if not p.exists():
        raise CommandError("bad-input", f"no such file: {path}")
    try:
        return SymbicTree.from_json_dict(json.loads(p.read_text()))
    except (OSError, ValueError) as exc:
        raise CommandError("bad-input", f"cannot read tree from {path}: {exc}")


def _write(path: str | None, payload: dict) -> None:
    if path:  # streamed: the indented text of a large payload is never held whole
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def key_to_jsonable(key: frozenset) -> list:
    """Canonical keys as nested sorted lists of leaf-label strings."""
    orbits = []
    for orbit in sorted(key, key=orbit_sort_key):
        orbits.append(
            sorted(
                [format_label(l) for l in sorted(split, key=label_key)]
                for split in orbit
            )
        )
    return orbits


def cmd_rank(args) -> int:
    matrix = _load_matrix(args.matrix)
    ordinary = trop_rank(matrix)
    line = f"tropical_rank={ordinary}"
    payload = {"n": matrix.n, "tropical_rank": ordinary}
    if matrix.is_symmetric():
        symmetric = sym_trop_rank(matrix)
        line += f" symmetric_tropical_rank={symmetric}"
        payload["symmetric_tropical_rank"] = symmetric
    print(line)
    _write(args.out, payload)
    return 0


def cmd_tree_from_matrix(args) -> int:
    matrix = _load_matrix(args.matrix)
    tree = tree_from_matrix(matrix)
    print(
        f"n={tree.n} split_orbits={len(tree.split_orbits())} "
        f"regular={tree.is_regular()}"
    )
    _write(args.out, tree.to_json_dict())
    if args.dot:
        Path(args.dot).write_text(tree.to_dot() + "\n")
    return 0


def cmd_matrix_from_tree(args) -> int:
    tree = _load_tree(args.tree)
    violation = tree.validate()
    if violation is not None:
        raise CommandError("validation", f"not a symbic tree: {violation}")
    matrix = matrix_from_tree(tree)
    print(f"n={matrix.n} symmetric_tropical_rank={sym_trop_rank(matrix)}")
    _write(args.out, matrix.to_json_dict())
    return 0


def cmd_enumerate(args) -> int:
    catalog = enumerate_regular(args.n)
    entries = sorted(
        (
            {"key": key_to_jsonable(key), "tree": tree.to_json_dict()}
            for key, tree in catalog.items()
        ),
        key=lambda e: json.dumps(e["key"]),
    )
    print(f"n={args.n} regular symbic trees: {len(catalog)}")
    _write(args.out, {"n": args.n, "count": len(catalog), "trees": entries})
    return 0


def cmd_count(args) -> int:
    methods = ("recurrence", "egf", "constructive")
    if args.method:
        value = count_regular(args.n, args.method)
        print(f"{args.method}: {value}")
        _write(args.out, {"n": args.n, args.method: value})
        return 0
    values = {m: count_regular(args.n, m) for m in methods}
    for m in methods:
        print(f"{m}: {values[m]}")
    if len(set(values.values())) != 1:
        raise CommandError("mismatch", f"counting methods disagree: {values}")
    print(f"agreed: {values['recurrence']}")
    _write(args.out, {"n": args.n, **values})
    return 0


def cmd_shelling(args) -> int:
    if args.verify:
        counterexample, ordered = shelling_check(args.n)
    else:
        ordered = shelling_order(args.n)
        counterexample = None
    print(f"n={args.n}: {len(ordered)} maximal cells")
    if args.verify:
        if counterexample is None:
            print("shelling: Ok")
        else:
            print("shelling: COUNTEREXAMPLE")
            print(" earlier:", key_to_jsonable(counterexample.earlier))
            print(" cell:   ", key_to_jsonable(counterexample.cell))
    _write(
        args.out,
        {
            "n": args.n,
            "cells": [key_to_jsonable(t.split_orbits()) for t in ordered],
            "verified": args.verify and counterexample is None,
        },
    )
    return 0 if counterexample is None else 1


def cmd_matroid(args) -> int:
    which = {"all": "all", "catbranch": "caterpillar_branches",
             "caterpillar": "full_caterpillar"}[args.filter]
    # past its cap (the smaller transition cap with --verify) the first
    # library call reports the size error before any enumeration
    cap = TRANSITION_CAP if args.verify else BASES_CAP
    catalog = enumerate_regular(args.n) if args.n <= cap else None
    transition = basis_transition_check(args.n, catalog) if args.verify else None
    bases = union_bases(args.n, which, catalog)
    print(f"n={args.n} filter={args.filter}: {len(bases)} bases")
    if args.verify:
        print("basis transitions:", "Ok" if transition is None else f"FAIL {transition}")
    _write(
        args.out,
        {
            "n": args.n,
            "filter": args.filter,
            "count": len(bases),
            "bases": sorted(sorted(list(b)) for b in bases),
        },
    )
    return 0 if transition is None else 1


def cmd_conjecture(args) -> int:
    report = conjecture_scan(args.n)
    text = render_conjecture_report(report)
    print(
        f"n={args.n}: union(all)={report.union_all_count} "
        f"union(caterpillar)={report.union_caterpillar_count} equal={report.equal}"
    )
    if args.report:
        Path(args.report).write_text(text)
    return 0


def cmd_fan(args) -> int:
    # only the n = 3 report lists the cells' trees; past it the count of the
    # mask groups is all the report reads, so no public signature is built
    bad, groups = (coarse_cells if args.n == 3 else _coarse_groups)(args.n, 3, None)
    refined = "Ok" if bad is None else f"COUNTEREXAMPLE {bad}"
    print(f"n={args.n} refinement: {refined}")
    lines = [
        f"# Coarse fan report, n = {args.n}",
        "",
        f"- refinement check (3 generic samples per tree): {refined}",
    ]
    if bad is None:
        total = count_regular(args.n)
        print(f"coarse cells: {len(groups)} over {total} tree cones")
        lines.append(f"- distinct coarse signatures: {len(groups)} over {total} tree cones")
        if args.n == 3:
            sizes = sorted(len(keys) for _, keys in groups)
            lines += ["", "Signature group sizes: " + str(sizes), ""]
            for i, (_, keys) in enumerate(groups, start=1):
                lines.append(f"- signature {i}: {len(keys)} cone(s)")
                for key in keys:
                    lines.append(f"    - {key_to_jsonable(key)}")
    if args.report:
        Path(args.report).write_text("\n".join(lines) + "\n")
    return 0 if bad is None else 1


def cmd_selftest(args) -> int:
    results = acceptance.run_all(include_long=args.long, seed=args.seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.number} [{r.name}]: {status} - {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symbic",
        description="Symmetric tropical rank-2 matrices and symmetric bicolored trees",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="tropical and symmetric tropical rank")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("tree-from-matrix", help="reconstruct the symbic tree")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out")
    p.add_argument("--dot")
    p.set_defaults(func=cmd_tree_from_matrix)

    p = sub.add_parser("matrix-from-tree", help="path-divergence matrix of a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_matrix_from_tree)

    p = sub.add_parser("enumerate", help="catalog of regular symbic trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", help="count regular trees three ways")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("recurrence", "egf", "constructive"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("shelling", help="shelling order and verification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_shelling)

    p = sub.add_parser("matroid", help="union of matroid bases over trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--filter", choices=("all", "catbranch", "caterpillar"),
                   default="all")
    p.add_argument("--verify", action="store_true",
                   help="also run the basis transition check")
    p.add_argument("--out")
    p.set_defaults(func=cmd_matroid)

    p = sub.add_parser("conjecture", help="caterpillar-basis conjecture scan")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("fan", help="coarse fan refinement report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_fan)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--long", action="store_true",
                   help="include the n=5 shelling verification")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        kind, message = exc.kind, str(exc)
    except OSError as exc:  # an --out, --dot or --report file cannot be written
        kind, message = "io", str(exc)
    except ValueError as exc:
        kind, message = "invalid", str(exc)
    json.dump({"error": {"kind": kind, "message": message}}, sys.stderr)
    sys.stderr.write("\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
