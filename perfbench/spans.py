"""Spans around the symbic library's layer boundaries, recorded from outside.

``install`` replaces the functions and methods listed in ``SPANS`` with
wrappers that record one span per call: its name, start, end, parent span
and the id of the benchmark item it belongs to.  A module-level function is
re-bound everywhere the package holds a reference to it (every
``symbic.*`` module namespace and every function default argument, such as
``refinement_check(sampler=sample_interior)``), so nested calls between
modules do not escape the trace.  Methods are replaced on their class.

Spans live in flat arrays while the run lasts; ``Tracer.layer_metrics``
aggregates them and ``Tracer.write`` dumps them when the run ends.  No file
of the library changes.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

LAYERS = ("tropical", "correspond", "trees", "counting", "shelling", "matroid", "fan")

# Line counts are tracked for every module of the package, layers or not.
LOC_MODULES = LAYERS + ("acceptance", "cli", "__init__")

# (module, function or Class.method, span name or None for "module.function")
SPANS = (
    ("tropical", "sym_trop_rank", None),
    ("tropical", "trop_rank", None),
    ("tropical", "trop_det", None),
    ("tropical", "argmin_monomials", None),
    ("tropical", "canonicalize_mod_lineality", None),
    ("correspond", "tree_from_matrix", None),
    ("correspond", "leaf_metric_from_matrix", None),
    ("correspond", "LeafMetric.four_point_violation", "correspond.four_point"),
    ("correspond", "matrix_from_tree", None),
    ("correspond", "matrices_agree_mod_lineality", None),
    ("trees", "SymbicTree.__init__", "trees.construct"),
    ("trees", "SymbicTree.canonical_key", None),
    ("trees", "SymbicTree.split_orbits", None),
    ("trees", "SymbicTree.involution", None),
    ("trees", "SymbicTree.validate", None),
    ("trees", "SymbicTree.distance", None),
    ("trees", "SymbicTree.relabel", None),
    ("trees", "SymbicTree.delete_top_pair", None),
    ("trees", "SymbicTree.attach_top_pair", None),
    ("trees", "SymbicTree.contract_orbit", None),
    ("counting", "enumerate_regular", None),
    ("counting", "face_catalog", None),
    ("counting", "enumerate_faces", None),
    ("shelling", "rule_order", None),
    ("shelling", "shelling_order", None),
    ("shelling", "verify_shelling", None),
    ("shelling", "TreeComparator.compare", "shelling.compare"),
    ("matroid", "cayley_matrix", None),
    ("matroid", "exact_rank", None),
    ("matroid", "matroid_bases", None),
    ("matroid", "union_bases", None),
    ("matroid", "basis_transition_check", None),
    ("matroid", "conjecture_scan", None),
    ("fan", "signature", None),
    ("fan", "sample_interior", None),
    ("fan", "refinement_check", None),
)

_VERDICTS = {
    "NotRankTwoError": "not_rank_two",
    "RankOneMatrixError": "rank_one",
    "ReconstructionError": "reconstruction_error",
}

# Every per-layer metric, in output order: (name, unit).
PER_LAYER = (
    [
        ("tropical.sym_trop_rank.calls", "count"),
        ("tropical.sym_trop_rank.busy_s", "s"),
        ("tropical.trop_det.calls", "count"),
        ("tropical.permutations", "count"),
        ("tropical.argmin_monomials.busy_s", "s"),
        ("correspond.tree_from_matrix.calls", "count"),
        ("correspond.tree_from_matrix.busy_s", "s"),
        ("correspond.tree_from_matrix.self_s", "s"),
        ("correspond.leaf_metric_from_matrix.busy_s", "s"),
        ("correspond.four_point.busy_s", "s"),
        ("correspond.matrix_from_tree.busy_s", "s"),
        ("correspond.rank_scans_per_matrix", "ratio"),
        ("correspond.verdicts.accepted", "count"),
    ]
    + [(f"correspond.verdicts.{v}", "count") for v in _VERDICTS.values()]
    + [
        ("trees.construct.calls", "count"),
        ("trees.construct.busy_s", "s"),
        ("trees.construct.hinted", "count"),
    ]
    + [
        (f"trees.{f}.busy_s", "s")
        for f in (
            "canonical_key",
            "split_orbits",
            "validate",
            "distance",
            "delete_top_pair",
            "contract_orbit",
        )
    ]
    + [
        ("counting.enumerate_regular.calls", "count"),
        ("counting.enumerate_regular.busy_s", "s"),
        ("counting.enumerate_regular.self_s", "s"),
        ("shelling.rule_order.busy_s", "s"),
        ("shelling.shelling_order.busy_s", "s"),
        ("shelling.verify_shelling.busy_s", "s"),
        ("shelling.compare.calls", "count"),
        ("shelling.reordered_cells", "count"),
    ]
    + [
        (f"matroid.{f}.busy_s", "s")
        for f in (
            "cayley_matrix",
            "exact_rank",
            "matroid_bases",
            "union_bases",
            "basis_transition_check",
            "conjecture_scan",
        )
    ]
    + [
        ("matroid.matroid_bases.calls", "count"),
        ("matroid.distinct_cayley_ratio", "ratio"),
        ("fan.signature.busy_s", "s"),
        ("fan.sample_interior.busy_s", "s"),
        ("fan.refinement_check.busy_s", "s"),
    ]
    + [(f"loc.{m}", "lines") for m in LOC_MODULES]
    + [
        ("loc.total", "lines"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
)


class Tracer:
    """Records spans while ``active``; one tracer serves one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.outermost = array("b")  # no enclosing span of the same name
        self.outcome = array("i")  # -1 returned, else index into exc_names
        self.exc_names: list[str] = []
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.active = False
        self.item_id = -1
        # counts taken at the same boundaries as the spans
        self.permutations = 0
        self.hinted = 0
        self.reordered = 0
        self.cayley_rows: set = set()
        self._rule_keys: Optional[list] = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.item_id)
        self.outermost.append(self._depth[nid] == 0)
        self.outcome.append(-1)
        self.end.append(0.0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, nid: int, exc: Optional[BaseException]) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1
        if exc is not None:
            name = type(exc).__name__
            if name not in self.exc_names:
                self.exc_names.append(name)
            self.outcome[idx] = self.exc_names.index(name)

    def paused(self, fn: Callable, *args) -> None:
        """Run a bookkeeping hook without recording its library calls."""
        self.active = False
        try:
            fn(*args)
        finally:
            self.active = True

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, nid, exc)
                raise
            tracer._close(idx, nid, None)
            if after is not None:
                tracer.paused(after, tracer, result)
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self) -> tuple[dict[str, float], bool]:
        """Per-layer metrics of the recorded spans, and whether every name's
        self time stays within its busy time."""
        count = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * count
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        names = len(self.names)
        calls, busy, own = [0] * names, [0.0] * names, [0.0] * names
        for i in range(count):
            nid = self.name_of[i]
            calls[nid] += 1
            own[nid] += dur[i] - covered[i]
            if self.outermost[i]:
                busy[nid] += dur[i]
        consistent = all(own[k] <= busy[k] + 1e-9 for k in range(names))

        def stat(name: str, field: str) -> float:
            nid = self._ids.get(name)
            if nid is None:
                return 0
            return {"calls": calls, "busy_s": busy, "self_s": own}[field][nid]

        out: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            head, _, field = metric.rpartition(".")
            if field in ("calls", "busy_s", "self_s"):
                out[metric] = stat(head, field)
        out["tropical.permutations"] = self.permutations
        out["trees.construct.hinted"] = self.hinted
        out["shelling.reordered_cells"] = self.reordered
        bases_calls = stat("matroid.matroid_bases", "calls")
        out["matroid.distinct_cayley_ratio"] = (
            len(self.cayley_rows) / bases_calls if bases_calls else 0.0
        )
        out.update(self._verdicts())
        out["trace.spans"] = count
        return out, consistent

    def _verdicts(self) -> dict[str, float]:
        tfm = self._ids.get("correspond.tree_from_matrix")
        rank = self._ids.get("tropical.sym_trop_rank")
        out = {f"correspond.verdicts.{v}": 0 for v in ("accepted", *_VERDICTS.values())}
        accepted_scans = 0
        for i, nid in enumerate(self.name_of):
            if nid == tfm:
                code = self.outcome[i]
                if code < 0:
                    out["correspond.verdicts.accepted"] += 1
                elif self.exc_names[code] in _VERDICTS:
                    out[f"correspond.verdicts.{_VERDICTS[self.exc_names[code]]}"] += 1
            elif nid == rank:
                p = self.parent[i]
                while p >= 0 and self.name_of[p] != tfm:
                    p = self.parent[p]
                if p >= 0 and self.outcome[p] < 0:
                    accepted_scans += 1
        accepted = out["correspond.verdicts.accepted"]
        out["correspond.rank_scans_per_matrix"] = (
            accepted_scans / accepted if accepted else 0.0
        )
        return out

    def write(self, path: Path) -> None:
        """Dump every span as tab-separated text, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_s\tend_s\tparent\titem\toutcome\n")
            for i in range(len(self.start)):
                code = self.outcome[i]
                outcome = "return" if code < 0 else self.exc_names[code]
                out.write(
                    f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i]!r}\t"
                    f"{self.end[i]!r}\t{self.parent[i]}\t{self.item[i]}\t{outcome}\n"
                )


# -- hooks: counts read at the boundary of one call --------------------------


def _count_permutations(tracer: Tracer, args, kwargs) -> None:
    minor = args[1] if len(args) > 1 else kwargs["minor"]
    tracer.permutations += math.factorial(minor.size)


def _count_hint(tracer: Tracer, args, kwargs) -> None:
    hint = args[4] if len(args) > 4 else kwargs.get("involution_hint")
    if hint is not None:
        tracer.hinted += 1


def _keep_cayley(tracer: Tracer, result) -> None:
    stack = tracer._stack
    if stack and tracer.names[tracer.name_of[stack[-1]]] == "matroid.matroid_bases":
        tracer.cayley_rows.add((result.n, result.rows))


def _keep_rule_order(tracer: Tracer, result) -> None:
    tracer._rule_keys = [t.canonical_key() for t in result]


def _count_reordered(tracer: Tracer, result) -> None:
    rule = tracer._rule_keys or []
    tracer.reordered += sum(
        1 for i, t in enumerate(result) if i >= len(rule) or t.canonical_key() != rule[i]
    )


_BEFORE = {"tropical.trop_det": _count_permutations, "trees.construct": _count_hint}
_AFTER = {
    "matroid.cayley_matrix": _keep_cayley,
    "shelling.rule_order": _keep_rule_order,
    "shelling.shelling_order": _count_reordered,
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry of ``SPANS`` in the imported ``symbic`` package and
    return a function that puts the originals back.  Names a later version
    of the package no longer has are skipped; their metrics read 0."""
    modules = [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "symbic" or name.startswith("symbic."))
    ]
    by_name = {m.__name__: m for m in modules}
    undo: list[Callable[[], None]] = []
    swap: dict[int, Callable] = {}
    for module_name, target, span_name in SPANS:
        module = by_name.get(f"symbic.{module_name}")
        if module is None:
            continue
        owner, _, member = target.rpartition(".")
        name = span_name or f"{module_name}.{member}"
        hooks = dict(before=_BEFORE.get(name), after=_AFTER.get(name))
        if owner:
            cls = getattr(module, owner, None)
            original = vars(cls).get(member) if cls is not None else None
            if original is None:
                continue
            setattr(cls, member, tracer.wrap(name, original, **hooks))
            undo.append(functools.partial(setattr, cls, member, original))
        else:
            original = getattr(module, member, None)
            if original is not None:
                swap[id(original)] = tracer.wrap(name, original, **hooks)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in swap:
                setattr(module, attr, swap[id(value)])
                undo.append(functools.partial(setattr, module, attr, value))
    for fn in _functions(modules):
        if fn.__defaults__ and any(id(d) in swap for d in fn.__defaults__):
            old = fn.__defaults__
            fn.__defaults__ = tuple(swap.get(id(d), d) for d in old)
            undo.append(functools.partial(setattr, fn, "__defaults__", old))
        if fn.__kwdefaults__ and any(id(d) in swap for d in fn.__kwdefaults__.values()):
            old_kw = fn.__kwdefaults__
            fn.__kwdefaults__ = {k: swap.get(id(d), d) for k, d in old_kw.items()}
            undo.append(functools.partial(setattr, fn, "__kwdefaults__", old_kw))

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore


def _functions(modules) -> list:
    """Every function defined at module or class level in the package,
    unwrapped, so default arguments can be re-bound."""
    seen: dict[int, object] = {}
    for module in modules:
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else (value,)
            for member in members:
                while hasattr(member, "__wrapped__"):
                    member = member.__wrapped__
                if callable(member) and hasattr(member, "__defaults__"):
                    if getattr(member, "__module__", "").startswith("symbic"):
                        seen[id(member)] = member
    return list(seen.values())


def line_counts(package_dir: Path) -> dict[str, int]:
    """``loc.<module>`` for the tracked modules and ``loc.total`` for every
    Python file of the package."""
    def lines(path: Path) -> int:
        with path.open("rb") as fh:
            return sum(1 for _ in fh)

    out = {}
    for module in LOC_MODULES:
        path = package_dir / f"{module}.py"
        out[f"loc.{module}"] = lines(path) if path.is_file() else 0
    out["loc.total"] = sum(lines(p) for p in sorted(package_dir.rglob("*.py")))
    return out
