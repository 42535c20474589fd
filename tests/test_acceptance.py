"""Acceptance suite: runs every criterion at its stated (exact) tolerance
and prints one pass/fail line per criterion."""

import types

import pytest

import symbic
import symbic.counting
from symbic import acceptance
from test_fan import counted_signings


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.number} [{result.name}]: {status} - {result.detail}")


def test_criterion_1_counting():
    result = acceptance.criterion_counting()
    _report(result)
    assert result.passed, result.detail


def test_criterion_2_rank_examples():
    result = acceptance.criterion_rank_examples()
    _report(result)
    assert result.passed, result.detail


def test_criterion_3_round_trips():
    result = acceptance.criterion_round_trips(seed=0)
    _report(result)
    assert result.passed, result.detail


def test_criterion_4_paper_matrices():
    result = acceptance.criterion_paper_matrices(seed=0)
    _report(result)
    assert result.passed, result.detail


def test_criterion_5_shellability():
    result = acceptance.criterion_shelling(include_long=False)
    _report(result)
    assert result.passed, result.detail


@pytest.mark.long
def test_criterion_5_shellability_n5():
    result = acceptance.criterion_shelling(include_long=True)
    _report(result)
    assert result.passed, result.detail


def test_criterion_6_fan_refinement():
    result = acceptance.criterion_fan()
    _report(result)
    assert result.passed, result.detail


def test_criterion_6_enumerates_each_catalog_once(monkeypatch):
    calls = []
    original = acceptance.enumerate_regular

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(acceptance, "enumerate_regular", counted)
    monkeypatch.setattr(symbic.counting, "enumerate_regular", counted)
    assert acceptance.criterion_fan().passed
    assert calls == [3, 4]


def test_criterion_6_signs_each_tree_once_per_sample(monkeypatch):
    """One certified sweep for each S_n orbit representative, 3 of the 12
    trees at n = 3 and 8 of the 111 at n = 4, and no generic sample; the
    signature groups come from the same pass."""
    sweeps, sampled = counted_signings(monkeypatch)
    assert acceptance.criterion_fan().passed
    assert sweeps == [3] * 3 + [4] * 8
    assert sampled == []


def test_criterion_7_matroid():
    result = acceptance.criterion_matroid()
    _report(result)
    assert result.passed, result.detail


def test_criterion_8_property_suites():
    result = acceptance.criterion_properties(seed=0)
    _report(result)
    assert result.passed, result.detail


def test_run_all_hands_each_criterion_its_arguments(monkeypatch):
    calls = []

    def stub(name):
        def criterion(**kwargs):
            calls.append((name, kwargs))
            return name

        return criterion

    names = [
        "counting", "rank_examples", "round_trips", "paper_matrices",
        "shelling", "fan", "matroid", "properties",
    ]
    for name in names:
        monkeypatch.setattr(acceptance, f"criterion_{name}", stub(name))
    assert acceptance.run_all(include_long=True, seed=7) == names
    assert calls == [
        ("counting", {}),
        ("rank_examples", {}),
        ("round_trips", {"seed": 7}),
        ("paper_matrices", {"seed": 7}),
        ("shelling", {"include_long": True}),
        ("fan", {}),
        ("matroid", {}),
        ("properties", {"seed": 7}),
    ]
    calls.clear()
    acceptance.run_all()
    assert dict(calls)["shelling"] == {"include_long": False}
    assert dict(calls)["round_trips"] == {"seed": 0}


def _public(namespace):
    return sorted(
        name
        for name, value in vars(namespace).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def test_public_surface_is_pinned():
    """The names the package exports, and the public members of its four
    core classes.  A name joins or leaves here on purpose; oracle-only
    helpers live in the tests."""
    assert _public(symbic) == [
        "CayleyMatrix", "EdgeOrder", "InvalidMoveError", "LeafMetric",
        "MalformedTreeError", "MinorSizeError", "NotRankTwoError", "RankOneMatrixError",
        "RationalSeries", "ReconstructionError", "SizeCapError", "SymbicTree",
        "TreeCatalog", "TreeComparator", "TropMatrix", "TropicalError", "Violation",
        "base_point", "basis_transition_check", "canonicalize_mod_lineality",
        "cayley_matrix", "coarse_cells", "conjecture_scan", "count_full_trunk",
        "count_one_vertex_trunk", "count_regular", "enumerate_faces", "enumerate_regular",
        "exact_rank", "ground_set", "hilbert_distance", "leaf_distances",
        "leaf_metric_from_matrix", "lineality_identity_check",
        "matrices_agree_mod_lineality", "matrix_from_tree", "matroid_bases",
        "path_matrix_from_tree", "random_regular_tree", "rank_one_matrix",
        "reduce_by_twig", "refinement_check", "render_conjecture_report", "rule_order",
        "sample_interior", "series_full_trunk", "series_one_vertex_trunk",
        "series_regular", "shelling_check", "shelling_order", "signature", "star_tree",
        "sym_trop_rank", "tree_from_matrix", "tree_of_single_pair",
        "trop_rank", "union_bases", "verify_shelling",
    ]
    assert _public(symbic.TropMatrix) == [
        "add", "entry", "from_json_dict", "is_symmetric", "n", "require_symmetric",
        "rows", "sub", "to_json_dict",
    ]
    assert _public(symbic.SymbicTree) == [
        "adj", "attach_top_pair", "brittle_twig", "canonical_endpoint", "canonical_key",
        "contract_orbit",
        "delete_leaves", "delete_top_pair", "distance",
        "edges", "expansions", "fixed_vertices", "from_json_dict",
        "has_caterpillar_branches", "internal_edges", "internal_vertices", "involution",
        "is_caterpillar", "is_regular", "labels", "leaf_vertex", "leaf_vertices", "n",
        "path", "place_of_site", "pos", "relabel", "side_labels", "split_orbits",
        "splits", "to_dot", "to_json_dict", "top_pair_site", "transition", "trunk",
        "validate", "vertices",
    ]
    assert _public(symbic.RationalSeries) == [
        "coeffs", "constant", "egf_count", "order", "reciprocal", "scale",
        "shift_const", "sqrt",
    ]
    assert _public(symbic.EdgeOrder) == ["index", "places"]
