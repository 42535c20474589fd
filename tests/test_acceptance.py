"""Acceptance suite: runs every criterion at its stated (exact) tolerance
and prints one pass/fail line per criterion."""

import pytest

import symbic.fan
from symbic import acceptance


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
    result = acceptance.criterion_round_trips(rounds=500, seed=0)
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
    monkeypatch.setattr(symbic.fan, "enumerate_regular", counted)
    assert acceptance.criterion_fan().passed
    assert calls == [3, 4]


def test_criterion_6_signs_the_n3_catalog_once_past_the_refinement(monkeypatch):
    calls = []
    original = symbic.fan.signature_by_tree

    def counted(n, catalog=None):
        calls.append(n)
        return original(n, catalog)

    monkeypatch.setattr(symbic.fan, "signature_by_tree", counted)
    assert acceptance.criterion_fan().passed
    assert calls == [3]


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
