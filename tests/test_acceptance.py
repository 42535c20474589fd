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
    result = acceptance.criterion_fan(seed=0)
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


def test_criterion_7_matroid():
    result = acceptance.criterion_matroid()
    _report(result)
    assert result.passed, result.detail


def test_criterion_8_property_suites():
    result = acceptance.criterion_properties(seed=0)
    _report(result)
    assert result.passed, result.detail
