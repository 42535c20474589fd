import json

import pytest

from symbic.cli import main


def write_matrix(path, entries):
    path.write_text(json.dumps({"n": len(entries), "entries": entries}))
    return str(path)


def test_rank_output_line(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "id3.json", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    assert main(["rank", "--matrix", matrix]) == 0
    out = capsys.readouterr().out
    assert "tropical_rank=2 symmetric_tropical_rank=3" in out


def test_rank_reads_csv(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,0,0\n0,0,1\n0,1,0\n")
    assert main(["rank", "--matrix", str(path)]) == 0
    assert "symmetric_tropical_rank=2" in capsys.readouterr().out


def test_tree_round_trip_via_cli(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "p3.json", [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]])
    tree_path = tmp_path / "tree.json"
    dot_path = tmp_path / "tree.dot"
    assert main(["tree-from-matrix", "--matrix", matrix,
                 "--out", str(tree_path), "--dot", str(dot_path)]) == 0
    dot = dot_path.read_text()
    assert dot.count("style=bold") == 1
    out_matrix = tmp_path / "back.json"
    assert main(["matrix-from-tree", "--tree", str(tree_path),
                 "--out", str(out_matrix)]) == 0
    data = json.loads(out_matrix.read_text())
    assert data["n"] == 3


def test_count_agreement(capsys):
    assert main(["count", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("1395") == 4  # three methods plus the agreement line


def test_enumerate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["enumerate", "--n", "3", "--out", str(a)]) == 0
    assert main(["enumerate", "--n", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["count"] == 12


def test_shelling_verify(tmp_path, capsys):
    out = tmp_path / "order.json"
    assert main(["shelling", "--n", "3", "--verify", "--out", str(out)]) == 0
    assert "shelling: Ok" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["verified"] and len(data["cells"]) == 12


def test_matroid_and_conjecture(tmp_path, capsys):
    bases = tmp_path / "bases.json"
    assert main(["matroid", "--n", "3", "--filter", "catbranch",
                 "--verify", "--out", str(bases)]) == 0
    assert json.loads(bases.read_text())["count"] == 6
    report = tmp_path / "report.md"
    assert main(["conjecture", "--n", "3", "--report", str(report)]) == 0
    assert "equal: True" in report.read_text()


def test_fan_report(tmp_path, capsys):
    report = tmp_path / "fan.md"
    assert main(["fan", "--n", "3", "--report", str(report)]) == 0
    text = report.read_text()
    assert "9" in text and "12" in text


def test_bad_input_gives_structured_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["rank", "--matrix", missing]) == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"]["kind"] == "bad-input"
    for body in (
        {"entries": 5},
        {"entries": [5, 6]},
        {"entries": [[True, 0], [0, 1]]},
        {"entries": [["1e1000000", "0"], ["0", "1"]]},
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        assert main(["rank", "--matrix", str(path)]) == 1
        assert "error" in json.loads(capsys.readouterr().err)
    good = {"edges": [{"u": 0, "v": 1, "len": None}, {"u": 0, "v": 2, "len": None}],
            "leaves": {"1": 1, "1p": 2}}
    for body in (
        {**good, "edges": [{"v": 1}]},
        {**good, "edges": [[0, 1]]},
        {**good, "edges": {"u": 0, "v": 1}},
        {**good, "leaves": [1, 2]},
        {**good, "leaves": {"1": "x", "1p": 2}},
        {**good, "leaves": {"1": None, "1p": 2}},
        {**good, "leaves": {"one": 1, "1p": 2}},
        {**good, "edges": [{"u": 0.5, "v": 1}, {"u": 0, "v": 2}]},
        {**good, "edges": [{"u": True, "v": 1}, {"u": 0, "v": 2}]},
        {**good, "vertices": 3},
        [good],
    ):
        path = tmp_path / "bad_tree.json"
        path.write_text(json.dumps(body))
        assert main(["matrix-from-tree", "--tree", str(path)]) == 1
        assert "error" in json.loads(capsys.readouterr().err)
    path.write_text(json.dumps(good))
    assert main(["matrix-from-tree", "--tree", str(path)]) == 0


def test_size_cap_is_reported(capsys):
    assert main(["enumerate", "--n", "9"]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert "cap" in payload["error"]["message"]


def test_unknown_flags_rejected():
    with pytest.raises(SystemExit):
        main(["count", "--n", "3", "--frobnicate"])
