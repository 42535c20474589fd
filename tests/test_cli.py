import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symbic.cli
import symbic.counting
from symbic.cli import main
from symbic.counting import random_regular_tree
from test_fan import counted_signings


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
        {"n": True, "entries": [["0"]]},
        {"n": 1.0, "entries": [["0"]]},
        {"n": "1", "entries": [["0"]]},
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
    for declared in (7, True, "1"):
        path.write_text(json.dumps({**good, "n": declared}))
        assert main(["matrix-from-tree", "--tree", str(path)]) == 1
        error = structured_error(capsys)
        assert error["kind"] == "bad-input" and "declared n" in error["message"]
    for body in (good, {**good, "n": 1}):
        path.write_text(json.dumps(body))
        assert main(["matrix-from-tree", "--tree", str(path)]) == 0


def structured_error(capsys):
    """The one JSON error object a failed command wrote to stderr."""
    payload = json.loads(capsys.readouterr().err)
    assert set(payload) == {"error"} and set(payload["error"]) == {"kind", "message"}
    return payload["error"]


def test_file_system_errors_give_structured_error(tmp_path, capsys):
    matrix = write_matrix(tmp_path / "p3.json", [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]])
    tree = tmp_path / "tree.json"
    assert main(["tree-from-matrix", "--matrix", matrix, "--out", str(tree)]) == 0
    capsys.readouterr()
    # a directory where an input file should be
    for argv in (["rank", "--matrix", str(tmp_path)],
                 ["tree-from-matrix", "--matrix", str(tmp_path)],
                 ["matrix-from-tree", "--tree", str(tmp_path)]):
        assert main(argv) == 1
        error = structured_error(capsys)
        assert error["kind"] == "bad-input" and str(tmp_path) in error["message"]
    # every --out, --dot and --report write, into a missing directory
    unwritable = str(tmp_path / "no" / "such" / "dir" / "x")
    for argv in (
        ["count", "--n", "3", "--out", unwritable],
        ["count", "--n", "3", "--method", "egf", "--out", unwritable],
        ["rank", "--matrix", matrix, "--out", unwritable],
        ["tree-from-matrix", "--matrix", matrix, "--out", unwritable],
        ["tree-from-matrix", "--matrix", matrix, "--dot", unwritable],
        ["matrix-from-tree", "--tree", str(tree), "--out", unwritable],
        ["enumerate", "--n", "2", "--out", unwritable],
        ["shelling", "--n", "2", "--out", unwritable],
        ["matroid", "--n", "2", "--out", unwritable],
        ["conjecture", "--n", "2", "--report", unwritable],
        ["fan", "--n", "3", "--report", unwritable],
    ):
        assert main(argv) == 1, argv
        error = structured_error(capsys)
        assert error["kind"] == "io" and unwritable in error["message"]
    # an existing directory as the output file
    assert main(["count", "--n", "2", "--out", str(tmp_path)]) == 1
    assert structured_error(capsys)["kind"] == "io"


def test_self_loops_and_repeated_edges_are_bad_input(tmp_path, capsys):
    """A self-loop of any length, or an edge listed twice in either
    orientation, is a bad input file, never a traceback or a tree."""
    edges = [{"u": 0, "v": 1, "len": None}, {"u": 0, "v": 2, "len": None},
             {"u": 0, "v": 3, "len": "1"}, {"u": 3, "v": 4, "len": None},
             {"u": 3, "v": 5, "len": None}]
    leaves = {"1": 1, "1p": 2, "2": 4, "2p": 5}
    path = tmp_path / "tree.json"
    for extra, message in (
        ({"u": 0, "v": 0, "len": "0"}, "self-loop"),
        ({"u": 0, "v": 0, "len": "1"}, "self-loop"),
        ({"u": 0, "v": 3, "len": "1"}, "listed twice"),
        ({"u": 3, "v": 0, "len": "5"}, "listed twice"),
    ):
        path.write_text(json.dumps({"edges": edges + [extra], "leaves": leaves}))
        assert main(["matrix-from-tree", "--tree", str(path)]) == 1
        error = structured_error(capsys)
        assert error["kind"] == "bad-input" and message in error["message"]
    path.write_text(json.dumps({"edges": edges, "leaves": leaves}))
    assert main(["matrix-from-tree", "--tree", str(path)]) == 0


def test_csv_and_json_parse_errors_share_a_kind(tmp_path, capsys):
    for rows in ([["1", "x"], ["0", "1"]], [["1", "0"], ["0"]], [["1/0", "0"], ["0", "1"]]):
        table = tmp_path / "m.csv"
        table.write_text("\n".join(",".join(row) for row in rows) + "\n")
        document = write_matrix(tmp_path / "m.json", rows)
        for command in ("rank", "tree-from-matrix"):
            kinds = []
            for path in (str(table), document):
                assert main([command, "--matrix", path]) == 1
                kinds.append(structured_error(capsys)["kind"])
            assert kinds == ["bad-input", "bad-input"]


def test_negative_count_gives_structured_error(capsys):
    for extra in ([], ["--method", "recurrence"], ["--method", "egf"],
                  ["--method", "constructive"]):
        assert main(["count", "--n", "-1", *extra]) == 1
        assert structured_error(capsys) == {"kind": "invalid", "message": "n must be >= 0"}


def test_size_cap_is_reported(capsys):
    assert main(["enumerate", "--n", "9"]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert "cap" in payload["error"]["message"]


def test_unknown_flags_rejected():
    with pytest.raises(SystemExit):
        main(["count", "--n", "3", "--frobnicate"])


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["enumerate", "--n", "4"],
         "03ed10e236a6f55fb403404bbc8133ab2ea6354e17e92a1d1e6379f7da4398d7"),
        (["shelling", "--n", "4", "--verify"],
         "1068d6c0ea11009848e0346d4ba862f92c58f56df639f5494ca75d95da62e5b8"),
        (["matroid", "--n", "3", "--filter", "all", "--verify"],
         "aaccac5604780635e2150a3a79962a61c35c13c7c86b26ef005f5a9bc88d6c9b"),
        (["shelling", "--n", "5", "--verify"],
         "7293ed932cfad6f2211668fa606492498be3b4b009041432238f079a4b89b710"),
        (["matroid", "--n", "4", "--filter", "all", "--verify"],
         "e661b22950c1ce2f7f45d42e9e9d076bbe6468971be8a8466c1bccff6f41a397"),
        (["enumerate", "--n", "5"],
         "e6afa94ea17b32dcf6c700450801b7dde48d55b2c8b86013244dc95aa1af2328"),
    ],
)
def test_outputs_are_pinned(tmp_path, argv, digest):
    """The files carry vertex ids, canonical keys and orders; their bytes
    must not move when the tree internals change."""
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "n, digest",
    [
        (4, "81484abafdcd85fe27fa8e6f1154a0d89401eddfa35c82834e7a4990bfbf916b"),
        (5, "77e9cc5fe0dc2b7689ea9916cd17146a5787daccf4c2fd4431e9e8963dbc9932"),
    ],
)
def test_conjecture_outputs_are_pinned(tmp_path, n, digest):
    """The caterpillar scan's report lists the missing bases; its bytes must
    not move when the sweep changes."""
    report = tmp_path / "report.md"
    assert main(["conjecture", "--n", str(n), "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


@pytest.mark.long
def test_matroid_n5_output_is_pinned(tmp_path):
    """The 3655 bases of the n = 5 union; the bytes must not move when the
    basis search changes."""
    out = tmp_path / "out.json"
    assert main(["matroid", "--n", "5", "--filter", "all", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f79a8db4aeb28399c0f0560c0e003c6ac6df20750d38d11d1b18d173943ef13a"
    )


@pytest.mark.parametrize(
    "entries, tree_digest, dot_digest",
    [
        ([["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]],
         "e54427efe74d85f9fcb118feaf851bc5badeb8f90d7478830bd4024ec29a5831",
         "49da6f27de11f15250117c67d47571952fe17f609013c5f3bc64c90724288a8b"),
        # the matrix of four_pair_chain_tree(1, 2, 3)
        ([["0", "1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "2", "2"], ["0", "0", "2", "5"]],
         "eda46a01442c970453c107af2ba009f2092301a85f497186887f083b71ee87be",
         "660377af39c4c5e7e23a6b7f6e4bde6fa5cba95eeb55bd595ba1b2c84e92f975"),
        # the matrix of random_regular_tree(6, random.Random(6))
        ([["0", "0", "0", "0", "10/11", "0"],
          ["0", "10/9", "10/9", "88/63", "0", "10/9"],
          ["0", "10/9", "19/9", "10/9", "0", "19/9"],
          ["0", "88/63", "10/9", "10/9", "0", "10/9"],
          ["10/11", "0", "0", "0", "0", "0"],
          ["0", "10/9", "19/9", "10/9", "0", "254/99"]],
         "0ee21e5825426fe0075de17f65035d3096077654ce682ffbf1df8023222e681f",
         "3d9928375e6b7dc4463eb8713c3c661f823096b57ca0839f609ef9f0ca38ece9"),
    ],
    ids=["permuted", "four-pair-chain", "random-n6"],
)
def test_tree_from_matrix_outputs_are_pinned(tmp_path, entries, tree_digest, dot_digest):
    """The rebuilt tree's vertex ids and edge order reach both files; their
    bytes must not move when the reconstruction's checks change."""
    matrix = write_matrix(tmp_path / "m.json", entries)
    out, dot = tmp_path / "tree.json", tmp_path / "tree.dot"
    assert main(["tree-from-matrix", "--matrix", matrix,
                 "--out", str(out), "--dot", str(dot)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == tree_digest
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == dot_digest


def test_matrix_from_tree_outputs_are_pinned(tmp_path):
    """A seeded n = 6 tree with non-integer lengths and a four-vertex
    trunk; the matrix's bytes must not move when the way it is read off
    the tree changes."""
    tree = random_regular_tree(6, random.Random(2))
    assert len(tree.trunk()) == 4
    assert any(length.denominator > 1 for _, _, length in tree.internal_edges())
    path, out = tmp_path / "tree.json", tmp_path / "matrix.json"
    path.write_text(json.dumps(tree.to_json_dict()))
    assert main(["matrix-from-tree", "--tree", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "87460a5863df9fbf094674c84fe0c0edb44987e6019a5def304fe35e25be6cfc"
    )


@pytest.mark.parametrize(
    "n, digest",
    [
        (3, "ef380dbd45fd7830f817a48d38cc17c08e1a932c87d01f871603c3be30d5095b"),
        (4, "bb15cf9808c7e05304a46a572bfe44be769f47578e1995112cd4562fe84b9e4c"),
        (5, "da6cdd1f72d3ad6ed3fc977e51b4a782e9ca194ce31ff2a07a4d1e6a8fc5214a"),
    ],
)
def test_fan_report_is_pinned(tmp_path, n, digest):
    """``fan`` writes its coarse cell counts and signature groups with
    ``--report``; their bytes must not move when the signature kernel
    changes."""
    report = tmp_path / "fan.md"
    assert main(["fan", "--n", str(n), "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_matroid_verify_enumerates_once(monkeypatch, capsys):
    calls = []
    original = symbic.cli.enumerate_regular

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(symbic.cli, "enumerate_regular", counted)
    monkeypatch.setattr(symbic.counting, "enumerate_regular", counted)
    assert main(["matroid", "--n", "3", "--verify"]) == 0
    assert calls == [3]
    assert capsys.readouterr().out == "n=3 filter=all: 6 bases\nbasis transitions: Ok\n"


def test_fan_enumerates_once(monkeypatch, capsys):
    calls = []
    original = symbic.cli.enumerate_regular

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(symbic.cli, "enumerate_regular", counted)
    monkeypatch.setattr(symbic.counting, "enumerate_regular", counted)
    assert main(["fan", "--n", "3"]) == 0
    assert calls == [3]
    assert capsys.readouterr().out == "n=3 refinement: Ok\ncoarse cells: 9 over 12 tree cones\n"
    # past the cap, and below n = 3, the size error comes before any enumeration
    assert main(["fan", "--n", "7"]) == 1
    assert calls == [3]
    assert "exceeds fan cap 6" in capsys.readouterr().err
    assert main(["fan", "--n", "2"]) == 1
    assert calls == [3]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": {"kind": "invalid", "message": "signatures need n >= 3"}
    }


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["matroid", "--n", "6", "--verify"], "transition check cap 5"),
        (["conjecture", "--n", "7"], "basis enumeration cap 6"),
    ],
)
def test_size_caps_refuse_before_any_enumeration(monkeypatch, capsys, argv, cap):
    calls = []

    def counted(n):
        calls.append(n)
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(symbic.cli, "enumerate_regular", counted)
    monkeypatch.setattr(symbic.counting, "enumerate_regular", counted)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert calls == []
    assert captured.out == ""
    assert f"exceeds {cap}" in json.loads(captured.err)["error"]["message"]


@pytest.mark.parametrize("n, signed", [(3, 3), (4, 8)], ids=["3", "4"])
def test_fan_signs_each_tree_once_per_sample(monkeypatch, n, signed):
    """The refinement check, the coarse cell count and, at n = 3, the
    signature groups come from one signing pass: one certified sweep for
    each of the 3 or 8 S_n orbit representatives of the 12 or 111 trees,
    and no generic sample, since every representative is certified."""
    sweeps, sampled = counted_signings(monkeypatch)
    assert main(["fan", "--n", str(n)]) == 0
    assert sweeps == [n] * signed
    assert sampled == []


# -- fuzzing the loaders --------------------------------------------------------

KEYS = st.sampled_from(["n", "u", "v", "len", "edges", "leaves", "vertices", "entries", "1", "1p"])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.sampled_from(["0", "1", "-2", "1/2", "1/0", "3p", "2'", "1e3", "1e1000000", "x", ""])
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=10,
)


@st.composite
def tree_documents(draw):
    """Valid tree JSON with a few random edits, or any JSON value at all."""
    if draw(st.booleans()):
        return draw(JSON)
    rng = random.Random(draw(st.integers(0, 2**32)))
    doc = random_regular_tree(draw(st.integers(1, 4)), rng).to_json_dict()
    edges, leaves = doc["edges"], doc["leaves"]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["drop", "add", "move", "field", "leaf", "loop", "twice"]))
        if edit == "drop" and edges:
            edges.pop(draw(st.integers(0, len(edges) - 1)))
        elif edit == "add":
            edges.append({"u": draw(st.integers(-1, 30)), "v": draw(st.integers(-1, 30)),
                          "len": draw(SCALARS)})
        elif edit == "move" and any(e["len"] is not None for e in edges):
            # rewiring an internal edge can leave a cycle beside a detached part
            edge = draw(st.sampled_from([e for e in edges if e["len"] is not None]))
            edge[draw(st.sampled_from(["u", "v"]))] = draw(st.sampled_from(doc["vertices"]))
        elif edit == "loop":
            # a zero length once reached the zero-edge contraction
            w = draw(st.sampled_from(doc["vertices"]))
            edges.append({"u": w, "v": w, "len": draw(st.sampled_from(["0", "1"]) | SCALARS)})
        elif edit == "twice" and edges:
            # the same edge again, either way round, with any length
            edge = edges[draw(st.integers(0, len(edges) - 1))]
            ends = draw(st.sampled_from([("u", "v"), ("v", "u")]))
            edges.append({"u": edge[ends[0]], "v": edge[ends[1]], "len": draw(SCALARS)})
        elif edit == "field" and edges:
            edge = edges[draw(st.integers(0, len(edges) - 1))]
            edge[draw(st.sampled_from(["u", "v", "len"]))] = draw(SCALARS)
        elif edit == "leaf":
            leaves[draw(st.sampled_from(sorted(leaves) + ["9", "0", "1q"]))] = draw(
                st.integers(-1, 30) | SCALARS
            )
    if draw(st.integers(0, 3)) == 0:
        doc[draw(KEYS)] = draw(JSON)
    return doc


def cells(max_size=4):
    return st.lists(st.lists(SCALARS, max_size=max_size), max_size=max_size)


@st.composite
def symmetric_grids(draw):
    k = draw(st.integers(1, 4))
    upper = {(i, j): draw(st.integers(-2, 3)) for i in range(k) for j in range(i, k)}
    return [[upper[min(i, j), max(i, j)] for j in range(k)] for i in range(k)]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        assert code == 1
        assert "error" in json.loads(err.getvalue())
    return code


def with_edge(u, v, length):
    """A valid n = 2 tree document (internal vertices 0 and 1, joined by an
    edge of length 8/7) with one more edge: its only edit."""
    doc = random_regular_tree(2, random.Random(0)).to_json_dict()
    doc["edges"].append({"u": u, "v": v, "len": length})
    return doc


@given(
    tree_documents(),
    JSON | st.fixed_dictionaries({"entries": cells() | symmetric_grids()}),
    cells() | symmetric_grids(),
)
# the generated documents rarely carry one of these edits alone, where no
# other edit is refused before it
@example(with_edge(0, 0, "0"), {"entries": [[0]]}, [[0]])  # a zero-length self-loop
@example(with_edge(1, 0, "3"), {"entries": [[0]]}, [[0]])  # the internal edge again
@settings(max_examples=200, deadline=None)
def test_loaders_never_raise(tree_doc, matrix_doc, csv_rows):
    """Malformed tree, matrix and CSV files give exit 1 with a JSON error on
    stderr, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp, "tree.json")
        tree.write_text(json.dumps(tree_doc))
        run_cli(["matrix-from-tree", "--tree", str(tree)])
        matrix = Path(tmp, "m.json")
        matrix.write_text(json.dumps(matrix_doc))
        table = Path(tmp, "m.csv")
        table.write_text("\n".join(",".join(map(str, row)) for row in csv_rows))
        for path in (matrix, table):
            for command in ("rank", "tree-from-matrix"):
                run_cli([command, "--matrix", str(path)])
