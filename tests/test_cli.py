import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperres import (
    GeneratorSpec,
    cli,
    core,
    dual,
    format_hypergraph,
    generate,
    middle_graph,
    parse_hypergraph,
)
from hyperres.cli import main
from oracles import reference_primal_pairs, reference_twin_classes

OVERLAP4 = "v1 v2 v3\nv3 v4\n"
TWOBLOCK11 = (
    " ".join(f"v{i}" for i in range(1, 8))
    + "\n"
    + " ".join(f"v{i}" for i in range(6, 12))
    + "\n"
)
C43 = "v1 v2 v3\nv3 v4 v5\nv5 v6 v7\nv1 v7 v8\n"

GOLDEN = Path(__file__).with_name("golden_cli.json")
GOLDEN_FILES = {"overlap4.hg": OVERLAP4, "twoblock11.hg": TWOBLOCK11,
                "c43.hg": C43}


@pytest.fixture
def overlap4_file(tmp_path):
    path = tmp_path / "overlap4.hg"
    path.write_text(OVERLAP4)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_dim_human(capsys, overlap4_file):
    code, out, err = run(capsys, ["dim", overlap4_file])
    assert code == 0
    assert "dim = 2" in out
    assert "basis:" in out


def test_dim_json(capsys, overlap4_file):
    code, out, _ = run(capsys, ["dim", "--json", overlap4_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "dim"
    assert payload["input"] == overlap4_file
    assert payload["result"]["dim"] == 2
    assert payload["result"]["lower_bound"] == 1
    assert payload["certificate"]["valid"] is True
    assert len(payload["certificate"]["w"]) == 2
    assert isinstance(payload["elapsed_seconds"], float)


def test_json_stable_modulo_elapsed(capsys, overlap4_file):
    def snapshot():
        code, out, _ = run(capsys, ["dim", "--json", overlap4_file])
        assert code == 0
        payload = json.loads(out)
        payload.pop("elapsed_seconds")
        return payload

    assert snapshot() == snapshot()


def test_pd_command(capsys, tmp_path):
    path = tmp_path / "twoblock.hg"
    path.write_text(TWOBLOCK11)
    code, out, _ = run(capsys, ["pd", "--json", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["pd"] == 6
    assert len(payload["certificate"]["classes"]) == 6


def test_bounds_command(capsys, overlap4_file):
    code, out, _ = run(capsys, ["bounds", "--json", overlap4_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["dim_lower_bound"] == 1
    assert payload["result"]["pd_lower_bound"] == 3


def test_bounds_on_nested_edges(capsys, tmp_path):
    # the twin bound needs no Sperner property: the twins a and b lie in
    # distinct blocks, and at t = 2 c shares the representation of the twin
    # in its block, so pd >= 3
    path = tmp_path / "nested.hg"
    path.write_text("a b\na b c\n")
    code, out, _ = run(capsys, ["bounds", "--allow-non-sperner", str(path)])
    assert code == 0 and "pd >= 3" in out.splitlines()
    code, out, _ = run(
        capsys, ["bounds", "--json", "--allow-non-sperner", str(path)]
    )
    assert code == 0
    assert json.loads(out)["result"] == {"dim_lower_bound": 1, "pd_lower_bound": 3}


def test_classes_command(capsys, overlap4_file):
    code, out, _ = run(capsys, ["classes", "--json", overlap4_file])
    payload = json.loads(out)
    assert payload["result"]["forced"] == ["v2"]
    assert payload["result"]["largest_class_size"] == 2
    rows = payload["result"]["classes"]
    assert {"edges": [1], "vertices": ["v1", "v2"], "excess": 1,
            "representative": "v1"} in rows


def test_analyze_command(capsys, overlap4_file):
    code, out, _ = run(capsys, ["analyze", "--json", overlap4_file])
    payload = json.loads(out)
    result = payload["result"]
    assert result["connected"] and result["sperner"] and result["linear"]
    assert result["rank"] == 3
    assert result["diameter"] == 2


def test_gen_roundtrip(capsys):
    code, out, _ = run(capsys, ["gen", "--family", "path", "--k", "2", "--n", "3"])
    assert code == 0
    H = parse_hypergraph(out)
    assert H.m == 5 and H.k == 2


def test_gen_tree_seeded(capsys):
    code, out1, _ = run(
        capsys, ["gen", "--family", "tree", "--k", "4", "--n", "3", "--seed", "5"]
    )
    code2, out2, _ = run(
        capsys, ["gen", "--family", "tree", "--k", "4", "--n", "3", "--seed", "5"]
    )
    assert code == code2 == 0
    assert out1 == out2


def test_gen_invalid_params(capsys):
    code, _, err = run(capsys, ["gen", "--family", "cycle", "--k", "2", "--n", "3"])
    assert code == 4
    assert "error" in err


def test_transform_dual(capsys, overlap4_file):
    code, out, _ = run(capsys, ["transform", "--kind", "dual", overlap4_file])
    assert code == 0
    Hd = parse_hypergraph(out, allow_non_sperner=True)
    assert Hd.m == 2 and Hd.k == 4


def test_transform_middle(capsys, overlap4_file):
    code, out, _ = run(capsys, ["transform", "--kind", "middle", overlap4_file])
    H = parse_hypergraph(out)
    assert H.k == 4 and all(len(e) == 2 for e in H.edges)


@pytest.mark.parametrize("text,label", [("a b\nb c\nd\n", "d"), ("a\n", "a")])
def test_transform_middle_refuses_a_vertex_in_no_edge(capsys, tmp_path, text, label):
    # a vertex covered only by a one-vertex edge is isolated in the middle
    # graph, and an .hg file cannot hold it
    path = tmp_path / "isolated.hg"
    path.write_text(text)
    code, out, err = run(capsys, ["transform", "--kind", "middle", str(path)])
    assert code == 4 and out == ""
    assert err == (f"error: vertex '{label}' in no edge cannot be written "
                   "in .hg format\n")


@pytest.mark.parametrize("command,message", [
    ("pd", "partition dimension is defined on connected hypergraphs"),
    ("dim", "metric dimension is defined on connected hypergraphs"),
    # the twin bounds hold only where dim and pd are defined
    ("bounds", "dim and pd are defined on connected hypergraphs"),
])
def test_solvers_refuse_a_disconnected_file(capsys, tmp_path, command, message):
    path = tmp_path / "two.hg"
    path.write_text("a b\nc d\n")
    code, out, err = run(capsys, [command, str(path)])
    assert (code, out, err) == (4, "", f"error: {message}\n")


def test_transform_primal(capsys, overlap4_file):
    code, out, _ = run(capsys, ["transform", "--kind", "primal", overlap4_file])
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def _reference_transform(H, kind):
    """The text of ``transform --kind kind`` on H, through a second
    Hypergraph and ``format_hypergraph`` for middle and dual, and for
    primal one f-string line per pair."""
    if kind == "middle":
        return format_hypergraph(middle_graph(H))
    if kind == "dual":
        return format_hypergraph(dual(H))
    return "".join(f"{H.labels[a]} {H.labels[b]}\n"
                   for a, b in reference_primal_pairs(H))


def _captured(argv):
    """Exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_transform_text(text, *extra):
    """Every transform kind on the .hg ``text`` writes the reference text,
    human and --json, or fails with the reference's error."""
    H = parse_hypergraph(text, allow_non_sperner=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.hg")
        Path(path).write_text(text)
        for kind in ("primal", "middle", "dual"):
            argv = ["transform", "--kind", kind, *extra, path]
            try:
                expected = _reference_transform(H, kind)
            except ValueError as exc:
                for more in ([], ["--json"]):
                    assert _captured(argv + more) == (4, "", f"error: {exc}\n")
                continue
            assert _captured(argv) == (0, expected, "")
            code, out, err = _captured(argv + ["--json"])
            payload = {"command": "transform", "input": path,
                       "result": {"kind": kind, "hypergraph": expected},
                       "certificate": None, "elapsed_seconds": 0}
            assert (code, err) == (0, "")
            assert re.sub(r'"elapsed_seconds": [-+.e0-9]+',
                          '"elapsed_seconds": 0', out) == (
                json.dumps(payload, indent=2) + "\n")


# labels from a small alphabet, so edges repeat and nest, and size-one
# edges leave a vertex in no middle pair
_HG_TEXTS = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d", "e", "v10", "é"]),
             min_size=1, max_size=4),
    min_size=1, max_size=6,
).map(lambda edges: "".join(" ".join(edge) + "\n" for edge in edges))


@given(_HG_TEXTS)
@example("a b\na b\nc a\n")
@example("a b\nb c\nd\n")
@example("a\n")
@example("a b c\na b\nb\n")
def test_transform_writes_the_reference_text(text):
    _check_transform_text(text, "--allow-non-sperner")


@given(_HG_TEXTS)
@example("a b\na b\nc a\n")
@example("a b c\na b\nb\n")
@example("a\nb\n")
@settings(deadline=None)
def test_classes_reply_matches_the_reference(text):
    # nested and repeated edges occur; the reply writes the excess, the
    # representatives and the forced set from the class table, and the
    # reference groups vertex ids one at a time
    H = parse_hypergraph(text, allow_non_sperner=True)
    classes, excess, representatives, forced = reference_twin_classes(H)
    label = H.labels.__getitem__
    rows = [{"edges": [i + 1 for i in sig],
             "vertices": sorted(map(label, classes[sig])),
             "excess": excess[sig],
             "representative": label(representatives[sig])}
            for sig in sorted(classes)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.hg")
        Path(path).write_text(text)
        code, out, err = _captured(["classes", "--json", "--allow-non-sperner", path])
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["classes"] == rows
    assert result["forced"] == sorted(map(label, forced))
    assert result["largest_class_size"] == max(excess.values()) + 1


@pytest.mark.parametrize("spec", [GeneratorSpec("hyperpath", 600, 3),
                                  GeneratorSpec("hypertree", 600, 3, seed=0)])
def test_transform_on_600_edges_writes_the_reference_text(spec):
    _check_transform_text(format_hypergraph(generate(spec)))


@pytest.mark.parametrize("kind", ["primal", "middle", "dual"])
def test_transform_builds_no_second_hypergraph(capsys, monkeypatch,
                                                overlap4_file, kind):
    # the text is written from id rows: the parsed input is the one
    # Hypergraph the command builds
    built = []
    init = core.Hypergraph.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(core.Hypergraph, "__init__", counted)
    code, out, _ = run(capsys, ["transform", "--kind", kind, overlap4_file])
    assert code == 0 and out
    assert len(built) == 1


def test_missing_file_is_invalid_input(capsys):
    code, _, err = run(capsys, ["dim", "/nonexistent/x.hg"])
    assert code == 4
    assert err


def test_missing_file_message_names_the_normalised_path(capsys, tmp_path, monkeypatch):
    # the file is read through pathlib, which drops "./" and doubled slashes
    # from the name the error shows; plain open() would keep them
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, ["dim", ".//missing.hg"])
    assert code == 4
    assert err == "error: [Errno 2] No such file or directory: 'missing.hg'\n"


@pytest.mark.parametrize("word, message", [
    ("nope//x.hg", "[Errno 2] No such file or directory: 'nope/x.hg'"),
    (".//sub/", "[Errno 21] Is a directory: 'sub'"),
])
def test_read_errors_name_the_normalised_path(capsys, tmp_path, monkeypatch,
                                              word, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code, out, err = run(capsys, ["dim", word])
    assert (code, out, err) == (4, "", f"error: {message}\n")


def test_byte_order_mark_is_not_part_of_the_first_label(capsys, tmp_path):
    path = tmp_path / "bom.hg"
    path.write_bytes(b"\xef\xbb\xbf" + OVERLAP4.encode())
    code, out, err = run(capsys, ["classes", "--json", str(path)])
    assert code == 0 and err == ""
    plain = tmp_path / "plain.hg"
    plain.write_text(OVERLAP4)
    assert json.loads(out)["result"] == json.loads(
        run(capsys, ["classes", "--json", str(plain)])[1])["result"]
    code, out, err = run(capsys, ["transform", "--kind", "middle", str(path)])
    assert code == 0 and out.startswith("v1 v2\n")


@pytest.mark.parametrize("data", [b"v1 v2\xff\n", b"\xef\xbb\xbfv1 \xff\n"])
def test_invalid_utf8_is_invalid_input(capsys, tmp_path, data):
    path = tmp_path / "bad.hg"
    path.write_bytes(data)
    code, out, err = run(capsys, ["classes", str(path)])
    assert code == 4 and out == ""
    # the position is the bad byte's offset in the file, byte-order mark
    # included
    offset = data.index(b"\xff")
    assert err.startswith(
        f"error: 'utf-8' codec can't decode byte 0xff in position {offset}:")


def test_sperner_violation_exit_code(capsys, tmp_path):
    path = tmp_path / "nested.hg"
    path.write_text("a b c\na b\n")
    code, _, err = run(capsys, ["analyze", str(path)])
    assert code == 4
    # the CLI names its flag, not the library keyword
    assert err == ("error: edge 2 is contained in edge 1; "
                   "pass --allow-non-sperner to accept this input\n")
    code, _, _ = run(capsys, ["analyze", "--allow-non-sperner", str(path)])
    assert code == 0


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim"])  # missing file argument
    assert exc.value.code == 2


def test_cap_flag_exit_code(capsys, tmp_path):
    path = tmp_path / "cycle.hg"
    main(["gen", "--family", "cycle", "--k", "4", "--n", "3"])
    out, _ = capsys.readouterr()
    path.write_text(out)
    # C(4,3) has 8 vertices at diameter 3, and 3 + 1 < 8: the walk starts
    # at size 2, whose first step costs more than 4 units
    code, _, err = run(capsys, ["dim", "--cap", "4", str(path)])
    assert code == 3
    assert "dim >= 2" in err


def test_cap_env_override(capsys, tmp_path, monkeypatch):
    path = _gen_file(capsys, tmp_path / "c64.hg", "cycle", 6, n="4")
    monkeypatch.setenv("HYPERRES_CAP", "10")
    code, _, err = run(capsys, ["pd", path])
    assert code == 3
    # explicit flag beats the environment
    code, _, _ = run(capsys, ["pd", "--cap", "100000", path])
    assert code == 0


def test_budget_error_states_the_proven_bound(capsys, tmp_path):
    # 10 units stop the walk in its first t, 4, where the hypercycle bound
    # starts it; the default budget finishes
    path = _gen_file(capsys, tmp_path / "c64.hg", "cycle", 6, n="4")
    code, out, err = run(capsys, ["pd", "--cap", "10", path])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "pd >= 4" in err
    code, out, _ = run(capsys, ["pd", "--json", path])
    assert code == 0 and json.loads(out)["result"]["pd"] == 4


def test_default_budget_stops_a_long_pd_search(capsys, tmp_path):
    # 201 vertices: the walk charges its work, not its nodes, so it stops
    # at the default budget in seconds
    path = _gen_file(capsys, tmp_path / "tree100.hg", "tree", 100)
    began = time.perf_counter()
    code, out, err = run(capsys, ["pd", path])
    assert time.perf_counter() - began < 60
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "pd >= 3" in err


def test_cap_env_not_an_integer_is_a_usage_error(capsys, overlap4_file, monkeypatch):
    monkeypatch.setenv("HYPERRES_CAP", "abc")
    code, out, err = run(capsys, ["pd", overlap4_file])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "HYPERRES_CAP" in err


def test_cap_env_not_an_integer_fails_commands_without_caps(
    capsys, overlap4_file, monkeypatch
):
    monkeypatch.setenv("HYPERRES_CAP", "abc")
    code, out, err = run(capsys, ["classes", overlap4_file])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cap_env_not_an_integer_fails_analyze(capsys, overlap4_file, monkeypatch):
    monkeypatch.setenv("HYPERRES_CAP", "abc")
    code, out, err = run(capsys, ["analyze", overlap4_file])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_budget_is_a_usage_error(capsys, tmp_path, monkeypatch, source):
    # pd on one vertex charges nothing, so a negative budget would pass
    # unnoticed if it reached the search
    path = tmp_path / "single.hg"
    path.write_text("a\n")
    argv = ["pd", str(path)]
    if source == "flag":
        argv[1:1] = ["--cap", "-1"]
    else:
        monkeypatch.setenv("HYPERRES_CAP", "-1")
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("--cap" if source == "flag" else "HYPERRES_CAP") in err
    # a budget of 0 is allowed: the search charges nothing here
    monkeypatch.delenv("HYPERRES_CAP", raising=False)
    code, out, _ = run(capsys, ["pd", "--cap", "0", str(path)])
    assert code == 0 and "pd = 1" in out


def _gen_file(capsys, path, family, k, n="3"):
    assert main(["gen", "--family", family, "--k", str(k), "--n", n]) == 0
    out, _ = capsys.readouterr()
    path.write_text(out)
    return str(path)


def test_cap_does_not_change_analyze(capsys, tmp_path):
    # a 7-edge tree has branches of up to 6 edges; recognition and branch
    # listing do not search, so --cap 3 changes nothing
    path = _gen_file(capsys, tmp_path / "tree7.hg", "tree", 7)

    def masked(*extra):
        code, out, err = run(capsys, ["analyze", "--json", *extra, path])
        assert code == 0 and err == ""
        return re.sub(r'"elapsed_seconds": [-+.e0-9]+', '"elapsed_seconds": 0', out)

    plain = masked()
    assert "hypertree" in json.loads(plain)["result"]["families"]
    assert masked("--cap", "3") == plain


@pytest.mark.parametrize("family", ["path", "tree", "cycle"])
def test_analyze_600_edges(capsys, tmp_path, family):
    path = _gen_file(capsys, tmp_path / f"{family}600.hg", family, 600)
    code, out, err = run(capsys, ["analyze", "--json", path])
    assert code == 0 and err == ""
    families = json.loads(out)["result"]["families"]
    assert f"hyper{family}" in families


def test_analyze_builds_no_distance_matrix(capsys, monkeypatch, tmp_path):
    loaded = []

    def load(*args, **kwargs):
        loaded.append(parse_hypergraph(*args, **kwargs))
        return loaded[-1]

    monkeypatch.setattr(cli, "parse_hypergraph", load)
    path = tmp_path / "c43.hg"
    path.write_text(C43)
    code, out, _ = run(capsys, ["analyze", "--json", str(path)])
    assert code == 0 and json.loads(out)["result"]["diameter"] == 3
    assert "class_rows" not in loaded[0].__dict__


def test_bounds_on_20000_edges_is_fast(capsys, tmp_path):
    # the Sperner gate tests each edge against the edges through its vertex
    # of least degree, not against every other edge; the all-pairs scan
    # took ~3 s at 5,000 edges and grows with the square of the edge count
    path = _gen_file(capsys, tmp_path / "path20000.hg", "path", 20000)
    began = time.perf_counter()
    code, out, err = run(capsys, ["bounds", "--json", path])
    assert time.perf_counter() - began < 10
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["pd_lower_bound"] == 3


# ---------------------------------------------------------------------------
# --json text: exactly json.dumps(obj, indent=2)


class _Small(IntEnum):
    ONE = 1


# quotes, backslashes, control and non-ASCII characters, besides any other
_TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7fé€\U0001f600')
                | st.characters())
_SCALAR = st.one_of(
    st.none(), st.booleans(), _TEXT, st.just(_Small.ONE),
    st.integers(), st.integers(min_value=2**64, max_value=2**80),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                     1e-06, 1e16]),
)
# flat lists of one scalar type take the writer's one-join path; the mixed
# ones, bool with int among them, take its item-by-item path
_FLAT = st.one_of(
    st.lists(st.integers()), st.lists(_TEXT), st.lists(st.booleans()),
    st.lists(st.none()), st.lists(st.booleans() | st.integers()),
)
_JSON_VALUES = st.recursive(
    _SCALAR | _FLAT | _FLAT.map(tuple),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
        st.dictionaries(st.integers() | st.booleans() | st.none(), inner, max_size=2),
    ),
    max_leaves=20,
)


# Record arrays: 2-5 dicts with one key list, which the writer takes
# column by column. Keys hold the characters a template could misread
# (``%``, quotes) and non-ASCII ones. Columns: one scalar type; flat lists,
# among them an empty list, bool with int, or the int subclass _Small;
# float specials; nested dicts. Some draws reorder the last row's keys or
# give every row a key that is not a str, which the writer must leave to
# the item-by-item path.
_KEY = st.text(st.sampled_from('%s"\\aé€\U0001f600') | st.characters(),
               max_size=4)
# each column draws all its values from one of these
_COLUMNS = (
    st.integers(), st.booleans(), st.none(), _TEXT,
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.5]),
    st.lists(st.integers(), min_size=1, max_size=3),
    st.lists(_TEXT, min_size=1, max_size=3).map(tuple),
    st.lists(st.integers(), max_size=2),
    st.lists(st.booleans() | st.integers(), min_size=1, max_size=3),
    st.lists(st.integers() | st.just(_Small.ONE), min_size=1, max_size=3),
    st.dictionaries(_KEY, st.integers() | st.lists(st.integers()), max_size=2),
    _SCALAR,
)


@st.composite
def _records(draw):
    """A list or tuple of 2-5 dicts with one key list (see above)."""
    keys = draw(st.lists(_KEY, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(2, 5))
    columns = [draw(st.lists(draw(st.sampled_from(_COLUMNS)),
                             min_size=n, max_size=n)) for _ in keys]
    rows = [dict(zip(keys, values)) for values in zip(*columns)]
    change = draw(st.sampled_from(["none", "none", "reorder", "non-str key"]))
    if change == "reorder" and len(keys) > 1:
        rows[-1] = dict(reversed(rows[-1].items()))
    elif change == "non-str key":
        key = draw(st.integers() | st.none())
        for row in rows:
            row[key] = 0
    return draw(st.sampled_from([list, tuple]))(rows)


_RECORDS = _records()


@given(_JSON_VALUES)
# finite floats are written by float.__repr__, the rest by json.dumps
@example({"nan": float("nan"), "inf": [float("inf"), -float("inf")],
          "finite": [0.1, -0.0, 1e16, 1e308, 5e-324], "mixed": [0.5, 1]})
def test_json_text_is_the_stdlib_text(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@given(_RECORDS | st.dictionaries(_KEY, _RECORDS, min_size=1, max_size=2))
@settings(max_examples=300)
def test_record_arrays_are_the_stdlib_text(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("family", ["path", "tree"])
def test_json_output_on_600_edges_is_the_stdlib_text(capsys, tmp_path, family):
    # gen --seed fixes the hypertree. pd is left out: from t = 2 its walk
    # on these 1,201 vertices spends the default budget and exits 3.
    gen = ["gen", "--family", family, "--k", "600", "--n", "3", "--seed", "0"]
    assert main(gen) == 0
    path = tmp_path / f"{family}600.hg"
    path.write_text(capsys.readouterr().out)
    argvs = [gen] + [[command, str(path)] for command in
                     ("analyze", "dim", "bounds", "classes")]
    argvs += [["transform", "--kind", kind, str(path)]
              for kind in ("primal", "middle", "dual")]
    for argv in argvs:
        code, out, err = run(capsys, [*argv, "--json"])
        assert code == 0 and err == ""
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def _script_env():
    # the package on the path, and stdout block-buffered, as it is in a
    # shell pipeline unless PYTHONUNBUFFERED is set
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_closed_stdout_exits_141_with_one_line(capsys, tmp_path):
    # the human analyze output of a 200-edge path (~185 kB) overfills a
    # pipe (64 kB on Linux), so the writer is still writing when the
    # reader goes away
    path = _gen_file(capsys, tmp_path / "path200.hg", "path", 200)
    proc = subprocess.Popen(
        [sys.executable, "-m", "hyperres.cli", "analyze", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_script_env(),
    )
    assert os.read(proc.stdout.fileno(), 1) == b"v"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    # one line, and no "Exception ignored" from the flush at exit
    assert err == b"error: output closed\n"


@pytest.mark.parametrize("stderr_too", [False, True])
def test_closed_stdout_and_a_small_output_exit_141(stderr_too):
    # the output fits the stdout buffer, so it reaches the closed pipe only
    # when main flushes it, not at interpreter exit; with stderr on the
    # same pipe, as under 2>&1, the error line has nowhere to go either
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "hyperres.cli",
             "gen", "--family", "path", "--k", "2", "--n", "3"],
            stdout=write, stderr=write if stderr_too else subprocess.PIPE,
            env=_script_env(), timeout=60,
        )
    finally:
        os.close(write)
    assert done.returncode == 141
    assert done.stderr == (None if stderr_too else b"error: output closed\n")


def test_closed_in_memory_stdout_exits_141(capsys, overlap4_file, monkeypatch):
    # main called in process with a stream that has no file descriptor
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    code = main(["dim", "--json", overlap4_file])
    monkeypatch.undo()
    assert code == 141
    assert capsys.readouterr().err == "error: output closed\n"


# ---------------------------------------------------------------------------
# one parser per process: consecutive main calls share it


def test_parser_is_built_once(capsys, overlap4_file, monkeypatch):
    from hyperres import cli

    build_parser, builds = cli.build_parser, []

    def counting():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for command in ("dim", "pd", "bounds", "classes", "analyze"):
            assert run(capsys, [command, overlap4_file])[0] == 0
        assert run(capsys, ["gen", "--family", "path", "--k", "2", "--n", "3"])[0] == 0
        assert len(builds) == 1
    finally:
        cli._parser.cache_clear()


# The command lines the exact reader takes (see cli._parse_args), with "F"
# standing for an existing file: every command, and the argv shapes the
# benchmark and CI send, the file before or after the options.
EXACT_ARGVS = [
    ["analyze", "F"],
    ["dim", "F"],
    ["pd", "--json", "F"],
    ["bounds", "--json", "F"],
    ["classes", "F"],
    ["transform", "--kind", "dual", "--json", "F"],
    ["gen", "--family", "path", "--k", "2", "--n", "3"],
    ["verify", "--max-k", "2"],
    ["pd", "--json", "--allow-non-sperner", "F"],
    ["dim", "missing.hg"],
    ["analyze", "--json", "--cap", "14", "F"],
    ["transform", "--kind", "middle", "--json", "F"],
    ["verify", "--json"],
    ["verify", "--max-k", "3", "--max-n", "4"],
    ["gen", "--family", "tree", "--k", "3", "--n", "3", "--seed", "2"],
    ["dim", "F", "--json"],
    ["dim", "--cap", "05", "F"],
    ["dim", "--cap", " 5", "F"],
]

# Each argv as main passes it to the parser: the exact lines above, then
# the option spellings argparse accepts or rejects, help before and after
# the command, and the words that fail.
PARSE_ARGVS = EXACT_ARGVS + [
    ["dim", "--cap=5", "F"],
    ["dim", "--cap", "-5", "F"],
    ["dim", "--cap", "x", "F"],
    ["dim", "--js", "F"],
    ["dim", "--", "F"],
    ["dim", "-h"],
    ["-h", "dim"],
    ["--json", "dim", "F"],
    ["nosuch", "F"],
    ["di", "F"],
    ["dim", "F", "extra"],
    ["verify", "--json", "x", "y"],
    ["dim", "--kind", "dual", "F"],
    ["transform", "F"],
    ["transform", "--kind", "bogus", "F"],
    ["gen", "--family", "path"],
    ["dim"],
    [],
    ["dim", "--json", "--json", "F"],
    ["transform", "--kind", "", "F"],
    ["dim", "-1"],
    ["gen", "--family", "path", "--k", "2"],
    ["dim", "--cap"],
]


def _parsed(capsys, parse, argv):
    """The namespace ``parse(argv)`` returns, as its attribute list, or the
    exit code, stdout and stderr of the SystemExit it raises."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        return (exc.code, *capsys.readouterr())
    return list(vars(args).items())


@pytest.mark.parametrize("argv", PARSE_ARGVS, ids=" ".join)
def test_parse_is_the_full_parse(capsys, overlap4_file, argv):
    argv = [overlap4_file if word == "F" else word for word in argv]
    assert (_parsed(capsys, cli._parse_args, argv)
            == _parsed(capsys, cli._parser().parse_args, argv))


@pytest.mark.parametrize("argv", [["dim", "F", "extra"], ["pd", "--json", "F"]])
def test_parse_reads_sys_argv_without_argv(capsys, overlap4_file, monkeypatch,
                                           argv):
    argv = [overlap4_file if word == "F" else word for word in argv]
    monkeypatch.setattr(sys, "argv", ["hyperres", *argv])
    assert (_parsed(capsys, cli._parse_args, None)
            == _parsed(capsys, cli._parser().parse_args, None)
            == _parsed(capsys, cli._parser().parse_args, argv))


# The words of the drawn command lines below: every command and option,
# abbreviations, = forms, --, help, values that convert or fail, and files.
_PARSE_WORDS = [
    "analyze", "dim", "pd", "bounds", "classes", "transform", "gen", "verify",
    "--json", "--js", "--allow-non-sperner", "--allow", "--cap", "--cap=5",
    "--kind", "--kind=dual", "--ki", "primal", "middle", "dual", "bogus", "",
    "--family", "--fam", "path", "tree", "--k", "--n", "--seed", "--max-k",
    "--max-n", "--max", "5", "05", " 5", "-5", "x", "1_0", "--", "-", "-h",
    "--help", "f.hg", "f.hg", "extra", "--nosuch", "--json=1",
]


def _quiet_parse(parse, argv):
    """``_parsed`` without capsys, which a Hypothesis test cannot share
    between examples."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parse(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()
    return list(vars(args).items())


@given(st.sampled_from(_PARSE_WORDS[:8]) | st.sampled_from(_PARSE_WORDS),
       st.lists(st.sampled_from(_PARSE_WORDS[8:]), max_size=6))
@example("transform", ["--kind", "middle", "--json", "f.hg"])
@example("gen", ["--k", "3", "--family", "tree", "--n", "05", "--seed", "1_0"])
@example("dim", ["--cap", "5", "--json", "--allow-non-sperner", "f.hg"])
@settings(max_examples=500)
def test_a_drawn_command_line_parses_as_the_full_parse(command, words):
    argv = [command, *words]
    assert (_quiet_parse(cli._parse_args, argv)
            == _quiet_parse(cli._parser().parse_args, argv))


@pytest.mark.parametrize("argv", PARSE_ARGVS, ids=" ".join)
def test_the_exact_reader_takes_exactly_the_exact_lines(argv):
    entry = cli._parser().commands.get(argv[0]) if argv else None
    taken = entry is not None and cli._read_exact(*entry, argv) is not None
    assert taken == (argv in EXACT_ARGVS)


@pytest.mark.parametrize("argv", EXACT_ARGVS, ids=" ".join)
def test_an_exact_line_reaches_no_argparse_parse(capsys, overlap4_file,
                                                 monkeypatch, argv):
    # neither the top-level parser nor any subparser matches these words
    parser = cli._parser()
    for p in [parser, *(subparser for subparser, _ in parser.commands.values())]:
        monkeypatch.setattr(p, "parse_known_args",
                            _raise(AssertionError("parsed by argparse")))
    argv = [overlap4_file if word == "F" else word for word in argv]
    args = cli._parse_args(argv)
    monkeypatch.undo()
    assert list(vars(args).items()) == _parsed(capsys, parser.parse_args, argv)


def test_a_command_line_skips_the_top_level_parse(capsys, overlap4_file,
                                                  monkeypatch):
    # the words of a command line reach only the command's subparser
    monkeypatch.setattr(cli._parser(), "parse_known_args",
                        _raise(AssertionError("parsed at the top level")))
    assert run(capsys, ["bounds", "--json", overlap4_file])[0] == 0


def test_options_do_not_leak_into_the_next_call(capsys, tmp_path):
    path = _gen_file(capsys, tmp_path / "c64.hg", "cycle", 6, n="4")
    code, out, err = run(capsys, ["pd", "--json", "--cap", "5", path])
    assert code == 3 and out == "" and "pd >= 4" in err
    # neither --json nor --cap carries over
    code, out, err = run(capsys, ["pd", path])
    assert code == 0 and err == ""
    assert out.startswith("pd = 4\n")


def test_gen_then_dim_reads_the_file(capsys, tmp_path):
    # gen sets no file; the next command's file argument must still arrive
    path = _gen_file(capsys, tmp_path / "c43.hg", "cycle", 4)
    code, out, _ = run(capsys, ["dim", "--json", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == path and payload["result"]["dim"] == 2


def test_usage_error_then_a_good_call(capsys, overlap4_file):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--kind", "dual", overlap4_file])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, ["transform", "--kind", "dual", overlap4_file])
    assert code == 0 and err == ""
    code, out, err = run(capsys, ["dim", overlap4_file])
    assert code == 0 and err == "" and "dim = 2" in out


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


@pytest.mark.parametrize(
    "module, function, command, exc, code",
    [
        ("resolving", "metric_dimension", "dim", RecursionError("too deep"), 5),
        ("core", "analyze_structure", "analyze", MemoryError(), 5),
        ("partition", "partition_dimension", "pd", KeyboardInterrupt(), 130),
    ],
)
def test_resource_limits_and_interrupts_exit_with_one_line(
    capsys, overlap4_file, monkeypatch, module, function, command, exc, code
):
    from hyperres import cli

    monkeypatch.setattr(getattr(cli, module), function, _raise(exc))
    got, out, err = run(capsys, [command, "--json", overlap4_file])
    assert got == code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    expected = "interrupted" if code == 130 else "resource limit"
    assert expected in err


def test_unexpected_exception_is_an_internal_error(capsys, overlap4_file, monkeypatch):
    from hyperres import cli

    monkeypatch.setattr(cli.resolving, "metric_dimension",
                        _raise(RuntimeError("boom")))
    got, out, err = run(capsys, ["dim", "--json", overlap4_file])
    assert got == 70
    assert out == ""
    assert err == "error: internal error: RuntimeError: boom\n"


def test_verify_small_subset_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--max-k", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["failed"] == 0
    assert payload["result"]["passed"] > 0


def test_default_verification_covers_every_closed_form_row():
    from hyperres import run_verification

    report = run_verification()
    rows = {(r.rule, r.params.get("k"), r.params.get("n")) for r in report.rows}
    # every closed-form acceptance row is present in the default grid
    for k in (3, 4, 5, 6, 7, 8, 9):
        assert ("dim/hypercycle-3uniform", k, 3) in rows
    for k in (3, 4, 5):
        for n in (4, 5):
            assert ("dim/hypercycle-uniform", k, n) in rows
        for n in (3, 4):
            assert ("dim/hyperstar", k, n) in rows
    for k in (2, 3, 4, 5):
        for n in (3, 4, 5):
            assert ("dim/hyperpath", k, n) in rows
        assert ("dim/dual-hyperpath", k, 3) in rows
        assert ("pd/dual-hyperpath", k, 3) in rows
    for k in (3, 4, 5, 6):
        assert ("pd/hypercycle-3uniform", k, 3) in rows
    for k in (3, 4):
        for n in (2, 4):
            assert ("pd/hypercycle-uniform", k, n) in rows
    for k in (2, 3, 4):
        for n in (2, 3, 4):
            assert ("pd/hyperpath", k, n) in rows
    for k in (3, 4, 5):
        assert ("dim/dual-hypercycle", k, 3) in rows
        assert ("pd/dual-hypercycle", k, 3) in rows
    assert ("pinned/dim-overlap4", None, None) in rows
    assert ("pinned/dim-cover6", None, None) in rows
    assert ("pinned/pd-twoblock11", None, None) in rows
    assert ("pinned/rank-twoblock11", None, None) in rows
    assert len(report.rows) == 66
    # the four provably-wrong closed forms are the only failures
    failing = {
        (r.rule, r.params.get("k"), r.params.get("n"))
        for r in report.rows
        if not r.passed
    }
    assert failing == {
        ("pd/hypercycle-3uniform", 3, 3),
        ("pd/hypercycle-3uniform", 5, 3),
        ("pd/hypercycle-uniform", 3, 4),
        ("pd/hypercycle-uniform", 4, 4),
    }


def test_max_n_drops_every_row_above_it():
    from hyperres import run_verification

    # the dual rows are n = 3 rows, so a limit of 2 drops them too
    report = run_verification(max_n=2)
    grid = [r.params for r in report.rows if r.params]
    assert grid and all(params["n"] <= 2 for params in grid)
    assert len(report.rows) == 9


def test_verify_reports_known_disagreements(capsys):
    # the odd-k and n>=4 hypercycle partition rows disagree with the exact
    # solver; verify must surface them and exit 1
    code, out, _ = run(capsys, ["verify", "--max-k", "3", "--max-n", "4", "--json"])
    assert code == 1
    payload = json.loads(out)
    failing = {
        (row["rule"], row["params"].get("k"), row["params"].get("n"))
        for row in payload["result"]["rows"]
        if not row["passed"]
    }
    assert failing == {
        ("pd/hypercycle-3uniform", 3, 3),
        ("pd/hypercycle-uniform", 3, 4),
    }
    rows = payload["result"]["rows"]
    assert rows == sorted(
        rows, key=lambda r: (r["rule"], sorted(r["params"].items()))
    )


def golden_argvs():
    for name in GOLDEN_FILES:
        for command in ("analyze", "dim", "pd", "bounds", "classes"):
            yield [command, name]
        for kind in ("primal", "middle", "dual"):
            yield ["transform", "--kind", kind, name]
    yield ["gen", "--family", "cycle", "--k", "4", "--n", "3"]
    yield ["verify", "--max-k", "2"]


def golden_outputs(directory: Path) -> dict[str, str]:
    """Exit code and stdout of every golden command, human and --json,
    with the input files written to ``directory``, their directory cut
    from the output, and every elapsed time masked."""
    for name, text in GOLDEN_FILES.items():
        (directory / name).write_text(text)
    outputs = {}
    for argv in golden_argvs():
        for extra in ([], ["--json"]):
            args = argv[:1] + extra + argv[1:]
            command = [str(directory / a) if a in GOLDEN_FILES else a
                       for a in args]
            stdout = io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = main(command)
            text = stdout.getvalue().replace(str(directory) + "/", "")
            text = re.sub(r'"elapsed_seconds": [-+.e0-9]+',
                          '"elapsed_seconds": 0', text)
            text = re.sub(r"\(\d+\.\d+s\)", "(0s)", text)
            outputs[" ".join(args)] = f"exit {code}\n{text}"
    return outputs


def test_output_matches_golden(tmp_path):
    # The golden file pins user-visible output; rewrite it (see the end of
    # this file) only for an intended change of output.
    assert golden_outputs(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    # Rewrite the golden file from the current tree:
    #   PYTHONPATH=src python tests/test_cli.py
    # Do this only when the output is meant to change.
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(golden_outputs(Path(tmp)), indent=1) + "\n")
