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
from hypothesis import given
from hypothesis import strategies as st

from hyperres import cli, parse_hypergraph
from hyperres.cli import main

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


def test_missing_file_is_invalid_input(capsys):
    code, _, err = run(capsys, ["dim", "/nonexistent/x.hg"])
    assert code == 4
    assert err


def test_sperner_violation_exit_code(capsys, tmp_path):
    path = tmp_path / "nested.hg"
    path.write_text("a b c\na b\n")
    code, _, err = run(capsys, ["analyze", str(path)])
    assert code == 4
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
    code, _, err = run(capsys, ["dim", "--cap", "4", str(path)])
    assert code == 3
    assert "dim >= 1" in err


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
    assert "distances" not in loaded[0].__dict__


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


@given(_JSON_VALUES)
def test_json_text_is_the_stdlib_text(value):
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
