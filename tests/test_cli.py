import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hyperres import parse_hypergraph
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


def test_cap_env_override(capsys, overlap4_file, monkeypatch):
    monkeypatch.setenv("HYPERRES_CAP", "1")
    code, _, err = run(capsys, ["dim", overlap4_file])
    assert code == 3
    # explicit flag beats the environment
    code, _, _ = run(capsys, ["dim", "--cap", "24", overlap4_file])
    assert code == 0


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
    # every closed-form acceptance row is present at default caps
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
