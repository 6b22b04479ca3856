"""The result records are immutable named tuples and ``Hypergraph`` an
immutable value class; importing the package and its CLI loads neither
``dataclasses`` nor ``inspect``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperres
from hyperres import (
    GeneratorSpec,
    Hypergraph,
    VerifyReport,
    analyze_structure,
    build_hypergraph,
    classify_family,
    generate,
    metric_dimension,
    primal_graph,
    run_verification,
)
from hyperres.cli import Reply


def _records():
    H = generate(GeneratorSpec("hypercycle", 4, 3))
    report = run_verification(max_k=3, max_n=3)
    return {
        "Certificate": metric_dimension(H)[1],
        "TwinClassPartition": H.twins,
        "FamilyDescriptor": classify_family(H),
        "StructureReport": analyze_structure(H),
        "GeneratorSpec": GeneratorSpec("hypercycle", 4, 3),
        "Multigraph": primal_graph(H),
        "VerifyRow": report.rows[0],
        "VerifyReport": report,
        "Reply": Reply({}, list),
    }


@pytest.mark.parametrize("name", list(_records()))
def test_record_fields_cannot_be_assigned(name):
    record = _records()[name]
    assert type(record).__name__ == name
    assert record._fields
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_records_read_by_name_and_unpack_as_tuples():
    spec = GeneratorSpec("hyperpath", 2, 3)
    assert spec.seed == 0
    assert spec == ("hyperpath", 2, 3, 0)
    kind, k, n, seed = spec
    assert (kind, k, n, seed) == (spec.kind, spec.k, spec.n, spec.seed)


def test_hypergraph_attributes_cannot_be_assigned_or_deleted():
    H = build_hypergraph([["a", "b", "c"], ["c", "d"]])
    for name in ("labels", "edges", "incidence", "anything"):
        with pytest.raises(AttributeError):
            setattr(H, name, ())
        with pytest.raises(AttributeError):
            delattr(H, name)
    assert H.labels == ("a", "b", "c", "d")
    # the cached properties write the instance dict, not through setattr
    assert H.incidence is H.incidence == ((0,), (0,), (0, 1), (1,))


def test_hypergraph_keeps_value_equality_and_hash():
    H = build_hypergraph([["a", "b", "c"], ["c", "d"]])
    same = Hypergraph(H.labels, H.edges)
    other = build_hypergraph([["a", "b"], ["b", "c", "d"]])
    assert H == same and hash(H) == hash(same)
    assert len({H, same, other}) == 2
    assert H != other
    assert H != (H.labels, H.edges)
    # cached analysis does not take part in equality
    H.distances
    assert H == same and hash(H) == hash((H.labels, H.edges))


def test_verification_reports_do_not_share_rows():
    first, second = run_verification(max_k=3), run_verification(max_k=3)
    assert first.rows is not second.rows
    assert first.rows == sorted(
        first.rows, key=lambda r: (r.rule, sorted(r.params.items())))
    with pytest.raises(TypeError):
        VerifyReport()


def test_cold_import_loads_no_dataclass_machinery():
    # -S keeps site hooks from preloading modules, so sys.modules holds only
    # what the interpreter and the package import
    src = Path(hyperres.__file__).parents[1]
    code = ("import sys, hyperres, hyperres.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
