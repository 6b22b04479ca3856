"""Acceptance gate: one test per criterion, exact integer equality
throughout, one pass/fail line per criterion in the terminal summary.

Criterion 6 carries four hypercycle partition-dimension rows whose stated
closed-form values are contradicted by exhaustive enumeration (independent
oracle and hand-checked witnesses); those assertions are kept as stated and
are expected to fail. Details in the failure message.
"""

import pytest

from conftest import record_criterion
from hyperres import (
    GeneratorSpec,
    analyze_structure,
    count_minimum_bases,
    dim_lower_bound,
    dual,
    generate,
    metric_dimension,
    middle_graph,
    partition_dimension,
    pd_lower_bound,
    twin_classes,
)
from instances import (
    cover6,
    overlap4,
    random_connected_sperner,
    random_private_vertex_instance,
    twoblock11,
)
from oracles import (
    oracle_count_minimum_bases,
    oracle_metric_dimension,
    oracle_partition_dimension,
)


def test_criterion_01_dim_3uniform_hypercycles():
    failures = []
    for k, want in [(3, 2), (4, 2), (6, 2), (8, 2), (5, 3), (7, 3), (9, 3)]:
        got = metric_dimension(generate(GeneratorSpec("hypercycle", k, 3)))[0]
        if got != want:
            failures.append(f"C_{{{k},3}}: dim={got} expected {want}")
    record_criterion(1, "dim of 3-uniform hypercycles", failures)


def test_criterion_02_dim_uniform_hypercycles():
    failures = []
    for k in (3, 4, 5):
        for n in (4, 5):
            want = k * (n - 3)
            got = metric_dimension(generate(GeneratorSpec("hypercycle", k, n)))[0]
            if got != want:
                failures.append(f"C_{{{k},{n}}}: dim={got} expected {want}")
    record_criterion(2, "dim of n-uniform hypercycles", failures)


def test_criterion_03_dim_hyperstars():
    failures = []
    for k in (3, 4, 5):
        for n in (3, 4):
            want = k * (n - 2)
            got = metric_dimension(generate(GeneratorSpec("hyperstar", k, n)))[0]
            if got != want:
                failures.append(f"star({k},{n}): dim={got} expected {want}")
    record_criterion(3, "dim of hyperstars", failures)


def test_criterion_04_dim_hyperpaths():
    failures = []
    for k in (2, 3, 4, 5):
        for n in (3, 4, 5):
            want = 2 * (n - 2) + (k - 2) * (n - 3)
            got = metric_dimension(generate(GeneratorSpec("hyperpath", k, n)))[0]
            if got != want:
                failures.append(f"path({k},{n}): dim={got} expected {want}")
    record_criterion(4, "dim of hyperpaths", failures)


def test_criterion_05_pinned_examples():
    failures = []
    checks = [
        ("overlap4 dim", metric_dimension(overlap4())[0], 2),
        ("cover6 dim", metric_dimension(cover6())[0], 5),
        ("twoblock11 pd", partition_dimension(twoblock11())[0], 6),
        ("twoblock11 rank", analyze_structure(twoblock11()).rank, 7),
    ]
    for name, got, want in checks:
        if got != want:
            failures.append(f"{name}: {got} expected {want}")
    record_criterion(5, "pinned reference instances", failures)


def test_criterion_06_pd_hypercycles():
    # stated values; the k in {3,5} odd rows and the n=4 rows are known to
    # disagree with exhaustive enumeration (ground truth 3, 3, 3, 4)
    failures = []
    for k, want in [(4, 3), (6, 3), (3, 4), (5, 4)]:
        got = partition_dimension(generate(GeneratorSpec("hypercycle", k, 3)))[0]
        if got != want:
            failures.append(f"pd(C_{{{k},3}})={got} stated {want}")
    for k in (3, 4):
        for n in (2, 4):
            want = n + 1
            got = partition_dimension(generate(GeneratorSpec("hypercycle", k, n)))[0]
            if got != want:
                failures.append(f"pd(C_{{{k},{n}}})={got} stated {want}")
    record_criterion(6, "pd of hypercycles", failures)


def test_criterion_07_pd_hyperpaths():
    failures = []
    for k in (2, 3, 4):
        for n in (2, 3, 4):
            got = partition_dimension(generate(GeneratorSpec("hyperpath", k, n)))[0]
            if got != n:
                failures.append(f"pd(path({k},{n}))={got} expected {n}")
    record_criterion(7, "pd of hyperpaths", failures)


def test_criterion_08_duality():
    failures = []
    for k in (2, 3, 4, 5):
        Hd = dual(generate(GeneratorSpec("hyperpath", k, 3)))
        d = metric_dimension(Hd)[0]
        p = partition_dimension(Hd)[0]
        if d != 1:
            failures.append(f"dim(dual(path({k},3)))={d} expected 1")
        if p != 2:
            failures.append(f"pd(dual(path({k},3)))={p} expected 2")
    for k in (3, 4, 5):
        Hd = dual(generate(GeneratorSpec("hypercycle", k, 3)))
        d = metric_dimension(Hd)[0]
        p = partition_dimension(Hd)[0]
        if d != 2:
            failures.append(f"dim(dual(C_{{{k},3}}))={d} expected 2")
        if p != 3:
            failures.append(f"pd(dual(C_{{{k},3}}))={p} expected 3")
    record_criterion(8, "dual hyperpath and hypercycle dimensions", failures)


@pytest.fixture(scope="module")
def solved_instances():
    solved = []
    for seed in range(50):
        H = random_connected_sperner(seed, m_lo=4, m_hi=10)
        M = middle_graph(H)
        solved.append(
            {
                "seed": seed,
                "H": H,
                "dim": metric_dimension(H)[0],
                "pd": partition_dimension(H)[0],
                "dim_middle": metric_dimension(M)[0],
                "pd_middle": partition_dimension(M)[0],
                "dim_bound": dim_lower_bound(H),
                "pd_bound": pd_lower_bound(H),
            }
        )
    return solved


def test_criterion_09_transform_equivalence(solved_instances):
    failures = []
    for rec in solved_instances:
        if rec["dim"] != rec["dim_middle"]:
            failures.append(
                f"seed {rec['seed']}: dim {rec['dim']} vs middle {rec['dim_middle']}"
            )
        if rec["pd"] != rec["pd_middle"]:
            failures.append(
                f"seed {rec['seed']}: pd {rec['pd']} vs middle {rec['pd_middle']}"
            )
    record_criterion(9, "middle-graph transform equivalence", failures)


def test_criterion_10_lower_bounds(solved_instances):
    failures = []
    for rec in solved_instances:
        if rec["dim_bound"] > rec["dim"]:
            failures.append(f"seed {rec['seed']}: dim bound exceeds dim")
        if rec["pd_bound"] > rec["pd"]:
            failures.append(f"seed {rec['seed']}: pd bound exceeds pd")
        if rec["pd"] > rec["dim"] + 1:
            failures.append(f"seed {rec['seed']}: pd > dim + 1")
    record_criterion(10, "lower bounds and pd <= dim + 1", failures)


def test_criterion_11_oracle_equivalence():
    failures = []
    for seed in range(100):
        H = random_connected_sperner(seed, m_lo=4, m_hi=9)
        dim = metric_dimension(H)[0]
        odim = oracle_metric_dimension(H)
        if dim != odim:
            failures.append(f"seed {seed}: dim {dim} oracle {odim}")
        pd = partition_dimension(H)[0]
        opd = oracle_partition_dimension(H)
        if pd != opd:
            failures.append(f"seed {seed}: pd {pd} oracle {opd}")
    record_criterion(11, "solver equals unreduced oracles", failures)


def test_criterion_12_basis_counting():
    failures = []
    for seed in range(20):
        H = random_private_vertex_instance(seed)
        tw = twin_classes(H)
        # instances must satisfy the hypothesis: every edge keeps a spare
        # exclusive vertex
        sizes = dict(zip(tw.signatures, map(len, tw.members)))
        for i in range(H.k):
            if sizes.get((i,), 1) == 1:
                failures.append(f"seed {seed}: edge {i} has no spare vertex")
        expected = 1
        for vs in tw.members:
            expected *= len(vs)
        got = count_minimum_bases(H)
        if got != expected:
            failures.append(f"seed {seed}: count {got} product {expected}")
    pinned = overlap4()
    got = count_minimum_bases(pinned)
    rederived = oracle_count_minimum_bases(pinned)
    if got != 5:
        failures.append(f"overlap4 count {got} expected 5")
    if rederived != 5:
        failures.append(f"overlap4 oracle re-derivation {rederived} expected 5")
    record_criterion(12, "minimum basis counting", failures)
