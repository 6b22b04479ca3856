"""The verify harness builds each grid instance once, shares it between
the rows on it and lets it go once it builds the next; the report must be
the one fresh instances give."""

import gc
import weakref

from hyperres import GeneratorSpec, dual, generate, run_verification, verify


def test_rows_on_one_instance_share_it():
    rows = {(rule, params.get("k"), params.get("n")): H
            for rule, params, _, H, _ in verify._rows(None, None)}
    assert rows[("dim/hyperpath", 3, 3)] is rows[("pd/hyperpath", 3, 3)]
    assert (rows[("dim/dual-hypercycle", 4, 3)]
            is rows[("pd/dual-hypercycle", 4, 3)])
    # a family and its dual are two instances
    assert rows[("dim/hyperpath", 3, 3)] is not rows[("dim/dual-hyperpath", 3, 3)]
    grid = [H for (rule, *_), H in rows.items() if not rule.startswith("pinned/")]
    assert len(grid) == 62 and len({id(H) for H in grid}) == 43


def test_rows_hold_one_grid_instance_at_a_time():
    alive = []
    for rule, params, _, H, _ in verify._rows(None, None):
        if params and not any(ref() is H for ref in alive):
            alive.append(weakref.ref(H))
        del H
        gc.collect()
        assert sum(ref() is not None for ref in alive) <= 1, (rule, params)
    assert len(alive) == 43


def _fresh_instance(rule, params):
    """The instance of the row ``rule`` at ``params``, built anew."""
    if not params:
        (name,) = (name for r, _, name, _ in verify._PINNED if r == rule)
        return verify.reference_instances()[name]
    ((kind, fixed),) = ((kind, fixed) for r, _, kind, _, _, fixed
                        in verify._GRID if r == rule)
    H = generate(GeneratorSpec(kind, params["k"], params["n"]))
    return H if fixed is None else dual(H)


def test_report_equals_one_built_from_fresh_instances():
    fresh = sorted(
        (rule, tuple(sorted(params.items())), expected,
         verify._SOLVERS[measure](_fresh_instance(rule, params)))
        for rule, params, measure, _, expected in verify._rows(None, None)
    )
    report = run_verification()
    got = [(r.rule, tuple(sorted(r.params.items())), r.expected, r.actual)
           for r in report.rows]
    assert got == fresh and len(got) == 66
    failing = {(rule, params) for rule, params, expected, actual in got
               if expected != actual}
    assert failing == {
        ("pd/hypercycle-3uniform", (("k", 3), ("n", 3))),
        ("pd/hypercycle-3uniform", (("k", 5), ("n", 3))),
        ("pd/hypercycle-uniform", (("k", 3), ("n", 4))),
        ("pd/hypercycle-uniform", (("k", 4), ("n", 4))),
    }
