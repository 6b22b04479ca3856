"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 cap
exceeded, 4 invalid input. All error text goes to stderr. The environment
variable HYPERRES_CAP overrides the default solver caps; the --cap flag
overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import core, families, partition, resolving, transforms, verify
from .errors import CapExceeded, HypergraphError
from .hgformat import format_hypergraph, parse_hypergraph
from .metric import distance_matrix, eccentricity_and_diameter

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INVALID = 4

_GEN_FAMILIES = {
    "path": "hyperpath",
    "cycle": "hypercycle",
    "star": "hyperstar",
    "tree": "hypertree",
}


class UsageError(Exception):
    """A command line or environment setting the program cannot use."""


def _cap_value(args) -> int | None:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("HYPERRES_CAP")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise UsageError(
            f"HYPERRES_CAP must be an integer, got {env!r}"
        ) from None


def _load(args) -> core.Hypergraph:
    text = Path(args.file).read_text(encoding="utf-8")
    return parse_hypergraph(text, allow_non_sperner=args.allow_non_sperner)


def _labels(H: core.Hypergraph, vertices) -> list[str]:
    return [str(H.labels[v]) for v in vertices]


def _set_certificate_json(H, cert) -> dict:
    return {
        "w": _labels(H, cert.landmarks),
        "representations": {
            str(H.labels[v]): list(rep) for v, rep in sorted(cert.representations.items())
        },
        "valid": cert.valid,
        "conflict": _labels(H, cert.conflict) if cert.conflict else None,
    }


def _partition_certificate_json(H, cert) -> dict:
    return {
        "classes": [sorted(_labels(H, cls)) for cls in cert.classes],
        "representations": {
            str(H.labels[v]): list(rep) for v, rep in sorted(cert.representations.items())
        },
        "valid": cert.valid,
        "conflict": _labels(H, cert.conflict) if cert.conflict else None,
    }


def _emit(args, command: str, result: dict, certificate=None, human=None) -> None:
    if args.json:
        payload = {
            "command": command,
            "input": getattr(args, "file", None),
            "result": result,
            "certificate": certificate,
            "elapsed_seconds": args._elapsed,
        }
        print(json.dumps(payload, indent=2))
    else:
        if human:
            human()


def _cmd_analyze(args) -> int:
    cap = _cap_value(args)
    H = _load(args)
    kwargs = {}
    if cap is not None:
        kwargs = {"recognition_cap": cap, "branch_cap": cap}
    t0 = time.perf_counter()
    report = core.analyze_structure(H, **kwargs)
    args._elapsed = time.perf_counter() - t0
    result = {
        "m": H.m,
        "k": H.k,
        "connected": report.connected,
        "sperner": report.sperner,
        "linear": report.linear,
        "uniform": report.uniform,
        "regular": report.regular,
        "rank": report.rank,
        "degrees": {str(H.labels[v]): d for v, d in enumerate(report.degrees)},
        "pendant_edges": sorted(e + 1 for e in report.pendant_edges),
        "vacuous_pendant_edges": sorted(
            e + 1 for e in report.vacuous_pendant_edges
        ),
        "branches": [
            {"edges": sorted(e + 1 for e in subset), "joint": joint + 1}
            for subset, joint in report.branches
        ],
        "families": sorted(report.families),
    }
    if report.connected:
        ecc, diameter, pair = eccentricity_and_diameter(distance_matrix(H))
        result["diameter"] = diameter
        result["diametral_pair"] = _labels(H, pair)

    def human():
        print(f"vertices: {H.m}   edges: {H.k}   rank: {report.rank}")
        for flag in ("connected", "sperner", "linear"):
            print(f"{flag}: {'yes' if result[flag] else 'no'}")
        print(f"uniform: {report.uniform if report.uniform else 'no'}")
        print(f"regular: {report.regular if report.regular else 'no'}")
        if "diameter" in result:
            print(f"diameter: {result['diameter']} "
                  f"({' '.join(result['diametral_pair'])})")
        print(f"pendant edges: {result['pendant_edges'] or 'none'}")
        print(f"branches: {len(result['branches'])}")
        for br in result["branches"]:
            print(f"  edges {br['edges']} joint {br['joint']}")
        print(f"families: {', '.join(result['families']) or 'none'}")

    _emit(args, "analyze", result, human=human)
    return EXIT_OK


def _cmd_dim(args) -> int:
    cap = _cap_value(args)
    H = _load(args)
    kwargs = {"representative_cap": cap} if cap is not None else {}
    t0 = time.perf_counter()
    value, cert = resolving.metric_dimension(H, **kwargs)
    args._elapsed = time.perf_counter() - t0
    result = {"dim": value, "lower_bound": resolving.dim_lower_bound(H)}

    def human():
        print(f"dim = {value}")
        print(f"basis: {' '.join(_labels(H, cert.landmarks))}")
        for v in range(H.m):
            rep = cert.representations[v]
            print(f"  r({H.labels[v]}) = {rep}")

    _emit(args, "dim", result, _set_certificate_json(H, cert), human)
    return EXIT_OK


def _cmd_pd(args) -> int:
    cap = _cap_value(args)
    H = _load(args)
    kwargs = {"vertex_cap": cap} if cap is not None else {}
    t0 = time.perf_counter()
    value, cert = partition.partition_dimension(H, **kwargs)
    args._elapsed = time.perf_counter() - t0
    result = {"pd": value}

    def human():
        print(f"pd = {value}")
        for i, cls in enumerate(cert.classes):
            print(f"  class {i + 1}: {' '.join(sorted(_labels(H, cls)))}")
        for v in range(H.m):
            print(f"  r({H.labels[v]}) = {cert.representations[v]}")

    _emit(args, "pd", result, _partition_certificate_json(H, cert), human)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    H = _load(args)
    t0 = time.perf_counter()
    dim_bound = resolving.dim_lower_bound(H)
    pd_bound: int | None
    pd_error: str | None = None
    try:
        pd_bound = partition.pd_lower_bound(H)
    except HypergraphError as exc:
        pd_bound = None
        pd_error = f"{type(exc).__name__}: {exc}"
    args._elapsed = time.perf_counter() - t0
    result = {
        "dim_lower_bound": dim_bound,
        "pd_lower_bound": pd_bound,
        "pd_lower_bound_error": pd_error,
    }

    def human():
        print(f"dim >= {dim_bound}")
        if pd_bound is not None:
            print(f"pd >= {pd_bound}")
        else:
            print(f"pd bound unavailable: {pd_error}")

    _emit(args, "bounds", result, human=human)
    return EXIT_OK


def _cmd_classes(args) -> int:
    H = _load(args)
    t0 = time.perf_counter()
    tw = core.twin_classes(H)
    args._elapsed = time.perf_counter() - t0
    rows = []
    for sig in sorted(tw.classes):
        rows.append(
            {
                "edges": [i + 1 for i in sig],
                "vertices": sorted(_labels(H, tw.classes[sig])),
                "excess": tw.excess[sig],
                "representative": str(H.labels[tw.representatives[sig]]),
            }
        )
    result = {
        "classes": rows,
        "forced": sorted(_labels(H, tw.forced)),
        "largest_class_size": tw.largest_class_size(),
    }

    def human():
        for row in rows:
            edges = ",".join(f"E{i}" for i in row["edges"])
            print(
                f"C({edges}): {{{' '.join(row['vertices'])}}} "
                f"excess={row['excess']} rep={row['representative']}"
            )
        print(f"forced: {' '.join(result['forced']) or '(none)'}")

    _emit(args, "classes", result, human=human)
    return EXIT_OK


def _cmd_transform(args) -> int:
    H = _load(args)
    t0 = time.perf_counter()
    if args.kind == "primal":
        graph = transforms.primal_graph(H)
        lines = [
            f"{graph.labels[a]} {graph.labels[b]}" for a, b in graph.pairs
        ]
        text = "\n".join(lines) + "\n"
    elif args.kind == "middle":
        text = format_hypergraph(transforms.middle_graph(H))
    else:
        text = format_hypergraph(transforms.dual(H))
    args._elapsed = time.perf_counter() - t0

    _emit(args, "transform", {"kind": args.kind, "hypergraph": text},
          human=lambda: print(text, end=""))
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = families.GeneratorSpec(
        _GEN_FAMILIES[args.family], args.k, args.n, seed=args.seed
    )
    t0 = time.perf_counter()
    H = families.generate(spec)
    text = format_hypergraph(H)
    args._elapsed = time.perf_counter() - t0
    header = f"# {spec.kind} k={spec.k} n={spec.n}"
    if spec.kind == "hypertree":
        header += f" seed={spec.seed}"
    result = {"family": spec.kind, "k": spec.k, "n": spec.n,
              "seed": spec.seed, "hypergraph": text}
    _emit(args, "gen", result, human=lambda: print(header + "\n" + text, end=""))
    return EXIT_OK


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    report = verify.run_verification(max_k=args.max_k, max_n=args.max_n)
    args._elapsed = time.perf_counter() - t0
    rows = [
        {
            "rule": r.rule,
            "params": r.params,
            "expected": r.expected,
            "actual": r.actual,
            "passed": r.passed,
            "elapsed_seconds": round(r.elapsed_seconds, 6),
        }
        for r in report.rows
    ]
    result = {
        "rows": rows,
        "passed": report.passed,
        "failed": report.failed,
    }

    def human():
        width = max(len(r.rule) for r in report.rows) + 2
        for r in report.rows:
            params = " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            status = "pass" if r.passed else "FAIL"
            print(
                f"{r.rule:<{width}} {params:<12} expected={r.expected:<3} "
                f"actual={r.actual:<3} {status}  ({r.elapsed_seconds:.3f}s)"
            )
        print(f"{report.passed} passed, {report.failed} failed")

    _emit(args, "verify", result, human=human)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one JSON object instead of tables")
    common.add_argument("--allow-non-sperner", action="store_true",
                        help="accept inputs where one edge contains another")
    common.add_argument("--cap", type=int, default=None,
                        help="override solver and recognition caps")

    parser = argparse.ArgumentParser(
        prog="hyperres",
        description="Exact resolvability toolkit for connected Sperner "
                    "hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, desc in (
        ("analyze", _cmd_analyze, "structural report for a hypergraph file"),
        ("dim", _cmd_dim, "exact metric dimension with a basis certificate"),
        ("pd", _cmd_pd, "exact partition dimension with a witness partition"),
        ("bounds", _cmd_bounds, "twin-class lower bounds"),
        ("classes", _cmd_classes, "twin classes, excess values, forced set"),
    ):
        p = sub.add_parser(name, parents=[common], help=desc)
        p.add_argument("file", help="hypergraph file (.hg format)")
        p.set_defaults(handler=handler)

    p = sub.add_parser("transform", parents=[common],
                       help="primal, middle, or dual construction")
    p.add_argument("--kind", required=True, choices=["primal", "middle", "dual"])
    p.add_argument("file", help="hypergraph file (.hg format)")
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("gen", parents=[common], help="generate a named family")
    p.add_argument("--family", required=True, choices=sorted(_GEN_FAMILIES))
    p.add_argument("--k", required=True, type=int, help="edge count")
    p.add_argument("--n", required=True, type=int, help="uniform edge size")
    p.add_argument("--seed", type=int, default=0, help="hypertree seed")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("verify", parents=[common],
                       help="cross-check closed forms against the solvers")
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._elapsed = 0.0
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (HypergraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
