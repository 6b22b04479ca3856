"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 work
budget used up, 4 invalid input, 5 resource limit (the interpreter ran out
of memory or recursion depth), 70 internal error (any other exception,
which is a bug), 130 interrupted (Ctrl-C), 141 output closed (the reader
of stdout went away, as under ``| head``; 128 + SIGPIPE, the code a shell
reports for a process that signal ends). Every failure prints one
``error:`` line to stderr and no traceback; on exit 3 it states the lower
bound the search proved.

The exact searches of ``dim`` and ``pd`` charge their work to one budget,
``DEFAULT_BUDGET`` units unless the environment variable HYPERRES_CAP sets
it; the --cap flag overrides both. Every command reads HYPERRES_CAP, so a
value that is not an integer is a usage error everywhere, and so is a
negative budget from either source.

Every command runs through ``main``: it reads the budget, loads the input
file, times the command, and prints the command's ``Reply`` as JSON (the
text of ``json.dumps(obj, indent=2)``, see ``_json_text``) or as
human-readable lines. The argument parser is built once per process, on
the first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from . import core, families, partition, resolving, transforms, verify
from .errors import DEFAULT_BUDGET, CapExceeded, Disconnected, HypergraphError
from .hgformat import format_hypergraph, parse_hypergraph
from .metric import eccentricity_and_diameter

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INVALID = 4
EXIT_RESOURCE = 5
EXIT_INTERNAL = 70
EXIT_INTERRUPTED = 130
EXIT_OUTPUT_CLOSED = 141

_GEN_FAMILIES = {
    "path": "hyperpath",
    "cycle": "hypercycle",
    "star": "hyperstar",
    "tree": "hypertree",
}


class UsageError(Exception):
    """A command line or environment setting the program cannot use."""


def _budget(args) -> int:
    if args.cap is not None:
        budget, source = args.cap, "--cap"
    else:
        env = os.environ.get("HYPERRES_CAP")
        if not env:
            return DEFAULT_BUDGET
        try:
            budget, source = int(env), "HYPERRES_CAP"
        except ValueError:
            raise UsageError(
                f"HYPERRES_CAP must be an integer, got {env!r}"
            ) from None
    if budget < 0:
        raise UsageError(f"{source} must not be negative, got {budget}")
    return budget


def _load(args) -> core.Hypergraph:
    text = Path(args.file).read_text(encoding="utf-8")
    return parse_hypergraph(text, allow_non_sperner=args.allow_non_sperner)


def _labels(H: core.Hypergraph, vertices) -> list[str]:
    return [str(H.labels[v]) for v in vertices]


def _certificate_json(H, cert, **landmarks) -> dict:
    """``landmarks`` is the one leading key: ``w`` or ``classes``."""
    return {
        **landmarks,
        "representations": {
            str(H.labels[v]): rep for v, rep in sorted(cert.representations.items())
        },
        "valid": cert.valid,
        "conflict": _labels(H, cert.conflict) if cert.conflict else None,
    }


_encode_str = json.encoder.encode_basestring_ascii
_WORD = {None: "null", False: "false", True: "true"}.__getitem__
# What the stdlib writes for a scalar of each exact type. bool is not int
# here, and ``_WORD`` is only ever called on a bool or on None.
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: _WORD,
    type(None): _WORD,
    float: json.dumps,
}


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, with the per-element
    work of flat lists done in C. ``pad`` is a newline and the indent of
    the line ``obj`` starts on.

    Why the text is the same. With ``indent=2`` and no other option the
    stdlib writes a dict or a list or tuple as ``{}`` or ``[]`` when empty,
    and otherwise as its items, each after a newline and the indent one
    level deeper, joined by ``,``, then a newline at the indent of the
    container and the closing bracket; a dict item is its key, ``: `` and
    its value. A scalar it writes with the function ``_SCALARS`` holds for
    its exact type: ``encode_basestring_ascii`` for str (the function the
    stdlib itself calls), ``int.__repr__`` for int, a word for a bool or
    None, and for a float ``json.dumps`` without an indent, which changes
    only how containers are laid out. The branches below write exactly
    that: dicts and mixed lists one item at a time; a list or tuple whose
    items all have one type in ``_SCALARS`` in one ``join`` over that
    type's function. The type test is exact, so a bool is never written as
    an int. Anything else (a dict with a key that is not a str, a subclass
    of a container or of a scalar) is the stdlib's own text of that
    subtree, with each newline followed by the indent of ``pad``; this is
    exact because only the indent lines hold a newline: a JSON string
    writes its newlines as ``\\n``."""
    kind = type(obj)
    encode = _SCALARS.get(kind)
    if encode is not None:
        return encode(obj)
    inner = pad + "  "
    if kind is dict:
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if type(key) is not str:
                break
            encode = _SCALARS.get(type(value))
            items.append(_encode_str(key) + ": " + (
                encode(value) if encode else _json_text(value, inner)))
        else:
            return "{" + inner + ("," + inner).join(items) + pad + "}"
    elif kind is list or kind is tuple:
        if not obj:
            return "[]"
        first = type(obj[0])
        encode = _SCALARS.get(first)
        if encode is None or not all(type(item) is first for item in obj):
            encode = functools.partial(_json_text, pad=inner)
        return "[" + inner + ("," + inner).join(map(encode, obj)) + pad + "]"
    return json.dumps(obj, indent=2).replace("\n", pad)


@dataclass
class Reply:
    """What a command computed: the JSON ``result`` and ``certificate``,
    the human-readable lines (built only when printed) and the exit code."""

    result: dict
    lines: Callable[[], Iterable[str]]
    certificate: dict | None = None
    code: int = EXIT_OK


# Each command takes the parsed arguments, the loaded hypergraph (None for
# gen and verify) and the work budget, and returns a Reply.


def _cmd_analyze(args, H, budget) -> Reply:
    report = core.analyze_structure(H)
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
        ecc, diameter, pair = eccentricity_and_diameter(H)
        result["diameter"] = diameter
        result["diametral_pair"] = _labels(H, pair)

    def lines():
        yield f"vertices: {H.m}   edges: {H.k}   rank: {report.rank}"
        for flag in ("connected", "sperner", "linear"):
            yield f"{flag}: {'yes' if result[flag] else 'no'}"
        yield f"uniform: {report.uniform if report.uniform else 'no'}"
        yield f"regular: {report.regular if report.regular else 'no'}"
        if "diameter" in result:
            yield (f"diameter: {result['diameter']} "
                   f"({' '.join(result['diametral_pair'])})")
        yield f"pendant edges: {result['pendant_edges'] or 'none'}"
        yield f"branches: {len(result['branches'])}"
        for br in result["branches"]:
            yield f"  edges {br['edges']} joint {br['joint']}"
        yield f"families: {', '.join(result['families']) or 'none'}"

    return Reply(result, lines)


def _cmd_dim(args, H, budget) -> Reply:
    value, cert = resolving.metric_dimension(H, budget)
    result = {"dim": value, "lower_bound": resolving.dim_lower_bound(H)}

    def lines():
        yield f"dim = {value}"
        yield f"basis: {' '.join(_labels(H, cert.landmarks))}"
        for v in range(H.m):
            yield f"  r({H.labels[v]}) = {cert.representations[v]}"

    return Reply(result, lines,
                 _certificate_json(H, cert, w=_labels(H, cert.landmarks)))


def _cmd_pd(args, H, budget) -> Reply:
    value, cert = partition.partition_dimension(H, budget)
    classes = [sorted(_labels(H, cls)) for cls in cert.classes]

    def lines():
        yield f"pd = {value}"
        for i, cls in enumerate(classes):
            yield f"  class {i + 1}: {' '.join(cls)}"
        for v in range(H.m):
            yield f"  r({H.labels[v]}) = {cert.representations[v]}"

    return Reply({"pd": value}, lines,
                 _certificate_json(H, cert, classes=classes))


def _cmd_bounds(args, H, budget) -> Reply:
    if not H.connected:
        raise Disconnected("dim and pd are defined on connected hypergraphs")
    dim_bound = resolving.dim_lower_bound(H)
    pd_bound: int | None
    pd_error: str | None = None
    try:
        pd_bound = partition.pd_lower_bound(H)
    except HypergraphError as exc:
        pd_bound = None
        pd_error = f"{type(exc).__name__}: {exc}"
    result = {
        "dim_lower_bound": dim_bound,
        "pd_lower_bound": pd_bound,
        "pd_lower_bound_error": pd_error,
    }

    def lines():
        yield f"dim >= {dim_bound}"
        if pd_bound is not None:
            yield f"pd >= {pd_bound}"
        else:
            yield f"pd bound unavailable: {pd_error}"

    return Reply(result, lines)


def _cmd_classes(args, H, budget) -> Reply:
    tw = H.twins
    rows = [
        {
            "edges": [i + 1 for i in sig],
            "vertices": sorted(_labels(H, tw.classes[sig])),
            "excess": tw.excess[sig],
            "representative": str(H.labels[tw.representatives[sig]]),
        }
        for sig in sorted(tw.classes)
    ]
    result = {
        "classes": rows,
        "forced": sorted(_labels(H, tw.forced)),
        "largest_class_size": tw.largest_class_size(),
    }

    def lines():
        for row in rows:
            edges = ",".join(f"E{i}" for i in row["edges"])
            yield (f"C({edges}): {{{' '.join(row['vertices'])}}} "
                   f"excess={row['excess']} rep={row['representative']}")
        yield f"forced: {' '.join(result['forced']) or '(none)'}"

    return Reply(result, lines)


def _cmd_transform(args, H, budget) -> Reply:
    if args.kind == "primal":
        graph = transforms.primal_graph(H)
        pairs = [
            f"{graph.labels[a]} {graph.labels[b]}" for a, b in graph.pairs
        ]
        text = "\n".join(pairs) + "\n"
    elif args.kind == "middle":
        text = format_hypergraph(transforms.middle_graph(H))
    else:
        text = format_hypergraph(transforms.dual(H))
    return Reply({"kind": args.kind, "hypergraph": text}, text.splitlines)


def _cmd_gen(args, H, budget) -> Reply:
    spec = families.GeneratorSpec(
        _GEN_FAMILIES[args.family], args.k, args.n, seed=args.seed
    )
    text = format_hypergraph(families.generate(spec))
    header = f"# {spec.kind} k={spec.k} n={spec.n}"
    if spec.kind == "hypertree":
        header += f" seed={spec.seed}"
    result = {"family": spec.kind, "k": spec.k, "n": spec.n,
              "seed": spec.seed, "hypergraph": text}
    return Reply(result, lambda: [header, *text.splitlines()])


def _cmd_verify(args, H, budget) -> Reply:
    report = verify.run_verification(max_k=args.max_k, max_n=args.max_n)
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

    def lines():
        width = max(len(r.rule) for r in report.rows) + 2
        for r in report.rows:
            params = " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            status = "pass" if r.passed else "FAIL"
            yield (f"{r.rule:<{width}} {params:<12} expected={r.expected:<3} "
                   f"actual={r.actual:<3} {status}  ({r.elapsed_seconds:.3f}s)")
        yield f"{report.passed} passed, {report.failed} failed"

    return Reply(result, lines,
                 code=EXIT_OK if report.ok else EXIT_VERIFY_FAILED)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one JSON object instead of tables")
    common.add_argument("--allow-non-sperner", action="store_true",
                        help="accept inputs where one edge contains another")
    common.add_argument("--cap", type=int, default=None,
                        help="work budget of the exact dim and pd searches "
                             f"(default {DEFAULT_BUDGET:,} units, must not be "
                             "negative); past it they exit 3 with the lower "
                             "bound they proved")

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
    p.set_defaults(handler=_cmd_gen, file=None)

    p = sub.add_parser("verify", parents=[common],
                       help="cross-check closed forms against the solvers")
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(handler=_cmd_verify, file=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then shared by every ``main``
    call of the process: building it costs ~30x as much as a parse.
    Parsing leaves it unchanged, since each parse fills a new namespace."""
    return build_parser()


def _discard(stream) -> None:
    """Point the descriptor of ``stream``, whose reader closed the pipe, at
    os.devnull, so that the flush at interpreter exit does not fail again on
    what is left in its buffer (the recipe of the note on SIGPIPE in the
    docs of the signal module). An in-memory stream has no descriptor and
    is left as it is."""
    try:
        fd = stream.fileno()
    except (AttributeError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        budget = _budget(args)
        H = None if args.file is None else _load(args)
        t0 = time.perf_counter()
        reply = args.handler(args, H, budget)
        elapsed = time.perf_counter() - t0
        if args.json:
            payload = {
                "command": args.command,
                "input": args.file,
                "result": reply.result,
                "certificate": reply.certificate,
                "elapsed_seconds": elapsed,
            }
            print(_json_text(payload))
        else:
            for line in reply.lines():
                print(line)
        # a reader that closed the pipe shows here, not at interpreter exit
        sys.stdout.flush()
        return reply.code
    except BrokenPipeError:
        _discard(sys.stdout)
        code, message = EXIT_OUTPUT_CLOSED, "output closed"
    except UsageError as exc:
        code, message = EXIT_USAGE, str(exc)
    except CapExceeded as exc:
        code, message = EXIT_CAP, str(exc)
    except (HypergraphError, OSError, ValueError) as exc:
        code, message = EXIT_INVALID, str(exc)
    except (RecursionError, MemoryError) as exc:
        code = EXIT_RESOURCE
        message = f"resource limit: {str(exc) or type(exc).__name__}"
    except KeyboardInterrupt:
        code, message = EXIT_INTERRUPTED, "interrupted"
    except Exception as exc:
        code = EXIT_INTERNAL
        message = f"internal error: {type(exc).__name__}: {exc}"
    try:
        print(f"error: {message}", file=sys.stderr)
    except BrokenPipeError:  # stderr went to the closed pipe too, as in 2>&1
        _discard(sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
