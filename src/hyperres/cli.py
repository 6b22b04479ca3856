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
the first call, and each call parses its words once (see ``_parse_args``):
a plain command line, each word an option of the named command or one of
its positionals, is read straight off the actions ``build_parser`` added;
any other line goes to argparse, which writes help, usage and errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path
from collections import namedtuple
from collections.abc import Iterator
from itertools import chain, repeat

from . import core, families, partition, resolving, transforms, verify
from .errors import (DEFAULT_BUDGET, CapExceeded, Disconnected, HypergraphError,
                     SpernerViolation)
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
    # open(Path(...)) keeps pathlib's normalised name in the OSError text
    # ('missing.hg' for .//missing.hg), which plain open(file) would not
    with open(Path(args.file), "rb") as stream:
        data = stream.read()
    # the whole file is decoded, so a bad byte's position is its offset in
    # the file; then one leading byte-order mark is dropped, which would
    # otherwise be part of the first label
    text = data.decode("utf-8").removeprefix("\ufeff")
    return parse_hypergraph(text, allow_non_sperner=args.allow_non_sperner)


def _labels(H: core.Hypergraph, vertices) -> list[str]:
    return [str(H.labels[v]) for v in vertices]


def _certificate_json(H, cert, **landmarks) -> dict:
    """``landmarks`` is the one leading key: ``w`` or ``classes``."""
    return {
        **landmarks,
        "representations": {
            str(H.labels[v]): rep for v, rep in cert.representations.items()
        },
        "valid": cert.valid,
        "conflict": _labels(H, cert.conflict) if cert.conflict else None,
    }


_encode_str = json.encoder.encode_basestring_ascii
_WORD = {None: "null", False: "false", True: "true"}.__getitem__


def _float_text(x: float) -> str:
    # x - x is 0 only when x is finite, and then the stdlib writes repr(x);
    # NaN and the infinities keep its own spelling
    return float.__repr__(x) if x - x == 0 else json.dumps(x)


# What the stdlib writes for a scalar of each exact type. bool is not int
# here, and ``_WORD`` is only ever called on a bool or on None.
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: _WORD,
    type(None): _WORD,
    float: _float_text,
}


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, with the per-element
    work of flat lists and of record arrays done in C. ``pad`` is a newline
    and the indent of the line ``obj`` starts on.

    Why the text is the same. With ``indent=2`` and no other option the
    stdlib writes a dict or a list or tuple as ``{}`` or ``[]`` when empty,
    and otherwise as its items, each after a newline and the indent one
    level deeper, joined by ``,``, then a newline at the indent of the
    container and the closing bracket; a dict item is its key, ``: `` and
    its value. A scalar it writes with the function ``_SCALARS`` holds for
    its exact type: ``encode_basestring_ascii`` for str (the function the
    stdlib itself calls), ``int.__repr__`` for int, a word for a bool or
    None, and ``_float_text`` for a float: ``float.__repr__`` when it is
    finite, which is what the stdlib's encoder calls, and otherwise
    ``json.dumps`` without an indent, which changes only how containers
    are laid out. The branches below write exactly
    that: dicts and mixed lists one item at a time; a list or tuple whose
    items all have one type in ``_SCALARS`` in one ``join`` over that
    type's function; a list or tuple of records column by column (see
    ``_records_text``). The type tests are exact, so a bool is never
    written as an int. Anything else (a dict with a key that is not a str,
    a subclass of a container or of a scalar) is the stdlib's own text of
    that subtree, with each newline followed by the indent of ``pad``; this
    is exact because only the indent lines hold a newline: a JSON string
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
        first = _one_type(obj)
        encode = _SCALARS.get(first)
        if encode is not None:
            items = map(encode, obj)
        elif first is dict and len(obj) > 1 and (
                rows := _records_text(obj, inner)):
            items = rows
        else:
            items = map(functools.partial(_json_text, pad=inner), obj)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(obj, indent=2).replace("\n", pad)


def _records_text(rows, pad: str) -> Iterator[str] | None:
    """The texts of ``rows``, two or more dicts that each start a line
    after ``pad``, written column by column; None unless every row has the
    same keys in the same order and every key is an exact str.

    Why the text is the same. Under those conditions each row's text is
    one template, ``{``, then per key its ``encode_basestring_ascii`` text,
    ``: `` and a value, each after ``pad`` and two more spaces and joined by
    ``,``, then ``pad`` and ``}``, filled with the texts of that row's
    values in key order. So the template is built once, with each key's
    ``%`` doubled and each value a ``%s``, and each row is one ``%``
    against the tuple of its value texts, which ``zip`` reads off the
    columns (``str % tuple`` puts each str in unchanged). A column's value
    texts are what ``_json_text`` writes for each value at its key's
    indent: for a column of scalars of one type in ``_SCALARS``, that
    type's function over the column; for a column of nonempty lists (or
    of nonempty tuples) whose items all have one type in ``_SCALARS``,
    the items of each list joined by ``,`` and a newline at the indent
    one level deeper, with the brackets and their newlines moved into the
    template; for any other column, ``_json_text`` itself, value by
    value."""
    keys = tuple(rows[0])
    if not keys or _one_type(chain.from_iterable(rows)) is not str or (
            not all(map(keys.__eq__, map(tuple, rows)))):
        return None
    inner = pad + "  "
    deeper = inner + "  "
    parts, columns = [], []
    for key, column in zip(keys, zip(*map(dict.values, rows))):
        kind = _one_type(column)
        encode = _SCALARS.get(kind)
        value = "%s"
        if encode is not None:
            texts = map(encode, column)
        elif (kind is list or kind is tuple) and all(column) and (
                encode := _SCALARS.get(_one_type(chain.from_iterable(column)))):
            value = "[" + deeper + "%s" + inner + "]"
            texts = map(("," + deeper).join, map(map, repeat(encode), column))
        else:
            texts = map(functools.partial(_json_text, pad=inner), column)
        parts.append(_encode_str(key).replace("%", "%%") + ": " + value)
        columns.append(texts)
    template = "{" + inner + ("," + inner).join(parts) + pad + "}"
    return map(template.__mod__, zip(*columns))


def _one_type(items) -> type | None:
    """The exact type all of ``items`` have, or None when they have
    several or there are none."""
    types = set(map(type, items))
    return types.pop() if len(types) == 1 else None


class Reply(namedtuple("Reply", "result lines certificate code",
                       defaults=(None, EXIT_OK))):
    """What a command computed: the JSON ``result`` (a dict) and
    ``certificate`` (a dict, or None by default), the human-readable
    ``lines`` (a function returning them, so they are built only when
    printed) and the exit ``code`` (``EXIT_OK`` by default)."""

    __slots__ = ()


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
    basis = _labels(H, (w for (w,) in cert.landmarks))

    def lines():
        yield f"dim = {value}"
        yield f"basis: {' '.join(basis)}"
        for v in range(H.m):
            yield f"  r({H.labels[v]}) = {cert.representations[v]}"

    return Reply(result, lines, _certificate_json(H, cert, w=basis))


def _cmd_pd(args, H, budget) -> Reply:
    value, cert = partition.partition_dimension(H, budget)
    classes = [sorted(_labels(H, cls)) for cls in cert.landmarks]

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
    pd_bound = partition.pd_lower_bound(H)
    return Reply({"dim_lower_bound": dim_bound, "pd_lower_bound": pd_bound},
                 lambda: [f"dim >= {dim_bound}", f"pd >= {pd_bound}"])


def _cmd_classes(args, H, budget) -> Reply:
    _, members, sigs = H.twins
    names = list(map(str, H.labels))
    rows = [
        {
            "edges": [i + 1 for i in sigs[c]],
            "vertices": sorted(map(names.__getitem__, members[c])),
            "excess": len(members[c]) - 1,
            "representative": names[members[c][0]],
        }
        for c in sorted(range(len(sigs)), key=sigs.__getitem__)
    ]
    forced = chain.from_iterable(vs[1:] for vs in members)
    result = {
        "classes": rows,
        "forced": sorted(map(names.__getitem__, forced)),
        "largest_class_size": H.twins.largest_class_size(),
    }

    def lines():
        for row in rows:
            edges = ",".join(f"E{i}" for i in row["edges"])
            yield (f"C({edges}): {{{' '.join(row['vertices'])}}} "
                   f"excess={row['excess']} rep={row['representative']}")
        yield f"forced: {' '.join(result['forced']) or '(none)'}"

    return Reply(result, lines)


def _cmd_transform(args, H, budget) -> Reply:
    """The .hg text of the construction, written straight from id rows:
    for dual, each vertex's incidence row over the names e1..ek; else one
    line per pair, the primal pairs or the sorted middle pairs. This is
    the text ``format_hypergraph`` gives for ``dual(H)`` and
    ``middle_graph(H)``, with no second Hypergraph built: the rows are
    already in the order it sorts into, and its label test cannot fail on
    e1..ek or on labels ``parse_hypergraph`` read."""
    if args.kind == "dual":
        name = [f"e{j + 1}" for j in range(H.k)].__getitem__
        text = "\n".join(map(" ".join, map(map, repeat(name), H.incidence))) + "\n"
    else:
        pairs = (transforms.primal_graph(H).pairs if args.kind == "primal"
                 else transforms._middle_pairs(H))
        # A vertex whose edges all have size one is in no middle pair (a
        # primal loop holds it), and .hg text cannot hold it: then
        # format_hypergraph raises its error, naming the least such vertex.
        if 1 in map(len, H.edges) and set(range(H.m)).difference(*pairs):
            format_hypergraph(transforms.middle_graph(H))
        names = H.labels
        # an f-string per pair: about 4x faster than " ".join over a map
        text = "".join([f"{names[a]} {names[b]}\n" for a, b in pairs])
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
    shared = (
        common.add_argument("--json", action="store_true",
                            help="emit one JSON object instead of tables"),
        common.add_argument("--allow-non-sperner", action="store_true",
                            help="accept inputs where one edge contains "
                                 "another"),
        common.add_argument("--cap", type=int, default=None,
                            help="work budget of the exact dim and pd searches "
                                 f"(default {DEFAULT_BUDGET:,} units, must not "
                                 "be negative); past it they exit 3 with the "
                                 "lower bound they proved"),
    )

    parser = argparse.ArgumentParser(
        prog="hyperres",
        description="Exact resolvability toolkit for connected "
                    "hypergraphs (nested edges need --allow-non-sperner).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each command name -> its subparser and the table ``_read_exact``
    # reads, built from the actions added here
    parser.commands = {}

    def command(name, desc, arguments, **defaults):
        p = sub.add_parser(name, parents=[common], help=desc)
        actions = shared + tuple(p.add_argument(*flags, **options)
                                 for *flags, options in arguments)
        p.set_defaults(**defaults)
        parser.commands[name] = p, _exact_table(actions, defaults)

    file = ("file", {"help": "hypergraph file (.hg format)"})
    for name, handler, desc in (
        ("analyze", _cmd_analyze, "structural report for a hypergraph file"),
        ("dim", _cmd_dim, "exact metric dimension with a basis certificate"),
        ("pd", _cmd_pd, "exact partition dimension with a witness partition"),
        ("bounds", _cmd_bounds, "twin-class lower bounds"),
        ("classes", _cmd_classes, "twin classes, excess values, forced set"),
    ):
        command(name, desc, [file], handler=handler)
    command("transform", "primal, middle, or dual construction", [
        ("--kind", {"required": True, "choices": ["primal", "middle", "dual"]}),
        file,
    ], handler=_cmd_transform)
    command("gen", "generate a named family", [
        ("--family", {"required": True, "choices": sorted(_GEN_FAMILIES)}),
        ("--k", {"required": True, "type": int, "help": "edge count"}),
        ("--n", {"required": True, "type": int, "help": "uniform edge size"}),
        ("--seed", {"type": int, "default": 0, "help": "hypertree seed"}),
    ], handler=_cmd_gen, file=None)
    command("verify", "cross-check closed forms against the solvers", [
        ("--max-k", {"type": int, "default": None}),
        ("--max-n", {"type": int, "default": None}),
    ], handler=_cmd_verify, file=None)
    return parser


def _exact_table(actions, defaults: dict):
    """What ``_read_exact`` needs of one subparser: each option string's
    action, the positionals in order, the required actions, and the
    namespace a parse starts from, with argparse's order and first-wins
    rule: each action's default, then each ``set_defaults`` value."""
    start = {}
    for dest, value in chain(((a.dest, a.default) for a in actions),
                             defaults.items()):
        start.setdefault(dest, value)
    options = {word: a for a in actions for word in a.option_strings}
    positionals = [a for a in actions if not a.option_strings]
    return options, positionals, {a for a in actions if a.required}, start


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then shared by every ``main``
    call of the process: building it costs hundreds of parses.
    Parsing leaves it unchanged, since each parse fills a new namespace."""
    return build_parser()


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, with each word parsed once. ``None``
    reads ``sys.argv[1:]``, as ``parse_args(None)`` does. When ``argv[0]``
    names a command, ``_read_exact`` reads the line first; any line it
    leaves, and anything else (no words, ``-h``, an unknown word, an option
    before the command), goes to the full parse.

    Why the exact reader gives the same result. It reads the table
    ``build_parser`` made from the actions it added: the shared options
    and the command's own arguments, but not the help action the
    subparser adds itself. Each is a flag (nargs 0: ``store_true``) or
    takes one word (nargs None: a store option or a positional), and no
    default is SUPPRESS or a str. The reader takes a line only when each
    later word is either one of the table's option strings, not seen
    before, or a word not starting with ``-`` that fills the next free
    positional, and an option with nargs None is followed by a word not
    starting with ``-``. On such a line argparse's parse is this: a word
    that is an option string is matched as that option before any
    abbreviation or ``=`` split is tried; a word not starting with ``-`` is
    never an option, so it is the value after a nargs-None option or a
    positional, and positionals of nargs None take such words one each, in
    order, whatever options lie between. The namespace starts as the full
    parse builds it: ``command``, then the attributes of the subparser's
    own namespace, copied in after it (each action's default, then each
    ``set_defaults`` value, each dest set once), so ``_exact_table``'s
    start dict gives its attributes in the same order.
    Each action is then called as argparse's ``take_action`` calls it:
    with ``[]`` for a flag, and otherwise with the word converted by the
    action's ``type`` and checked against its ``choices``. The reader
    leaves the line when that conversion raises one of the errors argparse
    reports, or the value is not a choice, or a required action (every
    positional, and each option added with ``required=True``) was not
    seen: there argparse exits 2. With no word left over and no default
    that is a str, argparse does nothing more. Every other line (``-h``,
    ``--opt=value``, an abbreviation, ``--``, a repeated option, a value
    or a positional starting with ``-``, a bad value, a missing required
    argument, an extra word) goes to argparse, which writes its own help,
    usage and errors."""
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    entry = parser.commands.get(argv[0]) if argv else None
    args = None if entry is None else _read_exact(*entry, argv)
    return parser.parse_args(argv) if args is None else args


def _read_exact(subparser, table, argv) -> argparse.Namespace | None:
    """The namespace of ``argv`` read off ``table`` (see ``_parse_args``),
    or None when the line is not of the form read here."""
    options, positionals, required, start = table
    args = argparse.Namespace(command=argv[0], **start)
    free = iter(positionals)
    seen = []
    words = iter(argv[1:])
    for word in words:
        if word.startswith("-"):
            action, option = options.get(word), word
            if action is None or action in seen:
                return None
            # a missing value reads as "-", which is left to argparse too
            value = [] if action.nargs == 0 else next(words, "-")
        else:
            action, option, value = next(free, None), None, word
            if action is None:
                return None
        if action.nargs is None:
            if value.startswith("-"):
                return None
            try:
                value = action.type(value) if action.type else value
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        action(subparser, args, value, option)
        seen.append(action)
    return args if required.issubset(seen) else None


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
    args = _parse_args(argv)
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
    except SpernerViolation as exc:  # its own text names the library keyword
        code, message = EXIT_INVALID, (f"edge {exc.inner + 1} is contained in edge "
            f"{exc.outer + 1}; pass --allow-non-sperner to accept this input")
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
