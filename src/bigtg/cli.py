"""Command-line workflows: metamodel derivation, encoding and decoding,
validation, reconfiguration, and constraint checking.

Every subcommand is a thin composition of library operations. Exit codes:
0 success, 1 validation or constraint failure, 2 usage or schema errors.
Diagnostics go to standard error, one finding per line as
``<severity> <code> <location> <message>``.

A child pays for what its subcommand runs and little else. The command
line is read against one table, ``_COMMANDS``, by a reader that imports
nothing; a malformed one is one ``error usage - <message>`` line and exit
2, and ``-h`` prints usage built from the table. The mapping, constraint
and variability layers are imported only by the subcommands that run
them, and the bigraph and type-graph validators (:mod:`bigtg.wellformed`)
only by ``validate`` of those two kinds.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

from . import fileio
from .metamodel import NotCanonical, conformance, extend_for_signature
from .report import Finding, ValidationReport

TYPE_CHECKING = False  # read as true by static type checkers only
if TYPE_CHECKING:
    from collections.abc import Callable
    from typing import Any

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


def _emit(findings: tuple[Finding, ...]) -> None:
    for f in findings:
        print(f.line(), file=sys.stderr)


def _emit_error(code: str, location: str, message: str) -> None:
    print(Finding(code, location, message).line(), file=sys.stderr)


def _finish(report: ValidationReport) -> int:
    if report.ok:
        return EXIT_OK
    _emit(report.findings)
    return EXIT_INVALID


def cmd_metamodel(args: SimpleNamespace) -> int:
    sig = fileio.load_signature(args.signature)
    fileio.save(extend_for_signature(sig), args.output)
    return EXIT_OK


def cmd_encode(args: SimpleNamespace) -> int:
    from .mapping import InvalidBigraph, encode

    try:
        g, _ = encode(fileio.load_bigraph(args.bigraph))
    except InvalidBigraph as exc:
        _emit(exc.report.findings)
        return EXIT_INVALID
    fileio.save(g, args.output)
    return EXIT_OK


def cmd_decode(args: SimpleNamespace) -> int:
    from .mapping import decode

    g = fileio.load_instance_graph(args.instancegraph)
    sig = fileio.load_signature(args.sig)
    try:
        b, _ = decode(g, sig)
    except NotCanonical as exc:
        _emit(exc.report.findings)
        _emit_error("not-canonical", args.instancegraph, str(exc))
        return EXIT_INVALID
    fileio.save(b, args.output)
    return EXIT_OK


def _validate_instance(args: SimpleNamespace, g) -> int:
    sig = fileio.load_signature(args.sig) if args.sig else None
    if args.tg:
        tg = fileio.load_type_graph(args.tg)
    elif sig is not None:
        tg = extend_for_signature(sig)
    else:
        _emit_error("usage", args.file, "validating an instance graph needs --tg or --sig")
        return EXIT_USAGE
    return _finish(conformance(g, tg, sig))


def cmd_validate(args: SimpleNamespace) -> int:
    kind, value = fileio.load_document(args.file)
    if kind == fileio.KIND_BIGRAPH:
        from .bigraph import validate_bigraph

        return _finish(validate_bigraph(value))
    if kind == fileio.KIND_TYPEGRAPH:
        from .typedgraph import check_type_graph

        return _finish(check_type_graph(value))
    if kind == fileio.KIND_INSTANCEGRAPH:
        return _validate_instance(args, value)
    if kind == fileio.KIND_FEATURECONFIG:
        from .variability import validate_config

        return _finish(validate_config(value))
    return EXIT_OK  # a signature that loads is valid


def cmd_configure(args: SimpleNamespace) -> int:
    from .variability import annotate_150, apply_deltas, derive_type_graph, validate_config

    g = fileio.load_instance_graph(args.instancegraph)
    sig = fileio.load_signature(args.sig)
    cfg = fileio.load_feature_config(args.features)
    rep = validate_config(cfg)
    if not rep.ok:
        return _finish(rep)
    tg = derive_type_graph(annotate_150(extend_for_signature(sig)), cfg)
    try:
        configured = apply_deltas(g, cfg, sig)
    except NotCanonical as exc:
        _emit_error("not-canonical", args.instancegraph, str(exc))
        return EXIT_INVALID
    fileio.save(configured, args.output)
    fileio.save(tg, args.tg_out if args.tg_out else _derived_tg_path(args.output))
    return EXIT_OK


def _derived_tg_path(ig_path: str) -> str:
    if ig_path.endswith(".ig.json"):
        return ig_path[: -len(".ig.json")] + ".tg.json"
    if ig_path.endswith(".json"):
        return ig_path[: -len(".json")] + ".tg.json"
    return ig_path + ".tg.json"


def cmd_check(args: SimpleNamespace) -> int:
    from .constraints import ConstraintSyntaxError, EvaluationError, TypeCheckError, evaluate, parse_constraints

    g = fileio.load_instance_graph(args.instancegraph)
    tg = fileio.load_type_graph(args.tg)
    text = fileio.read_text(args.constraints)
    try:
        doc = parse_constraints(text)
    except ConstraintSyntaxError as exc:
        _emit_error("syntax", f"{exc.line}:{exc.col}", str(exc))
        return EXIT_USAGE
    rep = conformance(g, tg)
    if not rep.ok:
        return _finish(rep)
    try:
        result = evaluate(doc, g, tg)
    except TypeCheckError as exc:
        _emit_error("typecheck", "-", str(exc))
        return EXIT_USAGE
    except EvaluationError as exc:
        _emit_error("evaluation", "-", str(exc))
        return EXIT_USAGE
    if result.all_passed:
        return EXIT_OK
    for failure in result.failures():
        detail = "; ".join(failure.trace) if failure.trace else "invariant violated"
        _emit_error("constraint", f"{failure.invariant}@{failure.node}", detail)
    return EXIT_INVALID


def cmd_configs(args: SimpleNamespace) -> int:
    from .variability import enumerate_configs

    for cfg in enumerate_configs():
        print(",".join(cfg.ordered()))
    return EXIT_OK


#: Each subcommand: its handler, its help line, its positional arguments,
#: and its options as ``(long name, short alias or None, required)``. The
#: handler reads each as ``args.<name>``, with ``-`` in an option's name
#: read as ``_``; an option not given is ``None``.
_COMMANDS = {
    "metamodel": (cmd_metamodel, "derive the type graph for a signature", ("signature",), (("output", "o", True),)),
    "encode": (cmd_encode, "encode a bigraph as an instance graph", ("bigraph",), (("output", "o", True),)),
    "decode": (
        cmd_decode,
        "decode a canonical instance graph back to a bigraph",
        ("instancegraph",),
        (("sig", None, True), ("output", "o", True)),
    ),
    "validate": (
        cmd_validate,
        "run every applicable checker on a document",
        ("file",),
        (("sig", None, False), ("tg", None, False)),
    ),
    "configure": (
        cmd_configure,
        "derive a variant type graph and reconfigure an encoding",
        ("instancegraph",),
        (("sig", None, True), ("features", None, True), ("output", "o", True), ("tg-out", None, False)),
    ),
    "check": (
        cmd_check,
        "evaluate a constraint document on an instance graph",
        ("instancegraph",),
        (("tg", None, True), ("constraints", None, True)),
    ),
    "configs": (cmd_configs, "print all valid feature configurations", (), ()),
}

_HELP = ("-h", "--help")


class _UsageError(Exception):
    """A command line that does not fit ``_COMMANDS``."""


def _synopsis(name: str) -> str:
    """``bigtg <name>``, its positional arguments and its options, an
    optional one in brackets."""
    _, _, positionals, options = _COMMANDS[name]
    words = ["bigtg", name, *positionals]
    for long, short, required in options:
        word = f"{f'-{short}/' if short else ''}--{long} {long.upper().replace('-', '_')}"
        words.append(word if required else f"[{word}]")
    return " ".join(words)


def _help(name: str | None) -> str:
    """The help text of one subcommand, or of ``bigtg`` when ``name`` is
    ``None``: a usage line, then what each command does."""
    if name is not None:
        return f"usage: {_synopsis(name)}\n\n{_COMMANDS[name][1]}\n"
    lines = "".join(f"  {_synopsis(cmd)}\n      {entry[1]}\n" for cmd, entry in _COMMANDS.items())
    return (
        "usage: bigtg <command> [arguments]\n\n"
        "Bigraphs as typed graphs: encode, validate, reconfigure, check.\n\n"
        f"commands (bigtg <command> -h for one):\n{lines}"
    )


def _show(text: str) -> int:
    print(text, end="")
    return EXIT_OK


def _parse_args(argv: list[str]) -> tuple[Callable[[Any], int], Any]:
    """The handler of the command line ``argv`` and its arguments. ``-h``
    or ``--help`` gives a handler that prints the help text. Options take
    ``--name value``, ``--name=value``, ``-o value`` or ``-o=value``. Raises
    :class:`_UsageError` for no or an unknown subcommand, an unknown
    option, an option without a value, the wrong number of positional
    arguments, or a missing required option."""
    if not argv:
        raise _UsageError("no command given (bigtg -h lists them)")
    name, *rest = argv
    if name in _HELP:
        return _show, _help(None)
    if name not in _COMMANDS:
        raise _UsageError(f"unknown command {name!r} (bigtg -h lists them)")
    handler, _, positionals, options = _COMMANDS[name]
    flags = {f"--{long}": long for long, _, _ in options}
    flags.update((f"-{short}", long) for long, short, _ in options if short)
    given: list[str] = []
    values: dict[str, str] = {}
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            return _show, _help(name)
        if token == "--":  # the rest are positional arguments
            given.extend(tokens)
            break
        if not token.startswith("-") or token == "-":
            given.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise _UsageError(f"{name}: unknown option {flag}")
        if not eq:
            value = next(tokens, None)
            if value is None or (value.startswith("-") and value != "-"):
                raise _UsageError(f"{name}: option {flag} needs a value")
        values[flags[flag]] = value
    if len(given) < len(positionals):
        raise _UsageError(f"{name}: missing argument {positionals[len(given)]}")
    if len(given) > len(positionals):
        raise _UsageError(f"{name}: unexpected argument {given[len(positionals)]!r}")
    for long, _, required in options:
        if required and long not in values:
            raise _UsageError(f"{name}: option --{long} is required")
    args = dict(zip(positionals, given))
    args.update((long.replace("-", "_"), values.get(long)) for long, _, _ in options)
    return handler, SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    """Run the command line ``argv``, or this process's own arguments when
    it is ``None``, and return the exit code.

    Only a call without ``argv`` is a command-line process (the ``bigtg``
    console script and ``python -m bigtg.cli``). There, what start-up and
    the imports made lives until the process exits, so ``gc.freeze``
    moves it out of the cyclic collector's reach, and the collections
    that the reader and the checkers set off need not walk it again: a
    child saves about 5 ms. The freeze is kept until exit, since a
    collection over the unfrozen heap at the end would cost what it
    saved. A call with ``argv``, from a program or a test, leaves its
    caller's collector as it was."""
    if argv is None:
        gc.freeze()
    try:
        handler, args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        _emit_error("usage", "-", str(exc))
        return EXIT_USAGE
    try:
        return handler(args)
    except fileio.SchemaError as exc:
        _emit_error("schema", exc.path, exc.message)
        return EXIT_USAGE
    except fileio.IoError as exc:
        _emit_error("io", "-", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
