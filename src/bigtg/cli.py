"""Command-line workflows: metamodel derivation, encoding and decoding,
validation, reconfiguration, and constraint checking.

Every subcommand is a thin composition of library operations. Exit codes:
0 success, 1 validation or constraint failure, 2 usage or schema errors.
Diagnostics go to standard error, one finding per line as
``<severity> <code> <location> <message>``.
"""

from __future__ import annotations

import argparse
import sys

from . import fileio
from .bigraph import validate_bigraph
from .constraints import (
    ConstraintSyntaxError,
    EvaluationError,
    TypeCheckError,
    evaluate,
    parse_constraints,
)
from .mapping import (
    InvalidBigraph,
    NotCanonical,
    UntypedControl,
    conformance,
    decode,
    encode,
    extend_for_signature,
)
from .report import Finding, ValidationReport
from .typedgraph import check_type_graph
from .variability import (
    InvalidConfig,
    annotate_150,
    apply_deltas,
    derive_type_graph,
    enumerate_configs,
    validate_config,
)

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


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise fileio.IoError(f"cannot read {path}: {exc}") from exc


def cmd_metamodel(args: argparse.Namespace) -> int:
    sig = fileio.load_signature(args.signature)
    fileio.save(extend_for_signature(sig), args.output)
    return EXIT_OK


def cmd_encode(args: argparse.Namespace) -> int:
    b = fileio.load_bigraph(args.bigraph)
    rep = validate_bigraph(b)
    if not rep.ok:
        return _finish(rep)
    g, _ = encode(b)
    fileio.save(g, args.output)
    return EXIT_OK


def cmd_decode(args: argparse.Namespace) -> int:
    g = fileio.load_instance_graph(args.instancegraph)
    sig = fileio.load_signature(args.sig)
    try:
        b, _ = decode(g, sig)
    except NotCanonical as exc:
        if exc.report.findings:
            _emit(exc.report.findings)
        _emit_error("not-canonical", args.instancegraph, str(exc))
        return EXIT_INVALID
    except UntypedControl as exc:
        _emit_error("untyped-control", args.instancegraph, str(exc))
        return EXIT_INVALID
    fileio.save(b, args.output)
    return EXIT_OK


def _validate_instance(args: argparse.Namespace, g) -> int:
    sig = fileio.load_signature(args.sig) if args.sig else None
    if args.tg:
        tg = fileio.load_type_graph(args.tg)
    elif sig is not None:
        tg = extend_for_signature(sig)
    else:
        _emit_error("usage", args.file, "validating an instance graph needs --tg or --sig")
        return EXIT_USAGE
    return _finish(conformance(g, tg, sig))


def cmd_validate(args: argparse.Namespace) -> int:
    kind, value = fileio.load_document(args.file)
    if kind == fileio.KIND_BIGRAPH:
        return _finish(validate_bigraph(value))
    if kind == fileio.KIND_TYPEGRAPH:
        return _finish(check_type_graph(value))
    if kind == fileio.KIND_INSTANCEGRAPH:
        return _validate_instance(args, value)
    if kind == fileio.KIND_FEATURECONFIG:
        return _finish(validate_config(value))
    return EXIT_OK  # a signature that loads is valid


def cmd_configure(args: argparse.Namespace) -> int:
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


def cmd_check(args: argparse.Namespace) -> int:
    g = fileio.load_instance_graph(args.instancegraph)
    tg = fileio.load_type_graph(args.tg)
    doc = parse_constraints(_read_text(args.constraints))
    rep = conformance(g, tg)
    if not rep.ok:
        return _finish(rep)
    result = evaluate(doc, g, tg)
    if result.all_passed:
        return EXIT_OK
    for failure in result.failures():
        detail = "; ".join(failure.trace) if failure.trace else "invariant violated"
        _emit_error("constraint", f"{failure.invariant}@{failure.node}", detail)
    return EXIT_INVALID


def cmd_configs(args: argparse.Namespace) -> int:
    for cfg in enumerate_configs():
        print(",".join(cfg.ordered()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigtg", description="Bigraphs as typed graphs: encode, validate, reconfigure, check."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metamodel", help="derive the type graph for a signature")
    p.add_argument("signature")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_metamodel)

    p = sub.add_parser("encode", help="encode a bigraph as an instance graph")
    p.add_argument("bigraph")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a canonical instance graph back to a bigraph")
    p.add_argument("instancegraph")
    p.add_argument("--sig", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("validate", help="run every applicable checker on a document")
    p.add_argument("file")
    p.add_argument("--sig")
    p.add_argument("--tg")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("configure", help="derive a variant type graph and reconfigure an encoding")
    p.add_argument("instancegraph")
    p.add_argument("--sig", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--tg-out", dest="tg_out")
    p.set_defaults(func=cmd_configure)

    p = sub.add_parser("check", help="evaluate a constraint document on an instance graph")
    p.add_argument("instancegraph")
    p.add_argument("--tg", required=True)
    p.add_argument("--constraints", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("configs", help="print all valid feature configurations")
    p.set_defaults(func=cmd_configs)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except fileio.SchemaError as exc:
        _emit_error("schema", exc.path, exc.message)
        return EXIT_USAGE
    except fileio.IoError as exc:
        _emit_error("io", "-", str(exc))
        return EXIT_USAGE
    except ConstraintSyntaxError as exc:
        _emit_error("syntax", f"{exc.line}:{exc.col}", str(exc))
        return EXIT_USAGE
    except TypeCheckError as exc:
        _emit_error("typecheck", "-", str(exc))
        return EXIT_USAGE
    except EvaluationError as exc:
        _emit_error("evaluation", "-", str(exc))
        return EXIT_USAGE
    except InvalidBigraph as exc:
        _emit(exc.report.findings)
        return EXIT_INVALID
    except InvalidConfig as exc:
        _emit(exc.report.findings)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
