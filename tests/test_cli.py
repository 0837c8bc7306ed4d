from __future__ import annotations

import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

from bigtg import (
    Bigraph,
    FeatureConfig,
    Interface,
    InvalidBigraph,
    encode,
    fileio,
    make_signature,
    replace,
    validate_bigraph,
)
from bigtg.cli import main

DIAG_LINE = re.compile(r"^(error|warning) \S+ \S+ .+$")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(fixtures_dir, name: str) -> str:
    return str(fixtures_dir / name)


def test_metamodel(fixtures_dir, tmp_path, capsys, tg_sigma1):
    out = tmp_path / "out.tg.json"
    code, _, _ = run(capsys, "metamodel", fx(fixtures_dir, "printer.sig.json"), "-o", str(out))
    assert code == 0
    assert fileio.load_type_graph(str(out)) == tg_sigma1
    assert out.read_bytes() == (fixtures_dir / "printer.tg.json").read_bytes()


def test_encode_then_validate(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "printer.ig.json"
    code, _, _ = run(capsys, "encode", fx(fixtures_dir, "printer.bg.json"), "-o", str(out))
    assert code == 0
    assert out.read_bytes() == (fixtures_dir / "printer.ig.json").read_bytes()
    code, _, err = run(
        capsys, "validate", str(out), "--sig", fx(fixtures_dir, "printer.sig.json")
    )
    assert code == 0 and err == ""


def test_decode_restores_bigraph(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "printer.bg.json"
    code, _, _ = run(
        capsys,
        "decode",
        fx(fixtures_dir, "printer.ig.json"),
        "--sig",
        fx(fixtures_dir, "printer.sig.json"),
        "-o",
        str(out),
    )
    assert code == 0
    assert out.read_bytes() == (fixtures_dir / "printer.bg.json").read_bytes()


def test_validate_bad_bigraph_diagnostics(fixtures_dir, capsys):
    code, _, err = run(capsys, "validate", fx(fixtures_dir, "corpus/bad.bg.json"))
    assert code == 1
    lines = [line for line in err.splitlines() if line]
    assert lines
    assert all(DIAG_LINE.match(line) for line in lines)
    assert any("parent-cycle" in line for line in lines)


def test_encode_invalid_bigraph_reports_its_findings(fixtures_dir, tmp_path, capsys):
    bad = fx(fixtures_dir, "corpus/bad.bg.json")
    out = tmp_path / "bad.ig.json"
    code, _, err = run(capsys, "encode", bad, "-o", str(out))
    assert code == 1
    assert not out.exists()
    assert err == "".join(f.line() + "\n" for f in validate_bigraph(fileio.load_bigraph(bad)).findings)
    assert err == "error parent-cycle prnt[u] parent map cycle through u\n"
    assert run(capsys, "validate", bad) == (1, "", err)


def test_encode_refuses_edge_ids_that_collide(tmp_path, capsys):
    # x's and x:n:y's nesting edges would both be bPrnt:n:x:n:y:n:z, and
    # the later would replace the earlier.
    nodes = ("x", "y:n:z", "x:n:y", "z")
    b = Bigraph(
        signature=make_signature([("A", 0)]),
        nodes=frozenset(nodes),
        ctrl=dict.fromkeys(nodes, "A"),
        prnt={"y:n:z": 0, "z": 0, "x": "y:n:z", "x:n:y": "z"},
        outer=Interface(1, frozenset()),
    )
    assert validate_bigraph(b).ok
    line = "error edge-id-collision bPrnt:n:x:n:y:n:z two relations are both edge bPrnt:n:x:n:y:n:z"
    with pytest.raises(InvalidBigraph) as err:
        encode(b)
    assert [f.line() for f in err.value.report.findings] == [line]
    path, out = tmp_path / "clash.bg.json", tmp_path / "clash.ig.json"
    fileio.save(b, str(path))
    assert run(capsys, "encode", str(path), "-o", str(out)) == (1, "", line + "\n")
    assert not out.exists()


def test_encode_refuses_idle_links(b1, tmp_path, capsys):
    """A valid bigraph with an idle edge and an idle outer name: its
    encoding would break the [1,*] bound of ``bPoints``, so ``encode``
    exits 1 with one ``idle-link`` line per idle link and writes nothing."""
    b = replace(b1, edges=b1.edges | {"e9"}, outer=Interface(b1.outer.width, b1.outer.names | {"idle"}))
    assert validate_bigraph(b).ok
    path, out = tmp_path / "idle.bg.json", tmp_path / "idle.ig.json"
    fileio.save(b, str(path))
    err = (
        "error idle-link e9 edge 'e9' has no point; 'bPoints' needs at least one\n"
        "error idle-link idle outer name 'idle' has no point; 'bPoints' needs at least one\n"
    )
    assert run(capsys, "encode", str(path), "-o", str(out)) == (1, "", err)
    assert not out.exists()


def test_validate_needs_tg_or_sig_for_instance(fixtures_dir, capsys):
    code, _, err = run(capsys, "validate", fx(fixtures_dir, "printer.ig.json"))
    assert code == 2
    assert "--tg or --sig" in err


def test_validate_with_tg(fixtures_dir, capsys):
    code, _, _ = run(
        capsys, "validate", fx(fixtures_dir, "printer.ig.json"), "--tg", fx(fixtures_dir, "printer.tg.json")
    )
    assert code == 0


def test_validate_typegraph_and_signature_kinds(fixtures_dir, capsys):
    assert run(capsys, "validate", fx(fixtures_dir, "printer.tg.json"))[0] == 0
    assert run(capsys, "validate", fx(fixtures_dir, "printer.sig.json"))[0] == 0


def test_configure_emits_both_artifacts(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "weak.ig.json"
    code, _, _ = run(
        capsys,
        "configure",
        fx(fixtures_dir, "printer.ig.json"),
        "--sig",
        fx(fixtures_dir, "printer.sig.json"),
        "--features",
        fx(fixtures_dir, "weak.cfg.json"),
        "-o",
        str(out),
    )
    assert code == 0
    configured = fileio.load_instance_graph(str(out))
    derived = fileio.load_type_graph(str(tmp_path / "weak.tg.json"))
    assert "Spool" not in derived.graph.nodes
    assert all(t != "Spool" for t in configured.node_types.values())
    # The configured instance validates against the emitted type graph.
    code, _, _ = run(capsys, "validate", str(out), "--tg", str(tmp_path / "weak.tg.json"))
    assert code == 0


def test_configure_writes_the_pinned_weak_variant(fixtures_dir, tmp_path, capsys):
    # Weak typing with every group implicit runs every reconfiguration step.
    code, _, err = run(
        capsys,
        "configure",
        fx(fixtures_dir, "printer.ig.json"),
        "--sig",
        fx(fixtures_dir, "printer.sig.json"),
        "--features",
        fx(fixtures_dir, "corpus/wt.cfg.json"),
        "-o",
        str(tmp_path / "wt.ig.json"),
    )
    assert (code, err) == (0, "")
    for name in ("wt.ig.json", "wt.tg.json"):
        assert (tmp_path / name).read_bytes() == (fixtures_dir / "corpus" / name).read_bytes()


def test_check_passes_on_printer(fixtures_dir, capsys):
    code, _, err = run(
        capsys,
        "check",
        fx(fixtures_dir, "printer.ig.json"),
        "--tg",
        fx(fixtures_dir, "printer.tg.json"),
        "--constraints",
        fx(fixtures_dir, "office.bgc"),
    )
    assert code == 0 and err == ""


def test_check_reports_violated_invariant(fixtures_dir, tmp_path, capsys, b1):
    moved = replace(b1, prnt={**b1.prnt, "v5": "v3"})
    g, _ = encode(moved)
    ig = tmp_path / "moved.ig.json"
    fileio.save(g, str(ig))
    code, _, err = run(
        capsys,
        "check",
        str(ig),
        "--tg",
        fx(fixtures_dir, "printer.tg.json"),
        "--constraints",
        fx(fixtures_dir, "office.bgc"),
    )
    assert code == 1
    assert err == "error constraint iv1@n:v3 n:v3.bChld = {n:v5, s:0}; forAll(c) fails at n:v5\n"


def test_check_prints_the_pinned_findings_of_the_bad_corpus(fixtures_dir, capsys):
    """Eight failing checks, each with its navigation trace, as CI pins
    them for the installed console script."""
    code, out, err = run(
        capsys,
        "check",
        fx(fixtures_dir, "printer.ig.json"),
        "--tg",
        fx(fixtures_dir, "printer.tg.json"),
        "--constraints",
        fx(fixtures_dir, "corpus/bad.bgc"),
    )
    assert (code, out) == (1, "")
    assert err == (fixtures_dir / "corpus" / "bad.check.err").read_text(encoding="utf-8")
    assert len(err.splitlines()) == 8


def test_check_prints_the_pinned_syntax_error(fixtures_dir, capsys):
    """A dangling ``->`` is one syntax error at its line and column, exit 2,
    as CI pins it for the installed console script."""
    code, out, err = run(
        capsys,
        "check",
        fx(fixtures_dir, "printer.ig.json"),
        "--tg",
        fx(fixtures_dir, "printer.tg.json"),
        "--constraints",
        fx(fixtures_dir, "corpus/bad-syntax.bgc"),
    )
    assert (code, out) == (2, "")
    assert err == (fixtures_dir / "corpus" / "bad-syntax.check.err").read_text(encoding="utf-8")


def test_validate_prints_the_pinned_port_findings(fixtures_dir, capsys):
    """A port without its owner and one without its link: two multiplicity
    findings and an arity finding, exit 1, as CI pins them for the
    installed console script."""
    code, out, err = run(
        capsys,
        "validate",
        fx(fixtures_dir, "corpus/bad-ports.ig.json"),
        "--sig",
        fx(fixtures_dir, "printer.sig.json"),
    )
    assert (code, out) == (1, "")
    assert err == (fixtures_dir / "corpus" / "bad-ports.validate.err").read_text(encoding="utf-8")
    assert [line.split()[1] for line in err.splitlines()] == ["mult-underflow", "mult-underflow", "arity"]


def test_a_port_without_an_index_is_refused_by_validate_and_decode(fixtures_dir, tmp_path, capsys):
    """A port without an index passes every checker but the canonical
    rules: ``validate --sig`` prints the pinned finding, and ``decode``
    prints it before its ``not-canonical`` line and writes nothing; each
    exits 1, as CI pins them for the installed console script."""
    ig, sig = fx(fixtures_dir, "corpus/bad-index.ig.json"), fx(fixtures_dir, "printer.sig.json")
    pinned = (fixtures_dir / "corpus" / "bad-index.validate.err").read_text(encoding="utf-8")
    assert run(capsys, "validate", ig, "--sig", sig) == (1, "", pinned)
    out = tmp_path / "out.bg.json"
    code, _, err = run(capsys, "decode", ig, "--sig", sig, "-o", str(out))
    assert (code, err) == (1, f"{pinned}error not-canonical {ig} instance graph fails canonical checks\n")
    assert not out.exists()


# The 54 configurations in print order: typing slowest, then roots,
# sites and ports, each through none, explicit, and explicit and indexed.
CONFIG_LINES = """
ST ST,EP ST,EP,PI ST,ES ST,ES,EP ST,ES,EP,PI ST,ES,SI ST,ES,SI,EP ST,ES,SI,EP,PI
ST,ER ST,ER,EP ST,ER,EP,PI ST,ER,ES ST,ER,ES,EP ST,ER,ES,EP,PI ST,ER,ES,SI ST,ER,ES,SI,EP ST,ER,ES,SI,EP,PI
ST,ER,RI ST,ER,RI,EP ST,ER,RI,EP,PI ST,ER,RI,ES ST,ER,RI,ES,EP ST,ER,RI,ES,EP,PI
ST,ER,RI,ES,SI ST,ER,RI,ES,SI,EP ST,ER,RI,ES,SI,EP,PI
WT WT,EP WT,EP,PI WT,ES WT,ES,EP WT,ES,EP,PI WT,ES,SI WT,ES,SI,EP WT,ES,SI,EP,PI
WT,ER WT,ER,EP WT,ER,EP,PI WT,ER,ES WT,ER,ES,EP WT,ER,ES,EP,PI WT,ER,ES,SI WT,ER,ES,SI,EP WT,ER,ES,SI,EP,PI
WT,ER,RI WT,ER,RI,EP WT,ER,RI,EP,PI WT,ER,RI,ES WT,ER,RI,ES,EP WT,ER,RI,ES,EP,PI
WT,ER,RI,ES,SI WT,ER,RI,ES,SI,EP WT,ER,RI,ES,SI,EP,PI
""".split()


def test_configs_prints_54_lines(capsys):
    assert len(CONFIG_LINES) == len(set(CONFIG_LINES)) == 54
    assert run(capsys, "configs") == (0, "".join(line + "\n" for line in CONFIG_LINES), "")


def test_schema_error_exit_code(fixtures_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"formatVersion": "1.0", "kind": "bigraph", "payload": {}}')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "schema" in err


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2


def test_an_option_takes_its_value_after_an_equals_sign(fixtures_dir, tmp_path, capsys):
    sig = fx(fixtures_dir, "printer.sig.json")
    spaced, joined = tmp_path / "spaced.bg.json", tmp_path / "joined.bg.json"
    ig = fx(fixtures_dir, "printer.ig.json")
    assert run(capsys, "decode", ig, "--sig", sig, "-o", str(spaced)) == (0, "", "")
    assert run(capsys, "decode", ig, f"--sig={sig}", f"--output={joined}") == (0, "", "")
    assert joined.read_bytes() == spaced.read_bytes() == (fixtures_dir / "printer.bg.json").read_bytes()
    tg = tmp_path / "printer.tg.json"
    assert run(capsys, "metamodel", sig, f"-o={tg}") == (0, "", "")
    assert tg.read_bytes() == (fixtures_dir / "printer.tg.json").read_bytes()
    bad_ports = fx(fixtures_dir, "corpus/bad-ports.ig.json")
    assert run(capsys, "validate", bad_ports, f"--sig={sig}") == run(capsys, "validate", bad_ports, "--sig", sig)


def test_a_double_dash_ends_the_options(fixtures_dir, capsys):
    assert run(capsys, "validate", "--", fx(fixtures_dir, "printer.sig.json")) == (0, "", "")


def test_help_names_every_command_and_every_option(capsys):
    code, out, err = run(capsys, "-h")
    assert (code, err) == (0, "")
    assert out.startswith("usage: bigtg <command>")
    for command in ("metamodel", "encode", "decode", "validate", "configure", "check", "configs"):
        assert f"  bigtg {command}" in out
    code, out, err = run(capsys, "decode", "-h")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "usage: bigtg decode instancegraph --sig SIG -o/--output OUTPUT"


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "no command given (bigtg -h lists them)"),
        (["frobnicate"], "unknown command 'frobnicate' (bigtg -h lists them)"),
        (["configs", "--feat"], "configs: unknown option --feat"),
        (["decode", "printer.ig.json", "--sig"], "decode: option --sig needs a value"),
        (["decode", "printer.ig.json", "--sig", "-o", "out.json"], "decode: option --sig needs a value"),
        (["validate"], "validate: missing argument file"),
        (["validate", "printer.sig.json", "printer.bg.json"], "validate: unexpected argument 'printer.bg.json'"),
        (["decode", "printer.ig.json", "-o", "out.json"], "decode: option --sig is required"),
        (["metamodel", "printer.sig.json", "-oFILE"], "metamodel: unknown option -oFILE"),
    ],
    ids=[
        "no-command", "unknown-command", "unknown-option", "option-without-value", "option-before-option",
        "missing-positional",
        "extra-positional", "missing-required-option", "attached-short-value",
    ],
)
def test_a_malformed_command_line_is_one_usage_line(argv, message):
    done = run_child("-m", "bigtg.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error usage - {message}\n")


def test_decode_non_canonical_exit_code(fixtures_dir, tmp_path, capsys, g1):
    import helpers

    broken = helpers.drop_edge(g1, helpers.edges_of_type(g1, "bChld")[0])
    ig = tmp_path / "broken.ig.json"
    fileio.save(broken, str(ig))
    code, _, err = run(
        capsys,
        "decode",
        str(ig),
        "--sig",
        fx(fixtures_dir, "printer.sig.json"),
        "-o",
        str(tmp_path / "out.json"),
    )
    assert code == 1
    assert "not-canonical" in err


def test_configure_rejects_invalid_config(fixtures_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg.json"
    fileio.save(FeatureConfig(frozenset({"ST", "WT"})), str(cfg))
    code, _, err = run(
        capsys,
        "configure",
        fx(fixtures_dir, "printer.ig.json"),
        "--sig",
        fx(fixtures_dir, "printer.sig.json"),
        "--features",
        str(cfg),
        "-o",
        str(tmp_path / "out.ig.json"),
    )
    assert code == 1
    assert "cfg-alternative" in err


def _bad_bytes(fixtures_dir, tmp_path):
    bad = tmp_path / "latin1.bgc"
    bad.write_bytes("context Spool inv caf\xe9: true".encode("latin-1"))
    argv = ["check", fx(fixtures_dir, "printer.ig.json"), "--tg", fx(fixtures_dir, "printer.tg.json")]
    return [*argv, "--constraints", str(bad)], "error io - cannot read "


def _bad_json_bytes(fixtures_dir, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"formatVersion": "1.0", "kind": "caf\xe9"}')
    return ["validate", str(bad)], "error io - cannot read "


def _deep_json(fixtures_dir, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    return ["validate", str(deep)], "error schema / not valid JSON: "


def _check_bgc(fixtures_dir, tmp_path, text: str) -> list[str]:
    bgc = tmp_path / "deep.bgc"
    bgc.write_text(text)
    argv = ["check", fx(fixtures_dir, "printer.ig.json"), "--tg", fx(fixtures_dir, "printer.tg.json")]
    return [*argv, "--constraints", str(bgc)]


def _deep_bgc(fixtures_dir, tmp_path):
    text = "context Spool inv iv1: " + "(" * 100_000 + "true" + ")" * 100_000
    return _check_bgc(fixtures_dir, tmp_path, text), "error syntax 1:"


def _long_bgc(fixtures_dir, tmp_path):
    text = "context Spool inv iv1: self" + ".bChld->first()" * 5_000 + ".oclIsTypeOf(Job)"
    return _check_bgc(fixtures_dir, tmp_path, text), "error syntax 1:19 "


SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def run_child(*argv: str) -> subprocess.CompletedProcess:
    """``argv`` in a fresh interpreter that sees this checkout's ``src``."""
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize(
    "make",
    [_bad_bytes, _bad_json_bytes, _deep_json, _deep_bgc, _long_bgc],
    ids=["bgc-not-utf8", "json-not-utf8", "json-too-deep", "bgc-too-deep", "bgc-chain-too-deep"],
)
def test_unreadable_input_is_one_error_line(fixtures_dir, tmp_path, make):
    argv, prefix = make(fixtures_dir, tmp_path)
    done = run_child("-m", "bigtg.cli", *argv)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith(prefix)


def _and_chain(depth: int) -> str:
    """Invariant ``i``: the printed right-nested ``and`` chain ``depth``
    levels deep, on line 3."""
    from bigtg.constraints import _PREC_LET, AndOp, BoolLit, _fmt

    body = BoolLit(True)
    for _ in range(depth - 1):
        body = AndOp(BoolLit(True), body)
    return f"context Spool\n  inv i:\n    {_fmt(body, _PREC_LET)}\n"


#: Parses the file named by its argument at module level, the shallowest
#: stack, and prints the syntax error.
PARSE_AT_TOP = (
    "import sys\nfrom bigtg import ConstraintSyntaxError, parse_constraints\n"
    "try:\n    parse_constraints(open(sys.argv[1], encoding='utf-8').read())\n"
    "except ConstraintSyntaxError as err:\n    print(err)\n"
)


@pytest.mark.parametrize("depth", [248, 249, 250])
def test_an_invariant_a_little_deeper_than_the_bound_is_named_with_its_depth(fixtures_dir, tmp_path, depth):
    """A chain that the printer parenthesizes takes the parser two nested
    expressions per level. The parser measures it whole however deep the
    caller's stack starts, and refuses it at the invariant's name with its
    depth: from module level, the shallowest stack, and in a ``bigtg
    check`` child alike, as a syntax error with exit 2."""
    named = f"2:7: invariant i is nested {depth} levels deep (at most 200)"
    argv = _check_bgc(fixtures_dir, tmp_path, _and_chain(depth))
    assert run_child("-c", PARSE_AT_TOP, argv[-1]).stdout.strip() == named
    done = run_child("-m", "bigtg.cli", *argv)
    assert done.returncode == 2
    assert done.stderr == f"error syntax {named.split(': ')[0]} {named}\n"


#: Modules that no subcommand needs: code generation for the value classes,
#: and the standard library's argument parsers with their translations.
UNNEEDED = ("dataclasses", "inspect", "argparse", "getopt", "optparse", "gettext")

#: Prints the exit code of one ``main(argv)`` call, then the ``bigtg``
#: modules and those of ``UNNEEDED``, each if it is loaded by then.
LOADED_AFTER_MAIN = (
    "import sys; from bigtg.cli import main; code = main(sys.argv[1:]); "
    f"print(code, *sorted(m for m in sys.modules if m.startswith('bigtg.') or m in {UNNEEDED!r}))"
)

#: The layers that a subcommand loads only if it runs them.
OPTIONAL_LAYERS = ("constraints", "mapping", "variability", "wellformed", "writers")


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["metamodel", "printer.sig.json", "-o", "{out}"], {"writers"}),
        (["encode", "printer.bg.json", "-o", "{out}"], {"mapping", "wellformed", "writers"}),
        (["decode", "printer.ig.json", "--sig", "printer.sig.json", "-o", "{out}"], {"mapping", "writers"}),
        (["validate", "printer.ig.json", "--sig", "printer.sig.json"], set()),
        (["validate", "printer.bg.json"], {"wellformed"}),
        (["validate", "printer.tg.json"], {"wellformed"}),
        (["validate", "weak.cfg.json"], {"variability"}),
        (
            ["configure", "printer.ig.json", "--sig", "printer.sig.json", "--features", "weak.cfg.json", "-o", "{out}"],
            {"variability", "writers"},
        ),
        (["check", "printer.ig.json", "--tg", "printer.tg.json", "--constraints", "office.bgc"], {"constraints"}),
        (["configs"], {"variability"}),
    ],
    ids=[
        "metamodel", "encode", "decode", "validate", "validate-bigraph", "validate-typegraph",
        "validate-featureconfig", "configure", "check", "configs",
    ],
)
def test_subcommand_loads_only_its_layers(fixtures_dir, tmp_path, argv, layers):
    out = str(tmp_path / "out.json")
    argv = [out if a == "{out}" else fx(fixtures_dir, a) if (fixtures_dir / a).is_file() else a for a in argv]
    done = run_child("-c", LOADED_AFTER_MAIN, *argv)
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0", done.stderr
    assert {layer for layer in OPTIONAL_LAYERS if f"bigtg.{layer}" in loaded} == layers
    # No command-line path runs the soundness check.
    assert "bigtg.soundness" not in loaded
    # The value classes are built without code generation, and the command
    # line is read against the command table, so no child pays for
    # importing ``dataclasses``, ``inspect``, or an argument parser.
    assert not set(UNNEEDED) & set(loaded)


def test_package_surface():
    import bigtg

    for name in bigtg.__all__:
        module = importlib.import_module(f"bigtg.{bigtg._EXPORTS[name]}")
        assert getattr(bigtg, name) is getattr(module, name)
    assert set(bigtg.__all__) <= set(dir(bigtg))
    namespace: dict = {}
    exec("from bigtg import *", namespace)
    assert set(bigtg.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        bigtg.no_such_name  # noqa: B018
    # In a fresh interpreter, the package alone loads no layer, and a
    # module is reachable as an attribute before anything imported it.
    done = run_child("-c", "import sys, bigtg; print('bigtg.mapping' in sys.modules, bigtg.mapping.encode.__name__)")
    assert done.stdout.split() == ["False", "encode"], done.stderr
