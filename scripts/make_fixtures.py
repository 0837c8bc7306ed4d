#!/usr/bin/env python3
"""Regenerate the shipped fixture files deterministically.

Builds the office printing example (two connected rooms, a printer wired
to a spool and a computer, a user holding a job and identified by an
outer name), its signature, type graph and canonical encoding, the
constraint document, feature configurations, a small good/bad corpus
for exercising the validate and check subcommands, with what ``bigtg
validate --sig printer.sig.json`` prints for ``corpus/bad-index.ig.json``
(``corpus/bad-index.validate.err``), and the printer model's ``{"WT"}``
variant with its derived type graph, which ``bigtg configure`` must
reproduce, and prints the path of each file it writes. ``corpus/bad.check.err``,
``corpus/bad-syntax.check.err`` and ``corpus/bad-ports.validate.err`` are
not written here: the first two pin what ``bigtg check`` prints for
``corpus/bad.bgc`` and ``corpus/bad-syntax.bgc`` on the printer model, the
third what ``bigtg validate --sig printer.sig.json`` prints for
``corpus/bad-ports.ig.json``.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))


from bigtg import (
    Bigraph,
    FeatureConfig,
    Interface,
    annotate_150,
    apply_deltas,
    derive_type_graph,
    encode,
    extend_for_signature,
    fileio,
    make_signature,
    replace,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

OFFICE_CONSTRAINTS = """\
context Spool
  inv iv1:
    self.bChld->forAll(c | c.oclIsTypeOf(BSite) or c.oclIsTypeOf(Job))
  inv iv2:
    let n : integer = 100
    self.bChld->size() <= n and
      (self.bChld->size() = n implies not(self.bChld->exists(c | c.oclIsTypeOf(BSite))))
context Room
  inv iv3:
    let port : BPort = self.bPorts->first()
    port.bLink.oclIsTypeOf(BEdge) and port.bLink.bPoints->forAll(
      p | p.oclIsTypeOf(BPort) and p.oclAsType(BPort).bNode.oclIsTypeOf(Room))
"""

#: Invariants that the printer model breaks: every room holds a non-job,
#: and no port's link has a point linked to an outer name.
BAD_CONSTRAINTS = """\
context Room
  inv jobsOnly:
    self.bChld->forAll(c | c.oclIsTypeOf(Job))
context BPort
  inv outer:
    self.bLink.bPoints->exists(p | p.bLink.oclIsTypeOf(BOuterName))
"""

#: A dangling ``->`` before a connective, which ``bigtg check`` refuses
#: with one syntax error.
BAD_SYNTAX = """\
context Spool
  inv holdsJobs:
    self.bChld->size() >= 1 and self.bChld-> implies true
"""


#: What ``bigtg validate --sig printer.sig.json`` prints for
#: ``corpus/bad-index.ig.json``: the one canonical rule that it breaks.
BAD_INDEX_ERR = "error canonical-index p:v1:1 port has no 'index'\n"


def printer_signature():
    return make_signature(
        [("Job", 0), ("User", 1), ("Room", 1), ("Spool", 1), ("Printer", 2), ("Computer", 1)]
    )


def printer_bigraph() -> Bigraph:
    """The office snapshot: one root holding a spool and two rooms.

    The left room (v0) holds the printer (v1) and computer (v2) plus a
    site; the spool (v3) holds the other site; the right room (v4) holds
    the user (v5) who holds the job (v6). Edge e0 connects the two rooms,
    e1 the printer and spool, e2 the printer and computer; the user's
    port is linked to the outer name jeff.
    """
    return Bigraph(
        signature=printer_signature(),
        nodes={"v0", "v1", "v2", "v3", "v4", "v5", "v6"},
        edges={"e0", "e1", "e2"},
        ctrl={
            "v0": "Room",
            "v1": "Printer",
            "v2": "Computer",
            "v3": "Spool",
            "v4": "Room",
            "v5": "User",
            "v6": "Job",
        },
        prnt={
            "v0": 0,
            "v3": 0,
            "v4": 0,
            "v1": "v0",
            "v2": "v0",
            "v5": "v4",
            "v6": "v5",
            0: "v3",
            1: "v0",
        },
        link={
            ("v0", 0): "e0",
            ("v4", 0): "e0",
            ("v1", 0): "e1",
            ("v3", 0): "e1",
            ("v1", 1): "e2",
            ("v2", 0): "e2",
            ("v5", 0): "jeff",
        },
        inner=Interface(2, frozenset()),
        outer=Interface(1, frozenset({"jeff"})),
    )


def corpus_bigraph() -> Bigraph:
    """A minimal valid bigraph over the printer signature."""
    return Bigraph(
        signature=printer_signature(),
        nodes={"u"},
        ctrl={"u": "Spool"},
        prnt={"u": 0, 0: "u"},
        link={("u", 0): "s"},
        inner=Interface(1, frozenset()),
        outer=Interface(1, frozenset({"s"})),
    )


def without_edges(g, doomed: set[str]):
    """``g`` without the edges in ``doomed``."""
    return replace(
        g,
        graph=replace(
            g.graph,
            edges=g.graph.edges - doomed,
            src={e: s for e, s in g.graph.src.items() if e not in doomed},
            tgt={e: t for e, t in g.graph.tgt.items() if e not in doomed},
        ),
        edge_types={e: t for e, t in g.edge_types.items() if e not in doomed},
    )


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    corpus = FIXTURES / "corpus"
    corpus.mkdir(exist_ok=True)
    written = []

    def write(value, path: pathlib.Path) -> None:
        if isinstance(value, str):
            path.write_text(value, encoding="utf-8")
        else:
            fileio.save(value, str(path))
        written.append(path)

    sig = printer_signature()
    b1 = printer_bigraph()
    g1, _ = encode(b1)

    write(sig, FIXTURES / "printer.sig.json")
    write(b1, FIXTURES / "printer.bg.json")
    write(extend_for_signature(sig), FIXTURES / "printer.tg.json")
    write(g1, FIXTURES / "printer.ig.json")
    write(OFFICE_CONSTRAINTS, FIXTURES / "office.bgc")
    write(FeatureConfig.canonical(), FIXTURES / "canonical.cfg.json")
    write(FeatureConfig(frozenset({"WT", "ER", "RI", "ES", "SI", "EP", "PI"})), FIXTURES / "weak.cfg.json")

    good_b = corpus_bigraph()
    good_g, _ = encode(good_b)
    write(good_b, corpus / "good.bg.json")
    write(good_g, corpus / "good.ig.json")
    write(FeatureConfig.canonical(), corpus / "good.cfg.json")

    bad_b = replace(good_b, prnt={**good_b.prnt, "u": "u"})
    write(bad_b, corpus / "bad.bg.json")
    dropped = sorted(e for e in good_g.graph.edges if good_g.edge_types[e] == "bChld")[0]
    write(without_edges(good_g, {dropped}), corpus / "bad.ig.json")
    # The printer's second port loses its ownership pair (an arity finding,
    # and its bNode underflows) and the spool's port its link pair (its
    # bLink underflows).
    unowned = {"bNode:p:v1:1:n:v1", "bPorts:n:v1:p:v1:1"}
    unlinked = {"bLink:p:v3:0:e:e1", "bPoints:e:e1:p:v3:0"}
    write(without_edges(g1, unowned | unlinked), corpus / "bad-ports.ig.json")
    # The printer's second port loses its index: every checker passes, but
    # not the canonical rules, so ``bigtg decode`` refuses it too.
    unindexed = {key: value for key, value in g1.attrs.items() if key != ("p:v1:1", "index")}
    write(replace(g1, attrs=unindexed), corpus / "bad-index.ig.json")
    write(BAD_INDEX_ERR, corpus / "bad-index.validate.err")
    write(FeatureConfig(frozenset({"ST", "WT", "RI"})), corpus / "bad.cfg.json")
    # Weak typing with every group implicit runs every reconfiguration
    # step; ``bigtg configure`` must write these two files byte for byte.
    wt = FeatureConfig(frozenset({"WT"}))
    write(wt, corpus / "wt.cfg.json")
    write(apply_deltas(g1, wt, sig), corpus / "wt.ig.json")
    write(derive_type_graph(annotate_150(extend_for_signature(sig)), wt), corpus / "wt.tg.json")
    write(BAD_CONSTRAINTS, corpus / "bad.bgc")
    write(BAD_SYNTAX, corpus / "bad-syntax.bgc")

    for path in sorted(written):
        print("wrote", path.relative_to(FIXTURES.parent))


if __name__ == "__main__":
    main()
