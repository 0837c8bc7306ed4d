#!/usr/bin/env python3
"""Regenerate the shipped fixture files deterministically.

Builds the office printing example (two connected rooms, a printer wired
to a spool and a computer, a user holding a job and identified by an
outer name), its signature, type graph and canonical encoding, the
constraint document, feature configurations, and a small good/bad corpus
for exercising the validate and check subcommands. ``corpus/bad.check.err``
is not written here: it pins what ``bigtg check`` prints for
``corpus/bad.bgc`` on the printer model.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))


from bigtg import (
    Bigraph,
    FeatureConfig,
    Interface,
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


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    corpus = FIXTURES / "corpus"
    corpus.mkdir(exist_ok=True)

    sig = printer_signature()
    b1 = printer_bigraph()
    g1, _ = encode(b1)

    fileio.save(sig, str(FIXTURES / "printer.sig.json"))
    fileio.save(b1, str(FIXTURES / "printer.bg.json"))
    fileio.save(extend_for_signature(sig), str(FIXTURES / "printer.tg.json"))
    fileio.save(g1, str(FIXTURES / "printer.ig.json"))
    (FIXTURES / "office.bgc").write_text(OFFICE_CONSTRAINTS, encoding="utf-8")
    fileio.save(FeatureConfig.canonical(), str(FIXTURES / "canonical.cfg.json"))
    fileio.save(
        FeatureConfig(frozenset({"WT", "ER", "RI", "ES", "SI", "EP", "PI"})),
        str(FIXTURES / "weak.cfg.json"),
    )

    good_b = corpus_bigraph()
    good_g, _ = encode(good_b)
    fileio.save(good_b, str(corpus / "good.bg.json"))
    fileio.save(good_g, str(corpus / "good.ig.json"))
    fileio.save(FeatureConfig.canonical(), str(corpus / "good.cfg.json"))

    bad_b = replace(good_b, prnt={**good_b.prnt, "u": "u"})
    fileio.save(bad_b, str(corpus / "bad.bg.json"))
    dropped = sorted(e for e in good_g.graph.edges if good_g.edge_types[e] == "bChld")[0]
    bad_g = replace(
        good_g,
        graph=replace(
            good_g.graph,
            edges=good_g.graph.edges - {dropped},
            src={e: s for e, s in good_g.graph.src.items() if e != dropped},
            tgt={e: t for e, t in good_g.graph.tgt.items() if e != dropped},
        ),
        edge_types={e: t for e, t in good_g.edge_types.items() if e != dropped},
    )
    fileio.save(bad_g, str(corpus / "bad.ig.json"))
    fileio.save(FeatureConfig(frozenset({"ST", "WT", "RI"})), str(corpus / "bad.cfg.json"))
    (corpus / "bad.bgc").write_text(BAD_CONSTRAINTS, encoding="utf-8")

    for path in sorted(FIXTURES.rglob("*")):
        if path.is_file():
            print("wrote", path.relative_to(FIXTURES.parent))


if __name__ == "__main__":
    main()
