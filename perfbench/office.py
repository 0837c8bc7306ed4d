"""Seeded office models of exact size, with the answers the benchmark checks.

An office model is the printing example scaled up: rooms, each holding a
printer, a computer and a user; spools under the roots, each holding a
site and a share of the jobs; users holding the other jobs. Room ports
are wired to ``links`` shared edges that connect rooms only, each printer
is wired to a spool and to the computer of its room, and each user's port
is wired to an outer name of its own.

Everything here is plain data written and read with the ``json`` module:
the bigraph document, its canonical encoding, seeded mutations of that
encoding and the known answers. Nothing imports ``bigtg``, so the
benchmark checks the program's outputs against an independent oracle.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field

#: Controls and arities of the printer signature the generator wires for.
PRINTER_ARITIES = {"Job": 0, "User": 1, "Room": 1, "Spool": 1, "Printer": 2, "Computer": 1}

#: Node types of the base metamodel (the type graph without controls).
BASE_TYPES = (
    "BPlace", "BRoot", "BNode", "BSite", "BPoint",
    "BLink", "BPort", "BInnerName", "BEdge", "BOuterName",
)

#: Largest number of children a spool may have; the office constraint
#: ``iv2`` bounds it by 100, so clean models stay below.
SPOOL_CAPACITY = 99

#: Mutation kinds and the finding codes each one makes ``validate`` and
#: ``check`` report. None of them touches a port count, so the arity rule
#: that only ``validate --sig`` runs adds nothing.
MUTATIONS = {
    "drop-nesting-edge": ["opposite-inconsistent"],
    "second-container": ["mult-overflow", "multi-container"],
    "unlink-port": ["mult-underflow"],
    "unknown-type": ["typing-unknown-type"],
}


@dataclass
class OfficeModel:
    """One generated model: bigraph, encoding, mutation and known answers."""

    bigraph: dict
    encoding: dict
    mutated: dict | None
    mutation: str | None
    #: Finding codes and exit code of ``validate`` and ``check`` on ``mutated``.
    mutation_codes: list[str]
    mutation_exit: int
    counts: dict
    #: Verdict of every invariant of ``fixtures/office.bgc`` on the clean
    #: model: spools hold only jobs and sites, fewer than 100, and room
    #: edges connect rooms only, so all three hold by construction.
    invariants: dict = field(default_factory=lambda: {"iv1": True, "iv2": True, "iv3": True})


def envelope(kind: str, payload: dict) -> dict:
    return {"formatVersion": "1.0", "kind": kind, "payload": payload}


def check_signature(sig_doc: dict) -> None:
    """Refuse a signature other than the one the wiring rules assume."""
    got = {c["name"]: c["arity"] for c in sig_doc["payload"]["controls"]}
    if got != PRINTER_ARITIES:
        raise ValueError(f"office models need the printer signature {PRINTER_ARITIES}, got {got}")


def office_bigraph(seed: int, rooms: int, jobs: int, links: int, sig_payload: dict) -> dict:
    """The bigraph payload of a model with exactly these counts.

    ``links`` is the number of room-connecting edges; every one gets at
    least one room, so it must lie in ``1..rooms``.
    """
    if not 1 <= links <= rooms:
        raise ValueError("links must lie in 1..rooms")
    rng = random.Random(seed)
    n_roots = max(1, rooms // 25)
    n_spools = max(1, rooms // 4)

    ctrl: dict[str, str] = {}
    prnt: list[list] = []
    link: list[list] = []
    edges: list[str] = []
    outer: list[str] = []

    room_group = list(range(links)) + [rng.randrange(links) for _ in range(rooms - links)]
    rng.shuffle(room_group)
    edges += [f"re{k}" for k in range(links)]
    edges += [f"se{s}" for s in range(n_spools)]
    edges += [f"pe{i}" for i in range(rooms)]

    for s in range(n_spools):
        spool = f"spool{s}"
        ctrl[spool] = "Spool"
        prnt.append([spool, rng.randrange(n_roots)])
        prnt.append([s, spool])  # site s sits in spool s
        link.append([[spool, 0], f"se{s}"])
    for i in range(rooms):
        room, printer, computer, user = f"room{i}", f"prn{i}", f"pc{i}", f"usr{i}"
        ctrl.update({room: "Room", printer: "Printer", computer: "Computer", user: "User"})
        prnt.append([room, rng.randrange(n_roots)])
        prnt += [[printer, room], [computer, room], [user, room]]
        link.append([[room, 0], f"re{room_group[i]}"])
        link.append([[printer, 0], f"se{rng.randrange(n_spools)}"])
        link.append([[printer, 1], f"pe{i}"])
        link.append([[computer, 0], f"pe{i}"])
        link.append([[user, 0], f"u{i}"])
        outer.append(f"u{i}")
    spool_load = [1] * n_spools  # the site
    for j in range(jobs):
        job = f"job{j}"
        ctrl[job] = "Job"
        s = rng.randrange(n_spools)
        if rng.random() < 0.7 and spool_load[s] < SPOOL_CAPACITY:
            spool_load[s] += 1
            prnt.append([job, f"spool{s}"])
        else:
            prnt.append([job, f"usr{rng.randrange(rooms)}"])

    return {
        "ctrl": dict(sorted(ctrl.items())),
        "edges": sorted(edges),
        "inner": {"names": [], "width": n_spools},
        "link": link,
        "nodes": sorted(ctrl),
        "outer": {"names": sorted(outer), "width": n_roots},
        "prnt": prnt,
        "signature": sig_payload,
    }


def encode_bigraph(bg: dict) -> dict:
    """The canonical instance-graph payload of a bigraph payload.

    Mirrors the published encoding: one instance node per element, an
    opposite pair of edges per nesting, linking and port-ownership step,
    and ``index`` attributes on roots, sites and ports.
    """
    arity = {c["name"]: c["arity"] for c in bg["signature"]["controls"]}
    edge_set = set(bg["edges"])
    nodes: dict[str, dict] = {}
    edges: dict[str, dict] = {}

    def add_node(nid: str, ntype: str, index: int | None = None) -> None:
        nodes[nid] = {"attrs": {} if index is None else {"index": index}, "id": nid, "type": ntype}

    def add_pair(t_fwd: str, t_rev: str, src: str, tgt: str) -> None:
        for ty, s, t in ((t_fwd, src, tgt), (t_rev, tgt, src)):
            eid = f"{ty}:{s}:{t}"
            edges[eid] = {"id": eid, "src": s, "tgt": t, "type": ty}

    for v, c in bg["ctrl"].items():
        add_node(f"n:{v}", c)
        for i in range(arity[c]):
            add_node(f"p:{v}:{i}", "BPort", i)
            add_pair("bNode", "bPorts", f"p:{v}:{i}", f"n:{v}")
    for e in bg["edges"]:
        add_node(f"e:{e}", "BEdge")
    for i in range(bg["inner"]["width"]):
        add_node(f"s:{i}", "BSite", i)
    for i in range(bg["outer"]["width"]):
        add_node(f"r:{i}", "BRoot", i)
    for x in bg["inner"]["names"]:
        add_node(f"i:{x}", "BInnerName")
    for y in bg["outer"]["names"]:
        add_node(f"o:{y}", "BOuterName")
    for child, parent in bg["prnt"]:
        place = f"s:{child}" if isinstance(child, int) else f"n:{child}"
        up = f"r:{parent}" if isinstance(parent, int) else f"n:{parent}"
        add_pair("bPrnt", "bChld", place, up)
    for point, target in bg["link"]:
        pid = f"p:{point[0]}:{point[1]}" if isinstance(point, list) else f"i:{point}"
        tid = f"e:{target}" if target in edge_set else f"o:{target}"
        add_pair("bLink", "bPoints", pid, tid)
    return {
        "edges": [edges[k] for k in sorted(edges)],
        "nodes": [nodes[k] for k in sorted(nodes)],
    }


def weak_typed(ig: dict, controls: list[str]) -> dict:
    """The encoding after the weak-typing delta: control-typed nodes become
    ``BNode`` and carry their control as a ``control`` attribute."""
    out = copy.deepcopy(ig)
    for node in out["nodes"]:
        if node["type"] in controls:
            node["attrs"]["control"] = node["type"]
            node["type"] = "BNode"
    return out


def mutate(ig: dict, bg: dict, kind: str, rng: random.Random) -> dict:
    """A copy of ``ig`` with one defect of the given kind."""
    out = copy.deepcopy(ig)
    jobs = sorted(v for v, c in bg["ctrl"].items() if c == "Job")
    rooms = sorted(v for v, c in bg["ctrl"].items() if c == "Room")
    edges = {e["id"]: e for e in out["edges"]}

    def drop(*eids: str) -> None:
        for eid in eids:
            del edges[eid]

    def add(ty: str, src: str, tgt: str) -> None:
        eid = f"{ty}:{src}:{tgt}"
        edges[eid] = {"id": eid, "src": src, "tgt": tgt, "type": ty}

    if kind == "drop-nesting-edge":
        job = f"n:{rng.choice(jobs)}"
        drop(next(e for e in edges.values() if e["type"] == "bPrnt" and e["src"] == job)["id"])
    elif kind == "second-container":
        i = rng.randrange(len(rooms))
        other = f"n:{rooms[(i + 1) % len(rooms)]}"
        computer = f"n:pc{rooms[i][len('room'):]}"
        add("bChld", other, computer)
        add("bPrnt", computer, other)
    elif kind == "unlink-port":
        i = rooms[rng.randrange(len(rooms))][len("room"):]
        drop(f"bLink:p:prn{i}:1:e:pe{i}", f"bPoints:e:pe{i}:p:prn{i}:1")
    elif kind == "unknown-type":
        job = f"n:{rng.choice(jobs)}"
        next(n for n in out["nodes"] if n["id"] == job)["type"] = "Job_"
    else:
        raise ValueError(f"unknown mutation {kind!r}")
    out["edges"] = [edges[k] for k in sorted(edges)]
    return out


def counts_of(ig: dict) -> dict:
    by_type: dict[str, int] = {}
    for node in ig["nodes"]:
        by_type[node["type"]] = by_type.get(node["type"], 0) + 1
    for edge in ig["edges"]:
        by_type[edge["type"]] = by_type.get(edge["type"], 0) + 1
    return {"nodes": len(ig["nodes"]), "edges": len(ig["edges"]), "by_type": by_type}


def office_model(
    seed: int, rooms: int, jobs: int, links: int, sig_doc: dict, kind: str | None = None
) -> OfficeModel:
    """Generate one model and everything the benchmark knows about it,
    with a mutated copy (a defect of the given kind at a seeded place)
    when ``kind`` is given."""
    check_signature(sig_doc)
    bg = office_bigraph(seed, rooms, jobs, links, sig_doc["payload"])
    ig = encode_bigraph(bg)
    return OfficeModel(
        bigraph=bg,
        encoding=ig,
        mutated=None if kind is None else mutate(ig, bg, kind, random.Random(seed ^ 0x5EED)),
        mutation=kind,
        mutation_codes=MUTATIONS.get(kind, []),
        mutation_exit=1,
        counts=counts_of(ig),
    )


def normalized(doc: dict) -> dict:
    """A document with its entry lists in a fixed order, for comparison
    regardless of how the writer ordered them."""
    payload = doc["payload"]
    out = dict(doc)
    if doc["kind"] == "bigraph":
        payload = dict(payload)
        payload["prnt"] = sorted(payload["prnt"], key=repr)
        payload["link"] = sorted(payload["link"], key=repr)
    elif doc["kind"] == "instancegraph":
        payload = {
            "edges": sorted(payload["edges"], key=lambda e: e["id"]),
            "nodes": sorted(payload["nodes"], key=lambda n: n["id"]),
        }
    out["payload"] = payload
    return out
