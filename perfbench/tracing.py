"""Span tracing of bigtg's public functions, installed from outside.

The tracer replaces every binding of each listed function in the loaded
``bigtg`` modules with one wrapper, so calls through re-imported names
(``decode`` calling ``check_typing``, ``cli`` calling ``encode``) are
recorded too. Each call becomes a span with a parent id; self time is the
span's duration minus the durations of its child spans. Spans are kept in
memory in flat arrays and written out when the run ends.
"""

from __future__ import annotations

import array
import gzip
import importlib
import os
import sys
import time

#: The traced layers and their public functions.
TARGETS = {
    "bigraph": ("validate_bigraph",),
    "typedgraph": (
        "check_typing", "check_validity", "check_multiplicities", "check_type_graph",
        "outgoing", "incoming", "node_attrs", "conforms", "all_sub", "all_super",
        "declared_attrs",
    ),
    "mapping": ("encode", "decode", "check_arity_rule", "check_soundness", "extend_for_signature"),
    "variability": ("annotate_150", "derive_type_graph", "apply_deltas"),
    "constraints": ("parse_constraints", "typecheck", "evaluate"),
    "fileio": ("save", "load_document", "dumps_canonical"),
}

#: Functions that can raise (their ``.raised`` count is reported): by
#: contract, or, for ``check_validity``, with a ``KeyError`` on dangling edges.
RAISING = frozenset({
    "typedgraph.check_validity",
    "typedgraph.all_sub", "typedgraph.all_super", "typedgraph.conforms",
    "typedgraph.declared_attrs",
    "mapping.encode", "mapping.decode", "mapping.extend_for_signature",
    "variability.derive_type_graph", "variability.apply_deltas",
    "constraints.parse_constraints", "constraints.typecheck", "constraints.evaluate",
    "fileio.save", "fileio.load_document", "fileio.dumps_canonical",
})

#: Checkers whose time under ``decode`` is re-checking the caller may have done.
CHECKERS = frozenset({
    "typedgraph.check_typing", "typedgraph.check_validity",
    "typedgraph.check_multiplicities", "mapping.check_arity_rule",
})

#: Functions whose file argument is sized after the call: (position, metric).
FILE_SIZES = {"fileio.save": (1, "fileio.save.bytes"), "fileio.load_document": (0, "fileio.load.bytes")}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


class Tracer:
    """Records one span per call of every target function while installed."""

    def __init__(self) -> None:
        self.parent = array.array("q")  # span i's parent is span parent[i]; -1 for none
        self.func = array.array("B")    # index into NAMES
        self.start = array.array("d")
        self.end = array.array("d")
        self.calls = [0] * len(NAMES)
        self.total = [0.0] * len(NAMES)
        self.self_time = [0.0] * len(NAMES)
        self.raised = [0] * len(NAMES)
        self.file_bytes = {m: 0 for _, m in FILE_SIZES.values()}
        self.recheck_s = 0.0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._in_decode = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn):
        name = NAMES[idx]
        is_decode = name == "mapping.decode"
        is_checker = name in CHECKERS
        sized = FILE_SIZES.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.func)
            self.parent.append(stack[-1][0] if stack else -1)
            self.func.append(idx)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            if is_decode:
                self._in_decode += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                if is_decode:
                    self._in_decode -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.start[sid] = t0
                self.end[sid] = t1
                self.calls[idx] += 1
                self.total[idx] += dur
                self.self_time[idx] += dur - frame[1]
                if is_checker and self._in_decode:
                    self.recheck_s += dur
                if sized is not None:
                    pos, metric = sized
                    path = args[pos] if len(args) > pos else None
                    if isinstance(path, str) and os.path.exists(path):
                        self.file_bytes[metric] += os.path.getsize(path)

        return traced

    def install(self) -> None:
        """Patch every binding of every target in the loaded bigtg modules."""
        importlib.import_module("bigtg.cli")  # loads every traced module
        loaded = [m for k, m in sys.modules.items() if k == "bigtg" or k.startswith("bigtg.")]
        for idx, name in enumerate(NAMES):
            mod_name, fn_name = name.split(".")
            fn = getattr(importlib.import_module(f"bigtg.{mod_name}"), fn_name)
            wrapper = self._wrap(idx, fn)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for idx, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.total_s"] = self.total[idx]
            out[f"{name}.self_s"] = self.self_time[idx]
            if name in RAISING:
                out[f"{name}.raised"] = self.raised[idx]
        out.update(self.file_bytes)
        decode_s = self.total[NAMES.index("mapping.decode")]
        out["mapping.decode.recheck_share"] = self.recheck_s / decode_s if decode_s else 0.0
        return out

    def write_spans(self, path: str) -> None:
        """Write the spans, gzipped, as tab-separated ``id parent function
        start end`` lines with times in microseconds from the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tfunction\tstart_us\tend_us\n")
            for sid in range(len(self.func)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{NAMES[self.func[sid]]}\t"
                    f"{(self.start[sid] - origin) * 1e6:.1f}\t{(self.end[sid] - origin) * 1e6:.1f}\n"
                )
