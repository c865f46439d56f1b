"""Span tracer installed from outside the program.

It wraps every public function and every public method of a public class in
the rieszlab modules, both where the function is defined and wherever another
module imported it by name, plus numpy.linalg.svd, solve, qr and inv.  Each
call becomes a span (layer, name, start, end, self time, raised, parent,
command) kept in memory.  Self time is the span's duration minus the time its
child spans cover, and minus the tracer's own bookkeeping (matrix hashing and
byte counting) done inside it.  numpy spans belong to the `linalg` layer;
svd, solve and qr are also recorded as factorizations, inv only as a span.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("linalg", "family", "riesz", "ladder", "pseudoboson", "diagnostics",
           "models", "io", "cli")
FACTOR_OPS = ("svd", "solve", "qr")
FACTOR_KINDS = ("svd", "svd_values", "solve", "qr")
IO_READS = ("load_family", "load_matrix")
IO_WRITES = ("save_family", "save_matrix", "save_ladder", "atomic_write_text")


def _flops(kind: str, a: np.ndarray, b: np.ndarray | None) -> float:
    """Textbook operation count of one factorization, computed from shapes.

    Real counts from Golub & Van Loan; a complex operand costs four times as
    much.  These are computed, not measured.
    """
    m, n = a.shape[-2:]
    big, k = max(m, n), min(m, n)
    if kind == "svd":
        f = 4 * big * big * k + 8 * big * k * k + 9 * k ** 3
    elif kind == "svd_values":
        f = 4 * big * k * k - 4 * k ** 3 / 3
    elif kind == "qr":
        f = 4 * big * k * k - 4 * k ** 3 / 3
    else:  # solve
        rhs = 1 if b is None or b.ndim == 1 else b.shape[-1]
        f = 2 * n ** 3 / 3 + 2 * n * n * rhs
    return f * (4 if np.iscomplexobj(a) else 1)


class Tracer:
    """In-memory spans for one process.

    `command` tags the spans of one CLI call; while `active` is false the
    wrappers only call through.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.factorizations: list[dict] = []
        self.io_bytes: list[dict] = []
        self.command: str | None = None
        self.active = True
        self._stack: list[list] = []
        self._next_id = 0

    # -- span bookkeeping ------------------------------------------------
    def _enter(self) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, 0.0, perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, layer: str, name: str, raised: bool) -> dict:
        end = perf_counter()
        self._stack.pop()
        span_id, parent, child_s, start = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        span = {"id": span_id, "parent": parent, "layer": layer, "name": name,
                "start": start, "end": end, "self_s": duration - child_s,
                "raised": raised, "command": self.command}
        self.spans.append(span)
        return span

    def _exclude(self, since: float) -> None:
        """Charge the tracer's own work since `since` to no span."""
        if self._stack:
            self._stack[-1][2] += perf_counter() - since

    def _span(self, layer: str, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            info = None
            if before is not None:
                t0 = perf_counter()
                info = before(args, kwargs)
                tracer._exclude(t0)
            frame = tracer._enter()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                span = tracer._exit(frame, layer, name, raised)
                if after is not None and info is not None:
                    t0 = perf_counter()
                    after(span, info)
                    tracer._exclude(t0)

        return traced

    # -- installation ----------------------------------------------------
    def install(self, package) -> None:
        """Wrap the package's modules and numpy.linalg in place."""
        modules = {name: getattr(package, name) for name in MODULES}
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap_function(layer, name, obj)
                    setattr(module, name, replaced[id(obj)])
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # Names imported from one module into another (cli's
        # `from .family import ...`, the package's re-exports).
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, name, replaced[id(obj)])
        for op in FACTOR_OPS:
            setattr(np.linalg, op, self._wrap_factor(op, getattr(np.linalg, op)))
        np.linalg.inv = self._span("linalg", "numpy.linalg.inv", np.linalg.inv)

    def _wrap_function(self, layer: str, name: str, fn):
        before = after = None
        if layer == "io" and name in IO_READS:
            before, after = _read_size, self._record_io
        elif layer == "io" and name == "atomic_write_text":
            before, after = _write_size, self._record_io
        return self._span(layer, name, fn, before, after)

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._span(layer, label, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._span(layer, label, attr))

    def _wrap_factor(self, op: str, fn):
        def before(args, kwargs):
            a = np.asarray(args[0])
            kind = op
            if op == "svd" and not kwargs.get("compute_uv", args[2] if len(args) > 2 else True):
                kind = "svd_values"
            b = None
            if op == "solve":
                b = np.asarray(args[1] if len(args) > 1 else kwargs["b"])
            key = hashlib.sha1(memoryview(np.ascontiguousarray(a)).cast("B"))
            key.update(repr((a.shape, a.dtype.str)).encode())
            return {"kind": kind, "matrix": key.hexdigest(), "flop": _flops(kind, a, b)}

        return self._span("linalg", f"numpy.linalg.{op}", fn, before, self._record_factor)

    def _record_factor(self, span: dict, info: dict) -> None:
        self.factorizations.append({**info, "seconds": span["end"] - span["start"],
                                    "command": self.command})

    def _record_io(self, span: dict, info: dict) -> None:
        self.io_bytes.append({**info, "command": self.command})

    # -- output ----------------------------------------------------------
    def clear(self) -> None:
        self.spans.clear()
        self.factorizations.clear()
        self.io_bytes.clear()


def dump_spans(path: Path, spans: list[dict]) -> None:
    """Write spans as JSON lines, once, when the run ends."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def _read_size(args, kwargs) -> dict:
    path = Path(args[0] if args else kwargs["path"])
    size = os.path.getsize(path)
    sidecar = path.with_name(path.name + ".meta.json")
    if sidecar.exists():
        size += os.path.getsize(sidecar)
    return {"read": size}


def _write_size(args, kwargs) -> dict:
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"written": len(text.encode())}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans currently held (one pass)."""
    out: dict[str, float] = {}
    by_id = {s["id"]: s for s in tracer.spans}
    for layer in MODULES:
        own = [s for s in tracer.spans if s["layer"] == layer]
        out[f"{layer}.calls"] = sum(1 for s in own if not s["name"].startswith("numpy."))
        out[f"{layer}.self_s"] = sum(s["self_s"] for s in own)
        out[f"{layer}.raised"] = sum(1 for s in own if s["raised"])

    facts = tracer.factorizations
    for kind in FACTOR_KINDS:
        out[f"linalg.{kind}_calls"] = sum(1 for f in facts if f["kind"] == kind)
    out["linalg.factorizations"] = len(facts)
    distinct = {(f["command"], f["matrix"]) for f in facts}
    out["linalg.distinct_factor_ratio"] = len(distinct) / len(facts) if facts else 1.0
    out["linalg.factor_s"] = sum(f["seconds"] for f in facts)
    out["linalg.factor_gflop"] = sum(f["flop"] for f in facts) / 1e9

    def outermost_io(names):
        return sum(s["end"] - s["start"] for s in tracer.spans
                   if s["layer"] == "io" and s["name"] in names
                   and (s["parent"] is None or by_id[s["parent"]]["layer"] != "io"))

    out["io.read_s"] = outermost_io(IO_READS)
    out["io.write_s"] = outermost_io(IO_WRITES)
    out["io.bytes_read"] = sum(r.get("read", 0) for r in tracer.io_bytes)
    out["io.bytes_written"] = sum(r.get("written", 0) for r in tracer.io_bytes)
    return out


def command_counts(tracer: Tracer) -> dict[str, dict[str, int]]:
    """Factorizations per command label: svd (full + values-only), solve, qr."""
    counts: dict[str, dict[str, int]] = {}
    for f in tracer.factorizations:
        c = counts.setdefault(f["command"], {"svd": 0, "solve": 0, "qr": 0})
        c["svd" if f["kind"].startswith("svd") else f["kind"]] += 1
    return counts
