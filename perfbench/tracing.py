"""Traced runs: spans around srnf's public functions, with self time and work counts.

Modules import functions by name, so ``normal_form.compose_truncated`` is a
binding of its own next to ``polymap.compose_truncated``.  :meth:`Tracer.install`
replaces the function at every module of the package that binds it, so
every call is seen whoever makes it.  A span's self time is its duration
minus the part covered by its child spans.  Spans carry their parent and
the operation they belong to, are kept in memory, and are written when the
run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Layer (srnf module) -> public functions whose calls and self time are recorded.
TARGETS = {
    "linalg": ("triangularize", "analyze_spectrum"),
    "polymap": ("compose_truncated", "jet_inverse", "linear_conjugate",
                "PolyJet.evaluate", "PolyJet.__init__"),
    "homological": ("build_matrix", "split_homogeneous"),
    "subresonance": ("certify_subresonant", "sr_compose", "sr_inverse"),
    "normal_form": ("ingest", "conjugate_step", "poincare_dulac",
                    "conjugacy_coefficient_residual", "verify_conjugacy"),
    "gx_group": ("group_mul", "group_inv", "translate_conjugate", "orbit"),
    "germio": ("parse_germ_document", "result_document", "report_document", "dump_json"),
}

# Work counts, with their units; summed over a run unless named *_max or *_ratio.
COUNTS = {
    "polymap.compose_truncated.terms_out": "count",
    "homological.build_matrix.operator_bytes_max": "bytes",
    "homological.build_matrix.operator_dim_max": "count",
    "subresonance.sr_compose.kept_ratio": "ratio",
    "germio.dump_json.bytes": "bytes",
}


class _Frame:
    __slots__ = ("name", "id", "children", "computed")

    def __init__(self, name: str, span_id: int):
        self.name, self.id = name, span_id
        self.children = 0.0   # time covered by child spans
        self.computed = 0     # sr_compose: terms its inner composition produced


class Tracer:
    def __init__(self):
        self.active = False
        self.keep_spans = True
        self.spans = []       # (id, parent id, operation id, name, start, end)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []
        self._next_id = 0

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding in the loaded ``srnf`` modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "srnf" or name.startswith("srnf.")]
        for layer, functions in TARGETS.items():
            home = sys.modules[f"srnf.{layer}"]
            for function in functions:
                name = f"{layer}.{function}"
                if "." in function:
                    cls_name, method = function.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, method, self._wrap(name, cls.__dict__[method]))
                    continue
                original = getattr(home, function)
                wrapped = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer._span(name) as (frame, parent):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, frame, parent, result)
            return result

        return traced

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(name, self._next_id)
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield frame, parent
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent.children += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame.children
            if self.keep_spans:
                root = self._stack[0].id if self._stack else frame.id
                self.spans.append((frame.id, parent.id if parent else None, root, name,
                                   start, end))

    @contextmanager
    def operation(self, name: str):
        """Root span of one timed operation; spans inside it share its id."""
        self.active = True
        try:
            with self._span(f"op:{name}"):
                yield
        finally:
            self.active = False

    # -- output ---------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics, per round of the workload."""
        out = {}
        for layer, functions in TARGETS.items():
            for function in functions:
                name = f"{layer}.{function}"
                out[f"{name}.calls"] = (self.calls[name] / rounds, "count")
                out[f"{name}.self_s"] = (self.self_s[name] / rounds, "s")
        for name, unit in COUNTS.items():
            if name.endswith("_ratio"):
                computed = self.counts["subresonance.sr_compose.computed"]
                value = self.counts["subresonance.sr_compose.kept"] / computed if computed else 0.0
            elif name.endswith("_max"):
                value = self.counts[name]
            else:
                value = self.counts[name] / rounds
            out[name] = (value, unit)
        return out

    def write(self, path, header: dict) -> None:
        """The kept spans as JSON lines, after one header line; times from the first start."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span_id, parent, op, name, start, end in sorted(self.spans, key=lambda s: s[4]):
                handle.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                         "name": name, "start_s": start - origin,
                                         "end_s": end - origin}) + "\n")


def _compose_hook(tracer, frame, parent, result):
    terms = len(result.terms)
    tracer.counts["polymap.compose_truncated.terms_out"] += terms
    if parent is not None and parent.name == "subresonance.sr_compose":
        parent.computed += terms


def _sr_compose_hook(tracer, frame, parent, result):
    tracer.counts["subresonance.sr_compose.kept"] += len(result.jet.terms)
    tracer.counts["subresonance.sr_compose.computed"] += frame.computed


def _build_matrix_hook(tracer, frame, parent, result):
    counts = tracer.counts
    counts["homological.build_matrix.operator_bytes_max"] = max(
        counts["homological.build_matrix.operator_bytes_max"], result.entries.nbytes)
    counts["homological.build_matrix.operator_dim_max"] = max(
        counts["homological.build_matrix.operator_dim_max"], len(result.ordering))


def _dump_json_hook(tracer, frame, parent, result):
    tracer.counts["germio.dump_json.bytes"] += len(result.encode("utf-8"))


_HOOKS = {
    "polymap.compose_truncated": _compose_hook,
    "subresonance.sr_compose": _sr_compose_hook,
    "homological.build_matrix": _build_matrix_hook,
    "germio.dump_json": _dump_json_hook,
}
