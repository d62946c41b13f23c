"""Per-module tracing from outside the program.

`Tracer.install()` replaces trisect's public functions by wrappers in every
loaded trisect module namespace that holds them, so calls made inside the
package (first_homology -> validate_diagram, cokernel_invariants ->
smith_normal_form) are seen too.  A wrapper records a span (name, start,
end, parent span, op id) in memory, and optional counters.  Spans are
written out once, at the end; per-module metrics are derived from them.
"""

import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List

# metric name -> unit; the order is the report order
PER_LAYER_UNITS = {
    "zmatrix.smith.busy_s": "s",
    "zmatrix.smith.calls": "count",
    "zmatrix.smith.cells": "count",
    "zmatrix.smith.in_bits_max": "bits",
    "zmatrix.form.busy_s": "s",
    "zmatrix.form.calls": "count",
    "zmatrix.form.calls_per_row": "1",
    "zmatrix.sl3.busy_s": "s",
    "zmatrix.sl3.word_len": "count",
    "zmatrix.sl3.rejects": "count",
    "diagram.parse.busy_s": "s",
    "diagram.parse.bytes": "bytes",
    "diagram.validate.busy_s": "s",
    "diagram.validate.calls": "count",
    "diagram.serialize.busy_s": "s",
    "diagram.rejects": "count",
    "invariants.h1.self_s": "s",
    "farey.enumerate.self_s": "s",
    "farey.classify.busy_s": "s",
    "farey.rows": "count",
    "farey.dmet.calls": "count",
    "farey.rows_per_dmet": "1",
    "calculus.plan.self_s": "s",
    "calculus.plan.blocks": "count",
    "calculus.plan_io.busy_s": "s",
    "slides.reduce.busy_s": "s",
    "slides.moves": "count",
    "slides.trace_lines.busy_s": "s",
    "slides.rejects": "count",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.tracebacks": "count",
    "trace.overhead_s": "s",
}

BUSY = ("zmatrix.smith", "zmatrix.form", "zmatrix.sl3", "diagram.parse", "diagram.validate",
        "diagram.serialize", "farey.classify", "calculus.plan_io", "slides.reduce",
        "slides.trace_lines")
SELF = ("invariants.h1", "farey.enumerate", "calculus.plan")


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index, op id]
        self.archive: List[list] = []  # spans of finished passes
        self.stack: List[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self._undo: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        """Open a span; returns its index, or -1 - index when a span of the
        same name is already open (a nested call, e.g. reduce_full ->
        reduce_mu), so counters can skip nested calls."""
        nested = any(self.spans[i][0] == name for i in self.stack)
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        return -1 - idx if nested else idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx if idx >= 0 else -1 - idx][2] = time.perf_counter()

    def span(self, name: str, fn: Callable, after=None, rejects=(), reject_key="") -> Callable:
        """Wrap fn in a span; `after(tracer, args, result)` updates counters
        and `rejects` (exception classes) count into `reject_key`, both for
        outermost calls only."""
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except rejects:
                if idx >= 0:
                    self.counts[reject_key] += 1
                raise
            finally:
                self._close(idx)
            if after is not None and idx >= 0:
                after(self, args, result)
            return result
        return wrapper

    def span_iter(self, name: str, fn: Callable) -> Callable:
        """For generator functions: one span per next()."""
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counter_iter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        from trisect import calculus, cli, diagram, errors, farey, invariants, slides, zmatrix

        def smith_after(tr, args, result):
            m = args[0]
            tr.counts["zmatrix.smith.calls"] += 1
            tr.counts["zmatrix.smith.cells"] += len(m) * (len(m[0]) if m else 0)
            bits = max((abs(x).bit_length() for row in m for x in row), default=0)
            tr.counts["zmatrix.smith.in_bits_max"] = max(tr.counts["zmatrix.smith.in_bits_max"], bits)

        def count(name):
            def after(tr, args, result):
                tr.counts[name] += 1
            return after

        def sl3_after(tr, args, result):
            tr.counts["zmatrix.sl3.word_len"] += len(result)

        def parse_after(tr, args, result):
            tr.counts["diagram.parse.bytes"] += len(args[0].encode("utf-8"))

        def validate_after(tr, args, result):
            tr.counts["diagram.validate.calls"] += 1
            if not diagram.diagram_ok(result):
                tr.counts["diagram.rejects"] += 1

        def plan_after(tr, args, result):
            tr.counts["calculus.plan.blocks"] += len(result.blocks)

        def reduce_after(tr, args, result):
            tr.counts["slides.moves"] += len(result[1])

        slide_rejects = (errors.NotApplicable, errors.MalformedWord)
        plan = {
            (zmatrix, "smith_normal_form"): self.span("zmatrix.smith", zmatrix.smith_normal_form, smith_after),
            (zmatrix, "sym_form_invariants"): self.span("zmatrix.form", zmatrix.sym_form_invariants,
                                                       count("zmatrix.form.calls")),
            (zmatrix, "sl3_factor"): self.span("zmatrix.sl3", zmatrix.sl3_factor, sl3_after, errors.NotSL3,
                                                     "zmatrix.sl3.rejects"),
            (diagram, "parse_diagram"): self.span("diagram.parse", diagram.parse_diagram, parse_after,
                                                  errors.DiagramError, "diagram.rejects"),
            (diagram, "validate_diagram"): self.span("diagram.validate", diagram.validate_diagram,
                                                     validate_after),
            (diagram, "serialize_diagram"): self.span("diagram.serialize", diagram.serialize_diagram),
            (invariants, "first_homology"): self.span("invariants.h1", invariants.first_homology),
            (farey, "enumerate_triples"): self.span_iter("farey.enumerate", farey.enumerate_triples),
            (farey, "classify"): self.span("farey.classify", farey.classify),
            (farey, "atlas_rows"): self.counter_iter("farey.rows", farey.atlas_rows),
            (farey, "dmet"): self.counter("farey.dmet.calls", farey.dmet),
            (calculus, "surgery_plan_general"): self.span("calculus.plan", calculus.surgery_plan_general,
                                                          plan_after),
            (calculus, "luttinger_plan"): self.span("calculus.plan", calculus.luttinger_plan, plan_after),
            (calculus, "log_transform_plan"): self.span("calculus.plan", calculus.log_transform_plan,
                                                        plan_after),
            (calculus, "serialize_plan"): self.span("calculus.plan_io", calculus.serialize_plan),
            (calculus, "parse_plan"): self.span("calculus.plan_io", calculus.parse_plan),
            (slides, "reduce_mu"): self.span("slides.reduce", slides.reduce_mu, reduce_after,
                                                  slide_rejects, "slides.rejects"),
            (slides, "reduce_full"): self.span("slides.reduce", slides.reduce_full, reduce_after,
                                               slide_rejects, "slides.rejects"),
            (slides, "trace_lines"): self.span("slides.trace_lines", slides.trace_lines),
            (cli, "main"): self.span("cli.main", cli.main),
        }
        modules = [m for name, m in sys.modules.items() if name == "trisect" or name.startswith("trisect.")]
        for (home, attr), wrapper in plan.items():
            original = getattr(home, attr)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    # -- derived metrics ---------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Busy time (outermost spans of a name), self time (span minus its
        direct children) and the counters, for the spans recorded so far."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        busy: Counter = Counter()
        self_s: Counter = Counter()
        for i, s in enumerate(self.spans):
            name, parent = s[0], s[3]
            self_s[name] += dur[i] - child[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                busy[name] += dur[i]
        out = {f"{n}.busy_s": busy[n] for n in BUSY}
        out.update({f"{n}.self_s": self_s[n] for n in SELF})
        for name in PER_LAYER_UNITS:
            if name not in out:
                out[name] = self.counts[name]
        rows = self.counts["farey.rows"]
        out["zmatrix.form.calls_per_row"] = self.counts["zmatrix.form.calls"] / rows if rows else 0
        dmet = self.counts["farey.dmet.calls"]
        out["farey.rows_per_dmet"] = rows / dmet if dmet else 0
        return out

    def end_pass(self) -> Dict[str, float]:
        """Metrics of the spans and counters recorded since the last pass;
        the spans move to the archive that `dump` writes."""
        out = self.metrics()
        base = len(self.archive)  # parent indices become indices into the archive
        self.archive.extend([name, start, end, parent + base if parent >= 0 else -1, op]
                            for name, start, end, parent, op in self.spans)
        self.spans.clear()
        self.counts.clear()
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.archive:
                fh.write(json.dumps(span) + "\n")
