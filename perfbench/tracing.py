"""Span tracing for the traced run, installed from outside the program.

The benchmark never edits the program to trace it.  Instead, for the
length of one traced job, :class:`Tracer` rebinds the public functions
of each layer *at the bindings their callers use* (for example
``repro.core.dcgwo.circuit_reproduce``) to thin wrappers that record a
span: name, start, end, parent span and job id.  Spans stay in memory
and are written out when the run ends.

A span is either a *layer* span (its name is in :data:`LAYERS`) or a
grouping span (the job itself, one ``method.<name>`` span per
``Session.run``).  A layer's self time is its duration minus the time
covered by the nearest layer spans nested inside it, so the self times
of all layer spans in a job add up to the time covered by its outermost
layer spans, and ``untraced_s`` (the job's duration minus that sum) is
the time spent in no traced layer at all.

Forked shard workers inherit the wrappers; a fork hook turns recording
off in the child, so only the parent's calls are traced (the pool shows
up as the parent's time inside ``ShardDispatcher.evaluate_items``).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import weakref
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Layer spans: name -> per-layer time metric.
LAYERS: Dict[str, str] = {
    "setup.context": "setup.context_s",
    "setup.pool": "setup.pool_s",
    "op.reproduce": "op.reproduce_s",
    "op.search": "op.search_s",
    "op.is_safe": "op.is_safe_s",
    "op.applied_copy": "op.applied_copy_s",
    "netlist.structure_key": "netlist.structure_key_s",
    "eval.batch": "eval.batch_s",
    "eval.error": "eval.error_s",
    "sta.frontier": "sta.frontier_s",
    "eval.single": "eval.single_s",
    "select": "select_s",
    "postopt": "postopt_s",
    "parallel.wait": "parallel.wait_s",
}

#: Registered methods, in the order ``Session.compare`` runs them.
METHODS = ("VECBEE-S", "VaACS", "HEDALS", "GWO", "Ours")

#: Span record: (name, start, end, parent span index or -1, job id).
Span = Tuple[str, float, float, int, str]

_in_child = False
_fork_hooked = False


def _mark_child() -> None:
    global _in_child
    _in_child = True


class Tracer:
    """Records spans and counters for one job at a time.

    Call :meth:`install` before the traced job and :meth:`uninstall`
    after it; between the two, every wrapped call made while a job id is
    set (:meth:`begin`) appends a span.  ``bound`` is the workload's
    final error bound, used to count evaluated children above it.
    """

    def __init__(self) -> None:
        global _fork_hooked
        if not _fork_hooked:
            os.register_at_fork(after_in_child=_mark_child)
            _fork_hooked = True
        #: Every span of the run, in the order the spans were opened.
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.job: Optional[str] = None
        self.bound = float("inf")
        #: Counters of the current job (reset by :meth:`begin`).
        self.counts: Counter = Counter()
        #: Operator outputs not yet seen by an evaluation entry point.
        self._outputs: Dict[int, Any] = {}
        self._undo: List[Tuple[Any, str, Any]] = []
        #: Qualified names whose binding was not found (reported, not fatal).
        self.unbound: List[str] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(self, job: str, bound: float = float("inf")) -> None:
        """Start attributing spans and counters to ``job``."""
        self.job = job
        self.bound = bound
        self.counts = Counter()
        self._outputs = {}

    def end(self) -> Counter:
        """Stop recording; returns the finished job's counters."""
        self.job = None
        self._outputs = {}
        return self.counts

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span the benchmark opens itself."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(
        self,
        name: Any,
        fn: Callable,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """A recording wrapper around ``fn``.

        ``name`` is the span name, or a callable computing it from the
        call's arguments.  ``after(args, result)`` runs once the span is
        closed, so counter bookkeeping is not charged to the layer.
        """
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        dynamic = callable(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            job = tracer.job
            if job is None or _in_child:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if dynamic else name
            sid = len(spans)
            parent = stack[-1] if stack else -1
            # Placeholder until the span closes: the name is readable
            # while the span is open (see _single_child).
            spans.append((label, 0.0, 0.0, parent, job))
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (label, start, end, parent, job)
            if after is not None:
                after(args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def _rebind(
        self,
        qualname: str,
        name: Any,
        after: Optional[Callable] = None,
        callers: Optional[Sequence[str]] = None,
    ) -> None:
        """Wrap a module-level function at every binding of it.

        Every loaded ``repro`` module attribute that *is* the function
        (or, with ``callers``, only those in the named modules) is
        replaced, so a function re-exported or imported by name into a
        caller is traced where the caller looks it up.
        """
        module_name, attr = qualname.rsplit(".", 1)
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.unbound.append(qualname)
            return
        original = getattr(module, attr, None)
        if original is None:
            self.unbound.append(qualname)
            return
        wrapped = self._wrap(name, original, after)
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            if callers is not None and mod_name not in callers:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))
                    found = True
        if not found:
            self.unbound.append(qualname)

    def _rebind_method(
        self, qualname: str, name: Any, after: Optional[Callable] = None
    ) -> None:
        """Wrap a method (or classmethod) on its class."""
        path, attr = qualname.rsplit(".", 1)
        module_name, class_name = path.rsplit(".", 1)
        try:
            cls = getattr(importlib.import_module(module_name), class_name)
        except (ImportError, AttributeError):
            self.unbound.append(qualname)
            return
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.unbound.append(qualname)
            return
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self._wrap(name, raw.__func__, after))
        else:
            replacement = self._wrap(name, raw, after)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, raw))

    def install(self) -> None:
        """Wrap every traced call site (see the table in README.md)."""
        count = self._counter
        self._rebind_method(
            "repro.core.fitness.EvalContext.build", "setup.context"
        )
        self._rebind(
            "repro.core.reproduction.circuit_reproduce",
            "op.reproduce",
            self._operator_output("op.reproduce.calls"),
        )
        self._rebind(
            "repro.core.searching.circuit_search",
            "op.search",
            self._operator_output("op.search.calls"),
        )
        self._rebind("repro.core.lacs.is_safe", "op.is_safe")
        self._rebind("repro.core.lacs.applied_copy", "op.applied_copy")
        self._rebind_method(
            "repro.netlist.circuit.Circuit.structure_key",
            "netlist.structure_key",
            count("netlist.structure_key.calls"),
        )
        self._rebind(
            "repro.core.batch.evaluate_batch",
            "eval.batch",
            self._evaluated("eval.batch", items_at=1),
            callers=("repro.core.protocol",),
        )
        self._rebind(
            "repro.core.fitness.evaluate_incremental",
            "eval.single",
            self._evaluated("eval.single", items_at=None),
            callers=("repro.core.protocol",),
        )
        self._rebind(
            "repro.core.fitness.evaluate",
            "eval.full",
            count("eval.full.calls"),
            callers=("repro.core.batch",),
        )
        for fn in ("measure_error", "per_po_error"):
            self._rebind(
                f"repro.sim.error.{fn}",
                "eval.error",
                callers=("repro.core.fitness",),
            )
        self._rebind(
            "repro.sta.incremental.update_timing",
            "sta.frontier",
            self._single_child,
        )
        self._rebind(
            "repro.sta.incremental.update_timing_batch",
            "sta.frontier",
            self._stacked_children,
        )
        self._rebind("repro.core.pareto.nsga2_select", "select")
        self._rebind(
            "repro.postopt.post_optimize",
            "postopt",
            callers=("repro.session",),
        )
        self._rebind_method(
            "repro.core.parallel.ShardDispatcher.evaluate_items",
            "parallel.wait",
            self._evaluated("parallel", items_at=1),
        )
        self._rebind_method(
            "repro.session.Session.run", self._method_span_name
        )

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # ------------------------------------------------------------------
    # counter hooks (run after the span closes)
    # ------------------------------------------------------------------
    def _counter(self, key: str) -> Callable[[tuple, Any], None]:
        def after(args: tuple, result: Any) -> None:
            self.counts[key] += 1

        return after

    def _operator_output(self, key: str) -> Callable[[tuple, Any], None]:
        def after(args: tuple, result: Any) -> None:
            self.counts[key] += 1
            self.counts["op.calls"] += 1
            if result is not None:
                self._outputs[id(result)] = weakref.ref(result)

        return after

    def _stacked_children(self, args: tuple, result: Any) -> None:
        self.counts["sta.stacked.children"] += len(args[2])

    def _single_child(self, args: tuple, result: Any) -> None:
        # A child the stacked frontier hands back to the per-child walk
        # is timed one at a time: move it from the stacked count.
        self.counts["sta.single.calls"] += 1
        if self._stack and self.spans[self._stack[-1]][0] == "sta.frontier":
            # Nested in the stacked frontier call, which adds all of its
            # children to the stacked count when it closes.
            self.counts["sta.stacked.children"] -= 1

    def _evaluated(
        self, prefix: str, items_at: Optional[int]
    ) -> Callable[[tuple, Any], None]:
        """Count an evaluation entry point's children and outcomes.

        ``items_at`` is the position of the item list among the call's
        arguments; ``None`` means one circuit at position 1.
        """

        def after(args: tuple, result: Any) -> None:
            if items_at is None:
                circuits = [args[1]]
                evals = [result]
            else:
                circuits = [circuit for circuit, _ in args[items_at]]
                evals = result
            counts = self.counts
            counts[f"{prefix}.calls"] += 1
            counts[f"{prefix}.items"] += len(circuits)
            counts["eval.children"] += len(circuits)
            for circuit in circuits:
                ref = self._outputs.pop(id(circuit), None)
                if ref is not None and ref() is circuit:
                    counts["op.evaluated"] += 1
            bound = self.bound
            counts["eval.over_bound"] += sum(
                1 for ev in evals if ev.error > bound
            )

        return after

    @staticmethod
    def _method_span_name(args: tuple, kwargs: dict) -> str:
        from repro.registry import get_method

        method = args[1] if len(args) > 1 else kwargs.get("method", "Ours")
        return "method." + get_method(method).name


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def job_layer_times(
    spans: Sequence[Span], job: str
) -> Tuple[float, Dict[str, float], Dict[str, float]]:
    """Per-layer self times of one job.

    Returns ``(job duration, {layer metric: self time}, {method:
    inclusive time})``.  The job span is the one named ``"job"``.
    """
    nearest: Dict[int, int] = {}
    self_time: Dict[int, float] = {}
    duration = 0.0
    methods: Dict[str, float] = {}
    for sid, span in enumerate(spans):
        if span[4] != job:
            continue
        name, start, end, parent, _ = span
        if name == "job":
            duration = end - start
        elif name.startswith("method."):
            methods[name[7:]] = methods.get(name[7:], 0.0) + end - start
        if parent < 0:
            anc = -1
        elif spans[parent][0] in LAYERS:
            anc = parent
        else:
            anc = nearest.get(parent, -1)
        nearest[sid] = anc
        if name in LAYERS:
            self_time[sid] = self_time.get(sid, 0.0) + end - start
            if anc >= 0:
                self_time[anc] = self_time.get(anc, 0.0) - (end - start)
    layers: Dict[str, float] = {}
    for sid, value in self_time.items():
        metric = LAYERS[spans[sid][0]]
        layers[metric] = layers.get(metric, 0.0) + value
    return duration, layers, methods


def write_spans(path: str, spans: Sequence[Span]) -> None:
    """Write spans as tab-separated lines: id, name, start, end, parent, job."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("id\tname\tstart\tend\tparent\tjob\n")
        for sid, (name, start, end, parent, job) in enumerate(spans):
            out.write(f"{sid}\t{name}\t{start!r}\t{end!r}\t{parent}\t{job}\n")
