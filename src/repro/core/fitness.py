"""Circuit fitness evaluation (paper Eq. 8) and the shared eval context.

``Fit(ci) = wd * Depth_ori / Depth_app + wa * Area_ori / Area_app``

Depth is the STA critical-path delay by default (what PrimeTime reports
and what the paper optimises); a unit-depth mode exists for ablations.
An :class:`EvalContext` bundles everything an evaluation needs — library,
STA engine, Monte-Carlo vectors, the accurate circuit's reference outputs
and baselines — so optimizers stay stateless and comparable.

Two evaluation paths produce bit-identical results:

* :func:`evaluate` — full STA + full simulation, always available, and
  the oracle every incremental result is tested against;
* the per-child walks (:func:`_evaluate_cones`) — when the circuit
  carries a valid provenance record pointing at an already-evaluated
  parent, the changed gates seed an event-driven value walk
  (:func:`repro.sim.resimulate_cone`), which stops at every row whose
  words equal the parent's, and a timing frontier walk
  (:func:`repro.sta.update_timing`), which stops at every gate whose
  timing is unchanged — the VECBEE-style trick that makes
  per-candidate evaluation cost what the change actually changes
  rather than the circuit or its fan-out cone.
  :func:`evaluate_incremental` runs it for one child and
  :func:`repro.core.batch.evaluate_batch` once per parent group; both
  fall back to the full path whenever the provenance is missing, stale,
  or no matching parent eval is supplied.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..cells import Library
from ..netlist import Circuit, relabel_compact
from ..sim import (
    ErrorMode,
    ValueStore,
    VectorSet,
    measure_error,
    per_po_error,
    po_words,
    random_vectors,
    resimulate_cone,
    simulate,
)
from ..sim.error import make_unpack_cache
from ..sta import STAEngine, TimingReport, update_timing_batch
from ..sta.incremental import _shared_fanouts

#: Guard against division by zero on fully-degenerate circuits.
_EPS = 1e-9


class DepthMode(enum.Enum):
    """How ``Depth`` in Eq. 8 is measured."""

    DELAY = "delay"  # STA critical-path delay in ps (paper's metric)
    UNIT = "unit"  # gate levels (ablation)


@dataclass
class EvalContext:
    """Shared state for evaluating approximate circuits of one benchmark."""

    library: Library
    sta: STAEngine
    vectors: VectorSet
    error_mode: ErrorMode
    reference: Circuit
    reference_values: ValueStore
    reference_po: np.ndarray
    depth_ori: float
    area_ori: float
    cpd_ori: float
    reference_report: Optional[TimingReport] = None
    wd: float = 0.8
    depth_mode: DepthMode = DepthMode.DELAY
    _reference_eval: Optional["CircuitEval"] = field(
        default=None, repr=False, compare=False
    )
    #: Per-context memo of the unpacked reference-PO matrix (NMED path).
    #: Owned here — not module-global — so interleaved sessions never
    #: thrash each other's cache.
    _ref_unpack_cache: List[object] = field(
        default_factory=make_unpack_cache, repr=False, compare=False
    )
    #: The attached evaluation lake (:class:`repro.lake.EvalCache`).
    #: Tri-state: an ``EvalCache`` caches batch evaluations across runs,
    #: ``False`` disables caching outright (the ``REPRO_CACHE``
    #: environment is not consulted), ``None`` (default) resolves the
    #: environment lazily on first batch evaluation.
    lake: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def wa(self) -> float:
        """Area weight; the paper fixes ``wa = 1 - wd``."""
        return 1.0 - self.wd

    def reference_eval(self) -> "CircuitEval":
        """The accurate circuit's own :class:`CircuitEval`, lazily built.

        This is the root parent for incremental evaluation: children
        forked straight from the reference (initial populations, greedy
        loops) resimulate only their changed cones against it.  Rebuilt
        if the reference circuit was mutated since (it never should be).
        """
        ev = self._reference_eval
        if (
            ev is not None
            and ev.circuit is self.reference
            and ev.circuit_version == self.reference.version
        ):
            return ev
        report = self.reference_report
        if (
            report is None
            or report.circuit is not self.reference
            or report.circuit_version != self.reference.version
        ):
            # Object identity alone is not enough: an in-place mutation
            # of the reference leaves ``report.circuit is reference``
            # true while every row in the report is stale.  The report
            # carries the structure version it was computed at exactly
            # so this check can be made.  The simulated baselines go
            # stale together with the report (a logic-changing mutation
            # invalidates reference values, PO words and the unpack
            # memo), so everything derived from the old structure is
            # refreshed in one place.
            report = self.sta.analyze(self.reference)
            self.reference_report = report
            self.reference_values = simulate(self.reference, self.vectors)
            self.reference_po = po_words(self.reference, self.reference_values)
            self._ref_unpack_cache = make_unpack_cache()
            # The Eq. 8 normalizers are baselines of the (new) accurate
            # circuit too — recompute them exactly as ``build`` does so
            # later fitness values match a freshly built context.
            self.depth_ori = (
                report.cpd
                if self.depth_mode is DepthMode.DELAY
                else float(report.max_unit_depth)
            )
            self.area_ori = self.reference.area(self.library)
            self.cpd_ori = report.cpd
        ev = _finish_eval(self, self.reference, report, self.reference_values)
        self._reference_eval = ev
        return ev

    @classmethod
    def build(
        cls,
        circuit: Circuit,
        library: Library,
        error_mode: ErrorMode,
        num_vectors: int = 2048,
        seed: int = 0,
        wd: float = 0.8,
        depth_mode: DepthMode = DepthMode.DELAY,
        vectors: Optional[VectorSet] = None,
        sta: Optional[STAEngine] = None,
    ) -> "EvalContext":
        """Construct a context around one accurate circuit.

        The evaluation hot paths require ascending gate ID to be a
        topological order (:meth:`Circuit.gid_order_topo`).  A circuit
        in that order becomes the context's ``reference`` as is;
        any other is renumbered with
        :func:`~repro.netlist.relabel_compact` (PI and PO order kept),
        and result IDs then refer to the renumbered reference.
        """
        if not 0.0 <= wd <= 1.0:
            raise ValueError("wd must be in [0, 1]")
        if not circuit.gid_order_topo():
            circuit, _ = relabel_compact(circuit)
        engine = sta or STAEngine(library)
        vecs = vectors or random_vectors(
            len(circuit.pi_ids), num_vectors, seed
        )
        report = engine.analyze(circuit)
        values = simulate(circuit, vecs)
        depth_ori = (
            report.cpd
            if depth_mode is DepthMode.DELAY
            else float(report.max_unit_depth)
        )
        return cls(
            library=library,
            sta=engine,
            vectors=vecs,
            error_mode=error_mode,
            reference=circuit,
            reference_values=values,
            reference_po=po_words(circuit, values),
            depth_ori=depth_ori,
            area_ori=circuit.area(library),
            cpd_ori=report.cpd,
            reference_report=report,
            wd=wd,
            depth_mode=depth_mode,
        )


@dataclass
class CircuitEval:
    """A fully-evaluated approximate circuit.

    ``fd`` and ``fa`` are the paper's depth/area objective functions
    (``Depth_ori/Depth_app`` and ``Area_ori/Area_app``); ``fitness`` is
    their Eq. 8 weighted sum.  Larger is better for all three.
    """

    circuit: Circuit
    report: TimingReport
    values: ValueStore
    depth: float
    area: float
    error: float
    per_po_error: List[float]
    fd: float
    fa: float
    fitness: float
    #: Structure version of ``circuit`` at evaluation time; incremental
    #: evaluation refuses a parent eval whose circuit mutated since.
    circuit_version: int = 0

    @property
    def cpd(self) -> float:
        """Critical-path delay of this circuit (ps)."""
        return self.report.cpd


def _finish_eval(
    ctx: EvalContext,
    circuit: Circuit,
    report: TimingReport,
    values: ValueStore,
) -> CircuitEval:
    """Shared metric tail: error + area + Eq. 8 from report and values.

    Both evaluation paths funnel through here so their outputs are
    computed by the exact same float operations.  Consumes the circuit's
    provenance record (sets it to ``None``) — once evaluated, the eval
    itself is the parent future children derive from, and dropping the
    record releases the reference chain to older ancestors.
    """
    app_po = po_words(circuit, values)
    nv = ctx.vectors.num_vectors
    error = measure_error(
        ctx.error_mode,
        ctx.reference_po,
        app_po,
        nv,
        ref_cache=ctx._ref_unpack_cache,
    )
    po_errors = per_po_error(ctx.error_mode, ctx.reference_po, app_po, nv)
    depth = (
        report.cpd
        if ctx.depth_mode is DepthMode.DELAY
        else float(report.max_unit_depth)
    )
    area = circuit.area(ctx.library)
    fd = ctx.depth_ori / max(depth, _EPS)
    fa = ctx.area_ori / max(area, _EPS)
    fitness = ctx.wd * fd + ctx.wa * fa
    circuit.provenance = None
    return CircuitEval(
        circuit=circuit,
        report=report,
        values=values,
        depth=depth,
        area=area,
        error=error,
        per_po_error=po_errors,
        fd=fd,
        fa=fa,
        fitness=fitness,
        circuit_version=circuit.version,
    )


def evaluate(ctx: EvalContext, circuit: Circuit) -> CircuitEval:
    """STA + simulation + error + Eq. 8 fitness for one circuit."""
    report = ctx.sta.analyze(circuit)
    values = simulate(circuit, ctx.vectors)
    return _finish_eval(ctx, circuit, report, values)


#: What optimizers may pass as the parent(s) of a candidate evaluation.
ParentEvals = Union["CircuitEval", Sequence["CircuitEval"], None]


def _normalize_parents(parents: ParentEvals) -> Sequence[CircuitEval]:
    if parents is None:
        return ()
    if isinstance(parents, CircuitEval):
        return (parents,)
    return tuple(parents)


def _match_parent(
    circuit: Circuit, parents: Iterable[CircuitEval]
) -> Optional[Tuple["CircuitEval", FrozenSet[int]]]:
    """Find the parent eval the circuit's provenance record points at."""
    prov = circuit.valid_provenance()
    if prov is None:
        return None
    for parent in parents:
        if parent is None:
            continue
        if (
            prov.parent is parent.circuit
            and prov.parent_version == parent.circuit_version
        ):
            return parent, prov.changed
    return None


def _evaluate_cones(
    ctx: EvalContext,
    parent: CircuitEval,
    children: Sequence[Tuple[Circuit, FrozenSet[int]]],
) -> List[CircuitEval]:
    """The one incremental evaluation: per-child walks on a parent.

    ``children`` pairs each circuit whose provenance matched ``parent``
    with its changed-gate set.  A copy-then-mutate child shares the
    parent's gate-ID set, so its fan-out map is the parent's patched
    around the changed gates (memoized on the child) — the child never
    builds an O(V+E) map of its own.  Each such child runs the
    event-driven value walk from its changed gates
    (:func:`repro.sim.resimulate_cone`), the group is retimed through
    :func:`repro.sta.update_timing_batch` on the same map, and the
    metric tail runs through :func:`_finish_eval`.  A child whose
    gate-ID set diverged from the parent's (gates added or removed)
    takes :func:`evaluate`.  Results are bit-identical to
    :func:`evaluate` for every child.
    """
    out: List[Optional[CircuitEval]] = [None] * len(children)
    pc = parent.circuit
    walked = []
    for k, (circuit, changed) in enumerate(children):
        if not circuit.same_gid_set(pc):
            out[k] = evaluate(ctx, circuit)
            continue
        values = resimulate_cone(
            circuit,
            ctx.vectors,
            parent.values,
            changed,
            _shared_fanouts(circuit, pc, changed),
        )
        walked.append((k, circuit, changed, values))
    reports = update_timing_batch(
        ctx.sta,
        parent.report,
        [(circuit, changed) for _, circuit, changed, _ in walked],
    )
    for (k, circuit, _, values), report in zip(walked, reports):
        out[k] = _finish_eval(ctx, circuit, report, values)
    return out  # type: ignore[return-value]


def evaluate_incremental(
    ctx: EvalContext, circuit: Circuit, parent_eval: ParentEvals = None
) -> CircuitEval:
    """Incremental evaluation against an already-evaluated parent.

    ``parent_eval`` may be a single :class:`CircuitEval` or a sequence of
    candidates (e.g. both reproduction parents); the one matching the
    circuit's provenance record is used.  Only the rows the changed
    gates actually change are resimulated and retimed — results are
    bit-identical to :func:`evaluate` (pinned by property tests).  Falls
    back to the full path when no valid parent is available.
    """
    match = _match_parent(circuit, _normalize_parents(parent_eval))
    if match is None:
        return evaluate(ctx, circuit)
    parent, changed = match
    return _evaluate_cones(ctx, parent, [(circuit, changed)])[0]
