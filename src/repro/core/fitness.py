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
  int equals the parent's, and a timing frontier walk
  (:func:`repro.sta.update_timing`), which stops at every gate whose
  timing is unchanged — the VECBEE-style trick that makes
  per-candidate evaluation cost what the change actually changes
  rather than the circuit or its fan-out cone.
  :func:`evaluate_incremental` runs it for one child and
  :func:`repro.core.batch.evaluate_batch` once per parent group; both
  fall back to the full path whenever the provenance is missing, stale,
  or no matching parent eval is supplied.

A matched child's values, error and area are computed at once, its
timing on first read: the timing walk and the Eq. 8 fields that follow
from it (``report``, ``depth``, ``fd``, ``fa``, ``fitness``) run
together the first time any of them is read (:class:`CircuitEval`).
The optimizers read ``error`` first and drop a child over the bound,
so such a child is never timed.  Every other path — :func:`evaluate`,
the reference eval, shard replies and unpickled evals — builds complete
evals.

An evaluation leaves a process in one codec, decided here: its
:func:`eval_payload` (the report's five timing arrays and the tuple of
value rows) plus the sender's :func:`eval_fields`.  :func:`restore_eval`
takes the fields as they are (pickling), and :func:`rebuild_eval` does
the same for a shard reply, re-checking the fields under
``REPRO_SANITIZE=1``, so a restored eval is bit-identical to a computed
one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..analysis.sanitize import SanitizerError, sanitize_enabled
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
from ..sta import STAEngine, TimingReport, timing_index, update_timing

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


#: The fields a timing report decides; a pending eval computes them
#: together on the first read of any one (see :class:`CircuitEval`).
_TIMED = frozenset(("report", "depth", "fd", "fa", "fitness"))


@dataclass
class CircuitEval:
    """An evaluated approximate circuit.

    ``fd`` and ``fa`` are the paper's depth/area objective functions
    (``Depth_ori/Depth_app`` and ``Area_ori/Area_app``); ``fitness`` is
    their Eq. 8 weighted sum.  Larger is better for all three.

    A child evaluated against its parent (:func:`_evaluate_cones`) is
    built with its timing pending: ``values``, ``error``,
    ``per_po_error`` and ``area`` are set, and ``report``, ``depth``,
    ``fd``, ``fa`` and ``fitness`` (and so ``cpd``) are computed
    together on the first read of any of them, bit for bit what
    :func:`evaluate` gives.  The pending computation holds the parent's
    report, and so the parent circuit, until it runs; it is dropped
    after.  It refuses a circuit mutated since evaluation, and so does
    pickling, which runs it first: an eval pickles as its circuit,
    payload and fields (:func:`restore_eval`).
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

    def __getattr__(self, name: str) -> Any:
        # Reached only for an attribute the instance lacks: a timed
        # field of an eval whose timing is still pending.
        if name in _TIMED and "_pending" in self.__dict__:
            self._run_timing()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __reduce__(self) -> Tuple[Any, ...]:
        self._check_current()
        return (
            restore_eval,
            (self.circuit, eval_payload(self), eval_fields(self)),
        )

    def _check_current(self) -> None:
        if self.circuit.version != self.circuit_version:
            raise RuntimeError(
                "circuit changed since it was evaluated; its timing "
                "would describe a different circuit"
            )

    def _run_timing(self) -> None:
        """Compute the pending timed fields and drop the computation."""
        self._check_current()
        state = self.__dict__
        state.update(state["_pending"]())
        del state["_pending"]


def _finish_eval(
    ctx: EvalContext,
    circuit: Circuit,
    report: Union[TimingReport, Callable[[], TimingReport]],
    values: ValueStore,
) -> CircuitEval:
    """Shared metric tail: error + area + Eq. 8 from report and values.

    Every evaluation path funnels through here so their outputs are
    computed by the exact same float operations.  ``values``, ``error``,
    ``per_po_error`` and ``area`` are computed at once (``area`` while
    the provenance record still lets the live set be derived from the
    parent's).  ``report`` is either the circuit's :class:`TimingReport`
    or a function that computes it; given a function, the eval's timed
    fields stay pending until first read (see :class:`CircuitEval`).
    The context fields Eq. 8 reads are captured now, so the result does
    not depend on when that is.

    Consumes the circuit's provenance record (sets it to ``None``) —
    once evaluated, the eval itself is the parent future children
    derive from, and dropping the record releases the reference chain
    to older ancestors.
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
    area = circuit.area(ctx.library)
    delay = ctx.depth_mode is DepthMode.DELAY
    depth_ori, area_ori, wd = ctx.depth_ori, ctx.area_ori, ctx.wd
    wa = 1.0 - wd  # ctx.wa

    def timed(report: TimingReport) -> Dict[str, Any]:
        depth = report.cpd if delay else float(report.max_unit_depth)
        fd = depth_ori / max(depth, _EPS)
        fa = area_ori / max(area, _EPS)
        return dict(
            report=report,
            depth=depth,
            fd=fd,
            fa=fa,
            fitness=wd * fd + wa * fa,
        )

    circuit.provenance = None
    known = dict(
        circuit=circuit,
        values=values,
        area=area,
        error=error,
        per_po_error=po_errors,
        circuit_version=circuit.version,
    )
    if isinstance(report, TimingReport):
        return CircuitEval(**known, **timed(report))
    ev = object.__new__(CircuitEval)
    ev.__dict__.update(known, _pending=lambda: timed(report()))
    return ev


#: What pickling and the shard pool carry for one evaluation: the
#: report's arrival, slew, load, unit-depth and critical-fan-in arrays,
#: then the value store's tuple of rows.
EvalPayload = Tuple[Any, ...]

#: :func:`eval_fields`: ``depth``, ``area``, ``error``, ``per_po_error``,
#: ``fd``, ``fa`` and ``fitness``, in :class:`CircuitEval`'s field order.
EvalFields = Tuple[float, float, float, List[float], float, float, float]


def eval_payload(
    ev: CircuitEval, base: Optional[CircuitEval] = None
) -> EvalPayload:
    """The arrays :func:`rebuild_eval` and :func:`restore_eval` lay out.

    They are a pure function of the circuit's full structure, the
    library and the vectors; the row index is not stored, which the
    receiving circuit has.  Reading the report runs a pending eval's
    timing.  Given ``base``, the parent eval ``ev`` was walked from, a
    row ``ev`` shares with it travels as ``None``: a shard reply ships
    only the rows its walk changed, and :func:`rebuild_eval` fills the
    rest from the receiver's copy of ``base``.
    """
    report = ev.report
    rows = ev.values.rows
    if base is not None and ev.values.index is base.values.index:
        pairs = zip(rows, base.values.rows)
        rows = tuple([None if row is was else row for row, was in pairs])
    return (
        report.arrival_a,
        report.slew_a,
        report.load_a,
        report.unit_depth_a,
        report.critical_fanin_a,
        rows,
    )


def eval_fields(ev: CircuitEval) -> EvalFields:
    """The results :func:`restore_eval` takes next to ``ev``'s payload."""
    return (
        ev.depth, ev.area, ev.error, ev.per_po_error, ev.fd, ev.fa, ev.fitness
    )


def _lay_payload(
    circuit: Circuit, payload: EvalPayload
) -> Tuple[TimingReport, ValueStore]:
    """The payload's report and value store on ``circuit``'s row index.

    Both share :func:`repro.sta.timing_index` of the circuit, and the
    timing arrays are republished read-only (they arrive writable).
    Raises ``ValueError`` when the payload does not fit the circuit:
    the value rows must be a tuple of ``index.n + 2`` ints.
    """
    try:
        arrival, slew, load, depth, critical, rows = payload
    except (TypeError, ValueError) as exc:
        raise ValueError(f"not an evaluation payload: {exc}") from exc
    index = timing_index(circuit)
    if (
        getattr(arrival, "shape", None) != (index.n + 1,)
        or type(rows) is not tuple
        or len(rows) != index.n + 2
        or not all(type(row) is int for row in rows)
    ):
        raise ValueError("evaluation payload does not fit the circuit")
    report = TimingReport(
        circuit, index, arrival, slew, load, depth, critical, circuit.version
    )
    return report, ValueStore(index, rows)


def restore_eval(
    circuit: Circuit, payload: EvalPayload, fields: EvalFields
) -> CircuitEval:
    """An eval of ``circuit`` from its payload and the sender's fields.

    Needs no context and runs no metric tail; an eval unpickles through
    it.  Consumes the circuit's provenance record.
    """
    report, values = _lay_payload(circuit, payload)
    circuit.provenance = None
    return CircuitEval(circuit, report, values, *fields, circuit.version)


def rebuild_eval(
    ctx: EvalContext,
    circuit: Circuit,
    payload: EvalPayload,
    fields: EvalFields,
    parents: "ParentEvals" = None,
) -> CircuitEval:
    """A shard reply's eval of ``circuit``: its payload and the
    sender's :func:`eval_fields`, restored with :func:`restore_eval`.

    ``parents`` are the parent evals ``circuit`` was offered; the one
    its provenance record matches, which the sender walked it from,
    fills the rows the payload left out (see :func:`eval_payload`).
    Under ``REPRO_SANITIZE=1`` the metric tail re-runs against ``ctx``
    and a difference from the shipped fields raises.  Consumes the
    circuit's provenance record.  Raises ``ValueError`` when the
    payload does not fit the circuit.
    """
    match = _match_parent(circuit, _normalize_parents(parents))
    if match and len(payload[-1]) == len(match[0].values.rows):
        pairs = zip(payload[-1], match[0].values.rows)
        rows = tuple([was if row is None else row for row, was in pairs])
        payload = (*payload[:-1], rows)
    ev = restore_eval(circuit, payload, fields)
    if sanitize_enabled():
        tail = _finish_eval(ctx, circuit, ev.report, ev.values)
        if eval_fields(tail) != eval_fields(ev):
            raise SanitizerError(f"shipped fields of {circuit!r} differ")
    return ev


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
    parent's gate-ID set, so its fan-out map is derived from the
    parent's around the changed gates (:meth:`Circuit.fanouts`,
    memoized on the child) — the child never builds an O(V+E) map
    from scratch.  Each such child runs the event-driven value walk
    from its changed gates (:func:`repro.sim.resimulate_cone`) and
    the metric tail (:func:`_finish_eval`) with its timing pending:
    the first read of a timed field runs
    :func:`repro.sta.update_timing` against the parent's report on the
    same map.  A child whose gate-ID set
    diverged from the parent's (gates added or removed) takes
    :func:`evaluate`.  Results are bit-identical to :func:`evaluate`
    for every child.
    """
    out: List[CircuitEval] = []
    pc = parent.circuit
    for circuit, changed in children:
        if not circuit.same_gid_set(pc):
            out.append(evaluate(ctx, circuit))
            continue
        values = resimulate_cone(
            circuit, ctx.vectors, parent.values, changed
        )
        report = partial(
            update_timing, ctx.sta, circuit, parent.report, changed
        )
        out.append(_finish_eval(ctx, circuit, report, values))
    return out


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
