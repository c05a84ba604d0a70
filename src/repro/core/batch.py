"""Generation evaluation: lake lookup, singles dedup, parent groups.

:func:`evaluate_batch` evaluates a whole candidate generation:

* with an evaluation lake attached, every item is first looked up by
  its ``(full structure key, library digest, vector digest)`` address;
* children are grouped by the parent evaluation their provenance record
  points at (:func:`group_by_parent`), and each group runs the per-child
  walks (:func:`repro.core.fitness._evaluate_cones`; a child's timing
  walk runs on the first read of its timing), reusing the parent's
  memoized row index and fan-out map — a child never builds its own
  O(V+E) structures;
* children in ``singles`` (no valid provenance match) that share a full
  structure key are evaluated once per key and the result is shared by
  item index.

Results are **bit-identical** to evaluating each item on its own with
:func:`~repro.core.fitness.evaluate_incremental` (and therefore to the
full :func:`~repro.core.fitness.evaluate` path): grouping only decides
which parent structures are reused, never what is computed.  Pinned by
``tests/test_session_api.py`` and ``tests/test_value_store.py``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..lake import context_digests
from ..netlist import Circuit
from .fitness import (
    CircuitEval,
    EvalContext,
    ParentEvals,
    _evaluate_cones,
    _match_parent,
    _normalize_parents,
    eval_payload,
    evaluate,
    rebuild_eval,
)

#: One batch entry: the candidate circuit plus the parent eval(s) its
#: provenance record may point at (same contract as the incremental path).
BatchItem = Tuple[Circuit, ParentEvals]

#: One provenance group: the matched parent eval plus its children as
#: ``(item_index, circuit, changed_gate_ids)`` triples.
ParentGroup = Tuple[CircuitEval, List[Tuple[int, Circuit, FrozenSet[int]]]]


def group_by_parent(
    items: Sequence[BatchItem],
) -> Tuple[List[ParentGroup], List[Tuple[int, Circuit]]]:
    """Partition a generation into provenance groups.

    Children whose provenance record matches one of their offered parent
    evals are grouped under that parent (groups appear in first-seen
    parent order, children in item order); everything else — missing,
    stale, or unmatched provenance — lands in ``singles`` and must be
    fully evaluated.  This is the partition both the in-process batch
    evaluator below and the multi-process shard dispatcher
    (:mod:`repro.core.parallel`) schedule from, so the two backends
    agree on which child takes which evaluation path.
    """
    groups: List[ParentGroup] = []
    index_of: Dict[int, int] = {}
    singles: List[Tuple[int, Circuit]] = []
    for i, (circuit, parents) in enumerate(items):
        match = _match_parent(circuit, _normalize_parents(parents))
        if match is None:
            singles.append((i, circuit))
            continue
        parent, changed = match
        key = id(parent)
        slot = index_of.get(key)
        if slot is None:
            slot = len(groups)
            index_of[key] = slot
            groups.append((parent, []))
        groups[slot][1].append((i, circuit, changed))
    return groups, singles


def _evaluate_batch_core(
    ctx: EvalContext, items: Sequence[BatchItem]
) -> List[CircuitEval]:
    """The cache-oblivious batch evaluator (see :func:`evaluate_batch`)."""
    out: List[Optional[CircuitEval]] = [None] * len(items)
    groups, singles = group_by_parent(items)
    first_of: Dict[bytes, int] = {}
    for i, circuit in singles:
        key = circuit.full_structure_key()
        j = first_of.get(key)
        if j is None:
            first_of[key] = i
            out[i] = evaluate(ctx, circuit)
        else:
            # Mirror _finish_eval's provenance release on the duplicate
            # (its record was never consumed), then hand the item its
            # own eval record: metrics/report/values are shared with
            # the evaluated twin (read-only, and identical floats by
            # full-structure equality), but ``eval.circuit`` stays the
            # circuit passed at this index so identity-keyed callers
            # and future provenance matches against it keep working.
            circuit.provenance = None
            first = out[j]
            out[i] = replace(
                first, circuit=circuit, circuit_version=circuit.version
            )
    for parent, group in groups:
        evals = _evaluate_cones(
            ctx, parent, [(circuit, changed) for _, circuit, changed in group]
        )
        for (i, _, _), ev in zip(group, evals):
            out[i] = ev
    return out  # type: ignore[return-value]


def _store_new_evals(
    cache, lib: bytes, vec: bytes,
    keys: Sequence[bytes], evals: Sequence[CircuitEval],
) -> None:
    """Write freshly computed evals through to the lake."""
    entries = []
    seen: Set[bytes] = set()
    for key, ev in zip(keys, evals):
        if key in seen:
            continue
        seen.add(key)
        entries.append((key, eval_payload(ev)))
    if entries:
        cache.put_many(lib, vec, entries)


def evaluate_batch(
    ctx: EvalContext, items: Sequence[BatchItem]
) -> List[CircuitEval]:
    """Evaluate a generation of candidates with shared structural work.

    ``items`` pairs each candidate circuit with the parent eval(s) its
    provenance may match (exactly what the sequential loop would pass to
    :func:`~repro.core.fitness.evaluate_incremental`).  Children sharing
    a matched parent run the per-child walks as one group, reusing
    the parent's memoized structures; unmatched or structurally-diverged
    children take the full path.  Full-evaluation singles that share a
    *complete* structure
    (:meth:`~repro.netlist.Circuit.full_structure_key`, which
    covers dangling gates — two live-equal circuits can still differ in
    dangling loads and therefore in timing) are evaluated once per key
    and the result shared by item index; a duplicate's metrics are the
    same floats a separate evaluation would produce, because evaluation
    is a pure function of the full structure.

    When the context has an evaluation lake (``ctx.lake``, decided by
    :meth:`~repro.core.fitness.EvalContext.build`), every item is
    first looked up by its
    ``(structure key, library digest, vector digest)`` address; hits
    skip STA and simulation entirely
    (:func:`~repro.core.fitness.rebuild_eval` re-runs only the metric
    tail), misses are computed by the core path and written through
    (:func:`~repro.core.fitness.eval_payload`).  Items
    sharing a key with a hit share one rebuilt report/value store,
    mirroring the singles dedup above.

    Returns one :class:`CircuitEval` per item, in order — bit-identical
    to evaluating each item with ``evaluate_incremental``, with or
    without a cache.
    """
    cache = ctx.lake
    if not cache or not items:
        return _evaluate_batch_core(ctx, items)
    lib, vec = context_digests(ctx)
    keys = [circuit.full_structure_key() for circuit, _ in items]
    hits = cache.get_many(lib, vec, keys)
    out: List[Optional[CircuitEval]] = [None] * len(items)
    first_of: Dict[bytes, int] = {}
    miss_items: List[BatchItem] = []
    miss_pos: List[int] = []
    for i, ((circuit, parents), key) in enumerate(zip(items, keys)):
        payload = hits.get(key)
        if payload is not None:
            j = first_of.get(key)
            if j is not None:
                # Same dedup contract as the core singles path: share
                # the rebuilt twin's report/values, keep this item's
                # own circuit, release its unconsumed provenance.
                circuit.provenance = None
                out[i] = replace(
                    out[j], circuit=circuit, circuit_version=circuit.version
                )
                continue
            try:
                out[i] = rebuild_eval(ctx, circuit, payload)
                first_of[key] = i
                continue
            except ValueError:
                pass  # only a key collision gets here: recompute
        miss_items.append((circuit, parents))
        miss_pos.append(i)
    if miss_items:
        computed = _evaluate_batch_core(ctx, miss_items)
        for pos, ev in zip(miss_pos, computed):
            out[pos] = ev
        _store_new_evals(
            cache, lib, vec, [keys[p] for p in miss_pos], computed
        )
    return out  # type: ignore[return-value]
