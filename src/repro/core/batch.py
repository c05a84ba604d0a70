"""Generation evaluation: parent groups and singles dedup.

:func:`evaluate_batch` evaluates a whole candidate generation in
memory:

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
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..netlist import Circuit
from .fitness import (
    CircuitEval,
    EvalContext,
    ParentEvals,
    _evaluate_cones,
    _match_parent,
    _normalize_parents,
    evaluate,
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

    Returns one :class:`CircuitEval` per item, in order — bit-identical
    to evaluating each item with ``evaluate_incremental``.
    """
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
