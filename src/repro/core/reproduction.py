"""The circuit-reproduction approximate action (paper §III-B, Fig. 5).

Reproduction crosses over two approximate circuits at PO granularity:
each primary output's cone (the PO-TFI pair) is scored with the Level
function (Eq. 3)

    Level(PO_i) = wt / Ta(PO_i) + we / Error(PO_i)

and the child takes each PO's cone from whichever parent scores higher.
Gates shared between cones accept adjacency information only from the
first write-in (cones are written in descending Level order); gates in no
selected cone are filled from the fitter parent so the child is complete.

The child starts as a copy of the fitter parent, so only the gates where
the two parents differ can change.  :func:`circuit_reproduce` finds them
in one pass over the fan-in dict, looks up each one's first write-in in
per-circuit PO cone bitsets (:func:`po_bits`), and writes it only when
that cone comes from the other parent: the work beyond the pass is
proportional to the parents' difference, not to the cones' size.

All population members share the accurate circuit's gate ID space and
preserve its topological order (see ``core.lacs``), so any cone mixture
is acyclic by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..netlist import Circuit
from .fitness import CircuitEval, EvalContext

#: Error floor: half an LSB of what the Monte-Carlo batch can resolve.
def _error_floor(num_vectors: int) -> float:
    return 0.5 / num_vectors


@dataclass(frozen=True)
class LevelWeights:
    """Weights of the PO-TFI pair evaluation function (Eq. 3).

    The paper sets ``wt = 0.9 * CPD_ori`` (so the timing term is O(1) for
    paths near the accurate critical delay) and ``we = 0.1`` under ER /
    ``0.2`` under NMED constraints.
    """

    wt: float
    we: float

    @classmethod
    def paper_defaults(cls, ctx: EvalContext) -> "LevelWeights":
        """§IV-A settings: wt = 0.9 CPD_ori; we = 0.1 (ER) / 0.2 (NMED)."""
        from ..sim import ErrorMode

        we = 0.1 if ctx.error_mode is ErrorMode.ER else 0.2
        return cls(wt=0.9 * ctx.cpd_ori, we=we)


def po_levels(
    ev: CircuitEval, ctx: EvalContext, weights: LevelWeights
) -> Dict[int, float]:
    """Eq. 3 Level score for every PO of one evaluated circuit.

    One array expression over the POs' arrival times (gathered through
    ``report.index.po_rows``, in ``po_ids`` order) and their errors;
    each element is the same float operation as the scalar formula.
    """
    floor = _error_floor(ctx.vectors.num_vectors)
    # POs driven by constants/PIs arrive at ~0; floor Ta at 1% of the
    # accurate CPD so the timing term saturates instead of exploding and
    # drowning out the error term.
    ta_floor = max(0.01 * ctx.cpd_ori, 1e-9)
    report = ev.report
    ta = np.maximum(report.arrival_a[report.index.po_rows], ta_floor)
    err = np.maximum(np.array(ev.per_po_error, dtype=np.float64), floor)
    levels = weights.wt / ta + weights.we / err
    return dict(zip(ev.circuit.po_ids, levels.tolist()))


def po_bits(circuit: Circuit) -> Dict[int, int]:
    """Per-gate PO cone membership as Python-int bitsets.

    Maps every gate ID to an int whose bit ``p`` is set when the gate
    lies in ``transitive_fanin(po_ids[p], include_self=True)``.  Built
    in one sweep over descending gate IDs that ORs each gate's bits into
    its fan-ins, so ``circuit`` must be gid-topological (every
    population member is).  Memoized per structure version; treat the
    returned dict as read-only.
    """
    cached = circuit._cached("po_bits")
    if cached is not None:
        return cached
    fanins = circuit.fanins
    bits = dict.fromkeys(fanins, 0)
    for p, po in enumerate(circuit.po_ids):
        bits[po] |= 1 << p
    for gid in sorted(fanins, reverse=True):
        b = bits[gid]
        if b:
            for fi in fanins[gid]:
                if fi >= 0:
                    bits[fi] |= b
    return circuit._store("po_bits", bits)


def circuit_reproduce(
    ev_a: CircuitEval,
    ev_b: CircuitEval,
    ctx: EvalContext,
    weights: Optional[LevelWeights] = None,
) -> Circuit:
    """Cross two evaluated circuits into a reproduced child.

    Both parents must be population members derived from the same
    accurate circuit (identical gate ID space and port lists).
    """
    ca, cb = ev_a.circuit, ev_b.circuit
    if ca.po_ids != cb.po_ids:
        raise ValueError("parents expose different PO sets")
    if ca.fanins.keys() != cb.fanins.keys():
        raise ValueError("parents carry different gate-ID sets")
    weights = weights or LevelWeights.paper_defaults(ctx)
    levels_a = po_levels(ev_a, ctx, weights)
    levels_b = po_levels(ev_b, ctx, weights)

    # Fill every gate from the fitter parent first; selected cones then
    # overwrite so un-coned (dangling) gates stay complete, matching the
    # paper's completeness rule for gates outside every PO-TFI pair.
    base, other = (
        (ev_a, ev_b) if ev_a.fitness >= ev_b.fitness else (ev_b, ev_a)
    )
    child = base.circuit.copy()

    # Choose the parent per PO and write cones in descending Level order:
    # shared gates accept adjacency only from the first write-in.
    choices: List[Tuple[float, int, int, CircuitEval]] = []
    for slot, po in enumerate(child.po_ids):
        if levels_a[po] >= levels_b[po]:
            choices.append((levels_a[po], po, slot, ev_a))
        else:
            choices.append((levels_b[po], po, slot, ev_b))
    choices.sort(key=lambda item: (-item[0], item[1]))
    ranked = [slot for _, _, slot, _ in choices]
    base_slots = other_slots = 0
    for _, _, slot, ev in choices:
        if ev is other:
            other_slots |= 1 << slot
        else:
            base_slots |= 1 << slot

    # A gate whose fan-ins and cell agree in both parents already equals
    # ``base`` whichever cone writes it, so only the gates that differ
    # can change.  Copies share tuple objects, so identity settles most
    # gates before a compare.  Each differing gate takes its record from
    # the first cone in write order whose chosen parent contains it;
    # only a gate owned by ``other`` is written, and no-op writes are
    # skipped, so ``changed`` is exactly the set that differs from base.
    bf, bc = base.circuit.fanins, base.circuit.cells
    of, oc = other.circuit.fanins, other.circuit.cells
    base_bits, other_bits = po_bits(base.circuit), po_bits(other.circuit)
    changed: set = set()
    base_version = child.version
    writes = 0
    for gid, fis in bf.items():
        ofis = of[gid]
        if (fis is ofis or fis == ofis) and bc[gid] == oc[gid]:
            continue
        hits = (base_bits[gid] & base_slots) | (other_bits[gid] & other_slots)
        if not hits:
            continue  # in no chosen cone: keeps base
        for slot in ranked:
            if hits >> slot & 1:
                break
        if not other_slots >> slot & 1:
            continue  # owned by base: already equal
        if fis != ofis:
            child.fanins[gid] = ofis
            changed.add(gid)
            writes += 1
        if not child.is_po(gid) and bc[gid] != oc[gid]:
            child.cells[gid] = oc[gid]
            changed.add(gid)
            writes += 1
    child.extend_provenance(changed, base_version, writes)
    return child


def pick_superior_partner(
    population: List[CircuitEval],
    ev: CircuitEval,
    rng: random.Random,
) -> Optional[CircuitEval]:
    """A random strictly-fitter population member to reproduce with."""
    better = [p for p in population if p.fitness > ev.fitness]
    if not better:
        return None
    return better[rng.randrange(len(better))]
