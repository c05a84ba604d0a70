"""The circuit-reproduction approximate action (paper §III-B, Fig. 5).

Reproduction crosses over two approximate circuits at PO granularity:
each primary output's cone (the PO-TFI pair) is scored with the Level
function (Eq. 3)

    Level(PO_i) = wt / Ta(PO_i) + we / Error(PO_i)

and the child takes each PO's cone from whichever parent scores higher.
Gates shared between cones accept adjacency information only from the
first write-in (cones are written in descending Level order); gates in no
selected cone are filled from the fitter parent so the child is complete.

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
from ..sta.store import timing_index
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
    """Eq. 3 Level score for every PO of one evaluated circuit."""
    floor = _error_floor(ctx.vectors.num_vectors)
    # POs driven by constants/PIs arrive at ~0; floor Ta at 1% of the
    # accurate CPD so the timing term saturates instead of exploding and
    # drowning out the error term.
    ta_floor = 0.01 * ctx.cpd_ori
    levels: Dict[int, float] = {}
    for idx, po in enumerate(ev.circuit.po_ids):
        ta = max(ev.report.po_arrival(po), ta_floor, 1e-9)
        err = max(ev.per_po_error[idx], floor)
        levels[po] = weights.wt / ta + weights.we / err
    return levels


class POCones:
    """Per-PO TFI reachability of one circuit as dense bool masks.

    ``masks`` is ``(index.n, num_pos)`` bool laid out by the shared
    sorted-gid row numbering (:func:`repro.sta.store.timing_index`):
    ``masks[r, p]`` is True when the gate on row ``r`` belongs to PO
    ``p``'s cone (the PO itself included — exactly
    ``transitive_fanin(po, include_self=True)`` minus constants).
    Memoized per circuit structure version; the reproduction operator
    intersects these masks instead of walking frozensets per PO, which
    is the crossover cone-write cost the ROADMAP flagged.
    """

    __slots__ = ("index", "masks", "po_slot", "_sets")

    def __init__(self, index, masks: np.ndarray, po_slot: Dict[int, int]):
        self.index = index
        self.masks = masks
        self.po_slot = po_slot
        self._sets: Dict[int, frozenset] = {}

    def mask(self, po: int) -> np.ndarray:
        """Bool row mask of ``po``'s cone (a column view; read-only)."""
        return self.masks[:, self.po_slot[po]]

    def cone(self, po: int) -> frozenset:
        """The cone as a gate-ID frozenset — the historical set-based
        API, materialized lazily from the mask for existing callers."""
        cached = self._sets.get(po)
        if cached is None:
            gids = self.index.gids
            cached = frozenset(
                int(gids[r]) for r in np.flatnonzero(self.mask(po))
            )
            self._sets[po] = cached
        return cached


def po_cones(circuit: Circuit) -> POCones:
    """The circuit's :class:`POCones`, memoized per structure version.

    Built with one reverse-topological sweep that ORs each gate's mask
    row into its fan-ins — O(V · num_pos / 8) bytes of work instead of
    one set-walk per PO.
    """
    cached = circuit._cached("po_cones")
    if cached is not None:
        return cached
    index = timing_index(circuit)
    row = index.row
    fanins = circuit.fanins
    po_ids = circuit.po_ids
    po_slot = {po: p for p, po in enumerate(po_ids)}
    masks = np.zeros((index.n, len(po_ids)), dtype=bool)
    for po in po_ids:
        masks[row[po], po_slot[po]] = True
    if circuit.gid_order_topo():
        # Rows are sorted gate IDs = a topological order here, so the
        # sweep walks rows descending without building the topo order.
        gids = index.gids
        for r in range(index.n - 1, -1, -1):
            m = masks[r]
            if m.any():
                for fi in fanins[int(gids[r])]:
                    if fi >= 0:
                        fr = row[fi]
                        np.logical_or(masks[fr], m, out=masks[fr])
    else:
        for gid in reversed(circuit.topological_order()):
            m = masks[row[gid]]
            if m.any():
                for fi in fanins[gid]:
                    if fi >= 0:
                        fr = row[fi]
                        np.logical_or(masks[fr], m, out=masks[fr])
    return circuit._store("po_cones", POCones(index, masks, po_slot))


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
    choices: List[Tuple[float, int, Circuit]] = []
    for po in child.po_ids:
        if levels_a[po] >= levels_b[po]:
            choices.append((levels_a[po], po, ev_a.circuit))
        else:
            choices.append((levels_b[po], po, ev_b.circuit))
    choices.sort(key=lambda item: (-item[0], item[1]))

    # Both parents' cone masks share one row numbering (same gate-ID
    # set), so first-write-wins reduces to `mask & ~written` per PO and
    # only the genuinely new rows of each cone are visited.  Write order
    # within one cone cannot matter: every write reads the same parent.
    changed: set = set()
    base_version = child.version
    writes = 0
    cones = {id(ca): po_cones(ca), id(cb): po_cones(cb)}
    gids = cones[id(ca)].index.gids
    written_mask = np.zeros(len(gids), dtype=bool)
    for _, po, parent in choices:
        mask = cones[id(parent)].mask(po)
        fresh = mask & ~written_mask
        written_mask |= mask
        for r in np.flatnonzero(fresh):
            gid = int(gids[r])
            # Skip no-op writes: the child starts as a copy of ``base``,
            # so a differing current value means "differs from base" —
            # exactly the changed set incremental evaluation needs (and
            # skipping identical writes avoids needless cache churn).
            if child.fanins[gid] != parent.fanins[gid]:
                child.fanins[gid] = parent.fanins[gid]
                changed.add(gid)
                writes += 1
            if not child.is_po(gid) and child.cells[gid] != parent.cells[gid]:
                child.cells[gid] = parent.cells[gid]
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
