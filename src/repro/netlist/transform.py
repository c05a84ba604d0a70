"""Structural transforms: dangling-gate removal and cone extraction.

Dangling-gate deletion is the first half of the paper's post-optimization
(§III-C): traverse the circuit, remove every gate whose transitive fan-out
is empty, and repeat on the freed fan-ins until none remain.  Because
``live_gates`` computes backwards reachability from the POs, a single
sweep removes exactly the fixed point of that iteration.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from .circuit import Circuit, is_const


def remove_dangling(circuit: Circuit) -> int:
    """Delete every logic gate with no path to a PO, in place.

    Returns the number of gates removed.  Matches the paper's iterative
    empty-TFO deletion, computed in one reachability pass.
    """
    dead = circuit.dangling_gates()
    if not dead:
        return 0
    # Delete consumers before producers: a dangling gate may still be
    # referenced by *other* dangling gates.  Reverse topological order
    # guarantees every reference to a dead gate is gone by the time it
    # is removed, so remove_gate's O(E) per-deletion reference scan is
    # provably redundant here — delete directly (the tracked dicts
    # still bump the structure version) to keep mass pruning linear.
    order = circuit.topological_order()
    for gid in reversed(order):
        if gid in dead:
            del circuit.fanins[gid]
            del circuit.cells[gid]
    return len(dead)


def pruned_copy(circuit: Circuit, name: str = None) -> Circuit:
    """Copy with dangling gates removed; the original is untouched."""
    c = circuit.copy(name if name is not None else circuit.name)
    remove_dangling(c)
    return c


def po_cone(circuit: Circuit, po_id: int) -> Set[int]:
    """The PO-TFI pair of one output: the PO plus its transitive fan-in.

    This is the unit the paper's circuit-reproduction operator exchanges
    between parents (Fig. 5).
    """
    if not circuit.is_po(po_id):
        raise ValueError(f"gate {po_id} is not a PO")
    return circuit.transitive_fanin(po_id, include_self=True)


def cone_adjacency(circuit: Circuit, po_id: int) -> Dict[int, Tuple[int, ...]]:
    """Fan-in entries of every gate inside one PO-TFI cone."""
    return {gid: circuit.fanins[gid] for gid in po_cone(circuit, po_id)}


def shared_gates(circuit: Circuit) -> Dict[int, int]:
    """Map each live logic gate to the number of PO cones containing it.

    Gates shared by multiple PO-TFI pairs receive adjacency information
    only from the first write-in during reproduction; this helper is used
    by tests to characterise that sharing.
    """
    counts: Dict[int, int] = {}
    for po in circuit.po_ids:
        for gid in po_cone(circuit, po):
            if circuit.is_logic(gid):
                counts[gid] = counts.get(gid, 0) + 1
    return counts


def relabel_compact(circuit: Circuit) -> Tuple[Circuit, Dict[int, int]]:
    """Renumber gates densely 1..n in topological order.

    Returns ``(new_circuit, old_to_new)``; PI and PO order are kept.
    The result is gid-topological (:meth:`Circuit.gid_order_topo`), the
    order the evaluation hot paths require: ``parse_verilog`` and
    ``EvalContext.build`` pass every circuit that lacks it through here.
    """
    order = circuit.topological_order()
    mapping: Dict[int, int] = {}
    for new_id, old_id in enumerate(order, start=1):
        mapping[old_id] = new_id

    def remap(fi: int) -> int:
        return fi if is_const(fi) else mapping[fi]

    out = Circuit(circuit.name)
    out.fanins = {
        mapping[g]: tuple(remap(fi) for fi in fis)
        for g, fis in circuit.fanins.items()
    }
    out.cells = {mapping[g]: c for g, c in circuit.cells.items()}
    out.pi_ids = [mapping[g] for g in circuit.pi_ids]
    out.po_ids = [mapping[g] for g in circuit.po_ids]
    out.pi_names = {mapping[g]: n for g, n in circuit.pi_names.items()}
    out.po_names = {mapping[g]: n for g, n in circuit.po_names.items()}
    out._next_id = len(order) + 1
    return out, mapping
