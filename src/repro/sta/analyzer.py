"""Static timing analysis over fan-in adjacency circuits.

Plays the role PrimeTime plays in the paper: given a mapped netlist and
the cell library, propagate arrival times and slews in topological order
using the NLDM tables, with capacitive loading computed from fan-out pin
capacitances plus a wire-load estimate.  Produces per-PO arrival times
(``Ta`` in Eq. 3), the critical-path delay (CPD), unit logic depth, and
critical-path backtraces.

Results live in the **timing store** (:mod:`repro.sta.store`): one
tuple per quantity, Python floats for arrival/slew/load and Python ints
for unit depth / critical fan-in, indexed by the dense per-structure
:class:`~repro.sta.store.TimingIndex`.  The full pass runs
:func:`~repro.sta.store.walk_frontier`, the one per-gate timing loop
the incremental walk also runs, over every gate in topological order
into lists, and publishes them as tuples; the floats equal the
historical per-gate scalar walk exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cells import Library
from ..netlist import Circuit
from .store import TimingIndex, timing_index, walk_frontier


class TimingReport:
    """Results of one STA run, one tuple per quantity.

    The per-gate tuples (``arrival_a`` etc.) have ``index.n + 1`` rows:
    row ``index.row[gid]`` belongs to gate ``gid`` and the final row is
    the constant-source sentinel.  A tuple refuses writes, so a report
    is read-only by type; incremental updates start from ``list()``
    copies.  Per-gate reads go through the index:
    ``report.arrival_a[report.index.row[gid]]``.

    Attributes:
        circuit: the analyzed circuit.
        index: dense gate-id → row index the tuples are laid out by.
        arrival_a: worst output arrival time per row (ps, floats).
        slew_a: output transition per row (ps, floats).
        load_a: capacitive load per row (fF, floats).
        unit_depth_a: logic depth per row (ints; PIs at 0).
        critical_fanin_a: fan-in realising each row's worst arrival
            (ints; -1 encodes "none" — PIs and constant sources).
        circuit_version: the circuit's structure version at analysis
            time; consumers use it to detect reports staled by in-place
            mutation.
    """

    __slots__ = (
        "circuit",
        "index",
        "arrival_a",
        "slew_a",
        "load_a",
        "unit_depth_a",
        "critical_fanin_a",
        "circuit_version",
    )

    def __init__(
        self,
        circuit: Circuit,
        index: TimingIndex,
        arrival_a: Tuple[float, ...],
        slew_a: Tuple[float, ...],
        load_a: Tuple[float, ...],
        unit_depth_a: Tuple[int, ...],
        critical_fanin_a: Tuple[int, ...],
        circuit_version: int,
    ):
        self.circuit = circuit
        self.index = index
        self.arrival_a = arrival_a
        self.slew_a = slew_a
        self.load_a = load_a
        self.unit_depth_a = unit_depth_a
        self.critical_fanin_a = critical_fanin_a
        self.circuit_version = circuit_version

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def cpd(self) -> float:
        """Critical-path delay: the worst PO arrival time (ps)."""
        if not self.circuit.po_ids:
            raise ValueError("circuit has no POs")
        return max(map(self.arrival_a.__getitem__, self.index.po_rows))

    @property
    def max_unit_depth(self) -> int:
        """Deepest PO in gate levels (the unit-delay depth metric)."""
        if not self.circuit.po_ids:
            raise ValueError("circuit has no POs")
        return max(map(self.unit_depth_a.__getitem__, self.index.po_rows))

    def po_arrival(self, po_id: int) -> float:
        """Maximum arrival time ``Ta`` at one PO (ps)."""
        return self.arrival_a[self.index.row[po_id]]

    def worst_po(self) -> int:
        """The PO with the largest arrival time (ties: largest ID)."""
        arrivals = map(self.arrival_a.__getitem__, self.index.po_rows)
        return max(zip(arrivals, self.circuit.po_ids))[1]

    def critical_path(self, po_id: Optional[int] = None) -> List[int]:
        """Backtrace the worst path ending at ``po_id`` (default worst PO).

        Returns gate IDs from the launching PI (or constant) to the PO.
        """
        gid = po_id if po_id is not None else self.worst_po()
        row = self.index.row
        cf = self.critical_fanin_a
        path: List[int] = []
        while gid is not None:
            path.append(gid)
            r = row.get(gid)
            if r is None:
                break
            nxt = cf[r]
            gid = None if nxt < 0 else nxt
        path.reverse()
        return path


class STAEngine:
    """Topological arrival/slew propagation against a cell library.

    Args:
        library: the standard-cell library to read NLDM tables from.
        input_slew: transition assumed at PIs and constants (ps).
        po_load: external load on each PO in fF.
        wire_cap_per_fanout: crude wire-load model, fF added to a gate's
            load per fan-out connection.
    """

    def __init__(
        self,
        library: Library,
        input_slew: float = 10.0,
        po_load: float = 2.0,
        wire_cap_per_fanout: float = 0.15,
    ):
        self.library = library
        self.input_slew = input_slew
        self.po_load = po_load
        self.wire_cap_per_fanout = wire_cap_per_fanout

    # ------------------------------------------------------------------
    def _load_rows(self, circuit: Circuit, index: TimingIndex) -> List[float]:
        """Capacitive load per row (fF), padded with the sentinel row."""
        loads = [0.0] * (index.n + 1)
        self._write_loads(circuit, circuit.fanins, loads, index.row)
        return loads

    def _write_loads(self, circuit: Circuit, drivers, loads, row) -> None:
        """Write the load of each of ``drivers`` to ``loads[row[d]]``.

        A load adds ``pin cap + wire cap`` from 0.0 over the driver's
        consumers (the PO load for a PO) in :meth:`Circuit.fanouts`
        order — fan-in dict order, once per pin — as the historical dict
        implementation did, so the floats are bit-identical to it
        whichever drivers are rederived.  Constants are skipped.
        """
        fanouts = circuit.fanouts()
        cells = circuit.cells
        lib_cell = self.library.cell
        wire, po_load = self.wire_cap_per_fanout, self.po_load
        is_po = circuit.is_po
        for d in drivers:
            if d < 0:
                continue
            total = 0.0
            for consumer in fanouts.get(d, ()):
                if is_po(consumer):
                    total += po_load + wire
                else:
                    total += lib_cell(cells[consumer]).input_cap + wire
            loads[row[d]] = total

    def compute_loads(self, circuit: Circuit) -> Dict[int, float]:
        """Capacitive load on every gate output (fF), as a dict."""
        index = timing_index(circuit)
        loads = self._load_rows(circuit, index)
        row = index.row
        return {gid: loads[row[gid]] for gid in circuit.fanins}

    # ------------------------------------------------------------------
    def analyze(self, circuit: Circuit) -> TimingReport:
        """Run full STA and return a :class:`TimingReport`.

        Runs :func:`~repro.sta.store.walk_frontier` without seeds: every
        gate, in :meth:`Circuit.topological_order`, so any DAG is
        accepted.  The walk writes lists, published as tuples.
        """
        index = timing_index(circuit)
        size = index.n + 1
        loads = self._load_rows(circuit, index)
        # Every gate's row is written by the walk; the initial values are
        # the sentinel row's: arrival 0, slew = input slew, depth 0, no
        # critical fan-in.
        arr = [0.0] * size
        slew = [self.input_slew] * size
        depth = [0] * size
        cf = [-1] * size
        walk_frontier(self, circuit, index, loads, arr, slew, depth, cf)
        return TimingReport(
            circuit, index, tuple(arr), tuple(slew), tuple(loads),
            tuple(depth), tuple(cf), circuit.version,
        )
