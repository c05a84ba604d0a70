"""Static timing analysis over fan-in adjacency circuits.

Plays the role PrimeTime plays in the paper: given a mapped netlist and
the cell library, propagate arrival times and slews in topological order
using the NLDM tables, with capacitive loading computed from fan-out pin
capacitances plus a wire-load estimate.  Produces per-PO arrival times
(``Ta`` in Eq. 3), the critical-path delay (CPD), unit logic depth, and
critical-path backtraces.

Results live in a **structure-of-arrays timing store**
(:mod:`repro.sta.store`): numpy ``float64`` arrays for arrival/slew/load
and ``int32`` arrays for unit depth / critical fan-in, indexed by the
dense per-structure :class:`~repro.sta.store.TimingIndex`.  The full
pass runs :func:`~repro.sta.store.walk_frontier`, the one per-gate
timing loop the incremental walk also runs, over every gate in
topological order; the floats equal the historical per-gate scalar
walk exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..analysis.sanitize import publish_arrays
from ..cells import Library
from ..netlist import Circuit
from .store import TimingIndex, timing_index, walk_frontier


class TimingReport:
    """Results of one STA run, stored as a structure of arrays.

    The per-gate arrays (``arrival_a`` etc.) have ``index.n + 1`` rows:
    row ``index.row[gid]`` belongs to gate ``gid`` and the final row is
    the constant-source sentinel.  They are read-only by contract —
    incremental updates copy before writing.  Per-gate reads go through
    the index: ``report.arrival_a[report.index.row[gid]]``.

    Attributes:
        circuit: the analyzed circuit.
        index: dense gate-id → row index the arrays are laid out by.
        arrival_a: worst output arrival time per row (ps, float64).
        slew_a: output transition per row (ps, float64).
        load_a: capacitive load per row (fF, float64).
        unit_depth_a: logic depth per row (int32; PIs at 0).
        critical_fanin_a: fan-in realising each row's worst arrival
            (int32; -1 encodes "none" — PIs and constant sources).
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
        arrival_a: np.ndarray,
        slew_a: np.ndarray,
        load_a: np.ndarray,
        unit_depth_a: np.ndarray,
        critical_fanin_a: np.ndarray,
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
        # Constructing a report *is* publication: under REPRO_SANITIZE=1
        # the arrays become physically read-only, so any consumer that
        # writes in place instead of copying raises at the store site.
        publish_arrays(
            arrival_a, slew_a, load_a, unit_depth_a, critical_fanin_a
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def cpd(self) -> float:
        """Critical-path delay: the worst PO arrival time (ps)."""
        if not self.circuit.po_ids:
            raise ValueError("circuit has no POs")
        return float(np.max(self.arrival_a[self.index.po_rows]))

    @property
    def max_unit_depth(self) -> int:
        """Deepest PO in gate levels (the unit-delay depth metric)."""
        if not self.circuit.po_ids:
            raise ValueError("circuit has no POs")
        return int(np.max(self.unit_depth_a[self.index.po_rows]))

    def po_arrival(self, po_id: int) -> float:
        """Maximum arrival time ``Ta`` at one PO (ps)."""
        return float(self.arrival_a[self.index.row[po_id]])

    def worst_po(self) -> int:
        """The PO with the largest arrival time (ties: largest ID)."""
        arrivals = self.arrival_a[self.index.po_rows]
        best = np.flatnonzero(arrivals == arrivals.max())
        po_ids = self.circuit.po_ids
        return max(po_ids[i] for i in best)

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
            gid = None if nxt < 0 else int(nxt)
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
    def _loads_array(self, circuit: Circuit, index: TimingIndex) -> np.ndarray:
        """Capacitive load per row (fF), padded with the sentinel row."""
        loads = np.zeros(index.n + 1, dtype=np.float64)
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
        loads = self._loads_array(circuit, index)
        row = index.row
        return {gid: float(loads[row[gid]]) for gid in circuit.fanins}

    # ------------------------------------------------------------------
    def analyze(self, circuit: Circuit) -> TimingReport:
        """Run full STA and return a :class:`TimingReport`.

        Runs :func:`~repro.sta.store.walk_frontier` without seeds: every
        gate, in :meth:`Circuit.topological_order`, so any DAG is
        accepted.
        """
        index = timing_index(circuit)
        n = index.n
        loads = self._loads_array(circuit, index)
        # Every gate's row is written by the walk; the initial values are
        # the sentinel row's: arrival 0, slew = input slew, depth 0, no
        # critical fan-in.
        arr = np.zeros(n + 1, dtype=np.float64)
        slew = np.full(n + 1, self.input_slew, dtype=np.float64)
        depth = np.zeros(n + 1, dtype=np.int32)
        cf = np.full(n + 1, -1, dtype=np.int32)
        walk_frontier(self, circuit, index, loads, arr, slew, depth, cf)
        return TimingReport(
            circuit, index, arr, slew, loads, depth, cf, circuit.version
        )
