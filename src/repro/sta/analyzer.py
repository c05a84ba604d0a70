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
pass evaluates every gate in topological order with
:func:`~repro.sta.store.gate_timing`, the per-gate evaluation the
incremental walk shares; the floats equal the historical per-gate
scalar walk exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.sanitize import publish_arrays
from ..cells import Library
from ..netlist import Circuit
from .store import TimingIndex, gate_timing, timing_index


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

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def pack(self) -> Tuple:
        """The raw array payload shard workers ship across pipes.

        The index is *not* shipped: it is a pure function of the circuit
        (which travels alongside) and is rebuilt memoized on the other
        end — pickling the gid → row dict was exactly the per-gate
        transport cost this store exists to remove.
        """
        return (
            self.arrival_a,
            self.slew_a,
            self.load_a,
            self.unit_depth_a,
            self.critical_fanin_a,
            self.circuit_version,
        )

    @classmethod
    def unpack(cls, circuit: Circuit, payload: Tuple) -> "TimingReport":
        """Rebuild a report from :meth:`pack` output plus its circuit."""
        return cls(circuit, timing_index(circuit), *payload)

    def __getstate__(self):
        return (self.circuit, self.pack())

    def __setstate__(self, state):
        circuit, payload = state
        self.circuit = circuit
        self.index = timing_index(circuit)
        (
            self.arrival_a,
            self.slew_a,
            self.load_a,
            self.unit_depth_a,
            self.critical_fanin_a,
            self.circuit_version,
        ) = payload
        # Arrays rebuilt from pickle arrive writable; republish them
        # read-only so unpickled reports keep the publication contract.
        publish_arrays(
            self.arrival_a,
            self.slew_a,
            self.load_a,
            self.unit_depth_a,
            self.critical_fanin_a,
        )


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
        """Capacitive load per row (fF), padded with the sentinel row.

        Accumulation order per driver matches the historical dict
        implementation (consumers in fan-in dict insertion order), so
        the floats are bit-identical to it.
        """
        loads = np.zeros(index.n + 1, dtype=np.float64)
        row = index.row
        wire = self.wire_cap_per_fanout
        lib_cell = self.library.cell
        cells = circuit.cells
        for gid, fis in circuit.fanins.items():
            if circuit.is_po(gid):
                pin_cap = self.po_load
            elif circuit.is_pi(gid):
                continue
            else:
                pin_cap = lib_cell(cells[gid]).input_cap
            for fi in fis:
                if fi < 0:
                    continue
                loads[row[fi]] += pin_cap + wire
        return loads

    def compute_loads(self, circuit: Circuit) -> Dict[int, float]:
        """Capacitive load on every gate output (fF), as a dict."""
        index = timing_index(circuit)
        loads = self._loads_array(circuit, index)
        row = index.row
        return {gid: float(loads[row[gid]]) for gid in circuit.fanins}

    # ------------------------------------------------------------------
    def analyze(self, circuit: Circuit) -> TimingReport:
        """Run full STA and return a :class:`TimingReport`.

        Evaluates every gate in :meth:`Circuit.topological_order` with
        :func:`~repro.sta.store.gate_timing`, as
        :func:`repro.sim.simulate` does with its gate evaluation, so any
        DAG is accepted.
        """
        index = timing_index(circuit)
        n = index.n
        loads = self._loads_array(circuit, index)
        # Every gate's row is written below; the initial values are the
        # sentinel row's: arrival 0, slew = input slew, depth 0, no
        # critical fan-in.
        arr = np.zeros(n + 1, dtype=np.float64)
        slew = np.full(n + 1, self.input_slew, dtype=np.float64)
        depth = np.zeros(n + 1, dtype=np.int32)
        cf = np.full(n + 1, -1, dtype=np.int32)
        timing = gate_timing(self, circuit, index, loads, arr, slew, depth)
        row = index.row
        for gid in circuit.topological_order():
            r = row[gid]
            arr[r], slew[r], depth[r], cf[r] = timing(gid, r)
        return TimingReport(
            circuit, index, arr, slew, loads, depth, cf, circuit.version
        )
