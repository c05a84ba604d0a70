"""Gate fan-in adjacency circuit representation (paper §III-A, Fig. 3).

The paper stores circuits purely as *gate fan-in adjacency lists*: every
gate has a unique integer ID and a tuple of fan-in IDs; wire names are
discarded.  Local approximate changes (LACs) then become trivial fan-in
rewrites.  This module implements that representation:

* Primary inputs are gates with the pseudo-cell ``"PI"`` and empty fan-in.
* Primary outputs are gates with the pseudo-cell ``"PO"`` and exactly one
  fan-in (the paper's Fig. 3 lists POs such as ``15: (12)`` the same way).
* Constants are the reserved IDs :data:`CONST0` / :data:`CONST1`; they may
  appear inside fan-in tuples but own no gate record (the paper treats
  constant '0'/'1' as switch gates).

Because every optimizer hot path (simulation, STA, area, LAC safety
checks) asks the same O(V+E) graph questions between mutations, the
class memoizes them behind a *structure version* counter: any write to
the fan-in adjacency or cell map — through the mutator methods or by
direct ``circuit.fanins[gid] = ...`` assignment — bumps the version and
lazily invalidates every cached answer.  Cached containers are returned
by reference and must be treated as read-only by callers.

Most circuits an optimizer sees are copies of an evaluated parent with a
few gates rewritten, and their :class:`Provenance` record names those
gates.  The fan-out map, live set, record digests and both structure
keys of such a child are derived from its parent's memos in time
proportional to the edit (:meth:`Circuit._memo`); every other circuit
builds them from scratch.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import deque
from dataclasses import dataclass
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import add
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..analysis.sanitize import (
    sanitize_enabled,
    verify_derived,
    verify_provenance,
)

#: Reserved fan-in ID for the constant logic value '0'.
CONST0 = -1
#: Reserved fan-in ID for the constant logic value '1'.
CONST1 = -2

#: Pseudo-cell names that carry no library cell.
PI_CELL = "PI"
PO_CELL = "PO"

#: Library -> cell name -> area, the pseudo-cells included: the lookup
#: :meth:`Circuit.area` sums through, built once per library.
_CELL_AREAS: "weakref.WeakKeyDictionary[Any, Dict[str, float]]" = (
    weakref.WeakKeyDictionary()
)


def is_const(gid: int) -> bool:
    """True for the reserved constant IDs."""
    return gid == CONST0 or gid == CONST1


def _record_digest(gid: int, cell: str, fanins: Tuple[int, ...]) -> int:
    """Stable 128-bit digest of one gate record.

    The gid is hashed *inside* the record so every gate contributes a
    distinct term to the XOR fold in :meth:`Circuit.structure_key` —
    two different gates can never share a term and cancel.
    """
    blob = repr((gid, cell, fanins)).encode("utf-8")
    return int.from_bytes(
        hashlib.blake2b(blob, digest_size=16).digest(), "big"
    )


class _TrackedDict(dict):
    """A dict that bumps its owning circuit's structure version on writes.

    Reads stay plain C-speed dict lookups; only the mutating entry points
    are wrapped.  This is what lets code like ``circuit.fanins[gid] = fis``
    (the reproduction operator's cone writes) invalidate the structural
    caches without routing every caller through mutator methods.  The
    owner is held by weak reference so a circuit is not a reference
    cycle: reference counting frees a dead candidate at once instead of
    leaving it to the cyclic collector.  A write through a dict whose
    circuit is gone bumps nothing.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: "Circuit", *args: Any):
        super().__init__(*args)
        self._owner = weakref.ref(owner)

    def _bump(self) -> None:
        owner = self._owner()
        if owner is not None:
            owner._version += 1

    def __setitem__(self, key: Any, value: Any) -> None:
        super().__setitem__(key, value)
        self._bump()

    def __delitem__(self, key: Any) -> None:
        super().__delitem__(key)
        self._bump()

    def pop(self, *args: Any) -> Any:
        result = super().pop(*args)
        self._bump()
        return result

    def popitem(self) -> Any:
        result = super().popitem()
        self._bump()
        return result

    def clear(self) -> None:
        super().clear()
        self._bump()

    def update(self, *args: Any, **kwargs: Any) -> None:
        super().update(*args, **kwargs)
        self._bump()

    def setdefault(self, key: Any, default: Any = None) -> Any:
        if key in self:
            return self[key]
        self[key] = default  # routes through __setitem__
        return default

    def __ior__(self, other: Any) -> "_TrackedDict":
        # dict.__ior__ merges at C level, bypassing __setitem__.
        self.update(other)
        return self


@dataclass(frozen=True)
class Provenance:
    """Derivation record: how a circuit differs from its parent.

    ``changed`` holds the IDs of every gate whose fan-in tuple or library
    cell was rewritten relative to ``parent`` — exactly the seeds of the
    incremental value walk (:func:`repro.sim.resimulate_cone`) and
    timing update (:func:`repro.sta.update_timing`).
    ``parent_version`` snapshots the parent's structure version so a
    later mutation of the parent invalidates the record.
    """

    parent: "Circuit"
    parent_version: int
    changed: FrozenSet[int]


class Circuit:
    """A combinational gate-level netlist as fan-in adjacency lists.

    The structure is deliberately close to the paper's Fig. 3: the whole
    circuit is ``{gate_id: (fanin ids...)}`` plus a cell name per gate.
    Instances are mutable (LACs rewrite fan-ins in place); use
    :meth:`copy` to fork population members.  A forked member whose
    edits are declared in its provenance record derives its structure
    memos from its parent's (:meth:`_memo`).
    """

    def __init__(self, name: str = "top"):
        self.name = name
        self._version = 0
        self._cache_version = -1
        self._cache: Dict[str, Any] = {}
        self._fanins: _TrackedDict = _TrackedDict(self)
        self._cells: _TrackedDict = _TrackedDict(self)
        self.pi_ids: List[int] = []
        self.po_ids: List[int] = []
        self.pi_names: Dict[int, str] = {}
        self.po_names: Dict[int, str] = {}
        self._next_id = 1
        self.provenance: Optional[Provenance] = None
        self._prov_version = -1

    # ------------------------------------------------------------------
    # structure version / caching
    # ------------------------------------------------------------------
    @property
    def fanins(self) -> Dict[int, Tuple[int, ...]]:
        """Fan-in adjacency; writes (even direct) bump the version."""
        return self._fanins

    @fanins.setter
    def fanins(self, mapping: Dict[int, Tuple[int, ...]]) -> None:
        self._fanins = _TrackedDict(self, mapping)
        self._version += 1

    @property
    def cells(self) -> Dict[int, str]:
        """Cell name per gate; writes (even direct) bump the version."""
        return self._cells

    @cells.setter
    def cells(self, mapping: Dict[int, str]) -> None:
        self._cells = _TrackedDict(self, mapping)
        self._version += 1

    @property
    def version(self) -> int:
        """Monotonic structure version; bumps on every structural write."""
        return self._version

    def _cached(self, key: str) -> Any:
        """Fetch a memoized value, flushing stale entries lazily."""
        if self._cache_version != self._version:
            self._cache.clear()
            self._cache_version = self._version
        return self._cache.get(key)

    def _store(self, key: str, value: Any) -> Any:
        """Store a value computed at the current version (post-_cached)."""
        self._cache[key] = value
        return value

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _alloc(self) -> int:
        gid = self._next_id
        self._next_id += 1
        return gid

    def add_pi(self, name: Optional[str] = None) -> int:
        """Add a primary input and return its gate ID."""
        gid = self._alloc()
        self.fanins[gid] = ()
        self.cells[gid] = PI_CELL
        self.pi_ids.append(gid)
        self.pi_names[gid] = name if name is not None else f"pi{len(self.pi_ids)}"
        return gid

    def add_gate(self, cell: str, fanins: Sequence[int]) -> int:
        """Add a logic gate instantiating library cell ``cell``."""
        for fi in fanins:
            if not is_const(fi) and fi not in self.fanins:
                raise KeyError(f"fan-in {fi} does not exist")
        gid = self._alloc()
        self.fanins[gid] = tuple(fanins)
        self.cells[gid] = cell
        return gid

    def add_po(self, driver: int, name: Optional[str] = None) -> int:
        """Add a primary output driven by gate ``driver``; returns PO ID."""
        if not is_const(driver) and driver not in self.fanins:
            raise KeyError(f"PO driver {driver} does not exist")
        gid = self._alloc()
        self.fanins[gid] = (driver,)
        self.cells[gid] = PO_CELL
        self.po_ids.append(gid)
        self.po_names[gid] = name if name is not None else f"po{len(self.po_ids)}"
        return gid

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def is_pi(self, gid: int) -> bool:
        """True when ``gid`` is a primary-input pseudo-gate."""
        return self.cells.get(gid) == PI_CELL

    def is_po(self, gid: int) -> bool:
        """True when ``gid`` is a primary-output pseudo-gate."""
        return self.cells.get(gid) == PO_CELL

    def is_logic(self, gid: int) -> bool:
        """True for real library gates (not PI/PO pseudo-cells/constants)."""
        cell = self.cells.get(gid)
        return cell is not None and cell != PI_CELL and cell != PO_CELL

    # ------------------------------------------------------------------
    # size / iteration
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.fanins)

    def gate_ids(self) -> Iterator[int]:
        """All gate IDs including PI/PO pseudo-gates."""
        return iter(self.fanins)

    def logic_ids(self) -> List[int]:
        """IDs of real library gates only."""
        return [g for g in self.fanins if self.is_logic(g)]

    @property
    def num_gates(self) -> int:
        """Library-gate count (what Table I's ``#gate`` column reports)."""
        return sum(1 for g in self.fanins if self.is_logic(g))

    # ------------------------------------------------------------------
    # structure memos: derived from the parent's, or built from scratch
    # ------------------------------------------------------------------
    def _memo(
        self,
        key: str,
        build: Callable[[], Any],
        derive: Callable[["Circuit", FrozenSet[int]], Any],
    ) -> Any:
        """The memo ``key``, derived from the parent's when possible.

        :meth:`fanouts`, :meth:`live_gates`, :meth:`structure_key`,
        :meth:`full_structure_key` and their helpers all run through
        here.  A copy-then-mutate child with a valid provenance record,
        whose parent has the same gate-ID set and port lists, differs
        from that parent only at the ``changed`` gates, so
        ``derive(parent, changed)`` updates the parent's memo around
        them.  Every other circuit (the reference, unpickled evals,
        in-place edits, changed gate sets) runs ``build()``, the
        from-scratch code.  Under ``REPRO_SANITIZE=1`` each derived
        value is checked against ``build()`` as it is derived.
        """
        cached = self._cached(key)
        if cached is not None:
            return cached
        prov = self.valid_provenance()
        if prov is not None:
            parent = prov.parent
            if (
                parent is not self
                and parent.po_ids == self.po_ids
                and parent.pi_ids == self.pi_ids
                and self.same_gid_set(parent)
            ):
                value = derive(parent, prov.changed)
                if sanitize_enabled():
                    verify_derived(self, key, value, build())
                return self._store(key, value)
        return self._store(key, build())

    def _rewired(
        self, parent: "Circuit", changed: FrozenSet[int]
    ) -> List[int]:
        """The ``changed`` gates whose fan-in tuple is not ``parent``'s."""
        pfanins, fanins = parent._fanins, self._fanins
        return [g for g in changed if pfanins.get(g) != fanins.get(g)]

    # ------------------------------------------------------------------
    # graph queries
    # ------------------------------------------------------------------
    def fanouts(self) -> Dict[int, List[int]]:
        """Map each gate to the gates that consume its output.

        Each list holds its consumers in fan-in dict order, once per
        pin (a gate reading a driver on two pins appears twice).
        Constants are keys only while some gate reads them.  A derived
        child (see :meth:`_memo`) copies its parent's map at C level and
        rebuilds only the lists of the drivers its rewired gates read
        before or after the edit; every other list is the parent's own
        object.  Memoized per structure version; treat the returned
        dict and its lists as read-only.
        """
        return self._memo(
            "fanouts", self._build_fanouts, self._derive_fanouts
        )

    def _build_fanouts(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = {gid: [] for gid in self._fanins}
        for gid, fis in self._fanins.items():
            for fi in fis:
                # Constants are the only negative IDs (checked at insert
                # time), so `fi < 0` is is_const() without the call.
                if fi < 0:
                    out.setdefault(fi, []).append(gid)
                else:
                    out[fi].append(gid)
        return out

    def _derive_fanouts(
        self, parent: "Circuit", changed: FrozenSet[int]
    ) -> Dict[int, List[int]]:
        base = parent.fanouts()
        # Taken while the record is valid, so the child passes the
        # shared map on to its own children once its record is consumed.
        pos = self._fanin_positions()
        rewired = self._rewired(parent, changed)
        if not rewired:
            return base
        pfanins, fanins = parent._fanins, self._fanins
        moved = set(rewired)
        added: Dict[int, List[int]] = {}
        drivers: Set[int] = set()
        for g in rewired:
            drivers.update(pfanins[g])
            for fi in fanins[g]:
                added.setdefault(fi, []).append(g)
        drivers.update(added)
        out = dict(base)
        for d in drivers:
            cons = [c for c in base.get(d, ()) if c not in moved]
            cons += added.get(d, ())
            cons.sort(key=pos.__getitem__)
            if cons or d >= 0:
                out[d] = cons
            else:
                del out[d]  # a constant no gate reads any more
        return out

    def _fanin_positions(self) -> Dict[int, int]:
        """Each gate's position in fan-in dict order.

        The sort key of the rebuilt fan-out lists.  A copy keeps its
        source's dict order (the operators only reassign existing
        keys), so a derived child shares its parent's map.
        """
        return self._memo(
            "fanins_pos",
            lambda: {g: i for i, g in enumerate(self._fanins)},
            lambda parent, changed: parent._fanin_positions(),
        )

    def topological_order(self) -> List[int]:
        """Gate IDs in topological order (fan-ins before fan-outs).

        Raises :class:`CircuitLoopError` when the adjacency contains a
        combinational loop — the violation the paper's integer-ID scheme
        is designed to check for.  Memoized per structure version; treat
        the returned list as read-only.
        """
        cached = self._cached("topo")
        if cached is not None:
            return cached
        indeg: Dict[int, int] = {}
        for gid, fis in self._fanins.items():
            indeg[gid] = len([fi for fi in fis if fi >= 0])
        ready = deque(sorted(g for g, d in indeg.items() if d == 0))
        fanouts = self.fanouts()
        order: List[int] = []
        while ready:
            gid = ready.popleft()
            order.append(gid)
            for fo in fanouts.get(gid, ()):
                indeg[fo] -= 1
                if indeg[fo] == 0:
                    ready.append(fo)
        if len(order) != len(self._fanins):
            cyclic = sorted(g for g, d in indeg.items() if d > 0)
            raise CircuitLoopError(
                f"combinational loop through gates {cyclic[:8]}"
                + ("..." if len(cyclic) > 8 else "")
            )
        return self._store("topo", order)

    def transitive_fanin(
        self, gid: int, include_self: bool = False
    ) -> FrozenSet[int]:
        """The TFI cone of ``gid`` (constants excluded), memoized."""
        cache = self._cached("tfi")
        if cache is None:
            cache = self._store("tfi", {})
        key = (gid, include_self)
        hit = cache.get(key)
        if hit is not None:
            return hit
        fanins = self._fanins
        seen: Set[int] = set()
        # Constants (negative IDs) are pushed and discarded on pop: one
        # C-level tuple extend beats a generator filter per gate.
        stack = list(fanins.get(gid, ()))
        while stack:
            g = stack.pop()
            if g < 0 or g in seen:
                continue
            seen.add(g)
            stack.extend(fanins[g])
        if include_self:
            seen.add(gid)
        result = frozenset(seen)
        # lint: allow[R1] owner-populated memo, version-scoped by _store
        cache[key] = result
        return result

    def transitive_fanout(
        self, gid: int, include_self: bool = False
    ) -> FrozenSet[int]:
        """The TFO cone of ``gid``, memoized per structure version."""
        cache = self._cached("tfo")
        if cache is None:
            cache = self._store("tfo", {})
        key = (gid, include_self)
        hit = cache.get(key)
        if hit is not None:
            return hit
        fanouts = self.fanouts()
        seen: Set[int] = set()
        stack = list(fanouts.get(gid, ()))
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            stack.extend(fanouts.get(g, ()))
        if include_self:
            seen.add(gid)
        result = frozenset(seen)
        # lint: allow[R1] owner-populated memo, version-scoped by _store
        cache[key] = result
        return result

    def gid_order_topo(self) -> bool:
        """True when ascending gate ID is a valid topological order.

        The entry invariant of every evaluation hot path: circuits
        built gate-after-gate (every benchmark builder) have it,
        :func:`~repro.netlist.parse_verilog` and
        :meth:`repro.core.EvalContext.build` renumber a circuit that
        lacks it, and every population operator preserves it (LAC
        switches come from the target's TFI, reproduction mixes fan-in
        tuples of two ordered parents, simplification only drops pins).
        ``is_safe``, ``po_bits``, ``resimulate_cone`` and
        ``update_timing`` rely on it; the sanitizer's provenance
        tripwire checks it on every derived circuit.  An O(E) scan;
        constants are negative, so ``fi < gid`` covers them.
        """
        return all(fi < gid for gid, fis in self._fanins.items() for fi in fis)

    def same_gid_set(self, other: "Circuit") -> bool:
        """True when both circuits carry exactly the same gate-ID set.

        This is the gate every parent-structure reuse in the evaluation
        hot path runs through (shared timing index, shared value rows,
        the structure memos :meth:`_memo` derives), and it used to be
        paid as a full ``fanins.keys() == parent.fanins.keys()`` set
        comparison per child per evaluation.  Memoized per (this
        version, other version) pair.  The entry holds ``other`` by weak
        reference, as the tracked dicts hold their owner: an evaluated
        child must not keep its parent (and through it every ancestor)
        alive, and a dead reference never matches, so an ``id()``
        recycled by the allocator cannot alias a dead circuit's cached
        answer.
        """
        if other is self:
            return True
        cache = self._cached("same_gids")
        if cache is None:
            cache = self._store("same_gids", {})
        hit = cache.get(id(other))
        if (
            hit is not None
            and hit[0]() is other
            and hit[1] == other._version
        ):
            return hit[2]
        result = self._fanins.keys() == other._fanins.keys()
        # lint: allow[R1] owner-populated memo, version-scoped by _store
        cache[id(other)] = (weakref.ref(other), other._version, result)
        return result

    def live_gates(self) -> FrozenSet[int]:
        """Gates reachable backwards from any PO (POs and PIs included).

        A derived child (see :meth:`_memo`) re-decides liveness only
        where its edits can change it: a walk seeded with its rewired
        gates' old and new fan-ins pops gates in descending gate ID (so,
        on a gid-topological circuit, after all of their consumers) and
        goes on to a gate's fan-ins only when its liveness differs from
        the parent's.  A gate is queued again if a consumer flips after
        it was popped, so any DAG ends at the same set.  Memoized per
        structure version; the returned set is immutable.
        """
        return self._memo("live", self._build_live, self._derive_live)

    def _build_live(self) -> FrozenSet[int]:
        fanins = self._fanins
        seen: Set[int] = set()
        stack = list(self.po_ids)
        while stack:
            g = stack.pop()
            if g in seen or g < 0:
                continue
            seen.add(g)
            stack.extend(fanins[g])
        return frozenset(seen)

    def _derive_live(
        self, parent: "Circuit", changed: FrozenSet[int]
    ) -> FrozenSet[int]:
        base = parent.live_gates()
        rewired = self._rewired(parent, changed)
        walked: Dict[int, bool] = {}
        if rewired:
            pfanins, fanins = parent._fanins, self._fanins
            fanouts = self.fanouts()
            outputs = set(self.po_ids)
            queued = {
                d for g in rewired for d in pfanins[g] + fanins[g] if d >= 0
            }
            heap = [-d for d in queued]
            heapify(heap)
            while heap:
                g = -heappop(heap)
                queued.discard(g)
                now = g in outputs
                if not now:
                    for c in fanouts[g]:
                        if walked.get(c, c in base):
                            now = True
                            break
                if now == walked.get(g, g in base):
                    continue
                walked[g] = now
                for fi in fanins[g]:
                    if fi >= 0 and fi not in queued:
                        queued.add(fi)
                        heappush(heap, -fi)
        died = [g for g, now in walked.items() if not now and g in base]
        born = [g for g, now in walked.items() if now and g not in base]
        live = base.difference(died) if died else base
        return live.union(born) if born else live

    def dangling_gates(self) -> Set[int]:
        """Logic gates with no path to any PO (the paper's empty-TFO gates)."""
        live = self.live_gates()
        return {g for g in self.fanins if self.is_logic(g) and g not in live}

    # ------------------------------------------------------------------
    # area
    # ------------------------------------------------------------------
    def area(self, library, live_only: bool = True) -> float:
        """Total cell area in µm².

        With ``live_only`` (the default) dangling gates are excluded —
        this is exactly how the paper computes ``Area_app``: the accurate
        circuit's area minus the area of dangling gates.  The areas are
        added one by one from 0.0 in ascending gate ID (fan-in dict
        order with ``live_only=False``), so the float does not depend on
        the order a live set iterates in.  ``reduce`` over ``add`` does
        those sequential adds at C speed; the builtin ``sum`` is not
        used, as from Python 3.12 it compensates float rounding.
        Memoized per structure version (the library object is held as
        part of the key so identity cannot be recycled).
        """
        cache = self._cached("area")
        if cache is None:
            cache = self._store("area", {})
        key = (id(library), live_only)
        hit = cache.get(key)
        if hit is not None:
            return hit[1]
        gids = sorted(self.live_gates()) if live_only else self._fanins
        areas = _CELL_AREAS.get(library)
        if areas is None:
            # PI/PO pseudo-cells weigh 0.0, and adding 0.0 to the running
            # total (never negative) leaves every bit of it unchanged.
            areas = {c.name: c.area for c in library.cells()}
            areas[PI_CELL] = areas[PO_CELL] = 0.0
            _CELL_AREAS[library] = areas
        cells = map(self._cells.__getitem__, gids)
        try:
            total = reduce(add, map(areas.__getitem__, cells), 0.0)
        except KeyError as exc:
            library.cell(exc.args[0])  # raises "cell ... not in library"
            raise
        # lint: allow[R1] owner-populated memo, version-scoped by _store
        cache[key] = (library, total)
        return total

    # ------------------------------------------------------------------
    # mutation (the LAC substrate)
    # ------------------------------------------------------------------
    def substitute(self, target: int, switch: int) -> List[int]:
        """Replace every fan-in occurrence of ``target`` with ``switch``.

        This is the primitive both LACs build on: wire-by-wire uses an
        existing gate as ``switch``, wire-by-constant uses ``CONST0`` /
        ``CONST1``.  Returns the IDs of the rewritten consumer gates —
        exactly the ``changed`` set an incremental resimulation needs.
        The caller is responsible for picking a ``switch`` that cannot
        create a loop (any gate outside ``target``'s TFO qualifies; the
        paper picks from the TFI).
        """
        if target == switch:
            raise ValueError("target and switch gates must differ")
        if is_const(target):
            raise ValueError("cannot substitute a constant")
        rewritten: List[int] = []
        for gid, fis in self.fanins.items():
            if target in fis:
                self.fanins[gid] = tuple(
                    switch if fi == target else fi for fi in fis
                )
                rewritten.append(gid)
        return rewritten

    def set_fanins(self, gid: int, fanins: Sequence[int]) -> None:
        """Directly overwrite one gate's fan-in tuple."""
        if gid not in self.fanins:
            raise KeyError(f"gate {gid} does not exist")
        self.fanins[gid] = tuple(fanins)

    def set_cell(self, gid: int, cell: str) -> None:
        """Swap the library cell of a logic gate (used by the resizer)."""
        if not self.is_logic(gid):
            raise ValueError(f"gate {gid} is not a logic gate")
        self.cells[gid] = cell

    def remove_gate(self, gid: int) -> None:
        """Delete a gate record.  The gate must be unreferenced.

        Raises :class:`ValueError` when the gate still appears in any
        fan-in tuple (including PO fan-ins) — deleting a referenced gate
        would leave consumers pointing at a nonexistent ID, the silent
        corruption this guard exists to catch.  Delete consumers first
        (reverse topological order) when clearing whole cones.
        """
        if gid in self.pi_names or gid in self.po_names:
            raise ValueError("cannot remove a PI/PO")
        if gid not in self._fanins:
            raise KeyError(f"gate {gid} does not exist")
        refs = [g for g, fis in self._fanins.items() if gid in fis]
        if refs:
            raise ValueError(
                f"cannot remove gate {gid}: still referenced by "
                f"{sorted(refs)[:8]}"
            )
        del self.fanins[gid]
        del self.cells[gid]

    # ------------------------------------------------------------------
    # copying / identity
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Deep-copy the adjacency (cheap: tuples are shared immutably).

        The copy carries a provenance record: either the source's own
        (still-valid) record — a copy of a derived circuit is the same
        derivation — or a fresh empty-delta record naming the source as
        parent, so a copy-then-mutate flow can extend it into the exact
        ``changed`` set incremental evaluation needs and the structure
        memos are derived from (:meth:`_memo`).
        """
        if sanitize_enabled():
            # Tripwire (REPRO_SANITIZE=1): a record carried across a
            # copy boundary must actually cover the structural diff
            # against its parent, or every incremental consumer would
            # reuse stale rows.
            verify_provenance(self)
        c = Circuit(name if name is not None else self.name)
        c.fanins = dict(self._fanins)
        c.cells = dict(self._cells)
        c.pi_ids = list(self.pi_ids)
        c.po_ids = list(self.po_ids)
        c.pi_names = dict(self.pi_names)
        c.po_names = dict(self.po_names)
        c._next_id = self._next_id
        carried = self.valid_provenance()
        if carried is not None:
            c.provenance = carried
        else:
            c.provenance = Provenance(self, self._version, frozenset())
        c._prov_version = c._version
        return c

    def __getstate__(self) -> Dict[str, Any]:
        """Serialize with plain dicts (tracked dicts hold a weakref).

        Caches are dropped (recomputed lazily) and so is the provenance
        record — it is only meaningful relative to an in-memory parent
        object and would otherwise drag whole ancestor chains through
        pickle/deepcopy.
        """
        state = self.__dict__.copy()
        state["_fanins"] = dict(self._fanins)
        state["_cells"] = dict(self._cells)
        state["_cache"] = {}
        state["_cache_version"] = -1
        state["provenance"] = None
        state["_prov_version"] = -1
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._fanins = _TrackedDict(self, state["_fanins"])
        self._cells = _TrackedDict(self, state["_cells"])

    def valid_provenance(self) -> Optional[Provenance]:
        """The provenance record, or ``None`` when it is stale.

        A record is stale when this circuit mutated after the record was
        stamped (the ``changed`` set no longer covers the delta) or when
        the parent itself mutated since.
        """
        prov = self.provenance
        if prov is None or self._prov_version != self._version:
            return None
        if prov.parent._version != prov.parent_version:
            return None
        return prov

    def extend_provenance(
        self, changed: Iterable[int], since_version: int, writes: int
    ) -> None:
        """Fold freshly rewritten gate IDs into the carried provenance.

        Contract: ``since_version`` is :attr:`version` as sampled right
        after :meth:`copy`, and the declared edits performed exactly
        ``writes`` structural writes (every tracked-dict write bumps the
        version by one), all confined to the gates in ``changed``.  The
        record is dropped instead of extended whenever the arithmetic
        does not close — the parent mutated, the stamp predates
        ``since_version``, or the version advanced by more than the
        declared writes (an undeclared edit slipped in) — so contract
        violations degrade to full re-evaluation rather than evaluation
        from a wrong dirty set.  Edits made *after* this call stale the
        record via the version check in :meth:`valid_provenance`.
        """
        prov = self.provenance
        if (
            prov is None
            or self._prov_version != since_version
            or self._version != since_version + writes
            or prov.parent._version != prov.parent_version
        ):
            self.provenance = None
            self._prov_version = -1
            return
        self.provenance = Provenance(
            prov.parent,
            prov.parent_version,
            prov.changed | frozenset(changed),
        )
        self._prov_version = self._version
        if sanitize_enabled():
            verify_provenance(self)

    def _record_digests(self) -> Dict[int, int]:
        """Per-gate record digests the structure keys are folded from.

        Maps every gate ID to a 128-bit BLAKE2b digest of its record
        ``(gid, cell, fanins)``.  A derived child (see :meth:`_memo`)
        copies its parent's map at C level and re-hashes only the
        ``changed`` gates, instead of re-encoding and re-hashing the
        whole adjacency per child per generation (~5% of a DCGWO run
        before this existed).  Treat the returned dict as read-only.
        """
        return self._memo(
            "rec_digests", self._build_digests, self._derive_digests
        )

    def _build_digests(self) -> Dict[int, int]:
        cells = self._cells
        return {
            gid: _record_digest(gid, cells[gid], fis)
            for gid, fis in self._fanins.items()
        }

    def _derive_digests(
        self, parent: "Circuit", changed: FrozenSet[int]
    ) -> Dict[int, int]:
        digests = dict(parent._record_digests())
        cells, fanins = self._cells, self._fanins
        for gid in changed:
            fis = fanins.get(gid)
            if fis is not None:
                digests[gid] = _record_digest(gid, cells[gid], fis)
        return digests

    def full_structure_key(self) -> bytes:
        """Stable digest of the *complete* adjacency (dangling gates too).

        :meth:`structure_key` hashes only the live cone — enough for
        population dedup, but two circuits with equal live structure
        can still disagree on dangling gates, whose simulated values,
        capacitive loads and arrival times all appear in a
        :class:`~repro.core.fitness.CircuitEval`.  Evaluation anchors
        (shard-worker parent caches, batch singles dedup) must
        therefore match on everything, so this key covers every gate
        record plus the PI/PO order.  Folded as an XOR of the per-gate
        digests of :meth:`_record_digests` — XOR is order-independent,
        so no sort is needed, and each gate appears in exactly one
        record (its own gid is hashed inside it), so records can never
        cancel pairwise.  A derived child (see :meth:`_memo`) XORs the
        old and new digests of its ``changed`` gates into its parent's
        key.  Memoized per structure version.
        """
        return self._memo(
            "full_skey", self._build_full_key, self._derive_full_key
        )

    def _build_full_key(self) -> bytes:
        acc = 0
        for d in self._record_digests().values():
            acc ^= d
        ports = repr((self.pi_ids, self.po_ids)).encode("utf-8")
        acc ^= int.from_bytes(
            hashlib.blake2b(ports, digest_size=16).digest(), "big"
        )
        return acc.to_bytes(16, "big")

    def _derive_full_key(
        self, parent: "Circuit", changed: FrozenSet[int]
    ) -> bytes:
        pdigests, digests = parent._record_digests(), self._record_digests()
        acc = int.from_bytes(parent.full_structure_key(), "big")
        for gid in changed:
            acc ^= pdigests.get(gid, 0) ^ digests.get(gid, 0)
        return acc.to_bytes(16, "big")

    def structure_key(self) -> int:
        """Order-independent digest of the live structure.

        Two circuits with identical live adjacency and cells key equal;
        used to deduplicate population members.  Computed with a stable
        hash (BLAKE2b record digests, XOR-folded over the live cone)
        rather than builtin ``hash()`` so dedup decisions — and
        therefore archived results — reproduce across processes
        regardless of ``PYTHONHASHSEED``.  A derived child (see
        :meth:`_memo`) XORs into its parent's key the digests of the
        gates whose record or liveness changed — DCGWO calls this on
        every child for dedup *before* evaluation, exactly while the
        record is valid.  Memoized per structure version.
        """
        return self._memo("skey", self._build_skey, self._derive_skey)

    def _build_skey(self) -> int:
        digests = self._record_digests()
        acc = 0
        for gid in self.live_gates():
            acc ^= digests[gid]
        return acc

    def _derive_skey(
        self, parent: "Circuit", changed: FrozenSet[int]
    ) -> int:
        base, live = parent.live_gates(), self.live_gates()
        pdigests, digests = parent._record_digests(), self._record_digests()
        acc = parent.structure_key()
        for gid in changed.union(base.symmetric_difference(live)):
            if gid in base:
                acc ^= pdigests[gid]
            if gid in live:
                acc ^= digests[gid]
        return acc

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, gates={self.num_gates}, "
            f"PI={len(self.pi_ids)}, PO={len(self.po_ids)})"
        )


class CircuitLoopError(ValueError):
    """Raised when the fan-in adjacency contains a combinational cycle."""
