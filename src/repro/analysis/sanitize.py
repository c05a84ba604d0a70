"""Runtime sanitizer: make contract violations crash, not corrupt.

Everything here is gated on ``REPRO_SANITIZE=1`` and costs one env
lookup when disabled.  Published stores need no layer here: a
:class:`~repro.sta.TimingReport` holds its rows in tuples and a
:class:`~repro.sim.ValueStore` its value rows, and a tuple refuses
writes with or without the sanitizer.  Two layers remain:

* the provenance tripwire — :class:`repro.netlist.circuit.Circuit`
  calls :func:`verify_provenance` at ``copy()`` /
  ``extend_provenance`` boundaries; it diffs the circuit against its
  provenance parent and raises :class:`SanitizerError` when the
  declared ``changed`` set does not cover the actual structural edits,
  or when the derived circuit is not gid-topological.
  :func:`verify_derived` checks each structure memo ``Circuit`` derives
  from a parent's (fan-out map, live set, record digests, structure
  keys) against the one it builds from scratch, as it is derived.
* :class:`TrackedLock` — a named wrapper around ``threading`` locks
  used by the dispatcher registry.  It records the global
  lock-acquisition order and raises on the first order inversion
  (the static shape of an ABBA deadlock), before the acquire blocks.

This module must stay import-light (stdlib only, no ``repro``
imports): the netlist layer imports it at module load.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple

__all__ = [
    "SanitizerError",
    "TrackedLock",
    "sanitize_enabled",
    "verify_derived",
    "verify_provenance",
]


class SanitizerError(AssertionError):
    """A runtime contract violation detected under ``REPRO_SANITIZE=1``."""


def sanitize_enabled() -> bool:
    """True when the runtime sanitizer is switched on via the env."""
    return os.environ.get("REPRO_SANITIZE", "0") not in ("", "0")


# ----------------------------------------------------------------------
# provenance tripwire
# ----------------------------------------------------------------------
def verify_provenance(circuit) -> None:
    """Check a valid provenance record against the actual diff.

    Called by ``Circuit.copy()`` and ``Circuit.extend_provenance()``
    under the sanitizer.  An edit the record does not declare would
    make every incremental consumer (timing frontier, cone resim,
    batched eval) silently reuse stale parent rows — exactly the bug
    class the provenance protocol exists to prevent — so it raises.
    So does a derived circuit whose ascending gate IDs are not a
    topological order: the incremental consumers schedule by gate ID.
    """
    prov = circuit.provenance
    if prov is None or not circuit.valid_provenance():
        return
    parent = prov.parent
    fanins, cells = circuit.fanins, circuit.cells
    pfanins, pcells = parent.fanins, parent.cells
    actual = set()
    for gid in fanins.keys() | pfanins.keys():
        if fanins.get(gid) != pfanins.get(gid) or cells.get(
            gid
        ) != pcells.get(gid):
            actual.add(gid)
    undeclared = actual - set(prov.changed)
    if undeclared:
        raise SanitizerError(
            "provenance record declares changed="
            f"{sorted(prov.changed)} but gates "
            f"{sorted(undeclared)} differ from the parent — "
            "undeclared edit (fold every mutation into "
            "extend_provenance, or drop the record)"
        )
    if not circuit.gid_order_topo():
        raise SanitizerError(
            "derived circuit is not gid-topological: some gate has a "
            "fan-in with a larger ID, so the incremental consumers "
            "would evaluate it out of order"
        )


def verify_derived(circuit, name: str, derived, scratch) -> None:
    """Check a memo derived from the provenance parent's.

    Called by ``Circuit._memo`` under the sanitizer with the derived
    value and the from-scratch one.  A difference means the derivation
    missed an effect of the declared edits, and every consumer of that
    memo (population dedup, batch dedup, the value and timing walks) would
    silently work on the wrong structure, so it raises.
    """
    if derived != scratch:
        raise SanitizerError(
            f"derived memo {name!r} of {circuit!r} differs from its "
            "from-scratch value (provenance changed="
            f"{sorted(circuit.provenance.changed)[:8]})"
        )


# ----------------------------------------------------------------------
# lock-order layer
# ----------------------------------------------------------------------
#: Observed acquisition edges: (held, acquired) pairs seen so far.
_EDGES: Dict[Tuple[str, str], bool] = {}
_EDGE_LOCK = threading.Lock()
_HELD = threading.local()


def _held_stack() -> List[str]:
    stack = getattr(_HELD, "stack", None)
    if stack is None:
        stack = []
        _HELD.stack = stack
    return stack


def reset_lock_tracking() -> None:
    """Forget recorded acquisition edges (test isolation helper)."""
    with _EDGE_LOCK:
        _EDGES.clear()


class TrackedLock:
    """A named ``threading`` lock with lock-order inversion detection.

    When the sanitizer is off this is a plain pass-through wrapper.
    When it is on, every acquire first checks the global edge set: if
    lock ``B`` is being acquired while ``A`` is held and ``B`` was
    previously seen held while acquiring ``A``, the acquisition order
    is inverted — the static shape of an ABBA deadlock — and a
    :class:`SanitizerError` is raised *before* blocking on the lock.
    Tracking is by name, so every instance sharing a name shares one
    ordering class (per-instance locks like the dispatcher's pass a
    distinct name when instance order matters).
    """

    __slots__ = ("name", "_lock")

    def __init__(self, name: str, reentrant: bool = False):
        self.name = name
        self._lock = threading.RLock() if reentrant else threading.Lock()

    def _note_acquire(self) -> None:
        stack = _held_stack()
        held = [h for h in stack if h != self.name]
        if self.name not in stack:
            with _EDGE_LOCK:
                for h in held:
                    if _EDGES.get((self.name, h)):
                        raise SanitizerError(
                            f"lock-order inversion: acquiring "
                            f"`{self.name}` while holding `{h}`, but "
                            f"`{h}` was previously acquired while "
                            f"holding `{self.name}`"
                        )
                for h in held:
                    _EDGES[(h, self.name)] = True
        stack.append(self.name)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if sanitize_enabled():
            self._note_acquire()
            try:
                ok = self._lock.acquire(blocking, timeout)
            except BaseException:
                _held_stack().remove(self.name)
                raise
            if not ok:
                _held_stack().remove(self.name)
            return ok
        return self._lock.acquire(blocking, timeout)

    def release(self) -> None:
        if sanitize_enabled():
            stack = _held_stack()
            if self.name in stack:
                # Remove the innermost hold (reentrant locks push one
                # entry per acquire).
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i] == self.name:
                        del stack[i]
                        break
        self._lock.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> Optional[bool]:
        self.release()
        return None
