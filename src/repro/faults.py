"""Deterministic fault injection for the self-healing execution layer.

Every recovery path in this codebase — worker respawn in the shard
dispatcher, retry-from-checkpoint in the serve daemon, miss-and-
recompute in the evaluation lake — is validated by *injecting* the
failure it heals, on a schedule that is a pure function of the spec
string and its seed.  The same ``REPRO_FAULTS`` value always kills the
same dispatch, hangs the same worker and corrupts the same record, so
a chaos run that fails is a chaos run someone can replay.

Spec grammar (the ``REPRO_FAULTS`` environment variable)::

    spec    := clause (";" clause)*
    clause  := "seed=" INT
             | site ["@" scope] "=" trigger ("," trigger)*
    trigger := INT            fire on that 1-based hit of the site
             | INT "-" INT    fire on every hit in the inclusive range
             | "p" FLOAT      fire each hit with that probability
             | "*"            fire on every hit

Sites are dotted names; each caller documents its own.  The ones wired
up in this repo:

``worker.kill``    shard worker SIGKILLs itself on receipt (scope:
                   worker index)
``worker.hang``    shard worker sleeps past the reply deadline (scope:
                   worker index)
``worker.poison``  shard worker answers with an injected error reply
                   (scope: worker index)
``lake.corrupt``   one byte of the first lake record a write-through
                   published is flipped (scope: unused)
``serve.crash``    a served job raises after streaming an iteration
                   (scope: the job's tag, falling back to its id)

A scope-qualified clause (``worker.kill@0=1``) matches only that scope;
an unqualified clause matches every scope, with hits counted **per
scope** so concurrent jobs or workers cannot steal each other's
trigger positions.  Probabilistic triggers draw from a
``random.Random`` seeded by ``(seed, site, scope)``, so they are
deterministic per scope regardless of thread or process interleaving.

Examples::

    REPRO_FAULTS="worker.kill=2"                 every worker dies on
                                                 its 2nd dispatch
    REPRO_FAULTS="seed=7;worker.kill=p0.2;worker.hang=p0.05"
    REPRO_FAULTS="serve.crash@victim=4;lake.corrupt=1-3"

The module-level accessors (:func:`should_inject`, :func:`fire_counts`)
are what production code calls; when ``REPRO_FAULTS`` is unset and no
schedule was installed they cost one attribute read and return falsy —
the harness is free when disarmed.
"""

from __future__ import annotations

import os
import random
import threading
import zlib
from typing import Any, Dict, List, Optional, Tuple


class FaultSpecError(ValueError):
    """A malformed ``REPRO_FAULTS`` spec string."""


class TransientError(RuntimeError):
    """Marker base: failures that recovery layers may safely retry."""


class InjectedFault(TransientError):
    """An error deliberately raised by a fault-injection site."""


def is_transient(exc: BaseException) -> bool:
    """Would retrying plausibly help?  The serve retry gate.

    Transient: injected faults, pool-level crashes
    (:class:`TransientError` subclasses) and I/O-shaped failures
    (broken pipes, resets, timeouts).  Everything else — a poisoned
    library, a spec bug, an assertion — is deterministic and retrying
    it only burns a slot.
    """
    return isinstance(
        exc,
        (TransientError, ConnectionError, EOFError, TimeoutError, OSError),
    )


class _Rule:
    """One site's triggers: explicit hits, ranges, probability, or all."""

    __slots__ = ("hits", "ranges", "prob", "always")

    def __init__(self) -> None:
        self.hits: set = set()
        self.ranges: List[Tuple[int, int]] = []
        self.prob: float = 0.0
        self.always = False

    def add_trigger(self, text: str) -> None:
        if text == "*":
            self.always = True
            return
        if text.startswith("p"):
            try:
                prob = float(text[1:])
            except ValueError:
                raise FaultSpecError(
                    f"bad probability trigger {text!r}"
                ) from None
            if not 0.0 <= prob <= 1.0:
                raise FaultSpecError(f"probability {text!r} not in [0, 1]")
            self.prob = max(self.prob, prob)
            return
        if "-" in text:
            lo_s, _, hi_s = text.partition("-")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise FaultSpecError(f"bad range trigger {text!r}") from None
            if lo < 1 or hi < lo:
                raise FaultSpecError(f"bad range trigger {text!r}")
            self.ranges.append((lo, hi))
            return
        try:
            hit = int(text)
        except ValueError:
            raise FaultSpecError(f"bad trigger {text!r}") from None
        if hit < 1:
            raise FaultSpecError("hit triggers are 1-based")
        self.hits.add(hit)

    def fires_at(self, hit: int, rng: Optional[random.Random]) -> bool:
        if self.always or hit in self.hits:
            return True
        for lo, hi in self.ranges:
            if lo <= hit <= hi:
                return True
        if self.prob > 0.0 and rng is not None:
            return rng.random() < self.prob
        return False


class FaultSchedule:
    """A parsed, seeded fault spec with per-``(site, scope)`` counters.

    Thread-safe: the serve daemon's worker threads and a dispatcher
    share one schedule.  ``check`` counts a hit whether or not a rule
    matches, so hit positions are stable properties of the call sites,
    not of the spec.
    """

    def __init__(self, spec: str = "", seed: int = 0):
        self.spec = spec
        self.seed = seed
        self._rules: Dict[str, _Rule] = {}
        self._hits: Dict[Tuple[str, str], int] = {}
        self._fired: Dict[Tuple[str, str], int] = {}
        self._rngs: Dict[Tuple[str, str], random.Random] = {}
        self._lock = threading.Lock()
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            name, sep, triggers = clause.partition("=")
            name = name.strip()
            if not sep or not name:
                raise FaultSpecError(f"clause {clause!r} is not site=trigger")
            if name == "seed":
                try:
                    self.seed = int(triggers)
                except ValueError:
                    raise FaultSpecError(
                        f"seed must be an integer, not {triggers!r}"
                    ) from None
                continue
            rule = self._rules.setdefault(name, _Rule())
            for trig in triggers.split(","):
                rule.add_trigger(trig.strip())

    # ------------------------------------------------------------------
    def _rule_for(self, site: str, scope: str) -> Optional[_Rule]:
        if scope:
            qualified = self._rules.get(f"{site}@{scope}")
            if qualified is not None:
                return qualified
        return self._rules.get(site)

    def _rng_for(self, site: str, scope: str) -> random.Random:
        key = (site, scope)
        rng = self._rngs.get(key)
        if rng is None:
            digest = zlib.crc32(f"{site}@{scope}".encode())
            rng = random.Random(self.seed * 0x9E3779B1 + digest)
            self._rngs[key] = rng
        return rng

    def check(self, site: str, scope: str = "") -> bool:
        """Count one hit of ``site`` in ``scope``; True when it fires."""
        with self._lock:
            key = (site, scope)
            hit = self._hits.get(key, 0) + 1
            self._hits[key] = hit
            rule = self._rule_for(site, scope)
            if rule is None:
                return False
            rng = (
                self._rng_for(site, scope) if rule.prob > 0.0 else None
            )
            if not rule.fires_at(hit, rng):
                return False
            self._fired[key] = self._fired.get(key, 0) + 1
            return True

    def fired(self) -> Dict[str, int]:
        """``site@scope`` → times it fired (scope elided when empty)."""
        with self._lock:
            return {
                (f"{site}@{scope}" if scope else site): n
                for (site, scope), n in sorted(self._fired.items())
            }


# ----------------------------------------------------------------------
# the process-wide schedule (lazy REPRO_FAULTS, overridable in tests)
# ----------------------------------------------------------------------
_UNSET: Any = object()
_active: Any = _UNSET
_ACTIVE_LOCK = threading.Lock()


def get_schedule() -> Optional[FaultSchedule]:
    """The installed schedule, else one parsed from ``REPRO_FAULTS``."""
    global _active
    if _active is _UNSET:
        with _ACTIVE_LOCK:
            if _active is _UNSET:
                spec = os.environ.get("REPRO_FAULTS", "").strip()
                _active = FaultSchedule(spec) if spec else None
    return _active


def install(schedule: Optional[FaultSchedule]) -> None:
    """Replace the process-wide schedule (tests; ``None`` disarms)."""
    global _active
    with _ACTIVE_LOCK:
        _active = schedule


def reset() -> None:
    """Forget any installed schedule; re-read ``REPRO_FAULTS`` lazily."""
    global _active
    with _ACTIVE_LOCK:
        _active = _UNSET


def should_inject(site: str, scope: str = "") -> bool:
    """Does the active schedule fire ``site`` on this hit?  (Counts it.)"""
    schedule = get_schedule()
    if schedule is None:
        return False
    return schedule.check(site, scope)


def fire_counts() -> Dict[str, int]:
    """Fired-site counters of the active schedule (empty when disarmed)."""
    schedule = get_schedule()
    return schedule.fired() if schedule is not None else {}


def corrupt_file(path: str, offset: int = 0) -> None:
    """Flip one byte of ``path`` at ``offset`` — simulated bit rot.

    Used by the ``lake.corrupt`` site (and tests) to damage a published
    lake record the way a bad disk would: silently, mid-payload,
    without truncating the file.
    """
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([(byte[0] if byte else 0) ^ 0xFF]))
