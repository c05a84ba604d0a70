"""Wire protocol of the optimization service.

One small, dependency-free contract shared by the server, the client
and the load generator:

* **Job specs** travel as JSON objects (:class:`JobSpec`): what to
  optimize (an inline structural-Verilog netlist or a Table I benchmark
  name), with which method(s), under which flow knobs.  Validation
  errors raise :class:`SpecError`, which the server maps to HTTP 400.
* **Events** travel as JSON objects with a ``type`` field, streamed
  either as NDJSON (one object per line — the default) or as
  Server-Sent Events (``Accept: text/event-stream``), so ``curl`` and
  browsers both work without a client library.

Event vocabulary (everything a :class:`~repro.core.protocol.RunCallback`
emits, plus job lifecycle):

``state``      job transitioned (queued/running/paused/done/...)
``run_start``  an optimizer run (or resumed continuation) began
``iteration``  one optimizer iteration's convergence stats
``run_end``    the optimizer loop returned (completed or paused)
``retry``      a transient failure; the job requeued from checkpoint
``result``     a finished flow's Tables II/III metrics + final netlist
``error``      the job failed; ``message`` carries the reason
``end``        terminal marker; the event stream closes after it

Numbers cross the wire through ``json`` (repr-exact for Python floats),
so streamed stats are **bit-identical** to what an in-process callback
would have observed — pinned by ``tests/test_serve.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..bench import SUITE, build_benchmark
from ..netlist import Circuit, parse_verilog
from ..registry import get_method, method_names
from ..session import FlowConfig
from ..sim import ErrorMode


class SpecError(ValueError):
    """A malformed job spec (server answers HTTP 400 with the text)."""


#: Spec fields copied verbatim (with type coercion) from the payload.
_FLOW_FIELDS: Tuple[Tuple[str, Any], ...] = (
    ("bound", float),
    ("vectors", int),
    ("effort", float),
    ("seed", int),
    ("jobs", int),
    ("max_retries", int),
)


@dataclass
class JobSpec:
    """One optimize/compare request, as submitted over the wire.

    Exactly one of ``netlist`` (inline structural Verilog) or ``bench``
    (a Table I benchmark name) names the accurate circuit.  ``jobs`` is
    the per-job shard-worker count (0: the server's default, then
    ``REPRO_JOBS``); every other field mirrors :class:`FlowConfig`.
    ``max_retries`` caps how often a *transient* failure (a crashed
    worker pool, an I/O error) requeues the job from its checkpoint
    before it is marked failed; ``deadline_s`` is a per-job wall-clock
    budget (``None``: the server's default, which may be no deadline).
    """

    kind: str = "optimize"  # "optimize" | "compare"
    netlist: Optional[str] = None
    bench: Optional[str] = None
    method: str = "Ours"
    methods: Optional[List[str]] = None  # compare only; None = all
    mode: str = "er"
    bound: float = 0.05
    vectors: int = 2048
    effort: float = 1.0
    seed: int = 0
    area_con: Optional[float] = None
    jobs: int = 0
    max_retries: int = 2
    deadline_s: Optional[float] = None
    #: Echoed back in snapshots; free-form client annotation.
    tag: Optional[str] = None

    @classmethod
    def from_payload(cls, payload: Any) -> "JobSpec":
        """Validate and build a spec from a decoded JSON object."""
        if not isinstance(payload, dict):
            raise SpecError("job spec must be a JSON object")
        spec = cls()
        kind = payload.get("kind", "optimize")
        if kind not in ("optimize", "compare"):
            raise SpecError(f"unknown job kind {kind!r}")
        spec.kind = kind
        netlist = payload.get("netlist")
        bench = payload.get("bench")
        if (netlist is None) == (bench is None):
            raise SpecError(
                "exactly one of 'netlist' (Verilog text) or 'bench' "
                "(a benchmark name) is required"
            )
        if bench is not None and bench not in SUITE:
            raise SpecError(
                f"unknown benchmark {bench!r}; one of {sorted(SUITE)}"
            )
        spec.netlist = netlist
        spec.bench = bench
        mode = payload.get("mode", "er")
        if mode not in ("er", "nmed"):
            raise SpecError(f"mode must be 'er' or 'nmed', not {mode!r}")
        spec.mode = mode
        for name, cast in _FLOW_FIELDS:
            if name in payload:
                try:
                    setattr(spec, name, cast(payload[name]))
                except (TypeError, ValueError):
                    raise SpecError(
                        f"field {name!r} must be a {cast.__name__}"
                    ) from None
        for name in ("area_con", "deadline_s"):
            if payload.get(name) is not None:
                try:
                    setattr(spec, name, float(payload[name]))
                except (TypeError, ValueError):
                    raise SpecError(
                        f"field {name!r} must be a float"
                    ) from None
        if spec.max_retries < 0:
            raise SpecError("'max_retries' must be >= 0")
        if spec.jobs < 0:
            raise SpecError("'jobs' must be >= 0")
        spec.tag = payload.get("tag")
        spec.method = str(payload.get("method", "Ours"))
        raw_methods = payload.get("methods")
        if raw_methods is not None:
            if not isinstance(raw_methods, list) or not raw_methods:
                raise SpecError("'methods' must be a non-empty list")
            spec.methods = [str(m) for m in raw_methods]
        for name in spec.method_list():
            try:
                get_method(name)
            except Exception:
                raise SpecError(
                    f"unknown method {name!r}; "
                    f"one of {list(method_names())}"
                ) from None
        try:
            spec.flow_config()
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        return spec

    def to_payload(self) -> Dict[str, Any]:
        """The JSON-safe dict form (what clients POST)."""
        out: Dict[str, Any] = {"kind": self.kind, "mode": self.mode}
        if self.netlist is not None:
            out["netlist"] = self.netlist
        if self.bench is not None:
            out["bench"] = self.bench
        if self.kind == "compare":
            if self.methods is not None:
                out["methods"] = list(self.methods)
        else:
            out["method"] = self.method
        out.update(
            bound=self.bound,
            vectors=self.vectors,
            effort=self.effort,
            seed=self.seed,
            jobs=self.jobs,
            max_retries=self.max_retries,
        )
        if self.area_con is not None:
            out["area_con"] = self.area_con
        if self.deadline_s is not None:
            out["deadline_s"] = self.deadline_s
        if self.tag is not None:
            out["tag"] = self.tag
        return out

    # ------------------------------------------------------------------
    def method_list(self) -> List[str]:
        """Methods this job runs, in execution order."""
        if self.kind == "compare":
            return list(self.methods or method_names())
        return [self.method]

    def flow_config(self) -> FlowConfig:
        return FlowConfig(
            error_mode=(
                ErrorMode.ER if self.mode == "er" else ErrorMode.NMED
            ),
            error_bound=self.bound,
            num_vectors=self.vectors,
            effort=self.effort,
            seed=self.seed,
            area_con=self.area_con,
        )

    def build_circuit(self) -> Circuit:
        """Parse/build the accurate reference circuit of this job."""
        if self.bench is not None:
            return build_benchmark(self.bench)
        try:
            return parse_verilog(self.netlist or "")
        except Exception as exc:
            raise SpecError(f"netlist did not parse: {exc}") from exc

    def summary(self) -> Dict[str, Any]:
        """Spec echo for job snapshots (netlist elided to its size)."""
        out = self.to_payload()
        if "netlist" in out:
            out["netlist"] = f"<{len(self.netlist or '')} chars>"
        return out


# ----------------------------------------------------------------------
# event framing
# ----------------------------------------------------------------------
def encode_ndjson(event: Dict[str, Any]) -> bytes:
    """One event, NDJSON-framed (one JSON object per line)."""
    return (json.dumps(event, separators=(",", ":")) + "\n").encode()


def encode_sse(event: Dict[str, Any]) -> bytes:
    """One event, Server-Sent-Events-framed (``data:`` + blank line)."""
    payload = json.dumps(event, separators=(",", ":"))
    name = event.get("type", "message")
    return f"event: {name}\ndata: {payload}\n\n".encode()
