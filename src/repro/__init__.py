"""Timing-driven approximate logic synthesis with a double-chase grey
wolf optimizer — a full reproduction of Hu et al., DATE 2025.

Public API tour:

* :mod:`repro.session` — the :class:`Session` facade: run/compare
  methods, stream per-iteration callbacks, checkpoint/resume runs,
  batch-evaluate candidate generations.
* :mod:`repro.registry` — the method registry; third-party optimizers
  plug in with ``@register_method``.
* :mod:`repro.netlist` — gate fan-in adjacency circuits, builder, Verilog I/O.
* :mod:`repro.cells` — the synthetic 28 nm-class standard-cell library.
* :mod:`repro.sta` — static timing analysis (PrimeTime substitute).
* :mod:`repro.sim` — bit-parallel Monte-Carlo simulation and error metrics.
* :mod:`repro.core` — LACs, fitness, Pareto selection, the optimizer
  protocol, and the DCGWO.
* :mod:`repro.baselines` — VECBEE-SASIMI, VaACS, HEDALS, single-chase GWO.
* :mod:`repro.postopt` — dangling-gate deletion + area-constrained resizing.
* :mod:`repro.bench` — the Table I benchmark suite (generated equivalents).
"""

from .cells import Library, default_library, make_tsmc28_like
from .core import (
    DCGWO,
    DCGWOConfig,
    DepthMode,
    EvalContext,
    IterationEvent,
    Optimizer,
    OptimizerState,
    RunCallback,
    ShardDispatcher,
    evaluate,
    evaluate_batch,
    resolve_jobs,
)
from .netlist import Circuit, CircuitBuilder, parse_verilog, write_verilog
from .postopt import post_optimize
from .registry import (
    CommonBudget,
    MethodSpec,
    get_method,
    method_names,
    register_method,
)
from .session import FlowConfig, FlowResult, Session
from .sim import ErrorMode, random_vectors
from .sta import STAEngine

__version__ = "0.2.0"

__all__ = [
    "Library",
    "default_library",
    "make_tsmc28_like",
    "DCGWO",
    "DCGWOConfig",
    "DepthMode",
    "EvalContext",
    "IterationEvent",
    "Optimizer",
    "OptimizerState",
    "RunCallback",
    "evaluate",
    "evaluate_batch",
    "ShardDispatcher",
    "resolve_jobs",
    "FlowConfig",
    "FlowResult",
    "Session",
    "CommonBudget",
    "MethodSpec",
    "get_method",
    "method_names",
    "register_method",
    "Circuit",
    "CircuitBuilder",
    "parse_verilog",
    "write_verilog",
    "post_optimize",
    "ErrorMode",
    "random_vectors",
    "STAEngine",
    "__version__",
]
