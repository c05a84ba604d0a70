"""The optimizer-method registry: paper column names -> optimizers.

Every method — DCGWO and the four baselines — registers itself with the
:func:`register_method` decorator, and everything that needs "a method
by name" (the CLI, :class:`~repro.session.Session`, the benchmark
tables) resolves it through :func:`get_method`.  Adding a sixth method
therefore takes no other edit: decorate the class and it appears in
``--method`` choices, ``compare`` sweeps, and tables.

Two pieces build every method:

* :class:`CommonBudget` — the shared effort-scaling rule.  The paper
  runs every method at one budget class (N=30 / Imax=20 population
  methods, 60 changes / beam 8 greedy methods); ``scaled(effort)``
  shrinks all of it uniformly with the same floors the flow always
  applied, so sweeps stay comparable across methods at any effort.
* :class:`MethodSpec` — one registry row: the optimizer class, its
  config dataclass, and a declarative mapping from budget fields to
  config fields.  ``spec.build(ctx, flow_cfg)`` instantiates the
  optimizer, forwarding ``seed`` and ``jobs`` when the config declares
  them.  The Eq. 8 weight, the depth measure and the evaluation lake
  belong to the context the optimizer is built on, not to its config.

Lookups are case-insensitive and honour aliases ("DCGWO" -> "Ours").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core.fitness import EvalContext
    from .core.protocol import Optimizer


def _scaled(value: int, effort: float, minimum: int) -> int:
    return max(int(round(value * effort)), minimum)


@dataclass(frozen=True)
class CommonBudget:
    """The shared optimization budget all methods scale from.

    Defaults are the paper's §IV-A settings.  ``scaled`` multiplies
    every knob by ``effort`` with the historical floors, so CI smoke
    runs (effort ~0.2) keep relative method behaviour intact.
    """

    population_size: int = 30
    iterations: int = 20  # Imax / GA generations
    max_changes: int = 60  # greedy accepted-move budget
    beam: int = 8  # greedy candidates fully evaluated per round

    def scaled(self, effort: float) -> "CommonBudget":
        """Uniformly effort-scaled copy (floors keep runs meaningful)."""
        return CommonBudget(
            population_size=_scaled(self.population_size, effort, 6),
            iterations=_scaled(self.iterations, effort, 4),
            max_changes=_scaled(self.max_changes, effort, 10),
            beam=_scaled(self.beam, effort, 8),
        )


@dataclass(frozen=True)
class MethodSpec:
    """One registered optimization method.

    Attributes:
        name: canonical (paper column) name.
        cls: the :class:`~repro.core.protocol.Optimizer` subclass.
        config_cls: its hyper-parameter dataclass.
        budget_fields: ``{config_field: CommonBudget field}`` mapping
            applied when building a config from a flow config.
        aliases: alternative lookup names (case-insensitive).
        description: one-line human description (CLI ``methods`` view).
        order: paper column order for stable table layouts.
        budget: the method's unscaled budget (paper defaults).
    """

    name: str
    cls: Type["Optimizer"]
    config_cls: Type[Any]
    budget_fields: Mapping[str, str] = field(default_factory=dict)
    aliases: Tuple[str, ...] = ()
    description: str = ""
    order: int = 100
    budget: CommonBudget = field(default_factory=CommonBudget)

    def make_config(self, flow_cfg: Any) -> Any:
        """Build this method's config from a flow-level config.

        Budget fields are effort-scaled; ``seed`` and ``jobs`` are
        forwarded whenever the config declares them (``jobs`` is how a
        flow-level worker count reaches every method's generation
        evaluation).
        """
        scaled = self.budget.scaled(getattr(flow_cfg, "effort", 1.0))
        kwargs: Dict[str, Any] = {
            cfg_field: getattr(scaled, budget_field)
            for cfg_field, budget_field in self.budget_fields.items()
        }
        declared = {f.name for f in dataclasses.fields(self.config_cls)}
        for common in ("seed", "jobs"):
            if common in declared and hasattr(flow_cfg, common):
                kwargs[common] = getattr(flow_cfg, common)
        return self.config_cls(**kwargs)

    def build(
        self,
        ctx: "EvalContext",
        flow_cfg: Any,
        config: Optional[Any] = None,
    ) -> "Optimizer":
        """Instantiate the optimizer for one run."""
        cfg = config if config is not None else self.make_config(flow_cfg)
        return self.cls(ctx, flow_cfg.error_bound, cfg)


_REGISTRY: Dict[str, MethodSpec] = {}


def _norm(name: str) -> str:
    return name.strip().lower()


def register_method(
    name: str,
    *,
    config_cls: Optional[Type[Any]] = None,
    budget_fields: Optional[Mapping[str, str]] = None,
    aliases: Tuple[str, ...] = (),
    description: str = "",
    order: int = 100,
    budget: Optional[CommonBudget] = None,
) -> Callable[[Type["Optimizer"]], Type["Optimizer"]]:
    """Class decorator registering an optimizer under ``name``.

    ``config_cls`` defaults to the class's own ``config_cls`` attribute.
    Registering a name (or alias) twice raises ``ValueError`` unless it
    re-registers the same class (idempotent re-imports are fine).
    """

    def decorate(cls: Type["Optimizer"]) -> Type["Optimizer"]:
        cfg_cls = config_cls or getattr(cls, "config_cls", None)
        if cfg_cls is None:
            raise TypeError(
                f"{cls.__name__} has no config_cls; pass config_cls="
            )
        spec = MethodSpec(
            name=name,
            cls=cls,
            config_cls=cfg_cls,
            budget_fields=dict(budget_fields or {}),
            aliases=tuple(aliases),
            description=description,
            order=order,
            budget=budget or CommonBudget(),
        )
        for key in (name, *aliases):
            existing = _REGISTRY.get(_norm(key))
            if existing is not None and existing.cls is not cls:
                raise ValueError(
                    f"method name {key!r} already registered to "
                    f"{existing.cls.__name__}"
                )
            _REGISTRY[_norm(key)] = spec
        # The class may brand its results differently from the registry
        # key (DCGWO registers as the paper column "Ours"); only fill
        # method_name in when the class does not declare its own.
        if "method_name" not in cls.__dict__:
            cls.method_name = name
        cls.config_cls = cfg_cls
        return cls

    return decorate


def unregister_method(name: str) -> None:
    """Remove a method (and its aliases) from the registry.

    Exists for plug-in tests and hot-reload embeddings; the built-in
    methods never need it.
    """
    spec = _REGISTRY.pop(_norm(name), None)
    if spec is None:
        raise ValueError(f"unknown method {name!r}")
    for key in (spec.name, *spec.aliases):
        _REGISTRY.pop(_norm(key), None)


def _ensure_builtins() -> None:
    """Import the modules whose import registers the built-in methods."""
    from . import baselines  # noqa: F401
    from .core import dcgwo  # noqa: F401


def get_method(name: str) -> MethodSpec:
    """Resolve a method by canonical name or alias (case-insensitive)."""
    _ensure_builtins()
    spec = _REGISTRY.get(_norm(name))
    if spec is None:
        raise ValueError(
            f"unknown method {name!r}; choose from {method_names()}"
        )
    return spec


def available_methods() -> List[MethodSpec]:
    """All registered methods in paper column order."""
    _ensure_builtins()
    seen: Dict[str, MethodSpec] = {}
    for spec in _REGISTRY.values():
        seen.setdefault(spec.name, spec)
    return sorted(seen.values(), key=lambda s: (s.order, s.name))


def method_names() -> Tuple[str, ...]:
    """Canonical method names in paper column order."""
    return tuple(spec.name for spec in available_methods())
