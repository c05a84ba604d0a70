"""The ``repro lint`` rule families (R1-R5).

Each rule turns one prose contract from ROADMAP.md into an AST check
(stdlib :mod:`ast`, no third-party dependencies):

R1  Containers obtained from memoized accessors
    (``topological_order``, ``fanouts``, ``timing_index``,
    ``_cached``/``_store``, ...) and published timing rows
    (``TimingReport.*_a``) are returned by reference and must not be
    mutated outside whitelisted fork/copy/publish sites.  Timing rows
    are tuples, so a write raises at run time too; the rule reports it
    before the code runs.  ``ValueStore.rows`` is a tuple as well.
R2  A ``Circuit`` obtained from ``.copy()`` and mutated in the same
    function must declare its edit (``extend_provenance``) or
    explicitly drop the record (``provenance = ...``) there.
R3  The process-wide dispatcher registry (``ctx._dispatcher``) may
    only be touched inside its lock-protected helpers.
R4  Core evaluation paths (``core/``, ``sta/``, ``sim/``) must be
    deterministic: no wall-clock reads, no global-RNG draws, no
    ``id()``-ordered iteration.
R5  ``is_const()`` must not be called inside loops in the evaluation
    paths — constants are the only negative gate IDs, so hot code tests
    ``gid < 0`` (one comparison instead of a call per visit).

Rules are syntactic and intentionally conservative: they track values
through local names within one function, which is exactly the scope the
contracts are written for (a reference that escapes a function is
published, and published objects are read-only).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from .findings import Finding

__all__ = ["ALL_RULES", "EVAL_PATH_PARTS", "run_rules"]

#: Memoized accessors whose return values are shared by reference.
MEMO_ACCESSORS = frozenset(
    {
        "topological_order",
        "fanouts",
        "live_gates",
        "transitive_fanin",
        "transitive_fanout",
        "timing_index",
        "po_bits",
        "value_rows",
        "_cached",
        "_store",
    }
)

#: Attributes holding a report's published timing rows (tuples).
PUBLISHED_ARRAYS = frozenset(
    {
        "arrival_a",
        "slew_a",
        "load_a",
        "unit_depth_a",
        "critical_fanin_a",
    }
)

#: In-place container/ndarray mutators flagged on tracked values.
CONTAINER_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "add",
        "discard",
        "fill",
        "put",
        "resize",
        "partition",
    }
)

#: Circuit mutators that require a provenance declaration on copies.
CIRCUIT_MUTATORS = frozenset(
    {
        "substitute",
        "set_fanins",
        "set_cell",
        "remove_gate",
        "add_gate",
        "add_pi",
        "add_po",
    }
)

#: Guarded attributes -> functions allowed to touch them (R3).
GUARDED_ATTRS: Dict[str, Set[str]] = {
    "_dispatcher": {"get_dispatcher", "close_dispatcher"},
}

#: Path fragments selecting the deterministic evaluation core (R4/R5).
EVAL_PATH_PARTS = ("/core/", "/sta/", "/sim/")

#: ``time`` module attributes that read the wall clock.
_CLOCK_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
    }
)

#: ``random``-module attributes allowed in eval paths (seeded objects).
_RANDOM_OK = frozenset({"Random", "SystemRandom"})

#: ``np.random`` attributes allowed in eval paths (seeded generators).
_NP_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence"})


def _call_name(func: ast.expr) -> Optional[str]:
    """The trailing identifier of a call target, if syntactic."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _Scoped(ast.NodeVisitor):
    """Base visitor tracking the enclosing function for allow scoping."""

    rule = ""

    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []
        self._def_lines: List[int] = [0]
        self._func_names: List[str] = []

    def flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                self.path,
                getattr(node, "lineno", 0),
                self.rule,
                message,
                def_line=self._def_lines[-1],
            )
        )

    def enter_function(self, node: ast.AST) -> None:
        """Hook for per-function state; default keeps none."""

    def exit_function(self, node: ast.AST) -> None:
        """Hook paired with :meth:`enter_function`."""

    def _visit_function(self, node) -> None:
        self._def_lines.append(node.lineno)
        self._func_names.append(node.name)
        self.enter_function(node)
        try:
            self.generic_visit(node)
        finally:
            self.exit_function(node)
            self._func_names.pop()
            self._def_lines.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    @property
    def function_name(self) -> Optional[str]:
        return self._func_names[-1] if self._func_names else None


class R1MemoizedMutation(_Scoped):
    """Mutation of by-reference memoized containers / published rows."""

    rule = "R1"

    def __init__(self, path: str):
        super().__init__(path)
        self._tracked: List[Set[str]] = [set()]

    # -- scope management ----------------------------------------------
    def enter_function(self, node: ast.AST) -> None:
        self._tracked.append(set())

    def exit_function(self, node: ast.AST) -> None:
        self._tracked.pop()

    @property
    def tracked(self) -> Set[str]:
        return self._tracked[-1]

    # -- taint ----------------------------------------------------------
    def _is_tracked(self, expr: ast.expr) -> bool:
        """True when ``expr`` denotes a memoized/published container."""
        if isinstance(expr, ast.Name):
            return expr.id in self.tracked
        if isinstance(expr, ast.Call):
            name = _call_name(expr.func)
            return name in MEMO_ACCESSORS
        if isinstance(expr, ast.Attribute):
            if expr.attr in PUBLISHED_ARRAYS:
                return True
            return self._is_tracked(expr.value)
        if isinstance(expr, ast.Subscript):
            return self._is_tracked(expr.value)
        if isinstance(expr, ast.BoolOp):
            return any(self._is_tracked(v) for v in expr.values)
        if isinstance(expr, ast.IfExp):
            return self._is_tracked(expr.body) or self._is_tracked(
                expr.orelse
            )
        return False

    def _describe(self, expr: ast.expr) -> str:
        try:
            return ast.unparse(expr)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            return "<expression>"

    # -- mutations -------------------------------------------------------
    def _check_store_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            if self._is_tracked(target.value):
                self.flag(
                    target,
                    "write into memoized/published container "
                    f"`{self._describe(target.value)}` (returned by "
                    "reference; fork/copy before writing)",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_store_target(elt)

    def _bind(self, target: ast.expr, tracked_value: bool) -> None:
        if isinstance(target, ast.Name):
            if tracked_value:
                self.tracked.add(target.id)
            else:
                self.tracked.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, False)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        tracked_value = self._is_tracked(node.value)
        for target in node.targets:
            self._check_store_target(target)
            self._bind(target, tracked_value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            self._check_store_target(node.target)
            self._bind(node.target, self._is_tracked(node.value))

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        if isinstance(node.target, ast.Name):
            if node.target.id in self.tracked:
                self.flag(
                    node,
                    f"in-place operator on memoized container "
                    f"`{node.target.id}`",
                )
        else:
            self._check_store_target(node.target)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_store_target(target)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in CONTAINER_MUTATORS
            and self._is_tracked(func.value)
        ):
            self.flag(
                node,
                f"`.{func.attr}()` on memoized/published container "
                f"`{self._describe(func.value)}`",
            )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        # Loop targets hold *elements* of the iterable, not the
        # container itself; rebinding them must drop any stale taint.
        self.visit(node.iter)
        self._bind(node.target, False)
        for stmt in node.body + node.orelse:
            self.visit(stmt)


class R2UndeclaredCopyEdit(_Scoped):
    """Circuit copies mutated without a provenance declaration."""

    rule = "R2"

    def __init__(self, path: str):
        super().__init__(path)
        self._stack: List[Dict[str, object]] = []
        self._push()

    def _push(self) -> None:
        self._stack.append({"copies": set(), "declared": set(), "muts": []})

    def enter_function(self, node: ast.AST) -> None:
        self._push()

    def exit_function(self, node: ast.AST) -> None:
        state = self._stack.pop()
        for name, mut_node, method in state["muts"]:
            if name in state["copies"] and name not in state["declared"]:
                self.findings.append(
                    Finding(
                        self.path,
                        mut_node.lineno,
                        self.rule,
                        f"`{name}.{method}(...)` mutates a `.copy()` "
                        "result but the function never calls "
                        f"`{name}.extend_provenance(...)` (or drops the "
                        "record) — undeclared-edit hazard",
                        def_line=node.lineno,
                    )
                )

    @property
    def _state(self) -> Dict[str, object]:
        return self._stack[-1]

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        is_copy = (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "copy"
            and not value.args
            and not value.keywords
        )
        for target in node.targets:
            if isinstance(target, ast.Name) and is_copy:
                self._state["copies"].add(target.id)
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "provenance"
                and isinstance(target.value, ast.Name)
            ):
                self._state["declared"].add(target.value.id)
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr in ("fanins", "cells")
                and isinstance(target.value.value, ast.Name)
            ):
                self._state["muts"].append(
                    (
                        target.value.value.id,
                        target,
                        f"{target.value.attr}[...] =",
                    )
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            if func.attr in CIRCUIT_MUTATORS:
                self._state["muts"].append((func.value.id, node, func.attr))
            elif func.attr == "extend_provenance":
                self._state["declared"].add(func.value.id)
        self.generic_visit(node)


class R3UnguardedRegistry(_Scoped):
    """Registry attributes touched outside their lock-protected helpers."""

    rule = "R3"

    def visit_Attribute(self, node: ast.Attribute) -> None:
        allowed = GUARDED_ATTRS.get(node.attr)
        if allowed is not None:
            if not any(name in allowed for name in self._func_names):
                self.flag(
                    node,
                    f"guarded attribute `.{node.attr}` touched outside "
                    f"{', '.join(sorted(allowed))} (registry state is "
                    "lock-protected)",
                )
        self.generic_visit(node)


class R4Nondeterminism(_Scoped):
    """Wall clocks, global RNGs and id()-ordering in the eval core."""

    rule = "R4"

    def __init__(self, path: str):
        super().__init__(path)
        self._id_keyed: Set[str] = set()

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            bad = [
                a.name for a in node.names if a.name not in _RANDOM_OK
            ]
            if bad:
                self.flag(
                    node,
                    f"global-RNG import from `random` ({', '.join(bad)}); "
                    "pass a seeded `random.Random` instead",
                )

    @staticmethod
    def _is_id_keyed_dict(expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Dict):
            return False
        for key in expr.keys:
            if key is None:
                continue
            for sub in ast.walk(key):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"
                ):
                    return True
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_id_keyed_dict(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._id_keyed.add(target.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        iter_expr = node.iter
        base = iter_expr
        if (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Attribute)
            and iter_expr.func.attr in ("items", "keys", "values")
        ):
            base = iter_expr.func.value
        if isinstance(base, ast.Name) and base.id in self._id_keyed:
            self.flag(
                node,
                f"iteration over the id()-keyed dict `{base.id}` — "
                "id() order is allocator-dependent",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name):
                if value.id == "time" and func.attr in _CLOCK_ATTRS:
                    self.flag(
                        node,
                        f"wall-clock read `time.{func.attr}()` in an "
                        "evaluation path",
                    )
                elif value.id == "random" and func.attr not in _RANDOM_OK:
                    self.flag(
                        node,
                        f"global-RNG call `random.{func.attr}()`; use the "
                        "run's seeded `random.Random`",
                    )
                elif value.id in ("datetime", "date") and func.attr in (
                    "now",
                    "utcnow",
                    "today",
                ):
                    self.flag(
                        node,
                        f"wall-clock read `{value.id}.{func.attr}()` in "
                        "an evaluation path",
                    )
            elif (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in ("np", "numpy")
                and func.attr not in _NP_RANDOM_OK
            ):
                self.flag(
                    node,
                    f"global numpy RNG call `np.random.{func.attr}()`; "
                    "use a seeded `np.random.default_rng`",
                )
        if isinstance(func, ast.Name) and func.id in (
            "sorted",
            "min",
            "max",
        ):
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                key = kw.value
                uses_id = isinstance(key, ast.Name) and key.id == "id"
                if isinstance(key, ast.Lambda):
                    uses_id = any(
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id == "id"
                        for sub in ast.walk(key.body)
                    )
                if uses_id:
                    self.flag(
                        node,
                        f"`{func.id}(..., key=id)` orders by allocator "
                        "addresses — nondeterministic across runs",
                    )
        self.generic_visit(node)


class R5IsConstInLoop(_Scoped):
    """``is_const()`` in loops where ``gid < 0`` is mandated."""

    rule = "R5"

    def __init__(self, path: str):
        super().__init__(path)
        self._loop_depth = 0

    def _visit_loop(self, node) -> None:
        self._loop_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._loop_depth -= 1

    visit_For = _visit_loop
    visit_While = _visit_loop
    visit_ListComp = _visit_loop
    visit_SetComp = _visit_loop
    visit_DictComp = _visit_loop
    visit_GeneratorExp = _visit_loop

    def visit_Call(self, node: ast.Call) -> None:
        if self._loop_depth > 0 and _call_name(node.func) == "is_const":
            self.flag(
                node,
                "`is_const()` inside a loop — constants are the only "
                "negative gate IDs; test `gid < 0` instead",
            )
        self.generic_visit(node)


#: rule class -> restrict-to-path-fragments (None = every file).
ALL_RULES = (
    (R1MemoizedMutation, None),
    (R2UndeclaredCopyEdit, None),
    (R3UnguardedRegistry, None),
    (R4Nondeterminism, EVAL_PATH_PARTS),
    (R5IsConstInLoop, EVAL_PATH_PARTS),
)


def run_rules(
    path: str, tree: ast.AST, only: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Run every applicable rule over one parsed module."""
    posix = path.replace("\\", "/")
    findings: List[Finding] = []
    for rule_cls, parts in ALL_RULES:
        if only is not None and rule_cls.rule not in only:
            continue
        if parts is not None and not any(p in posix for p in parts):
            continue
        visitor = rule_cls(path)
        visitor.visit(tree)
        findings.extend(visitor.findings)
    return findings
