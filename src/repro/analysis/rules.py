"""The domain rule catalogue.

Each rule is a tiny AST visitor over one :class:`~repro.analysis.lint.FileContext`
that yields :class:`~repro.analysis.lint.Finding` objects.  Rules register
themselves in a module-level registry; ``repro.cli lint --list-rules``
renders it, and tests assert the catalogue stays in sync with the docs.

The rules encode this repo's correctness invariants:

``no-print``
    Library code must route output through :mod:`repro.obs` sinks, never
    stdout.  Only the user-facing entry points may print.
``no-data-write``
    Writing ``Tensor.data`` / ``Tensor.grad`` in-place silently detaches
    gradients; only the engine (``tensor/``) and the optimizers
    (``optim/``) may do it.
``no-global-rng``
    Sampling from numpy's *global* RNG breaks the seeded "average of 5
    runs" reproducibility contract — use :mod:`repro.tensor.random`.
``no-swallowed-exception``
    ``except: pass`` hides the exact failures the sanitizer exists to
    surface.
``no-mutable-default``
    The classic shared-state footgun.
``no-wallclock``
    Wall-clock reads inside the numeric core (``core/``, ``nn/``,
    ``tensor/``) make forward/backward passes nondeterministic;
    monotonic timers for profiling hooks are fine.
``no-float64-literal``
    Hard-coded ``np.float64`` in ``nn/``/``core/``/``baselines/`` pins
    arrays to double precision and silently defeats the float32 inference
    fast path — take the dtype from the input or
    :func:`repro.tensor.get_default_dtype`.
``inference-mode-required``
    Predict/evaluate/sample paths must use
    :func:`repro.tensor.inference_mode`, not bare ``no_grad``: the kernels
    are the same, but only ``inference_mode`` is an ownership boundary
    whose outermost exit ends every arena checkout.
``noqa-unused``
    A ``# repro: noqa`` comment whose rule no longer fires on that line
    is a silent blind spot waiting for the next regression; the lint
    driver flags it (full runs only — see ``analysis/lint.py``).
``dataflow-arena-escape``
    An arena scratch buffer that outlives its kernel (returned, stored on
    ``self``, wrapped in an escaping ``Tensor``) reads recycled memory on
    the next checkout.  Interprocedural — implemented by
    :mod:`repro.analysis.dataflow`, run via ``lint --dataflow``.
``dataflow-impure-predict``
    A ``predict*``/``evaluate*`` entry point that transitively reaches a
    global-RNG draw, a ``backward()`` tape walk, or a module-state write
    is not inference-pure; concurrent serving requests would corrupt each
    other.  Interprocedural — implemented by
    :mod:`repro.analysis.dataflow`, run via ``lint --dataflow``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.analysis.lint import FileContext, Finding

#: Package-relative path prefixes each rule skips by default (overridable
#: via ``[tool.repro.lint.allowlists]`` in pyproject.toml).
DEFAULT_ALLOWLISTS: Mapping[str, Tuple[str, ...]] = {
    # user-facing entry points whose job *is* writing to stdout
    "no-print": ("cli.py", "perf/__main__.py", "__main__.py", "analysis/__main__.py"),
    # the autodiff engine and the optimizers mutate tensors by design;
    # checkpoint raw-buffer writes are confined to the atomic writer
    "no-data-write": ("optim/", "tensor/", "ckpt/atomic.py"),
    # the op profiler reads time.time() once per session to anchor its
    # monotonic timeline to calendar time for Chrome-trace export; it
    # never feeds the clock into numerics
    "no-wallclock": ("tensor/profiler.py",),
    # telemetry counters (obs/) and the sanitizers' own bookkeeping
    # (analysis/) mutate state on inference paths by design — metrics and
    # debug instrumentation are outside the purity contract
    "dataflow-impure-predict": ("obs/", "analysis/"),
}

_REGISTRY: Dict[str, "Rule"] = {}


def register(cls):
    """Class decorator adding one rule instance to the registry."""
    rule = cls()
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id: {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> Dict[str, "Rule"]:
    """Registered rules, keyed by id (copy — callers may filter freely)."""
    return dict(_REGISTRY)


class Rule:
    """One lint check.  Subclasses set ``id``/``description`` and yield
    findings from :meth:`check`; ``scope`` (path prefixes) restricts where
    the rule applies at all (e.g. determinism rules only guard the numeric
    core)."""

    id: str = ""
    description: str = ""
    scope: Optional[Tuple[str, ...]] = None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(str(ctx.path), node.lineno, node.col_offset, self.id, message)


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
@register
class NoPrint(Rule):
    id = "no-print"
    description = "bare print() in library code — route output through repro.obs sinks"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(ctx, node, "print() bypasses the telemetry layer; use repro.obs")


@register
class NoDataWrite(Rule):
    id = "no-data-write"
    description = "write to Tensor.data/.grad outside the engine/optimizer allowlist"

    _ATTRS = frozenset({"data", "grad"})

    def _written_attr(self, target: ast.expr) -> Optional[ast.Attribute]:
        """The ``.data``/``.grad`` attribute a target writes, if any."""
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr in self._ATTRS:
            return target
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                attr = self._written_attr(target)
                if attr is not None:
                    yield self.finding(
                        ctx, node,
                        f"in-place write to .{attr.attr} detaches gradients; "
                        "only optim/ and the tensor engine may mutate tensors",
                    )


@register
class NoGlobalRNG(Rule):
    id = "no-global-rng"
    description = "np.random.* global-state call — use repro.tensor.random seeded generators"

    # constructors/types are fine; sampling or seeding the global state is not
    _ALLOWED = frozenset(
        {"Generator", "BitGenerator", "SeedSequence", "default_rng", "PCG64", "Philox", "MT19937"}
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            base = func.value
            if (
                isinstance(base, ast.Attribute)
                and base.attr == "random"
                and isinstance(base.value, ast.Name)
                and base.value.id in ("np", "numpy")
                and func.attr not in self._ALLOWED
            ):
                yield self.finding(
                    ctx, node,
                    f"np.random.{func.attr}() draws from unseeded global state; "
                    "use repro.tensor.random.default_rng()/spawn_rng()",
                )


@register
class NoSwallowedException(Rule):
    id = "no-swallowed-exception"
    description = "bare except, or except Exception with a pass-only body"

    _BROAD = frozenset({"Exception", "BaseException"})

    @staticmethod
    def _body_is_noop(body) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and stmt.value.value is Ellipsis)
            for stmt in body
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(ctx, node, "bare except: catches SystemExit/KeyboardInterrupt too; name the exception")
            elif (
                isinstance(node.type, ast.Name)
                and node.type.id in self._BROAD
                and self._body_is_noop(node.body)
            ):
                yield self.finding(
                    ctx, node,
                    f"except {node.type.id}: pass swallows failures silently; handle or re-raise",
                )


@register
class NoMutableDefault(Rule):
    id = "no-mutable-default"
    description = "mutable default argument (list/dict/set literal or constructor)"

    _CTORS = frozenset({"list", "dict", "set"})

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._CTORS
            and not node.args
            and not node.keywords
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx, default,
                        f"mutable default in {node.name}() is shared across calls; default to None",
                    )


@register
class NoWallclock(Rule):
    id = "no-wallclock"
    description = "wall-clock read inside the numeric core (core/, nn/, tensor/)"
    scope = ("core/", "nn/", "tensor/")

    _TIME_FNS = frozenset({"time", "time_ns", "localtime"})
    _DATETIME_FNS = frozenset({"now", "utcnow", "today"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # names bound by `from time import time, ...`
        local_time_fns = {
            alias.asname or alias.name
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ImportFrom) and node.module == "time"
            for alias in node.names
            if alias.name in self._TIME_FNS
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in local_time_fns:
                yield self.finding(ctx, node, f"{func.id}() reads the wall clock; numeric code must be deterministic")
            elif isinstance(func, ast.Attribute):
                base = func.value
                if func.attr in self._TIME_FNS and isinstance(base, ast.Name) and base.id == "time":
                    yield self.finding(
                        ctx, node, f"time.{func.attr}() reads the wall clock; numeric code must be deterministic"
                    )
                elif func.attr in self._DATETIME_FNS and (
                    (isinstance(base, ast.Name) and base.id in ("datetime", "date"))
                    or (isinstance(base, ast.Attribute) and base.attr in ("datetime", "date"))
                ):
                    yield self.finding(
                        ctx, node, f"datetime.{func.attr}() reads the wall clock; numeric code must be deterministic"
                    )


@register
class NoFloat64Literal(Rule):
    id = "no-float64-literal"
    description = "hard-coded np.float64 in nn//core//baselines/ — defeats the float32 compute mode"
    scope = ("nn/", "core/", "baselines/")

    @staticmethod
    def _is_np_float64(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "float64"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                if self._is_np_float64(node.func):
                    yield self.finding(
                        ctx, node,
                        "np.float64(...) forces double precision; derive the dtype from "
                        "the input or repro.tensor.get_default_dtype()",
                    )
                    continue
                for kw in node.keywords:
                    if kw.arg == "dtype" and self._is_np_float64(kw.value):
                        yield self.finding(
                            ctx, kw.value,
                            "dtype=np.float64 pins this array to double precision; derive the "
                            "dtype from the input or repro.tensor.get_default_dtype()",
                        )


@register
class InferenceModeRequired(Rule):
    id = "inference-mode-required"
    description = "bare no_grad() in a predict/evaluate path — use inference_mode()"

    #: function-name prefixes that mark a forward-only serving/eval path
    _FN_PREFIXES = ("predict", "evaluate", "infer", "sample", "forecast")

    @staticmethod
    def _is_no_grad_call(expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        func = expr.func
        if isinstance(func, ast.Name):
            return func.id == "no_grad"
        return isinstance(func, ast.Attribute) and func.attr == "no_grad"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.lstrip("_").startswith(self._FN_PREFIXES):
                continue
            for sub in ast.walk(node):
                if not isinstance(sub, (ast.With, ast.AsyncWith)):
                    continue
                for item in sub.items:
                    if self._is_no_grad_call(item.context_expr):
                        yield self.finding(
                            ctx, item.context_expr,
                            f"{node.name}() is a forward-only path: no_grad() is no arena "
                            "ownership boundary; use repro.tensor.inference_mode()",
                        )


@register
class NoqaUnused(Rule):
    id = "noqa-unused"
    description = "suppression comment whose rule no longer fires on that line"

    #: evaluated by the lint driver after all other rules ran on a file —
    #: only it knows which findings each suppression comment absorbed.
    engine_level = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())


@register
class DataflowArenaEscape(Rule):
    id = "dataflow-arena-escape"
    description = "arena buffer outlives its kernel (interprocedural; lint --dataflow)"

    #: implemented by repro.analysis.dataflow (needs the whole-tree call
    #: graph, not one file); registered here so --list-rules documents it
    #: and noqa[dataflow-arena-escape] comments aren't flagged unknown.
    engine_level = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())


@register
class DataflowImpurePredict(Rule):
    id = "dataflow-impure-predict"
    description = "predict/evaluate path reaches RNG, backward(), or state writes (lint --dataflow)"

    #: implemented by repro.analysis.dataflow — see DataflowArenaEscape.
    engine_level = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())
