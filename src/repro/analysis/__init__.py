"""repro.analysis — static analysis and runtime sanitizers for the stack.

Five layers, one goal (trustworthy runs):

- **Lint** (:mod:`~repro.analysis.lint`, :mod:`~repro.analysis.rules`,
  :mod:`~repro.analysis.reporters`) — an AST rule framework with a
  registry, per-rule path allowlists, inline ``# repro: noqa[rule-id]``
  suppressions, and text/JSON/SARIF reporters.  Run it via
  ``python -m repro.cli lint src`` (or ``python -m repro.analysis src``);
  exit code 1 means findings, making it CI-gateable.
- **Dataflow** (:mod:`~repro.analysis.dataflow`) — the interprocedural
  half: a project call graph, escape analysis proving arena scratch never
  outlives its kernel (``dataflow-arena-escape``), and purity analysis
  proving ``predict*``/``evaluate*`` closures never touch global RNG, the
  tape, or module state (``dataflow-impure-predict``).  Run it via
  ``python -m repro.cli lint src --dataflow``.
- **Contracts** (:mod:`~repro.analysis.contracts`) — a symbolic abstract
  interpreter verifying declared ``@shape_contract`` decorators on every
  model forward across geometries and both dtype modes *before* any real
  batch runs.  Run it via ``python -m repro.cli check``.
- **Sanitizer** (:mod:`~repro.analysis.sanitizer`) — a debug-mode engine
  observer that checks every op output and gradient accumulation to catch
  NaN/Inf, dtype drift, and double-broadcast surprises at the op that
  caused them, mirrored into :mod:`repro.obs` anomaly events.  Enable
  with :func:`sanitize` or ``repro.cli run --sanitize``; zero overhead
  when off.
- **Ownership** (:mod:`~repro.analysis.alias`) — the runtime twin of the
  dataflow pass ("ASan for the engine"): generation-stamped arena
  checkouts with poison-on-release, plan-cache write traps, and
  tape-pinning checks.  Enable with :func:`alias_guard`,
  ``sanitize(alias=True)``, or ``repro.cli run --sanitize-alias``.

The contract checker shares the sanitizer's finding vocabulary
(``dtype_drift``, ``broadcast_surprise``) and the lint reporters; the
ownership sanitizer shares the dataflow pass's rule ids
(``alias-*`` at runtime, ``dataflow-*`` statically) — the same defect
reads the same whether caught statically or at runtime.

See ``docs/static-analysis.md`` for the rule catalogue and usage.
"""

from repro.analysis.alias import (
    AliasError,
    AliasFinding,
    AliasSanitizer,
    alias_guard,
)
from repro.analysis.contracts import (
    AbstractTensor,
    Dim,
    SymExpr,
    Violation,
    check_model,
    check_registry,
    shape_contract,
    trace_module,
)
from repro.analysis.lint import (
    Finding,
    FileContext,
    LintConfig,
    default_config,
    lint_paths,
    stale_allowlist_entries,
)
from repro.analysis.dataflow import (
    CallGraph,
    build_call_graph,
    dataflow_paths,
    inference_entry,
)
from repro.analysis.reporters import render_json, render_sarif, render_text, report_as_dict
from repro.analysis.rules import DEFAULT_ALLOWLISTS, Rule, all_rules, register
from repro.analysis.sanitizer import (
    SanitizerFinding,
    TensorSanitizer,
    TensorSanitizerError,
    sanitize,
)

__all__ = [
    "AbstractTensor",
    "AliasError",
    "AliasFinding",
    "AliasSanitizer",
    "CallGraph",
    "DEFAULT_ALLOWLISTS",
    "Dim",
    "FileContext",
    "Finding",
    "LintConfig",
    "Rule",
    "SanitizerFinding",
    "SymExpr",
    "TensorSanitizer",
    "TensorSanitizerError",
    "Violation",
    "alias_guard",
    "all_rules",
    "build_call_graph",
    "check_model",
    "check_registry",
    "dataflow_paths",
    "default_config",
    "inference_entry",
    "lint_paths",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
    "report_as_dict",
    "sanitize",
    "shape_contract",
    "stale_allowlist_entries",
    "trace_module",
]
