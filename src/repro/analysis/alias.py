"""Runtime ownership sanitizer — "ASan for the engine".

The inference fast path shares mutable state by design: the
:class:`~repro.tensor.arena.BufferArena` recycles scratch buffers across
kernel calls, and the :class:`~repro.tensor.cache.PlanCache` hands the
*same* mask/table arrays to every attention and decomposition call.
Nothing in the type system stops a kernel from holding an arena buffer
past its release, or an op from scribbling over a cached plan — and one
silent aliasing bug corrupts the forecast of every later call sharing
the slot.  This module makes those contracts checkable at runtime:

- **use-after-release** — every arena checkout is stamped with a
  per-slot generation; releasing a slot (kernel end, outermost
  ``inference_mode()`` exit, ``clear()``) poison-fills the buffer and
  registers it, so the next time a stale handle flows through the engine
  (op input or output) the finding names the op and the arena tag.  Even
  reads that bypass the engine go loud: the poison is NaN, which the
  numeric sanitizer and downstream metrics cannot miss.
- **plan write-trap** — every array in a cached plan is already frozen
  read-only at insertion; the guard additionally fingerprints it
  (CRC-32 over the raw bytes) and re-verifies on every cache access and
  once more when the guard exits, so a write that re-armed the flag or
  went through a writeable base is still caught and attributed to its
  cache key.
- **tape pinning** — an arena buffer captured as a parent of a *taped*
  op would be read again by ``backward()`` long after the slot was
  recycled; the guard flags the capture at the op that did it.

Install with :func:`alias_guard` (or ``sanitize(alias=True)``, or
``repro.cli run --sanitize-alias``).  The guard is an engine observer
(:class:`repro.tensor.tensor.Observer`) and composes with any numeric
sanitizer or profiler installed alongside it.  When no observer is
installed the arena/cache/engine each pay one emptiness test; the hot
path stays allocation- and branch-free.

Findings carry lint-style rule ids (``alias-use-after-release``,
``alias-plan-write``, ``alias-arena-taped``) and are mirrored into
:mod:`repro.obs` as ``anomaly`` events (kind ``alias_*``) with producer
attribution, exactly like the numeric sanitizer's.
"""

from __future__ import annotations

import contextlib
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.tensor import tensor as _engine
from repro.tensor.cache import iter_plan_arrays

#: rule ids, in the lint Finding vocabulary (docs/static-analysis.md)
RULE_USE_AFTER_RELEASE = "alias-use-after-release"
RULE_PLAN_WRITE = "alias-plan-write"
RULE_ARENA_TAPED = "alias-arena-taped"

#: debug fill written into released float buffers — any read that dodges
#: the identity check still surfaces as a NaN in the numeric sanitizer
POISON = np.nan


@dataclass(frozen=True)
class AliasFinding:
    """One ownership/aliasing defect caught at runtime."""

    rule_id: str
    op: str
    message: str
    detail: Dict = field(default_factory=dict)
    stack: Tuple[str, ...] = ()

    def render(self) -> str:
        return f"[{self.rule_id}] op={self.op}: {self.message}"


class AliasError(RuntimeError):
    """Raised at the first finding when the guard runs in strict mode."""

    def __init__(self, finding: AliasFinding) -> None:
        stack = "".join(finding.stack)
        super().__init__(f"{finding.render()}\nuse site (most recent call last):\n{stack}")
        self.finding = finding


class AliasSanitizer(_engine.Observer):
    """Tracks arena checkouts and plan-cache fingerprints, reporting misuse.

    Observes op outputs and gradients (stale or tape-pinned arena
    buffers), arena checkouts and releases, and plan-cache traffic.

    Parameters
    ----------
    logger:
        A :class:`repro.obs.RunLogger`; every finding is mirrored as an
        ``anomaly`` event (kind ``alias_<rule>``).
    raise_on_error:
        Strict mode — raise :class:`AliasError` at the first finding
        (default).  When False, findings accumulate up to ``max_findings``.
    poison:
        Fill released float buffers with NaN (default).  Disable only for
        tests that inspect released contents.
    """

    def __init__(
        self,
        logger=None,
        raise_on_error: bool = True,
        poison: bool = True,
        max_findings: int = 100,
        stack_limit: int = 12,
    ) -> None:
        self.logger = logger
        self.raise_on_error = raise_on_error
        self.poison = poison
        self.max_findings = max_findings
        self.stack_limit = stack_limit
        self.findings: List[AliasFinding] = []
        #: per-slot checkout generation (monotonic per arena key)
        self._generations: Dict[tuple, int] = {}
        #: id(buffer) -> (key, generation) for live checkouts
        self._live: Dict[int, Tuple[tuple, int]] = {}
        #: id(buffer) -> (key, generation, buffer) for released checkouts;
        #: the strong reference pins the id so it cannot be recycled
        self._released: Dict[int, Tuple[tuple, int, np.ndarray]] = {}
        #: plan key -> tuple of (id, crc, nbytes) fingerprints
        self._plans: Dict = {}
        self.checked_ops = 0

    # ------------------------------------------------------------------
    # arena events
    # ------------------------------------------------------------------
    def on_arena_checkout(self, key: tuple, buf: np.ndarray) -> None:
        generation = self._generations.get(key, 0) + 1
        self._generations[key] = generation
        self._released.pop(id(buf), None)
        self._live[id(buf)] = (key, generation)

    def on_arena_release(self, key: tuple, buf: np.ndarray) -> None:
        entry = self._live.pop(id(buf), None)
        generation = entry[1] if entry is not None else self._generations.get(key, 0)
        self._released[id(buf)] = (key, generation, buf)
        if self.poison and buf.dtype.kind == "f":
            buf.fill(POISON)

    # ------------------------------------------------------------------
    # plan-cache events
    # ------------------------------------------------------------------
    @staticmethod
    def _fingerprint(value) -> Tuple[Tuple[int, int, bool], ...]:
        return tuple(
            (zlib.crc32(array.tobytes()), array.nbytes, bool(array.flags.writeable))
            for array in iter_plan_arrays(value)
        )

    def on_plan_insert(self, key, value) -> None:
        self._plans[key] = (value, self._fingerprint(value))

    def on_plan_evict(self, key, value) -> None:
        self._plans.pop(key, None)

    def on_plan_access(self, key, value) -> None:
        tracked = self._plans.get(key)
        if tracked is None:
            # inserted before the guard was installed: adopt it now
            self._plans[key] = (value, self._fingerprint(value))
            return
        self._verify_plan(key, tracked, when="on access")

    def verify_plans(self) -> None:
        """Final sweep: re-fingerprint every tracked plan (guard exit)."""
        for key, tracked in list(self._plans.items()):
            self._verify_plan(key, tracked, when="at guard exit")

    def _verify_plan(self, key, tracked, when: str) -> None:
        value, expected = tracked
        actual = self._fingerprint(value)
        if actual == expected:
            return
        for index, (old, new) in enumerate(zip(expected, actual)):
            if old[:2] != new[:2]:
                self._record(
                    RULE_PLAN_WRITE,
                    "plan_cache",
                    f"cached plan {key!r} (array #{index}) was mutated in place "
                    f"— detected {when}; every consumer of this key now reads "
                    "corrupt data",
                    {"plan_key": repr(key), "array_index": index,
                     "writeable": new[2]},
                )
            elif old[2] != new[2]:
                self._record(
                    RULE_PLAN_WRITE,
                    "plan_cache",
                    f"cached plan {key!r} (array #{index}) had its read-only "
                    f"flag re-armed (writeable={new[2]}) — detected {when}",
                    {"plan_key": repr(key), "array_index": index,
                     "writeable": new[2]},
                )
        # re-baseline so collect mode reports each mutation once
        self._plans[key] = (value, actual)

    # ------------------------------------------------------------------
    # op and gradient events
    # ------------------------------------------------------------------
    def on_op(self, op: str, data: np.ndarray, parents: Tuple, out) -> None:
        self.checked_ops += 1
        taped = out.requires_grad
        self._check_array(op, data, role="output", taped=taped)
        for parent in parents:
            self._check_array(op, parent.data, role="input", taped=taped)

    def on_grad(self, op: str, grad: np.ndarray, producer: Optional[str]) -> None:
        self._check_array(op, grad, role="gradient", taped=False)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _arena_entry(self, array: np.ndarray):
        """(kind, key, generation) when ``array`` is (a view of) a tracked
        arena buffer, walking the ``.base`` chain; None otherwise."""
        seen = 0
        node = array
        while node is not None and seen < 8:
            ident = id(node)
            live = self._live.get(ident)
            if live is not None:
                return ("live", *live)
            released = self._released.get(ident)
            if released is not None:
                return ("released", released[0], released[1])
            node = node.base if isinstance(node, np.ndarray) else None
            seen += 1
        return None

    def _check_array(self, op: str, array, role: str, taped: bool) -> None:
        if not isinstance(array, np.ndarray):
            return
        entry = self._arena_entry(array)
        if entry is None:
            return
        state, key, generation = entry
        tag = key[0]
        if state == "released":
            self._record(
                RULE_USE_AFTER_RELEASE, op,
                f"{role} of '{op}' is arena buffer '{tag}' (generation "
                f"{generation}) used after its release — the slot may "
                "already belong to another caller",
                {"arena_tag": tag, "generation": generation, "role": role,
                 "shape": list(array.shape)},
            )
        elif taped:
            self._record(
                RULE_ARENA_TAPED, op,
                f"{role} of taped op '{op}' is live arena buffer '{tag}': "
                "backward() would read it after the slot is recycled — "
                "arena scratch must never enter the tape",
                {"arena_tag": tag, "generation": generation, "role": role,
                 "shape": list(array.shape)},
            )

    def _capture_stack(self) -> Tuple[str, ...]:
        frames = traceback.format_stack(limit=self.stack_limit + 2)[:-2]
        return tuple(frames)

    def _record(self, rule_id: str, op: str, message: str, detail: Dict) -> None:
        if len(self.findings) >= self.max_findings:
            return
        finding = AliasFinding(rule_id, op, message, detail, self._capture_stack())
        self.findings.append(finding)
        if self.logger is not None:
            self.logger.anomaly(
                f"alias_{rule_id.replace('alias-', '').replace('-', '_')}",
                op=op,
                message=message,
                rule_id=rule_id,
                stack="".join(finding.stack[-4:]),
                **detail,
            )
        if self.raise_on_error:
            raise AliasError(finding)

    def summary(self) -> str:
        if not self.findings:
            return (
                f"alias sanitizer: clean ({self.checked_ops} ops, "
                f"{len(self._plans)} cached plans verified)"
            )
        lines = [
            f"alias sanitizer: {len(self.findings)} finding(s) over "
            f"{self.checked_ops} ops"
        ]
        lines.extend(f"  {f.render()}" for f in self.findings)
        return "\n".join(lines)


@contextlib.contextmanager
def alias_guard(logger=None, raise_on_error: bool = True, **kwargs):
    """Install an :class:`AliasSanitizer` for the duration of the block.

    The guard observes every arena and plan cache and every engine op
    while installed.  A final plan-cache fingerprint sweep runs on clean
    exit, so a mutation after the last cache access is still reported::

        with alias_guard() as guard:
            model.predict_with_uncertainty(...)   # raises AliasError on misuse
        assert not guard.findings
    """
    guard = AliasSanitizer(logger=logger, raise_on_error=raise_on_error, **kwargs)
    with _engine.observe(guard):
        yield guard
    guard.verify_plans()
