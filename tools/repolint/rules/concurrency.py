"""ASYNC9xx: concurrency-safety certificate for the async serve stack.

The serving layer mixes an asyncio event loop (request handlers, the
micro-batcher's flush task and watchdog) with executor threads (model
reloads) and lock-guarded registry state.  The bugs this family targets
are the ones the chaos suite can only catch probabilistically:

* **ASYNC901** — a call that parks the thread (``time.sleep``, sync file
  or socket I/O, ``Future.result()``) is reachable from an event-loop
  coroutine.  One such call stalls *every* in-flight request.  Startup
  paths may be sanctioned via ``[tool.repolint.concurrency]
  allow-blocking`` — the whole call subtree under each entry is exempt;
  an entry naming no function is reported as stale.
* **ASYNC902** — shared mutable attribute written from one execution
  context (loop / thread / executor) and touched from another with no
  common lock (classic lockset intersection).  ``Class.attr`` keys in
  ``sync-points`` document intentionally unlocked state.
* **ASYNC903** — ``await`` inside a critical section guarded by a
  *synchronous* lock: every other coroutine needing that lock is blocked
  across the suspension, and re-entry can deadlock.
* **ASYNC904** — read-before-await / write-after-await TOCTOU: a
  coroutine reads ``self.X``, suspends, then writes ``self.X`` while
  another method of the same class also writes it — the value checked is
  not the value acted on.  Function qualnames in ``sync-points`` document
  interleavings that are safe by design; a sync point naming neither a
  function nor a ``Class.attr`` key is reported as stale.
* **ASYNC905** — a task or thread is spawned and its handle dropped:
  nothing can await/join it, exceptions vanish, shutdown leaks it.
"""

from __future__ import annotations

from typing import Iterator

from tools.repolint.engine import Finding, ProgramContext, ProgramRule
from tools.repolint.graphs.concurrency import AttrAccess, ConcurrencyIndex


def _in_scope(program: ProgramContext, qualname: str) -> bool:
    """True when the qualname falls under the configured concurrency
    packages (or no packages are configured)."""
    packages = program.config.concurrency_packages
    if not packages:
        return True
    return any(
        qualname == package or qualname.startswith(package + ".")
        for package in packages
    )


class BlockingInLoopRule(ProgramRule):
    """ASYNC901: blocking call reachable from an event-loop coroutine."""

    code = "ASYNC901"
    name = "blocking-call-on-event-loop"
    hint = (
        "offload with await loop.run_in_executor(...), or sanction the "
        "startup path via [tool.repolint.concurrency] allow-blocking with "
        "a rationale in docs/ARCHITECTURE.md"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        concurrency: ConcurrencyIndex = program.concurrency
        index = program.call_graph.index
        stale = program.config.allow_blocking - index.functions.keys()
        for name in sorted(stale):
            yield self.config_finding(
                program,
                name,
                f"allow-blocking entry '{name}' does not exist in the "
                "program; remove it from [tool.repolint.concurrency] "
                "allow-blocking",
            )
        for qualname in sorted(concurrency.loop_root):
            info = concurrency.functions[qualname]
            if not info.blocking:
                continue
            root = concurrency.loop_root[qualname]
            function = index.functions[qualname]
            for op in info.blocking:
                yield self.program_finding(
                    program,
                    function.module,
                    op.line,
                    f"'{qualname}' blocks the event loop with {op.detail} "
                    f"and is reachable from coroutine '{root}'",
                )


class UnlockedSharedStateRule(ProgramRule):
    """ASYNC902: cross-context attribute access with empty lockset."""

    code = "ASYNC902"
    name = "unlocked-cross-context-state"
    hint = (
        "guard every access with one common lock, publish immutable "
        "snapshots atomically, or document the key under "
        "[tool.repolint.concurrency] sync-points"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        concurrency: ConcurrencyIndex = program.concurrency
        index = program.call_graph.index
        for (cls, attr), accesses in sorted(concurrency.shared_state.items()):
            if not _in_scope(program, cls):
                continue
            if f"{cls}.{attr}" in program.config.concurrency_sync_points:
                continue
            contextful = [
                access
                for access in accesses
                if concurrency.contexts.get(access.function)
            ]
            if not contextful:
                continue
            seen_contexts: set[str] = set()
            for access in contextful:
                seen_contexts.update(concurrency.contexts[access.function])
            writes = [access for access in contextful if access.write]
            if len(seen_contexts) < 2 or not writes:
                continue
            common = set(contextful[0].locks)
            for access in contextful[1:]:
                common.intersection_update(access.locks)
            if common:
                continue
            witness = self._witness(contextful)
            function = index.functions[witness.function]
            others = sorted(
                {
                    f"{access.function} "
                    f"[{'/'.join(sorted(concurrency.contexts[access.function]))}]"
                    for access in contextful
                    if access.function != witness.function
                }
            )
            yield self.program_finding(
                program,
                function.module,
                witness.line,
                f"'{cls.rsplit('.', 1)[-1]}.{attr}' is written without a "
                f"common lock across execution contexts "
                f"({'/'.join(sorted(seen_contexts))}); accessed here by "
                f"'{witness.function}' and by {', '.join(others[:3])}",
            )

    @staticmethod
    def _witness(accesses: list[AttrAccess]) -> AttrAccess:
        """Prefer an unlocked write as the anchor, then any write."""
        for access in accesses:
            if access.write and not access.locks:
                return access
        for access in accesses:
            if access.write:
                return access
        return accesses[0]


class AwaitUnderLockRule(ProgramRule):
    """ASYNC903: await inside a synchronous-lock critical section."""

    code = "ASYNC903"
    name = "await-under-sync-lock"
    hint = (
        "shrink the critical section so awaits happen outside it, or "
        "switch to asyncio.Lock if the region must span a suspension"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        concurrency: ConcurrencyIndex = program.concurrency
        index = program.call_graph.index
        for qualname in sorted(concurrency.functions):
            info = concurrency.functions[qualname]
            function = index.functions[qualname]
            for region in info.lock_regions:
                if region.kind != "sync" or not region.await_lines:
                    continue
                yield self.program_finding(
                    program,
                    function.module,
                    region.await_lines[0],
                    f"'{qualname}' awaits while holding sync lock "
                    f"'{region.lock}' (acquired line {region.line}); the "
                    "loop thread would block every waiter across the "
                    "suspension",
                )


class ToctouAcrossAwaitRule(ProgramRule):
    """ASYNC904: read-before-await / write-after-await on contended self state."""

    code = "ASYNC904"
    name = "toctou-across-await"
    hint = (
        "re-read the attribute after the await (or capture one immutable "
        "snapshot up front); interleavings that are safe by design go in "
        "[tool.repolint.concurrency] sync-points"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        concurrency: ConcurrencyIndex = program.concurrency
        index = program.call_graph.index
        for name in sorted(program.config.concurrency_sync_points):
            # A sync point names a function (ASYNC904) or a ``Class.attr``
            # state key (ASYNC902); one naming neither is stale.
            if name in index.functions:
                continue
            if name.rpartition(".")[0] in index.classes:
                continue
            yield self.config_finding(
                program,
                name,
                f"sync point '{name}' names no function or class attribute "
                "in the program; remove it from [tool.repolint.concurrency] "
                "sync-points",
            )
        writers = self._writers_by_state(concurrency)
        for qualname in sorted(concurrency.functions):
            info = concurrency.functions[qualname]
            if not info.is_async or not info.await_lines:
                continue
            if not _in_scope(program, qualname):
                continue
            if qualname in program.config.concurrency_sync_points:
                continue
            function = index.functions[qualname]
            own_class = function.cls
            if own_class is None:
                continue
            for attr, read_line, write_line in self._split_accesses(info, own_class):
                other_writers = writers.get((own_class, attr), set()) - {
                    qualname,
                    f"{own_class}.__init__",
                }
                if not other_writers:
                    continue
                yield self.program_finding(
                    program,
                    function.module,
                    write_line,
                    f"'{qualname}' reads self.{attr} (line {read_line}) "
                    f"before an await and writes it after (line "
                    f"{write_line}); '{sorted(other_writers)[0]}' can "
                    "interleave at the suspension",
                )

    @staticmethod
    def _writers_by_state(
        concurrency: ConcurrencyIndex,
    ) -> dict[tuple[str, str], set[str]]:
        writers: dict[tuple[str, str], set[str]] = {}
        for (cls, attr), accesses in concurrency.shared_state.items():
            for access in accesses:
                if access.write:
                    writers.setdefault((cls, attr), set()).add(access.function)
        return writers

    @staticmethod
    def _split_accesses(
        info, own_class: str
    ) -> Iterator[tuple[str, int, int]]:
        """(attr, read-line, write-line) pairs straddling an await —
        one report per attribute, anchored at the earliest pair."""
        reported: set[str] = set()
        for read in info.accesses:
            if read.write or read.cls != own_class or read.attr in reported:
                continue
            for write in info.accesses:
                if not write.write or write.cls != own_class:
                    continue
                if write.attr != read.attr or write.line <= read.line:
                    continue
                if any(
                    read.line < line <= write.line for line in info.await_lines
                ):
                    reported.add(read.attr)
                    yield (read.attr, read.line, write.line)
                    break


class OrphanSpawnRule(ProgramRule):
    """ASYNC905: task/thread spawned with its handle discarded."""

    code = "ASYNC905"
    name = "orphaned-task-or-thread"
    hint = (
        "keep the handle (self._task = ..., await it on shutdown) or join "
        "the thread; orphaned work swallows exceptions and leaks on exit"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        concurrency: ConcurrencyIndex = program.concurrency
        index = program.call_graph.index
        for qualname in sorted(concurrency.functions):
            info = concurrency.functions[qualname]
            function = index.functions[qualname]
            for spawn in info.spawns:
                if spawn.retained:
                    continue
                what = {
                    "task": "task",
                    "thread": "thread",
                    "executor": "executor job",
                }[spawn.kind]
                target = f" running '{spawn.targets[0]}'" if spawn.targets else ""
                yield self.program_finding(
                    program,
                    function.module,
                    spawn.line,
                    f"'{qualname}' spawns a {what}{target} and discards the "
                    "handle; it can never be awaited or joined",
                )
