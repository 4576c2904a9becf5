"""PAR6xx: machine-checked parallel-safety certificate for the rollout path.

PA-FEAT's Algorithm 1 allots N rollout resources per iteration; to turn
them into real workers, everything reachable from the rollout entry points
must either leave shared state alone or be an explicitly sanctioned sync
point (``[tool.repolint.parallel.sync-points]``) that the worker pool will
serialize.  PAR601 walks the call graph from each entry point, tracking
whether execution still operates on shared objects: calling a method on an
object the caller constructed itself drops to non-shared context, where
mutating ``self`` is harmless.  Mutations of parameters, globals, class
attributes or captured closures are hazards in any context.  An entry point
or sync point that names no function in the program is reported too, so a
sanction cannot outlive the code it sanctioned.

PAR602 is reachability-independent: module-level state is process-global,
so writing it from *any* function breaks worker isolation (and, today,
reproducibility across call orders).
"""

from __future__ import annotations

from typing import Iterator

from tools.repolint.effects import EffectLevel, EffectReason
from tools.repolint.engine import Finding, ProgramContext, ProgramRule


def _hazard_summary(reasons: tuple[EffectReason, ...]) -> str:
    shown = [f"{reason.detail} (line {reason.line})" for reason in reasons[:3]]
    more = len(reasons) - len(shown)
    text = "; ".join(shown)
    if more > 0:
        text += f"; +{more} more"
    return text


class RolloutSharedStateRule(ProgramRule):
    """PAR601: unsanctioned shared-state mutation reachable from rollouts."""

    code = "PAR601"
    name = "rollout-shared-mutation"
    hint = (
        "make the function operate on caller-owned objects, or add it to "
        "[tool.repolint.parallel.sync-points] with a rationale in "
        "docs/ARCHITECTURE.md"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        config = program.config
        index = program.call_graph.index
        for name in sorted(config.sync_points - index.functions.keys()):
            yield self.config_finding(
                program,
                name,
                f"sync point '{name}' does not exist in the program; remove "
                "it from [tool.repolint.parallel.sync-points]",
            )
        if not config.entry_points:
            return
        effects = program.effects
        edges: dict[str, list[tuple[str, bool]]] = {}
        for edge in program.call_graph.edges:
            edges.setdefault(edge.caller, []).append(
                (edge.callee, edge.receiver_owned)
            )

        from tools.repolint.effects import reachable_from

        flagged: set[str] = set()
        for entry in config.entry_points:
            if entry not in index.functions:
                yield self.config_finding(
                    program,
                    entry,
                    f"rollout entry point '{entry}' does not exist in the "
                    "program; update [tool.repolint.parallel.entry-points]",
                )
                continue
            for qualname, shared in reachable_from(edges, entry):
                if qualname in flagged or qualname in config.sync_points:
                    continue
                effect = effects.get(qualname)
                if effect is None:
                    continue
                hazards = list(effect.shared_hazards)
                if shared and effect.level >= EffectLevel.MUTATES_SELF:
                    hazards.extend(effect.context_hazards)
                if not hazards:
                    continue
                flagged.add(qualname)
                function = index.functions[qualname]
                yield self.program_finding(
                    program,
                    function.module,
                    function.node.lineno,
                    f"'{qualname}' is reachable from rollout entry point "
                    f"'{entry}' and mutates shared state: "
                    f"{_hazard_summary(tuple(hazards))}",
                )


class ModuleStateMutationRule(ProgramRule):
    """PAR602: function mutates module-level state."""

    code = "PAR602"
    name = "module-state-mutation"
    hint = (
        "move the state onto an instance that callers construct and own; "
        "process-global state cannot be sharded across workers"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        for qualname, effect in sorted(program.effects.items()):
            globals_written = [
                reason
                for reason in effect.reasons
                if reason.kind in ("global-write", "class-write")
            ]
            if not globals_written:
                continue
            function = program.call_graph.index.functions[qualname]
            for reason in globals_written:
                yield self.program_finding(
                    program,
                    function.module,
                    reason.line,
                    f"'{qualname}' mutates module-level state: {reason.detail}",
                )
