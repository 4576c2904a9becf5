"""Episode plans and results — the rollout engine's wire format.

The coordinator *plans* the whole Buffer Filling Phase before any worker
runs: task sampling (ITS or uniform) and initial-state customisation (ITE)
execute serially on the coordinator, consuming the trainer's RNG streams in
exactly the order the serial loop would.  A plan pins down everything that
determines its episode — the task, the start state, the policy mode, the
epsilon base and (via the global episode index) the RNG shard from
:func:`repro.rl.seeding.rollout_shard` — so an episode's outcome is a pure
function of ``(plan, broadcast weights)``.  That purity is the engine's
determinism contract: results are identical for any worker count, any
scheduling order, and for local re-execution after a worker crash.

Results cross a process boundary, so they are validated before anything is
merged into trainer state (:func:`validate_result`): a poisoned or
truncated payload is discarded and its plan re-executed locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.state import EnvState
from repro.errors import RolloutError
from repro.rl.transition import Trajectory

__all__ = ["EpisodePlan", "EpisodeResult", "validate_result"]

#: Reward-cache delta type: ``((subset_key, score), ...)``.
RewardEntries = tuple[tuple[tuple[int, ...], float], ...]


@dataclass(frozen=True)
class EpisodePlan:
    """Everything that determines one planned rollout episode.

    ``index`` counts planned episodes globally across the run and keys the
    episode's RNG shard.  ``epsilon_base`` is the agent's action counter at
    the start of the phase: every episode in a phase explores from the same
    broadcast epsilon, advancing it locally per step — the natural
    semantics of N resources sampling simultaneously from one snapshot.
    """

    index: int
    task_id: int
    start: EnvState
    random_policy: bool
    epsilon_base: int
    #: When True the executor wall-times the episode (through the obs
    #: clock) and reports it in :attr:`EpisodeResult.elapsed_s` so the
    #: coordinator can merge per-worker timings into one trace in plan
    #: order.  Purely observational: it never changes the episode.
    trace: bool = False

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"plan index must be >= 0, got {self.index}")
        if self.epsilon_base < 0:
            raise ValueError(
                f"epsilon_base must be >= 0, got {self.epsilon_base}"
            )


@dataclass
class EpisodeResult:
    """One finished episode as returned by a worker (or local execution).

    ``reward_entries`` is the worker-side reward-cache delta drained at the
    episode boundary, merged into the coordinator's cache so no subset is
    scored twice.
    """

    index: int
    task_id: int
    trajectory: Trajectory
    reward_entries: RewardEntries = field(default=())
    #: Wall seconds the episode took on its executor (0.0 unless the plan
    #: requested tracing).  Observational only — the merge barrier feeds
    #: it to the coordinator's tracer, never into trainer state.
    elapsed_s: float = 0.0


def validate_result(
    plan: EpisodePlan, result: EpisodeResult, n_features: int
) -> None:
    """Reject a result that cannot have come from faithfully running ``plan``.

    Results cross a process boundary; this is the trust boundary check the
    fault-injection suite drives with poisoned payloads.  Raises
    :class:`~repro.errors.RolloutError` on the first inconsistency; the
    engine responds by re-executing the plan locally.
    """
    if result.index != plan.index or result.task_id != plan.task_id:
        raise RolloutError(
            f"result identity mismatch: plan (index={plan.index}, "
            f"task={plan.task_id}) vs result (index={result.index}, "
            f"task={result.task_id})"
        )
    trajectory = result.trajectory
    if not isinstance(trajectory, Trajectory):
        raise RolloutError(
            f"episode {plan.index}: payload is {type(trajectory).__name__}, "
            "not a Trajectory"
        )
    if trajectory.task_id != plan.task_id:
        raise RolloutError(
            f"episode {plan.index}: trajectory is for task "
            f"{trajectory.task_id}, planned task {plan.task_id}"
        )
    max_steps = max(0, n_features - plan.start.position)
    if trajectory.length > max_steps:
        raise RolloutError(
            f"episode {plan.index}: {trajectory.length} steps from position "
            f"{plan.start.position} exceeds the {max_steps}-step horizon"
        )
    for position, transition in enumerate(trajectory.transitions):
        # The env may end an episode early (feature budget), but only the
        # final transition may be terminal — a done flag anywhere else, or
        # a non-terminal tail, means the payload was truncated or spliced.
        if bool(transition.done) != (position == trajectory.length - 1):
            raise RolloutError(
                f"episode {plan.index} step {position}: done="
                f"{bool(transition.done)} breaks the terminal-tail shape"
            )
        if transition.action not in (0, 1):
            raise RolloutError(
                f"episode {plan.index} step {position}: invalid action "
                f"{transition.action!r}"
            )
        for name, value in (
            ("state", transition.state),
            ("next_state", transition.next_state),
        ):
            array = np.asarray(value, dtype=np.float64)
            if not np.all(np.isfinite(array)):
                raise RolloutError(
                    f"episode {plan.index} step {position}: non-finite "
                    f"{name}"
                )
        scalars = (transition.reward, transition.return_to_go)
        if not all(v is not None and np.isfinite(v) for v in scalars):
            raise RolloutError(
                f"episode {plan.index} step {position}: non-finite reward "
                "or return-to-go"
            )
    if not np.isfinite(trajectory.final_reward):
        raise RolloutError(
            f"episode {plan.index}: non-finite final reward"
        )
    for feature in trajectory.selected_features:
        if not 0 <= int(feature) < n_features:
            raise RolloutError(
                f"episode {plan.index}: selected feature {feature} out of "
                f"range for {n_features} features"
            )
    if not (np.isfinite(result.elapsed_s) and result.elapsed_s >= 0.0):
        raise RolloutError(
            f"episode {plan.index}: invalid elapsed_s {result.elapsed_s!r}"
        )
    for key, score in result.reward_entries:
        if not all(0 <= int(i) < n_features for i in key):
            raise RolloutError(
                f"episode {plan.index}: reward-cache key {key} out of range"
            )
        if not (np.isfinite(score) and 0.0 <= float(score) <= 1.0):
            raise RolloutError(
                f"episode {plan.index}: reward-cache score {score!r} "
                "outside [0, 1]"
            )
