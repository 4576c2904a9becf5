"""Worker-process side of the parallel rollout engine.

Each pool worker is initialised once per Buffer Filling Phase with a
broadcast payload — replica environments, a read-only copy of the agent's
network weights, the discount factor and the run seed — and then executes
chunks of :class:`~repro.rollout.plan.EpisodePlan`.  Each plan runs the
trainer's own episode loop, :func:`repro.core.feat.rollout_episode`, with
an action chooser that makes it plan-determined rather than
trainer-state-determined:

* randomness comes from the episode's own shard
  (:func:`repro.rl.seeding.rollout_shard` keyed on the plan's global
  index), never from the trainer's or agent's streams, and
* the epsilon schedule advances from the plan's ``epsilon_base`` locally
  within the episode, never from the shared agent counter.

The replica agent is only ever *read*: ``DuelingDQNAgent.choose_action``
is the decision behind ``act`` with the RNG and action counter passed in,
so running an episode mutates no agent state.  This is also why the
engine can re-execute any plan locally against the live trainer objects
and obtain bit-identical results.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.env import FeatureSelectionEnv
from repro.core.feat import RewardTransform, rollout_episode, uniform_actions
from repro.errors import WorkerCrashError
from repro.obs.clock import monotonic
from repro.rl.agent import DuelingDQNAgent
from repro.rl.seeding import rollout_shard
from repro.rollout.plan import EpisodePlan, EpisodeResult

__all__ = ["run_planned_episode"]


@dataclass
class WorkerContext:
    """The broadcast payload as held by one worker process."""

    envs: dict[int, FeatureSelectionEnv]
    agent: DuelingDQNAgent
    gamma: float
    seed: int
    reward_transform: RewardTransform | None


# Per-process slot for the broadcast payload.  Worker processes are
# single-threaded plan executors, so this is process-local state, not
# shared mutable state: each pool worker owns its own interpreter and the
# coordinator never reads it.  PAR602's "no module-level mutation" contract
# is waived for this file: a process-pool initializer has nowhere but the
# module to stash per-process state, and the state is per-worker by
# construction — exactly the sharding PAR602 exists to guarantee.
# repolint: disable-file=PAR602
_CONTEXT: WorkerContext | None = None


def _init_worker(payload: bytes) -> None:
    """Pool initializer: install the broadcast payload in this process."""
    global _CONTEXT
    envs, agent, gamma, seed, reward_transform = pickle.loads(payload)
    _CONTEXT = WorkerContext(
        envs=dict(envs),
        agent=agent,
        gamma=float(gamma),
        seed=int(seed),
        reward_transform=reward_transform,
    )


def run_planned_episode(
    envs: Mapping[int, FeatureSelectionEnv],
    agent: DuelingDQNAgent,
    gamma: float,
    plan: EpisodePlan,
    seed: int,
    reward_transform: RewardTransform | None = None,
) -> EpisodeResult:
    """Execute one planned episode; pure in everything but the env replica.

    Runs ``rollout_episode`` under the plan's own RNG shard and epsilon
    base.  The environment is reset to the planned start state, so any
    prior episode's residue in the replica is irrelevant.
    """
    env = envs[plan.task_id]
    # Tracing wall-times the episode through the obs clock; the reading
    # rides back on the result for the coordinator's trace merge and is
    # the only observable difference a traced plan makes.
    started_at = monotonic() if plan.trace else 0.0
    rng = np.random.default_rng(rollout_shard(seed, plan.index))
    if plan.random_policy:
        choose = uniform_actions(rng)
    else:
        action_counts = itertools.count(plan.epsilon_base + 1)

        def choose(state: np.ndarray) -> int:
            return agent.choose_action(state, rng, next(action_counts))

    trajectory = rollout_episode(
        env, plan.start, choose, reward_transform, gamma
    )
    drain = getattr(env.reward_fn, "drain_fresh_entries", None)
    reward_entries = tuple(drain()) if drain is not None else ()
    return EpisodeResult(
        index=plan.index,
        task_id=plan.task_id,
        trajectory=trajectory,
        reward_entries=reward_entries,
        elapsed_s=(monotonic() - started_at) if plan.trace else 0.0,
    )


def _execute_chunk(plans: tuple[EpisodePlan, ...]) -> list[EpisodeResult]:
    """Run a contiguous chunk of plans against this worker's replicas."""
    context = _CONTEXT
    if context is None:
        raise WorkerCrashError("rollout worker used before initialisation")
    return [
        run_planned_episode(
            context.envs,
            context.agent,
            context.gamma,
            plan,
            context.seed,
            context.reward_transform,
        )
        for plan in plans
    ]
