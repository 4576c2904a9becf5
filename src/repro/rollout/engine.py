"""The coordinator side: plan → dispatch → validate → merge.

:class:`ParallelRolloutEngine` runs one Buffer Filling Phase per
:meth:`fill` call in four strictly ordered stages:

1. **Plan** (serial): sample a task and an initial state for every episode
   through the trainer's own hooks, consuming the trainer/ITS/ITE RNG
   streams in exactly the serial loop's order.  Each plan gets a global
   episode index that keys its RNG shard.
2. **Dispatch**: broadcast ``(envs, agent, gamma, seed)`` to a fresh
   process pool (weights change every phase, so each phase gets its own
   broadcast) and submit contiguous plan chunks.
3. **Validate**: every returned payload crosses a process boundary and is
   checked against its plan; invalid or missing episodes are re-executed
   locally — bit-identical by the plan-determinism contract.
4. **Merge** (barrier, under ``TrackedLock("rollout.merge")``): commit
   trajectories in plan order — replay buffers, ITE/E-Tree recording,
   reward-cache deltas, then the agent's action counter — so the final
   trainer state is independent of worker count and scheduling.

Failure policy is graceful degradation: any pool-level failure (worker
crash, broken pool, unpicklable payload) flips the engine into degraded
mode, where plans keep being executed locally — training continues, just
serially — and the degradation reason is recorded for telemetry and
checkpoints.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from repro.analysis import tsan
from repro.core.feat import FEATTrainer
from repro.errors import RolloutError
from repro.obs.clock import monotonic
from repro.obs.log import get_logger
from repro.obs.trace import NULL_TRACER, Tracer
from repro.rl.transition import Trajectory
# Module import (not `from repro.rollout import ...`, which would edge back
# through the package __init__ into a cycle).  Kept as a module reference so
# the fault-injection suite can monkeypatch worker functions before fork.
import repro.rollout.worker as worker_mod
from repro.rollout.plan import EpisodePlan, EpisodeResult, validate_result

__all__ = [
    "ROLLOUT_WORKERS_ENV_VAR",
    "ParallelRolloutEngine",
    "resolve_worker_count",
]

_LOG = get_logger("rollout.engine")

ROLLOUT_WORKERS_ENV_VAR = "REPRO_ROLLOUT_WORKERS"


def resolve_worker_count(requested: int | None) -> int:
    """The effective rollout worker count for a training run.

    Explicit argument first, then the ``REPRO_ROLLOUT_WORKERS`` environment
    variable (how the CI parity matrix arms parallel collection without
    touching call sites), else 1 — the serial path.
    """
    if requested is None:
        raw = os.environ.get(ROLLOUT_WORKERS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            requested = int(raw)
        except ValueError:
            raise ValueError(
                f"{ROLLOUT_WORKERS_ENV_VAR}={raw!r} is not an integer"
            ) from None
    if requested < 1:
        raise ValueError(f"rollout workers must be >= 1, got {requested}")
    return requested


class ParallelRolloutEngine:
    """Multi-worker executor for the Buffer Filling Phase.

    Satisfies the trainer's ``EpisodeCollector`` protocol.  With
    ``n_workers < 2`` — or after degradation — every plan is executed
    locally, which produces the same results as the pool by construction
    (plans, not workers, determine episodes).
    """

    def __init__(
        self,
        n_workers: int,
        seed: int,
        mp_context: str | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.seed = int(seed)
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self.mp_context = mp_context
        self.degraded = False
        self.degrade_reason: str | None = None
        self.episodes_planned = 0
        # Transient by design: an engine is closed when its fit() ends, and
        # a restored engine is always a fresh, open one.
        self._closed = False  # repolint: disable=CKPT201
        self._merge_lock = tsan.TrackedLock("rollout.merge")
        #: Observability hook, wired by ``PAFeat.fit`` when telemetry is
        #: on.  ``NULL_TRACER`` keeps the hot path at one attribute check
        #: per phase — the disabled-cost contract ``benchmarks/bench_obs.py``
        #: gates on.
        self.tracer: Tracer = NULL_TRACER
        self.stats: dict[str, float] = {
            "fills": 0,
            "episodes": 0,
            "pool_episodes": 0,
            "fallback_episodes": 0,
            "invalid_results": 0,
            "crashes": 0,
            "plan_seconds": 0.0,
            "execute_seconds": 0.0,
            "merge_seconds": 0.0,
        }

    @property
    def active(self) -> bool:
        """True while the engine still dispatches to a worker pool."""
        return not self._closed and not self.degraded and self.n_workers >= 2

    # ------------------------------------------------------------------
    # The one entry point trainers call
    # ------------------------------------------------------------------
    def fill(
        self, trainer: FEATTrainer, n_episodes: int
    ) -> dict[int, list[Trajectory]]:
        """Run one Buffer Filling Phase of ``n_episodes`` episodes."""
        if self._closed:
            raise RolloutError("fill() called on a closed rollout engine")
        if n_episodes < 1:
            raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
        with self.tracer.span(
            "rollout.fill", episodes=n_episodes, workers=self.n_workers
        ) as fill_span:
            plan_start = monotonic()
            plans = self._plan(trainer, n_episodes)
            execute_start = monotonic()
            results = self._execute(trainer, plans)
            merge_start = monotonic()
            collected = self._merge(trainer, plans, results, fill_span)
            merge_end = monotonic()
        plan_s = execute_start - plan_start
        execute_s = merge_start - execute_start
        merge_s = merge_end - merge_start
        self.stats["fills"] += 1
        self.stats["episodes"] += len(plans)
        self.stats["plan_seconds"] += plan_s
        self.stats["execute_seconds"] += execute_s
        self.stats["merge_seconds"] += merge_s
        # The same three readings feed the engine stats and the stage
        # spans — one clock cost, every observability surface.  Phase
        # fractions are the trainer's: its train.fill phase already spans
        # this whole call.
        if self.tracer.enabled:
            self.tracer.emit("rollout.plan", plan_s, parent=fill_span)
            self.tracer.emit(
                "rollout.execute", execute_s, parent=fill_span,
                pooled=self.active,
            )
            self.tracer.emit("rollout.merge", merge_s, parent=fill_span)
        return collected

    # ------------------------------------------------------------------
    # Stage 1: plan
    # ------------------------------------------------------------------
    def _plan(
        self, trainer: FEATTrainer, n_episodes: int
    ) -> list[EpisodePlan]:
        epsilon_base = trainer.agent.action_count
        trace = self.tracer.enabled
        plans: list[EpisodePlan] = []
        for _ in range(n_episodes):
            task_id, start, random_policy = trainer.plan_episode()
            plans.append(
                EpisodePlan(
                    index=self.episodes_planned,
                    task_id=task_id,
                    start=start,
                    random_policy=random_policy,
                    epsilon_base=epsilon_base,
                    trace=trace,
                )
            )
            self.episodes_planned += 1
        return plans

    # ------------------------------------------------------------------
    # Stages 2+3: dispatch and validate (with local fallback)
    # ------------------------------------------------------------------
    def _run_local(
        self, trainer: FEATTrainer, plan: EpisodePlan
    ) -> EpisodeResult:
        return worker_mod.run_planned_episode(
            trainer.envs,
            trainer.agent,
            trainer.config.agent.gamma,
            plan,
            self.seed,
            trainer.reward_transform,
        )

    def _execute(
        self, trainer: FEATTrainer, plans: list[EpisodePlan]
    ) -> dict[int, EpisodeResult]:
        results: dict[int, EpisodeResult] = {}
        pooled: dict[int, EpisodeResult] = {}
        if self.active:
            pooled = self._execute_pool(trainer, plans)
        for plan in plans:
            result = pooled.get(plan.index)
            if result is not None:
                try:
                    validate_result(
                        plan, result, trainer.envs[plan.task_id].n_features
                    )
                except RolloutError as error:
                    self.stats["invalid_results"] += 1
                    _LOG.warning(
                        "discarding invalid rollout payload for episode "
                        "%d: %s",
                        plan.index,
                        error,
                    )
                else:
                    results[plan.index] = result
                    self.stats["pool_episodes"] += 1
                    continue
            if self.active or self.degraded:
                # Pool was (or should have been) responsible for this plan
                # but produced nothing usable — count the re-execution.
                self.stats["fallback_episodes"] += 1
            results[plan.index] = self._run_local(trainer, plan)
        return results

    def _execute_pool(
        self, trainer: FEATTrainer, plans: list[EpisodePlan]
    ) -> dict[int, EpisodeResult]:
        gathered: dict[int, EpisodeResult] = {}
        try:
            payload = pickle.dumps(
                (
                    trainer.envs,
                    trainer.agent,
                    trainer.config.agent.gamma,
                    self.seed,
                    trainer.reward_transform,
                )
            )
        except Exception as error:  # arbitrary hook callables may not pickle
            _LOG.warning("rollout broadcast payload not picklable: %s", error)
            self._degrade(f"broadcast payload not picklable: {error}")
            return gathered
        chunk_size = max(1, -(-len(plans) // self.n_workers))
        crashed: Exception | None = None
        try:
            context = multiprocessing.get_context(self.mp_context)
            with ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=context,
                initializer=worker_mod._init_worker,
                initargs=(payload,),
            ) as pool:
                futures = [
                    pool.submit(
                        worker_mod._execute_chunk,
                        tuple(plans[offset : offset + chunk_size]),
                    )
                    for offset in range(0, len(plans), chunk_size)
                ]
                for future in futures:
                    try:
                        for result in future.result():
                            gathered[int(result.index)] = result
                    except Exception as error:  # crash surfaces per-future
                        _LOG.warning(
                            "rollout worker chunk failed: %s", error
                        )
                        crashed = error
        except Exception as error:  # pool construction/teardown failure
            _LOG.warning("rollout worker pool failed: %s", error)
            crashed = error
        if crashed is not None:
            self.stats["crashes"] += 1
            self._degrade(f"worker crash mid-phase: {crashed}")
        return gathered

    def _degrade(self, reason: str) -> None:
        """Fall back to serial plan execution for the rest of the run."""
        if not self.degraded:
            self.degraded = True
            self.degrade_reason = reason
            _LOG.warning(
                "rollout engine degraded to serial execution: %s", reason
            )

    # ------------------------------------------------------------------
    # Stage 4: merge barrier
    # ------------------------------------------------------------------
    def _merge(
        self,
        trainer: FEATTrainer,
        plans: list[EpisodePlan],
        results: dict[int, EpisodeResult],
        fill_span: Any = None,
    ) -> dict[int, list[Trajectory]]:
        collected: dict[int, list[Trajectory]] = {}
        # Steps that consulted the learned policy (random-restart episodes
        # consult none) advance the agent's action counter.
        policy_steps = 0
        trace = self.tracer.enabled
        with self._merge_lock:
            tsan.note(trainer, "registry", write=True)
            for plan in plans:
                result = results[plan.index]
                if trace:
                    # Workers measure, the coordinator records: replaying
                    # the shipped durations here — inside the plan-order
                    # loop — merges every worker's episode timings into
                    # one deterministic trace.
                    self.tracer.emit(
                        "rollout.episode",
                        result.elapsed_s,
                        parent=fill_span,
                        episode=plan.index,
                        task=plan.task_id,
                        steps=result.trajectory.length,
                    )
                trainer.commit_episode(
                    plan.task_id, result.trajectory, plan.start
                )
                merge = getattr(
                    trainer.envs[plan.task_id].reward_fn, "merge_cache", None
                )
                if merge is not None and result.reward_entries:
                    merge(result.reward_entries)
                if not plan.random_policy:
                    policy_steps += result.trajectory.length
                collected.setdefault(plan.task_id, []).append(
                    result.trajectory
                )
            # One bulk advance of the epsilon schedule per phase — the
            # shared-counter twin of the per-episode epsilon_base.
            trainer.agent.action_count += policy_steps
        return collected

    # ------------------------------------------------------------------
    # Lifecycle and durable checkpointing
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse further fills.  Pools are per-phase, so nothing to join."""
        self._closed = True

    def capture_state(self) -> dict[str, Any]:
        """JSON-able snapshot; worker RNG shards are derived, not stored.

        Every episode's stream is ``rollout_shard(seed, index)``, so the
        global episode counter *is* the per-worker RNG state — resuming
        from ``episodes_planned`` reproduces exactly the shards an
        uninterrupted run would mint next.
        """
        return {
            "seed": self.seed,
            "n_workers": self.n_workers,
            "episodes_planned": self.episodes_planned,
            "degraded": self.degraded,
            "degrade_reason": self.degrade_reason,
        }

    def restore_state(self, meta: dict[str, Any]) -> None:
        """Restore a snapshot captured by :meth:`capture_state`.

        The worker count is deliberately *not* restored: it is a hardware
        choice, and plan determinism makes results identical across worker
        counts — a run checkpointed at 8 workers resumes bit-identically
        at 2.
        """
        captured_seed = int(meta["seed"])
        if captured_seed != self.seed:
            raise RolloutError(
                f"checkpoint rollout seed {captured_seed} does not match "
                f"engine seed {self.seed}"
            )
        self.episodes_planned = int(meta["episodes_planned"])
        self.degraded = bool(meta.get("degraded", False))
        reason = meta.get("degrade_reason")
        self.degrade_reason = None if reason is None else str(reason)
