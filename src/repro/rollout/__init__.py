"""Parallel rollout engine — the Buffer Filling Phase across N workers.

PA-FEAT's speed argument (paper Section III-A) rests on *N parallel rollout
resources* filling the replay buffer concurrently.  This package realises
them as a process pool: the coordinator plans every episode serially
(consuming the trainer's RNG streams exactly as the serial loop would),
ships the plans to worker processes holding replica env/agent pairs with
broadcast read-only weights, and merges the returned trajectories back in
deterministic plan order.  The sync points documented by the PAR601
parallel-safety certificate (ARCHITECTURE §7.2) — the ITS visit counter,
the reward-cache lock, the E-Tree update barrier — are exercised for real
here, each backed by :mod:`repro.analysis.tsan` machinery.

See ARCHITECTURE §10 for the worker topology, RNG sharding scheme and the
determinism contract.
"""

from repro.rollout.engine import (
    ROLLOUT_WORKERS_ENV_VAR,
    ParallelRolloutEngine,
    resolve_worker_count,
)
from repro.rollout.plan import EpisodePlan, EpisodeResult, validate_result

__all__ = [
    "ROLLOUT_WORKERS_ENV_VAR",
    "EpisodePlan",
    "EpisodeResult",
    "ParallelRolloutEngine",
    "resolve_worker_count",
    "validate_result",
]
