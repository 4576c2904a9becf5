"""Parallel rollout engine: determinism, sync points, planning, lifecycle.

The load-bearing contracts of ARCHITECTURE §10:

* **Serial untouched** — ``rollout_workers=1`` (or unset) never builds an
  engine, so the serial Buffer Filling Phase is bit-exact with previous
  releases (property-tested across seeds).
* **Worker-count independence** — results are determined by *plans*, not
  workers: a parallel fit is bit-identical for any worker count >= 2.
* **Sync points are real** — the reward-cache LRU lock, its drain/merge
  delta protocol, and the ITS visit counter all behave as the PAR601
  certificate claims.
* **One episode loop** — a worker episode is the trainer's
  ``rollout_episode`` under the plan's RNG shard and epsilon base.

Pool-crash behaviour lives in ``test_rollout_faults.py`` (``-m fault``).
"""

from __future__ import annotations

import copy
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ITSConfig
from repro.core.feat import rollout_episode, uniform_actions
from repro.core.its import InterTaskScheduler
from repro.core.pafeat import PAFeat
from repro.core.state import EnvState
from repro.errors import RolloutError
from repro.rl.reward import RewardFunction
from repro.rl.seeding import rollout_shard
from repro.rollout import (
    ROLLOUT_WORKERS_ENV_VAR,
    EpisodePlan,
    EpisodeResult,
    ParallelRolloutEngine,
    resolve_worker_count,
    validate_result,
)
from repro.rollout.worker import run_planned_episode
from tests.conftest import fast_config

N_ITERATIONS = 4


def _fit(train_tasks, *, workers=None, seed=0):
    config = fast_config(n_iterations=N_ITERATIONS, seed=seed)
    return PAFeat(config).fit(train_tasks, rollout_workers=workers)


def _weights(model):
    return model.trainer.agent.save_policy()


def _assert_same_weights(expected, actual):
    assert set(expected) == set(actual)
    for name in expected:
        np.testing.assert_array_equal(expected[name], actual[name])


@pytest.fixture(scope="module")
def train_tasks(tiny_split):
    train, _ = tiny_split
    return train


@pytest.fixture(scope="module")
def parallel_reference(train_tasks):
    """One 2-worker fit shared by every test that compares against it."""
    model = _fit(train_tasks, workers=2)
    return model, _weights(model)


# ---------------------------------------------------------------------------
# RNG sharding
# ---------------------------------------------------------------------------

class TestRolloutShard:
    def test_same_key_same_stream(self):
        a = np.random.default_rng(rollout_shard(7, 3)).random(8)
        b = np.random.default_rng(rollout_shard(7, 3)).random(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_episodes_distinct_streams(self):
        streams = [
            tuple(np.random.default_rng(rollout_shard(7, i)).random(4))
            for i in range(16)
        ]
        assert len(set(streams)) == 16

    def test_distinct_seeds_distinct_streams(self):
        a = np.random.default_rng(rollout_shard(1, 0)).random(4)
        b = np.random.default_rng(rollout_shard(2, 0)).random(4)
        assert not np.array_equal(a, b)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            rollout_shard(0, -1)


# ---------------------------------------------------------------------------
# Worker-count resolution
# ---------------------------------------------------------------------------

class TestResolveWorkerCount:
    def test_explicit_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(ROLLOUT_WORKERS_ENV_VAR, "8")
        assert resolve_worker_count(3) == 3

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(ROLLOUT_WORKERS_ENV_VAR, "4")
        assert resolve_worker_count(None) == 4

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(ROLLOUT_WORKERS_ENV_VAR, raising=False)
        assert resolve_worker_count(None) == 1

    def test_garbage_environment_rejected(self, monkeypatch):
        monkeypatch.setenv(ROLLOUT_WORKERS_ENV_VAR, "many")
        with pytest.raises(ValueError, match="not an integer"):
            resolve_worker_count(None)

    @pytest.mark.parametrize("bad", [0, -2])
    def test_subunit_counts_rejected(self, bad):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_worker_count(bad)


# ---------------------------------------------------------------------------
# Reward cache: lock, drain/merge delta protocol, pickling
# ---------------------------------------------------------------------------

class _StubClassifier:
    """Scores a subset by its size — cheap, deterministic, in [0, 1]."""

    def score(self, features, labels, subset=(), metric="auc"):
        return len(subset) / 100.0


def _reward_fn(cache_size=8):
    return RewardFunction(
        _StubClassifier(),
        np.zeros((4, 6)),
        np.array([0, 1, 0, 1]),
        cache_size=cache_size,
    )


class TestRewardCacheSyncPoints:
    def test_drain_returns_and_clears_fresh_entries(self):
        fn = _reward_fn()
        fn([0, 1])
        fn([2])
        entries = fn.drain_fresh_entries()
        assert dict(entries) == {(0, 1): 0.02, (2,): 0.01}
        assert fn.drain_fresh_entries() == ()

    def test_cache_hits_do_not_refill_fresh(self):
        fn = _reward_fn()
        fn([0, 1])
        fn.drain_fresh_entries()
        fn([0, 1])  # hit
        assert fn.hits == 1
        assert fn.drain_fresh_entries() == ()

    def test_merge_inserts_and_is_idempotent(self):
        fn = _reward_fn()
        entries = (((0, 1), 0.02), ((2,), 0.01))
        assert fn.merge_cache(entries) == 2
        assert fn.merge_cache(entries) == 0  # already present
        assert fn.merged == 2
        assert fn([0, 1]) == 0.02 and fn.hits == 1  # served from cache
        assert fn.misses == 0

    def test_merge_respects_lru_bound(self):
        fn = _reward_fn(cache_size=2)
        fn.merge_cache((((0,), 0.01), ((1,), 0.01), ((2,), 0.01)))
        assert len(fn.cache_snapshot()) == 2

    def test_merge_noop_with_cache_disabled(self):
        fn = _reward_fn(cache_size=0)
        assert fn.merge_cache((((0,), 0.01),)) == 0

    def test_fresh_entries_bounded_in_serial_runs(self):
        fn = _reward_fn(cache_size=2)
        for i in range(10):
            fn([i])
        assert len(fn.cache_snapshot()) == 2
        assert len(fn.drain_fresh_entries()) <= 2

    def test_pickle_round_trip_recreates_lock(self):
        fn = _reward_fn()
        fn([0, 1])
        clone = pickle.loads(pickle.dumps(fn))
        assert clone([0, 1]) == 0.02 and clone.hits == 1
        clone([0, 2])  # exercises the recreated lock on insert
        assert dict(clone.drain_fresh_entries()) == {(0, 2): 0.02}

    def test_clear_cache_resets_delta_state(self):
        fn = _reward_fn()
        fn([0, 1])
        fn.merge_cache((((3,), 0.01),))
        fn.clear_cache()
        assert not fn.cache_snapshot()
        assert fn.drain_fresh_entries() == ()
        assert fn.merged == 0


# ---------------------------------------------------------------------------
# ITS visit counter
# ---------------------------------------------------------------------------

class TestITSVisitCounter:
    def _scheduler(self):
        return InterTaskScheduler(
            [1, 2, 3],
            {1: 0.5, 2: 0.5, 3: 0.5},
            n_features=12,
            config=ITSConfig(),
        )

    def test_record_visit_tallies_atomically(self):
        its = self._scheduler()
        for task_id in (1, 2, 2, 3, 2):
            its.record_visit(task_id)
        assert its.visits() == {1: 1, 2: 3, 3: 1}

    def test_visits_returns_a_copy(self):
        its = self._scheduler()
        its.record_visit(1)
        snapshot = its.visits()
        snapshot[1] = 99
        assert its.visits()[1] == 1

    def test_visits_survive_capture_restore(self):
        its = self._scheduler()
        for _ in range(6):
            its.record_visit(2)
        fresh = self._scheduler()
        fresh.restore_state(its.capture_state())
        assert fresh.visits() == {1: 0, 2: 6, 3: 0}

    def test_sample_task_records_visits(self, parallel_reference):
        model, _ = parallel_reference
        if model.scheduler is None:
            pytest.skip("ITS disabled in this config")
        assert sum(model.scheduler.visits().values()) > 0


# ---------------------------------------------------------------------------
# Plan validation
# ---------------------------------------------------------------------------

class TestValidateResult:
    def _pair(self, trajectory):
        plan = EpisodePlan(
            index=5,
            task_id=trajectory.task_id,
            start=EnvState((), 0),
            random_policy=True,
            epsilon_base=0,
        )
        result = EpisodeResult(
            index=5,
            task_id=trajectory.task_id,
            trajectory=trajectory,
        )
        return plan, result

    def _trajectory(self, parallel_reference):
        model, _ = parallel_reference
        task_id = model.trainer.registry.task_ids()[0]
        return model.trainer.registry.buffer(task_id).recent_trajectories(1)[0]

    def test_accepts_genuine_episode(self, parallel_reference):
        trajectory = self._trajectory(parallel_reference)
        plan, result = self._pair(trajectory)
        validate_result(plan, result, n_features=trajectory.length)

    def test_rejects_identity_mismatch(self, parallel_reference):
        trajectory = self._trajectory(parallel_reference)
        plan, result = self._pair(trajectory)
        result.index = 6
        with pytest.raises(RolloutError, match="identity"):
            validate_result(plan, result, n_features=trajectory.length)

    def test_rejects_truncated_trajectory(self, parallel_reference):
        trajectory = self._trajectory(parallel_reference)
        plan, result = self._pair(trajectory)
        # Dropping the terminal transition leaves a non-terminal tail.
        result.trajectory = replace(
            trajectory, transitions=trajectory.transitions[:-1]
        )
        with pytest.raises(RolloutError, match="terminal-tail"):
            validate_result(plan, result, n_features=trajectory.length)

    def test_rejects_poisoned_reward_entries(self, parallel_reference):
        trajectory = self._trajectory(parallel_reference)
        plan, result = self._pair(trajectory)
        result.reward_entries = (((0,), 2.5),)  # score outside [0, 1]
        with pytest.raises(RolloutError):
            validate_result(plan, result, n_features=trajectory.length)


# ---------------------------------------------------------------------------
# Worker episodes are the trainer's episode loop
# ---------------------------------------------------------------------------

class TestWorkerRunsTheTrainerEpisode:
    @pytest.mark.parametrize("random_policy", [False, True])
    def test_planned_episode_equals_act_under_the_shard(
        self, parallel_reference, random_policy
    ):
        """A worker episode is ``rollout_episode`` driven by ``agent.act``
        with the agent's RNG and action counter swapped for the plan's
        shard and epsilon base, draw for draw."""
        model, _ = parallel_reference
        trainer = model.trainer
        agent = copy.deepcopy(trainer.agent)
        # Epsilon 1 on odd action counts, 0 on even ones: both branches
        # run, and a counter off by one flips every decision.
        agent.epsilon_schedule = lambda count: float(count % 2)
        task_id = trainer.registry.task_ids()[0]
        plan = EpisodePlan(
            index=3,
            task_id=task_id,
            start=EnvState((), 0),
            random_policy=random_policy,
            epsilon_base=6,
        )
        gamma = trainer.config.agent.gamma
        envs = copy.deepcopy(trainer.envs)
        result = run_planned_episode(envs, agent, gamma, plan, seed=11)

        serial = copy.deepcopy(agent)
        serial.action_count = plan.epsilon_base
        serial._rng = np.random.default_rng(rollout_shard(11, plan.index))
        choose = uniform_actions(serial._rng) if random_policy else serial.act
        expected = rollout_episode(
            envs[task_id], plan.start, choose, None, gamma
        )

        def steps(trajectory):
            return [
                (t.action, t.reward, t.return_to_go, t.done)
                for t in trajectory.transitions
            ]

        assert steps(result.trajectory) == steps(expected)
        assert result.trajectory.selected_features == expected.selected_features
        assert agent.action_count == trainer.agent.action_count  # read-only


# ---------------------------------------------------------------------------
# Determinism contracts
# ---------------------------------------------------------------------------

class TestDeterminism:
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_workers_one_is_bit_exact_with_serial(
        self, tiny_split, monkeypatch, seed
    ):
        # Pin the env so "workers unset" means serial even in the CI
        # parity lane (which exports REPRO_ROLLOUT_WORKERS=2 suite-wide).
        monkeypatch.delenv(ROLLOUT_WORKERS_ENV_VAR, raising=False)
        train, _ = tiny_split
        serial = _fit(train, workers=None, seed=seed)
        one_worker = _fit(train, workers=1, seed=seed)
        _assert_same_weights(_weights(serial), _weights(one_worker))
        assert one_worker.rollout_engine is None  # no engine was built

    def test_worker_count_independence(self, train_tasks, parallel_reference):
        _, reference_weights = parallel_reference
        three = _fit(train_tasks, workers=3)
        _assert_same_weights(reference_weights, _weights(three))

    def test_parallel_selects_match_across_worker_counts(
        self, train_tasks, parallel_reference
    ):
        model, _ = parallel_reference
        three = _fit(train_tasks, workers=3)
        for task in train_tasks.unseen_tasks:
            assert model.select(task) == three.select(task)


# ---------------------------------------------------------------------------
# Engine lifecycle, stats, checkpoint metadata
# ---------------------------------------------------------------------------

class TestEngineLifecycle:
    def test_parallel_fit_runs_through_the_pool(self, parallel_reference):
        model, _ = parallel_reference
        engine = model.rollout_engine
        assert engine is not None
        assert engine.stats["episodes"] == N_ITERATIONS * 2
        assert engine.stats["pool_episodes"] == engine.stats["episodes"]
        assert engine.stats["fallback_episodes"] == 0
        assert not engine.degraded
        # The engine is closed with the fit and detached from the trainer.
        assert model.trainer.rollout_engine is None
        with pytest.raises(RolloutError, match="closed"):
            engine.fill(model.trainer, 1)

    def test_environment_variable_arms_the_engine(
        self, train_tasks, monkeypatch, parallel_reference
    ):
        monkeypatch.setenv(ROLLOUT_WORKERS_ENV_VAR, "2")
        model = _fit(train_tasks)  # workers unspecified -> env var
        assert model.rollout_engine is not None
        _, reference_weights = parallel_reference
        _assert_same_weights(reference_weights, _weights(model))

    def test_capture_restore_round_trip(self):
        engine = ParallelRolloutEngine(2, seed=9)
        engine.episodes_planned = 17
        restored = ParallelRolloutEngine(4, seed=9)
        restored.restore_state(engine.capture_state())
        assert restored.episodes_planned == 17
        assert restored.n_workers == 4  # worker count is a hardware choice

    def test_restore_rejects_seed_mismatch(self):
        engine = ParallelRolloutEngine(2, seed=9)
        with pytest.raises(RolloutError, match="seed"):
            engine.restore_state({"seed": 10, "episodes_planned": 0})

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            ParallelRolloutEngine(0, seed=0)

    def test_fill_rejects_empty_phase(self, parallel_reference):
        model, _ = parallel_reference
        engine = ParallelRolloutEngine(1, seed=0)
        with pytest.raises(ValueError, match="n_episodes"):
            engine.fill(model.trainer, 0)


# ---------------------------------------------------------------------------
# CI parity context
# ---------------------------------------------------------------------------

def test_ci_env_var_name_is_stable():
    """The CI matrix hard-codes the variable name; keep them in lockstep."""
    assert ROLLOUT_WORKERS_ENV_VAR == "REPRO_ROLLOUT_WORKERS"
    assert ROLLOUT_WORKERS_ENV_VAR in os.environ or True
