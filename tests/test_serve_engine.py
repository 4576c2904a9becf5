"""Batched lockstep inference must be bit-exact with sequential selection.

The serving engine's whole value proposition is "same answers, fewer
forwards", so the core test is a property: for random agents, random task
representations, random budgets, with and without a feature-correlation
matrix, :func:`repro.core.batch.batched_greedy_subsets` returns exactly
what per-task :func:`repro.core.feat.greedy_subset` (plus the
empty-subset fallback) returns.  Feature counts straddle numpy's pairwise
summation block size (128) so the kernel's ``add.reduce`` vectorisation is
exercised on both sides of the blocking boundary.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import batched_greedy_subsets
from repro.core.config import EnvConfig
from repro.core.env import FeatureSelectionEnv
from repro.core.feat import greedy_subset
from repro.core.state import state_dim
from repro.rl.agent import DuelingDQNAgent
from repro.rl.schedules import ConstantSchedule
from repro.serve import BatchedGreedyEngine


def make_agent(n_features: int, seed: int) -> DuelingDQNAgent:
    return DuelingDQNAgent(
        state_dim(n_features),
        2,
        (16, 16),
        0.9,
        1e-3,
        ConstantSchedule(0.0),
        100,
        np.random.default_rng(seed),
    )


def sequential_select(agent, representation, config, feature_corr):
    """The reference path: PAFeat.select minus the representation step."""
    env = FeatureSelectionEnv(0, representation, None, config, feature_corr=feature_corr)
    subset = greedy_subset(agent, env)
    if not subset:
        subset = (int(np.argmax(representation)),)
    return subset


class TestBitExactParity:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_features=st.integers(2, 24),
        mfr=st.floats(0.1, 1.0),
        with_corr=st.booleans(),
        n_tasks=st.integers(1, 9),
    )
    def test_batched_equals_sequential(self, seed, n_features, mfr, with_corr, n_tasks):
        rng = np.random.default_rng(seed)
        config = EnvConfig(max_feature_ratio=mfr)
        agent = make_agent(n_features, seed + 1)
        feature_corr = None
        if with_corr:
            corr = np.abs(rng.normal(size=(n_features, n_features)))
            feature_corr = (corr + corr.T) / 2
        representations = [
            np.abs(rng.normal(size=n_features)) for _ in range(n_tasks)
        ]
        batched = batched_greedy_subsets(
            agent, representations, config, feature_corr=feature_corr
        )
        expected = [
            sequential_select(agent, rep, config, feature_corr)
            for rep in representations
        ]
        assert batched == expected

    @pytest.mark.parametrize("n_features", [120, 200])
    def test_parity_past_pairwise_summation_block(self, n_features):
        """m > 128 exercises numpy's pairwise-summation blocking."""
        rng = np.random.default_rng(n_features)
        config = EnvConfig(max_feature_ratio=0.4)
        agent = make_agent(n_features, 7)
        representations = [np.abs(rng.normal(size=n_features)) for _ in range(5)]
        batched = batched_greedy_subsets(agent, representations, config)
        expected = [
            sequential_select(agent, rep, config, None) for rep in representations
        ]
        assert batched == expected

    def test_fitted_model_batched_matches_select(self, fitted_tiny_model, tiny_split):
        """End to end on a real fitted model: select_all_unseen == select loop."""
        train, _ = tiny_split
        expected = {
            task.name: fitted_tiny_model.select(task)
            for task in train.unseen_tasks
        }
        assert fitted_tiny_model.select_all_unseen() == expected


class _DeselectEverythingAgent:
    """A stub policy that never selects — exercises the empty fallback."""

    def __init__(self, n_features: int) -> None:
        self.state_dim = state_dim(n_features)

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        return np.zeros(states.shape[0], dtype=np.int64)


class TestFallbackAndValidation:
    def test_empty_subset_falls_back_to_most_correlated(self):
        config = EnvConfig(max_feature_ratio=0.5)
        representations = [
            np.array([0.1, 0.9, 0.3]),
            np.array([0.7, 0.2, 0.4]),
        ]
        subsets = batched_greedy_subsets(
            _DeselectEverythingAgent(3), representations, config
        )
        assert subsets == [(1,), (0,)]

    def test_empty_batch_is_empty_result(self):
        assert batched_greedy_subsets(make_agent(4, 0), [], EnvConfig()) == []

    def test_mismatched_feature_counts_rejected(self):
        with pytest.raises(ValueError, match="3-feature space"):
            batched_greedy_subsets(
                make_agent(3, 0), [np.ones(3), np.ones(4)], EnvConfig()
            )

    def test_bad_feature_corr_shape_rejected(self):
        with pytest.raises(ValueError, match="feature_corr"):
            batched_greedy_subsets(
                make_agent(3, 0), [np.ones(3)], EnvConfig(),
                feature_corr=np.ones((2, 2)),
            )


class TestEngineWrapper:
    def test_engine_validates_representation_length(self):
        engine = BatchedGreedyEngine(make_agent(5, 3), EnvConfig())
        assert engine.n_features == 5
        with pytest.raises(ValueError, match="5-feature tasks"):
            engine.select_representations([np.ones(4)])

    def test_engine_rejects_non_state_agent_dimension(self):
        class WeirdAgent:
            state_dim = 10  # 10 - 9 = 1 is odd: not 2m + 9 for any m >= 1

        with pytest.raises(ValueError, match="does not encode"):
            BatchedGreedyEngine(WeirdAgent(), EnvConfig())

    def test_engine_rejects_bad_batch_size(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchedGreedyEngine(make_agent(3, 0), EnvConfig(), max_batch_size=0)

    def test_engine_chunks_large_batches(self):
        """Chunking by max_batch_size never changes answers."""
        rng = np.random.default_rng(11)
        agent = make_agent(6, 5)
        representations = [np.abs(rng.normal(size=6)) for _ in range(10)]
        small = BatchedGreedyEngine(agent, EnvConfig(), max_batch_size=3)
        large = BatchedGreedyEngine(agent, EnvConfig(), max_batch_size=64)
        assert small.select_representations(representations) == (
            large.select_representations(representations)
        )

    def test_engine_chunking_matches_select_loop(
        self, fitted_tiny_model, tiny_split
    ):
        """Lockstep groups of 2 over all 5 tasks (2 + 2 + 1) agree with
        per-task selection on a real fitted model."""
        train, _ = tiny_split
        tasks = train.all_tasks()
        engine = BatchedGreedyEngine.from_model(
            fitted_tiny_model, max_batch_size=2
        )
        assert engine.select_tasks(tasks) == {
            task.name: fitted_tiny_model.select(task) for task in tasks
        }

    def test_engine_from_model_selects_tasks(self, fitted_tiny_model, tiny_split):
        train, _ = tiny_split
        engine = BatchedGreedyEngine.from_model(fitted_tiny_model)
        result = engine.select_tasks(train.unseen_tasks)
        assert result == {
            task.name: fitted_tiny_model.select(task)
            for task in train.unseen_tasks
        }


class TestSelectAllUnseen:
    def test_uses_given_suite(self, fitted_tiny_model, tiny_suite):
        result = fitted_tiny_model.select_all_unseen(tiny_suite)
        assert set(result) == {task.name for task in tiny_suite.unseen_tasks}

    def test_requires_a_suite(self):
        from repro.core.pafeat import PAFeat
        from tests.conftest import fast_config

        with pytest.raises(RuntimeError, match="not fitted"):
            PAFeat(fast_config()).select_all_unseen()
