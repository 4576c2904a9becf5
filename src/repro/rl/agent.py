"""Dueling DQN agent (paper Section II-A, Eqn. 1).

One agent instance is the paper's *global agent*; "local agents" are
realised as greedy/epsilon-greedy action queries against a snapshot of the
online network (the paper synchronises network weights to each rollout
worker — in a single-process reproduction the snapshot is the online net
itself, which is mathematically identical because rollouts and updates
interleave rather than race).

The update rule is Eqn. 1: Huber TD loss against a periodically-synced
frozen target network, minimised with Adam.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.contracts import check_finite, check_state_batch
from repro.nn.dueling import DuelingNetwork
from repro.nn.losses import HuberLoss
from repro.nn.network import load_state_dict, state_dict
from repro.nn.optim import Adam
from repro.rl.schedules import Schedule
from repro.rl.transition import Transition


class DuelingDQNAgent:
    """Dueling DQN with target network, epsilon-greedy policy and Adam."""

    def __init__(
        self,
        state_dim: int,
        n_actions: int,
        hidden: Sequence[int],
        gamma: float,
        lr: float,
        epsilon_schedule: Schedule,
        target_sync_every: int,
        rng: np.random.Generator,
        grad_clip: float = 10.0,
        double_dqn: bool = True,
    ) -> None:
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        if target_sync_every < 1:
            raise ValueError(f"target_sync_every must be >= 1, got {target_sync_every}")
        self.state_dim = state_dim
        self.n_actions = n_actions
        self.gamma = gamma
        self.epsilon_schedule = epsilon_schedule
        self.target_sync_every = target_sync_every
        self.grad_clip = grad_clip
        self.double_dqn = double_dqn
        self._rng = rng
        self.online = DuelingNetwork(state_dim, n_actions, hidden, rng)
        self.target = DuelingNetwork(state_dim, n_actions, hidden, rng)
        self.sync_target()
        self._optimizer = Adam(self.online.parameters(), lr=lr)
        self._loss = HuberLoss()
        self.update_count = 0
        self.action_count = 0

    def q_values(self, states: np.ndarray) -> np.ndarray:
        """Online-network Q(s, ·) for a batch (or single) state."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        check_state_batch("agent.q_values", states, self.state_dim)
        return self.online.infer(states)

    def act(self, state: np.ndarray, greedy: bool = False) -> int:
        """Epsilon-greedy action; ``greedy=True`` disables exploration."""
        self.action_count += 1
        return self.choose_action(state, self._rng, self.action_count, greedy)

    def choose_action(
        self,
        state: np.ndarray,
        rng: np.random.Generator,
        action_count: int,
        greedy: bool = False,
    ) -> int:
        """The decision behind :meth:`act`, with RNG and counter explicit.

        Side-effect free on the agent: epsilon comes from the schedule at
        ``action_count``, a uniform draw under epsilon picks the action,
        otherwise argmax Q with exact ties broken by ``rng``.  Rollout
        workers pass their episode shard and a local counter, so replica
        agents stay read-only.
        """
        if not greedy and rng.random() < self.epsilon_schedule(action_count):
            return int(rng.integers(self.n_actions))
        q = self.q_values(state)[0]
        # Break exact ties randomly so early (all-zero-Q) policies explore.
        best = np.flatnonzero(q == q.max())
        if len(best) == 1:
            return int(best[0])
        return int(rng.choice(best))

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        """Greedy actions for a batch of states in one forward pass.

        The batched-inference entry point (serving, lockstep greedy
        episodes): one ``(B, state_dim)`` forward instead of B scalar
        :meth:`act` calls.  Deliberately side-effect free — it neither
        advances the epsilon schedule's action counter nor draws from the
        exploration RNG, so inference traffic cannot perturb training
        state.  Exact Q ties break to the lowest action index
        deterministically (``argmax``), where :meth:`act` randomises;
        the two agree whenever each row's argmax is unique, which holds
        for any network whose Q-values are not exactly equal.
        """
        q = self.q_values(states)
        return np.asarray(q.argmax(axis=1), dtype=np.int64)

    def update(self, batch: Sequence[Transition], task_id: int | None = None) -> float:
        """One Dueling-DQN step on a transition minibatch; returns the loss.

        ``task_id`` identifies which task's buffer the batch came from; the
        base agent ignores it, but multi-task reward-rescaling variants
        (e.g. the PopArt baseline) key their running statistics on it.
        """
        del task_id  # hook for subclasses
        if not batch:
            raise ValueError("update requires a non-empty batch")
        states, actions, targets_for_actions = self.compute_targets(batch)

        q_all = self.online.forward(states, training=True)
        # Only the taken action's Q contributes to the loss; build a full
        # target matrix equal to the prediction elsewhere so its gradient
        # vanishes on untaken actions.
        targets = q_all.copy()
        targets[np.arange(len(batch)), actions] = targets_for_actions

        loss_value = self._loss.forward(q_all, targets)
        self._optimizer.zero_grad()
        self.online.backward(self._loss.backward())
        if self.grad_clip > 0:
            self._optimizer.clip_grad_norm(self.grad_clip)
        self._optimizer.step()

        self.update_count += 1
        if self.update_count % self.target_sync_every == 0:
            self.sync_target()
        return loss_value

    def compute_targets(
        self, batch: Sequence[Transition]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """TD targets for a batch: (states, actions, per-sample targets).

        Targets use (Double-)DQN bootstrapping, then are tightened from
        below by each transition's observed return-to-go (the R̂ Algorithm 1
        stores in the buffer), which lower-bounds the optimal Q in this
        deterministic MDP.
        """
        if not batch:
            raise ValueError("compute_targets requires a non-empty batch")
        states = np.stack([t.state for t in batch])
        next_states = np.stack([t.next_state for t in batch])
        actions = np.array([t.action for t in batch], dtype=np.int64)
        rewards = np.array([t.reward for t in batch], dtype=np.float64)
        dones = np.array([t.done for t in batch], dtype=bool)

        next_q_target = self.target.infer(next_states)
        if self.double_dqn:
            # Double DQN: online network picks the action, target scores it.
            next_q_online = self.online.infer(next_states)
            best_actions = next_q_online.argmax(axis=1)
            bootstrap = next_q_target[np.arange(len(batch)), best_actions]
        else:
            bootstrap = next_q_target.max(axis=1)
        targets = rewards + np.where(dones, 0.0, self.gamma * bootstrap)

        returns_to_go = np.array(
            [t.return_to_go if t.return_to_go is not None else -np.inf for t in batch]
        )
        check_state_batch("agent.compute_targets", states, self.state_dim)
        tightened = np.maximum(targets, returns_to_go)
        check_finite("agent.compute_targets", tightened)
        return states, actions, tightened

    def td_errors(self, batch: Sequence[Transition]) -> np.ndarray:
        """Per-sample |target − Q(s, a)| — priorities for prioritized replay."""
        states, actions, targets = self.compute_targets(batch)
        q_all = self.online.infer(states)
        predictions = q_all[np.arange(len(batch)), actions]
        return np.abs(targets - predictions)

    def sync_target(self) -> None:
        """Copy online weights into the frozen target network."""
        snapshot = {
            name: value for name, value in state_dict(self.online).items()
        }
        target_params = {p.name: p for p in self.target.parameters()}
        for name, parameter in target_params.items():
            parameter.value[...] = snapshot[name]

    def save_policy(self) -> dict[str, np.ndarray]:
        """Snapshot the online network (for checkpointing/transfer)."""
        return state_dict(self.online)

    def load_policy(self, snapshot: dict[str, np.ndarray]) -> None:
        """Restore the online network and resync the target."""
        load_state_dict(self.online, snapshot)
        self.sync_target()

    # ------------------------------------------------------------------
    # Durable checkpointing
    # ------------------------------------------------------------------
    def capture_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Complete learning state as ``(json_meta, arrays)``.

        Unlike :meth:`save_policy` (inference weights only), this covers
        everything needed to *continue training* bit-identically: online
        and target networks, Adam moments, step counters (which drive the
        epsilon schedule and target syncs) and the exploration RNG stream.
        """
        from repro.io.checkpoint import rng_state

        arrays: dict[str, np.ndarray] = {}
        for name, value in state_dict(self.online).items():
            arrays[f"online/{name}"] = value
        for name, value in state_dict(self.target).items():
            arrays[f"target/{name}"] = value
        optim_meta, optim_arrays = self._optimizer.capture_state()
        for name, value in optim_arrays.items():
            arrays[f"optim/{name}"] = value
        meta = {
            "update_count": self.update_count,
            "action_count": self.action_count,
            "optimizer": optim_meta,
            "rng": rng_state(self._rng),
        }
        return meta, arrays

    def restore_state(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        """Restore a snapshot captured by :meth:`capture_state`."""
        from repro.io.checkpoint import set_rng_state

        load_state_dict(
            self.online,
            {
                key[len("online/"):]: value
                for key, value in arrays.items()
                if key.startswith("online/")
            },
        )
        load_state_dict(
            self.target,
            {
                key[len("target/"):]: value
                for key, value in arrays.items()
                if key.startswith("target/")
            },
        )
        self._optimizer.restore_state(
            meta["optimizer"],
            {
                key[len("optim/"):]: value
                for key, value in arrays.items()
                if key.startswith("optim/")
            },
        )
        self.update_count = int(meta["update_count"])
        self.action_count = int(meta["action_count"])
        set_rng_state(self._rng, meta["rng"])
