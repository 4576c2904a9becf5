"""Golden digests: what training *produces*, pinned across commits.

The parity gates elsewhere compare modes within one run (telemetry on vs
off, N workers vs M workers); these constants pin the outputs themselves,
so a refactor that claims to change nothing has to prove it.  Each digest
is a SHA-256 over discrete training outputs only:

* the replay census (stored transitions per seen task),
* every stored trajectory's task, action sequence and selected subset,
* the ``select_all_unseen()`` subsets of the fitted model.

Discrete values keep the pin independent of the last bit of a BLAS
reduction.  Worker counts are passed explicitly so the
``REPRO_ROLLOUT_WORKERS=2`` CI lane fits the same configurations.

Re-baselining means editing a constant below and recording the reason in
CHANGES.md; the failure message prints the new digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.pafeat import PAFeat
from tests.conftest import fast_config

N_ITERATIONS = 10

GOLDEN = {
    "serial": (
        "99f06b8224e51a4e5c021afe3d0869181ddfdc61ae065b483b3c3889671a8a47"
    ),
    "two-workers": (
        "ed1eb321c55e365ec88c3b8c82931042ba7681f5911807775657f76415c4ee4f"
    ),
    "serial-no-its-no-ite": (
        "c2edc55937226536346cc811e391f38d3bf2fdcb81277045a7c237a15dc62a22"
    ),
}

CONFIGS = {
    "serial": (dict(), 1),
    "two-workers": (dict(), 2),
    "serial-no-its-no-ite": (dict(use_its=False, use_ite=False), 1),
}


def training_digest(model: PAFeat) -> str:
    """SHA-256 over the discrete outputs of a fitted model."""
    registry = model.trainer.registry
    lines: list[str] = []
    for task_id in registry.task_ids():
        buffer = registry.buffer(task_id)
        lines.append(f"census {task_id} {len(buffer)}")
        for trajectory in buffer.recent_trajectories():
            actions = "".join(str(t.action) for t in trajectory.transitions)
            subset = ",".join(str(f) for f in trajectory.selected_features)
            lines.append(f"trajectory {trajectory.task_id} {actions} [{subset}]")
    for name, subset in sorted(model.select_all_unseen().items()):
        lines.append(f"select {name} [{','.join(str(f) for f in subset)}]")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_training_outputs_match_golden_digest(name, tiny_split):
    overrides, workers = CONFIGS[name]
    train, _ = tiny_split
    config = fast_config(n_iterations=N_ITERATIONS, **overrides)
    model = PAFeat(config).fit(train, rollout_workers=workers)
    if workers > 1:
        # The parallel digest must come from the pool, not a degraded
        # local re-execution.
        stats = model.rollout_engine.stats
        assert stats["pool_episodes"] == stats["episodes"] > 0
    digest = training_digest(model)
    assert digest == GOLDEN[name], (
        f"{name}: training outputs changed (digest {digest}); if the change "
        "is intended, update GOLDEN and say why in CHANGES.md"
    )
