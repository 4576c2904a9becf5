"""``fit-yeast``: serial ``PAFeat.fit`` on the full yeast twin, in-process.

Every timing here is host-normalised (:class:`common.HostNormalized`).

Untraced run:

* ``setup_s`` — yeast twin generation plus the train/test row split
  (imports excluded), :data:`SETUP_REPEATS` repetitions at the start and
  after each fit, median;
* ``fit_s`` — mean time of :data:`REPEATS` fits of each of two seeds,
  :data:`ITERATIONS` iterations, default config.  The seeds are
  :data:`REFERENCE_SEED` and one drawn from the workload seed (each fit
  also draws its own row split, as the experiment runner does); the fits
  run in the order ``ref, drawn, ref, drawn``.  Each iteration is
  normalised on its own;
* ``unseen_f1`` — mean SVM F1 of the unseen-task subsets on held-out rows
  (``repro.experiments.runner.evaluate_selection``), over the two seeds;
* ``select_ms`` — median time of ``select_all_unseen`` calls;
* ``p50_ms``/``p90_ms``/``p99_ms`` — latency of one in-process
  ``PAFeat.select`` on one unseen task, at least :data:`MIN_SELECTS` calls;
* ``peak_rss_mb`` — this process's peak RSS.

Both selection figures are timed on the reference fit's saved-and-loaded
model, a share after each fit so their samples span the whole run.

Every fit's subsets and final agent weights are digested.  The repeats of
a seed within the run must agree, and so must runs of the same
``src/repro`` and benchmark code in one checkout.

Traced run: fits the drawn seed untraced, then again under the layer
wrappers, and reports self time and calls per layer inside the traced fit
window, ``coverage`` (top-level spans over traced ``fit_s``) and
``trace_overhead`` (traced over untraced ``fit_s``, as measured).  The two
fits must produce the same digest.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import time

import numpy as np

from common import (
    CACHE, HostNormalized, Outcome, calibrate, check_digest, peak_rss_mb, subsets_digest,
)
from spans import SpanRecorder, layer_metrics, layer_table, top_level_seconds, within

#: 15 iterations: classifier pretraining (~0.7 s) is ~15% of the fit, so
#: the RL loop dominates.
ITERATIONS = 15
#: Identical fits per seed: they must agree, and ``fit_s`` averages them.
REPEATS = 2
#: Fixed seed of the first fit, whose model every selection metric here is
#: timed on.  A trained policy's lockstep selection either stops early or
#: runs all 103 steps, so select time is bimodal across policies (11 vs
#: 17 ms); one fixed policy keeps that difference out of the seed-to-seed
#: spread.  Fit time also varies by seed (5.7-6.9 s over six seeds at 30
#: iterations), so a fixed seed in every run halves that share of it.
REFERENCE_SEED = 1
SETUP_REPEATS = 8
#: Single-task selections per run (~7 ms each): ten samples beyond p99.
MIN_SELECTS = 1000
MIN_SELECT_ALL = 60
#: Selection rounds (one ``select_all_unseen`` plus one ``select`` per
#: unseen task, ~0.1 s) between two calibrations.
ROUNDS_PER_STRETCH = 4
TRACED_SELECT_ALL = 20

#: Layers timed inside the traced fit window, as reported per_layer.
FIT_LAYERS = (
    "classifier.fit", "reward", "classifier.predict", "auc", "state.encode",
    "agent.act", "agent.update", "replay.sample", "its.sample", "ite",
    "kernel", "scorer",
)


def install_fit_wrappers(recorder: SpanRecorder) -> None:
    """Wrap the public entry points of every training layer."""
    import repro.core.batch as batch
    import repro.core.env as env
    import repro.core.pafeat as pafeat
    import repro.nn.classifier as classifier
    from repro.core.feat import FEATTrainer
    from repro.core.ite import IntraTaskExplorer
    from repro.core.its import InterTaskScheduler
    from repro.eval.kernel import KernelRidgeClassifier
    from repro.rl.agent import DuelingDQNAgent
    from repro.rl.replay import ReplayBuffer
    from repro.rl.reward import RewardFunction

    wraps = [
        (pafeat, "pearson_representation", "stats"),
        (pafeat, "feature_redundancy_matrix", "stats"),
        (classifier.MaskedMLPClassifier, "fit", "classifier.fit"),
        (classifier.MaskedMLPClassifier, "predict_proba", "classifier.predict"),
        (classifier, "roc_auc_score", "auc"),
        (RewardFunction, "__call__", "reward"),
        (env, "encode_state", "state.encode"),
        (env.FeatureSelectionEnv, "step", "env.step"),
        (FEATTrainer, "buffer_filling", "feat.fill"),
        (FEATTrainer, "_checkpoint_score", "scorer"),
        (DuelingDQNAgent, "act", "agent.act"),
        (DuelingDQNAgent, "update", "agent.update"),
        (ReplayBuffer, "sample", "replay.sample"),
        (InterTaskScheduler, "sample_task", "its.sample"),
        (IntraTaskExplorer, "initial_state", "ite"),
        (IntraTaskExplorer, "record", "ite"),
        (KernelRidgeClassifier, "fit", "kernel"),
        (KernelRidgeClassifier, "predict", "kernel"),
        (batch, "batched_greedy_subsets", "batch"),
    ]
    for owner, attr, name in wraps:
        recorder.wrap(owner, attr, name)


def fit_once(suite, seed: int, iterations: int = ITERATIONS):
    """One fit on the seed's row split; returns (model, segments, test
    suite).

    ``segments`` (a :class:`common.HostNormalized`) holds the wall seconds
    from the start of ``fit`` to the end of its first iteration (set-up and
    classifier pretraining included), then of each further iteration, then
    of the wrap-up, each in its own stretch; its ``raw_seconds`` is the
    fit's wall time less the calibrations.  Iteration ends come from
    ``stop_check``, which ``fit`` polls once per iteration and which here
    only reads the clock and calibrates.
    """
    from repro.core.config import PAFeatConfig
    from repro.core.pafeat import PAFeat

    train, test = suite.split_rows(0.7, np.random.default_rng(seed))
    model = PAFeat(PAFeatConfig(seed=seed, n_iterations=iterations))
    segments = HostNormalized(calibrate())
    resumed = time.perf_counter()

    def mark() -> bool:
        nonlocal resumed
        segments.add(time.perf_counter() - resumed)
        segments.close(calibrate())
        resumed = time.perf_counter()
        return False

    model.fit(train, stop_check=mark)
    mark()
    return model, segments, test


def fit_digest(model) -> tuple[str, dict[str, tuple[int, ...]]]:
    subsets = model.select_all_unseen()
    return subsets_digest(subsets, model.inference_agent().save_policy()), subsets


def unseen_f1(model, subsets, test, seed: int) -> float:
    """Mean SVM F1 of the unseen-task subsets on the held-out rows."""
    from repro.experiments.runner import evaluate_selection

    held_out = {task.label_index: task for task in test.unseen_tasks}
    return float(np.mean([
        evaluate_selection(
            subsets[task.name], task, held_out[task.label_index], seed=seed
        )["f1"]
        for task in model._suite.unseen_tasks
    ]))


def fit_seeds(seed: int) -> list[int]:
    """:data:`REFERENCE_SEED`, then one fit seed drawn from ``seed``."""
    drawn = np.random.SeedSequence(seed).generate_state(1)[0] % 100_000
    return [REFERENCE_SEED, int(drawn)]


def save_and_load(model, path):
    """The model as ``repro select`` and ``repro serve`` see it: saved and
    loaded back, without the fitted model's replay buffers."""
    from repro.io import load_model, save_model

    return load_model(save_model(model, path))


def time_selection(loaded, train, seconds: float, shares: int, select_all, select_one) -> int:
    """Time ``select_all_unseen`` and single-task ``PAFeat.select`` calls on
    ``loaded`` into the :class:`common.HostNormalized` ``select_all`` and
    ``select_one``, for ``seconds`` seconds and at least a ``shares``-th of
    the minimum call counts; returns the number of calls."""
    tasks = train.unseen_tasks
    calls_all = calls_one = 0
    # Objects alive before the window (fixtures, earlier fits) are not part
    # of selection: keep them out of the collector's full passes.
    gc.collect()
    gc.freeze()
    try:
        calibration = calibrate()
        select_all.close(calibration)
        select_one.close(calibration)
        # Alternate the two kinds of call, so both see the same stretches
        # of host speed.
        deadline = time.perf_counter() + seconds
        while (calls_all < -(-MIN_SELECT_ALL // shares)
               or calls_one < -(-MIN_SELECTS // shares)
               or time.perf_counter() < deadline):
            for _ in range(ROUNDS_PER_STRETCH):
                select_all.add(elapsed(lambda: loaded.select_all_unseen(train)))
                for task in tasks:
                    select_one.add(elapsed(lambda: loaded.select(task)))
            calls_all += ROUNDS_PER_STRETCH
            calls_one += ROUNDS_PER_STRETCH * len(tasks)
            calibration = calibrate()
            select_all.close(calibration)
            select_one.close(calibration)
    finally:
        gc.unfreeze()
    return calls_all + calls_one


def elapsed(call) -> float:
    """Wall seconds of one ``call()``."""
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def time_setup(split_seed: int, setup) -> object:
    """Time :data:`SETUP_REPEATS` yeast twin generations plus row splits
    into the :class:`common.HostNormalized` ``setup``; returns the twin."""
    from repro.data.catalog import load_dataset

    setup.close(calibrate())
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        suite = load_dataset("yeast")
        suite.split_rows(0.7, np.random.default_rng(split_seed))
        setup.add(time.perf_counter() - start)
    setup.close(calibrate())
    return suite


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    seeds = fit_seeds(seed)
    calibration = calibrate()
    setup, select_all, select_one = (HostNormalized(calibration) for _ in range(3))
    suite = time_setup(seeds[1], setup)
    if trace:
        return _run_traced(suite, seeds[1], outcome)

    order = [fit_seed for _ in range(REPEATS) for fit_seed in seeds]
    fits, digests, f1s = [], {}, {}
    workdir = CACHE / f"run-{os.getpid()}"
    for fit_seed in order:
        outcome.attempted += 1
        model, segments, test = fit_once(suite, fit_seed)
        fits.append(segments)
        digest, subsets = fit_digest(model)
        if fit_seed not in digests:
            digests[fit_seed] = digest
            check_digest(f"fit-yeast/{fit_seed}", digest, outcome)
            f1s[fit_seed] = unseen_f1(model, subsets, test, fit_seed)
            if fit_seed == REFERENCE_SEED:
                reference = save_and_load(model, workdir / "model"), model._suite
                shutil.rmtree(workdir)
        elif digest != digests[fit_seed]:
            outcome.failed += 1
            outcome.problem(f"two fits of seed {fit_seed} in one run disagree")
        del model
        # A share after every fit, so the samples span the whole run.
        time_setup(seeds[1], setup)
        outcome.attempted += time_selection(
            *reference, seconds * 0.6 / len(order), len(order), select_all, select_one
        )
    p50, p90, p99 = np.percentile(select_one.values(), [50, 90, 99]) * 1000.0
    outcome.metrics.update({
        "setup_s": np.median(setup.values()),
        "fit_s": statistics.fmean(fit.values().sum() for fit in fits),
        "select_ms": np.median(select_all.values()) * 1000.0,
        "unseen_f1": statistics.fmean(f1s.values()),
        "peak_rss_mb": peak_rss_mb(),
        "p50_ms": p50,
        "p90_ms": p90,
        "p99_ms": p99,
    })
    return outcome


def _run_traced(suite, fit_seed: int, outcome: Outcome) -> Outcome:
    outcome.attempted += 2
    model, segments, _ = fit_once(suite, fit_seed)
    untraced_s = segments.raw_seconds
    untraced_digest, _ = fit_digest(model)
    check_digest(f"fit-yeast/{fit_seed}", untraced_digest, outcome)

    recorder = SpanRecorder()
    install_fit_wrappers(recorder)
    try:
        fit_start = time.monotonic()
        model, segments, _ = fit_once(suite, fit_seed)
        traced_s = segments.raw_seconds
        fit_end = time.monotonic()
        select_start = time.monotonic()
        for _ in range(TRACED_SELECT_ALL):
            model.select_all_unseen()
        select_end = time.monotonic()
    finally:
        recorder.restore()
    traced_digest, _ = fit_digest(model)
    if traced_digest != untraced_digest:
        outcome.problem("the traced fit diverged from the untraced fit")

    fit_spans = within(recorder.spans, fit_start, fit_end)
    table = layer_table(fit_spans)
    outcome.metrics.update(layer_metrics(table, FIT_LAYERS))
    outcome.metrics["stats.self_s"] = table.get("stats", {}).get("self_s", 0.0)
    outcome.metrics["feat.fill.self_s"] = table.get("feat.fill", {}).get("self_s", 0.0)
    outcome.metrics["env.step.calls"] = table.get("env.step", {}).get("calls", 0)
    hits = sum(fn.hits for fn in model.reward_fns.values())
    lookups = hits + sum(fn.misses for fn in model.reward_fns.values())
    outcome.metrics["reward.hit_ratio"] = hits / lookups if lookups else 0.0
    select_table = layer_table(within(recorder.spans, select_start, select_end))
    outcome.metrics.update(layer_metrics(select_table, ("batch",)))
    outcome.metrics["coverage"] = top_level_seconds(fit_spans) / traced_s
    outcome.metrics["trace_overhead"] = traced_s / untraced_s
    return outcome
