"""perfbench: end-to-end and per-layer benchmark of PA-FEAT fit and serve.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit-yeast --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer metrics of a separate traced run.  Each metric
is printed as ``name = value unit``; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every output checked was correct.  Workloads and the
layer-to-metric predictions are described in ``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import traceback

from common import ROOT, SRC, Outcome  # pins BLAS to one thread

WORKLOADS = ("fit-yeast", "serve-rep", "serve-raw")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_specs(trace: bool) -> dict[str, str]:
    """Metric name -> unit for the run mode, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _run_one(args: argparse.Namespace) -> Outcome:
    if args.workload == "fit-yeast":
        import fit_yeast

        return fit_yeast.run(args.seed, args.seconds, bool(args.trace))
    import serve

    return serve.run(args.workload, args.seed, args.seconds, bool(args.trace))


def _report(outcome: Outcome, specs: dict[str, str]) -> dict:
    """Print each metric as ``name = value unit``; return the result object."""
    metrics = {}
    for name, unit in specs.items():
        if name in outcome.metrics:
            value = float(outcome.metrics[name])
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def _run_all(args: argparse.Namespace, specs: dict[str, str]) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    combined = Outcome()
    for workload in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        combined.attempted += result.get("attempted", 0)
        combined.failed += result.get("failed", 0)
        if done.returncode != 0 or not result.get("correct"):
            combined.problem(f"{workload} exited {done.returncode}")
        for name, metric in result.get("metrics", {}).items():
            combined.metrics[f"{workload}/{name}"] = metric["value"]
    prefixed = {
        f"{workload}/{name}": unit for workload in WORKLOADS for name, unit in specs.items()
    }
    print(json.dumps(_report(combined, prefixed)))
    return 0 if combined.correct else 1


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so server children are reaped.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))
    specs = _metric_specs(bool(args.trace))
    if args.workload == "all":
        return _run_all(args, specs)
    try:
        outcome = _run_one(args)
    except Exception:  # report the crash as one failed operation
        traceback.print_exc()
        outcome = Outcome(attempted=1, failed=1, problems=["workload raised"])
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    unknown = set(outcome.metrics) - set(specs)
    if unknown:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if args.trace:
        # Layers a workload never calls report zero: the predicted value.
        outcome.metrics = {name: outcome.metrics.get(name, 0.0) for name in specs}
    elif outcome.correct and set(specs) - set(outcome.metrics):
        raise SystemExit(f"perfbench: unmeasured: {sorted(set(specs) - set(outcome.metrics))}")
    print(json.dumps(_report(outcome, specs)))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
