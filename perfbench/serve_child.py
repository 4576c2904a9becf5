"""Traced launcher: wrap the serve layers, then run ``repro serve``.

Usage: ``python perfbench/serve_child.py SPANS_JSON serve --checkpoint-dir ...``

Installs the timing wrappers of :mod:`spans` around the serve stack's
layers, hands the remaining arguments to the same CLI entry point as
``python -m repro``, and after the server has drained writes every
recorded span to ``SPANS_JSON``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spans import SpanRecorder


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    from repro import cli
    from repro.serve import engine
    from repro.serve.batcher import MicroBatcher
    from repro.serve.registry import ModelRegistry

    recorder = SpanRecorder()
    recorder.wrap(
        engine.BatchedGreedyEngine, "select_representations", "engine",
        tag=lambda args: len(args[1]),
    )
    recorder.wrap(engine, "batched_greedy_subsets", "batch")
    recorder.wrap(
        ModelRegistry, "representation", "registry.representation",
        tag=lambda args: args[0].cache_stats()["hits"],
    )
    recorder.wrap(MicroBatcher, "submit", "batcher.submit")
    try:
        return cli.main(cli_args)
    finally:
        recorder.restore()
        scratch = spans_path.with_suffix(".tmp")
        scratch.write_text(json.dumps([list(span) for span in recorder.spans]))
        scratch.replace(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
