"""Shared pieces of the perfbench workloads: outcome record, files, digests."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

#: BLAS thread pinning: one thread per process, set here, before numpy
#: loads: every workload module imports this one first.
#: Two-thread OpenBLAS produced 30% outliers on a 2-CPU box.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402  (after the BLAS pinning above)

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run-time state of the benchmark inside the checkout (git-ignored).
CACHE = ROOT / "perfbench" / ".cache"


@dataclass
class Outcome:
    """What one workload run reports: validity accounting plus metrics."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def problem(self, message: str) -> None:
        self.problems.append(message)


def child_env() -> dict[str, str]:
    """Environment for child processes: pinned BLAS, ``src`` importable."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Median seconds of one :func:`_calibration_work` call on a quiet stretch
#: of the reference host (2-CPU x86-64 VM, CPython 3, one BLAS thread).
CALIBRATION_REFERENCE_S = 0.0005
CALIBRATION_CALLS = 5
_CAL_MATRIX = np.random.default_rng(0).random((96, 96))
_CAL_JSON = json.dumps(np.random.default_rng(1).random(2000).round(6).tolist())


def _calibration_work() -> None:
    """A fixed mix of the program's kinds of work: interpreter loop, small
    BLAS products, JSON decoding."""
    total = 0
    for i in range(2000):
        total += i * i
    for _ in range(8):
        _CAL_MATRIX @ _CAL_MATRIX
    json.loads(_CAL_JSON)


def calibrate() -> float:
    """Seconds of one calibration call now: the median of
    :data:`CALIBRATION_CALLS` calls (~3 ms in all)."""
    times = []
    for _ in range(CALIBRATION_CALLS):
        start = time.perf_counter()
        _calibration_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostNormalized:
    """Timings scaled to the reference host speed.

    The host this runs on is shared: its speed drops by 1.3-1.7x for
    seconds to minutes at a time (``select_all_unseen`` medians over 0.1 s
    windows ranged 9.9-17.9 ms within one minute).  Timings are therefore
    taken in short stretches with a calibration call (:func:`calibrate`,
    benchmark code only, with the program idle) before and after each; a
    stretch's timings are multiplied by :data:`CALIBRATION_REFERENCE_S`
    over the mean of its two calibrations.  Over that minute the ratio of
    select time to calibration time varied 5x less than the select time.
    A change to the program moves its timings and not the calibration, so
    it moves the scaled figures by the same factor.
    """

    def __init__(self, calibration: float) -> None:
        self.stretches: list[list[float]] = []
        self.raw_seconds = 0.0
        self._pending: list[float] = []
        self._calibration = calibration

    def add(self, seconds: float) -> None:
        self._pending.append(seconds)
        self.raw_seconds += seconds

    def close(self, calibration: float) -> None:
        """End the current stretch at a calibration taken just now."""
        factor = CALIBRATION_REFERENCE_S / ((self._calibration + calibration) / 2)
        if self._pending:
            self.stretches.append([value * factor for value in self._pending])
        self._pending, self._calibration = [], calibration

    def values(self) -> np.ndarray:
        return np.array([value for stretch in self.stretches for value in stretch])


def subsets_digest(subsets: dict[str, tuple[int, ...]], weights: dict | None = None) -> str:
    """SHA-256 over selected subsets and (optionally) agent weight bytes."""
    digest = hashlib.sha256()
    for name in sorted(subsets):
        digest.update(f"{name}:{list(subsets[name])};".encode())
    for name in sorted(weights or {}):
        digest.update(name.encode())
        digest.update(weights[name].tobytes())
    return digest.hexdigest()


def source_digest() -> str:
    """SHA-256 over the path and bytes of every Python file of ``src/repro``
    and of the benchmark itself (which sets the fits' seeds and sizes)."""
    digest = hashlib.sha256()
    files = [*(SRC / "repro").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in sorted(files):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_digest(key: str, value: str, outcome: Outcome) -> None:
    """Compare ``value`` with the digest an earlier run of the same program
    source stored under ``key``.

    Keys are prefixed with :func:`source_digest`, so only runs of identical
    ``src/repro`` and benchmark code are compared: the first such run of a
    key records it, and a later one that disagrees marks the outcome
    incorrect.
    """
    key = f"{source_digest()[:16]}/{key}"
    path = CACHE / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key not in known:
        known[key] = value
        CACHE.mkdir(parents=True, exist_ok=True)
        scratch = path.with_suffix(f".{os.getpid()}.tmp")
        scratch.write_text(json.dumps(known, indent=1, sort_keys=True))
        scratch.replace(path)
    elif known[key] != value:
        outcome.failed += 1
        outcome.problem(
            f"digest {key} is {value[:12]}, an earlier run of this checkout "
            f"recorded {known[key][:12]}"
        )
