"""``serve-rep`` and ``serve-raw``: ``repro serve`` in a child process.

Per run, before anything is timed, the fixture is built: the served model
is fitted twice, identically, from :data:`fit_yeast.REFERENCE_SEED` for
:data:`SERVE_ITERATIONS` iterations (``fit_s`` is their mean
host-normalised time, :class:`common.HostNormalized`; ``unseen_f1`` its
held-out SVM F1; the two fits must agree), saved and loaded back for the
reference subset of every request's task (``PAFeat.select``), and every
request body is pre-encoded.  ``select_ms`` is the median host-normalised
time of in-process ``select_all_unseen`` calls on the loaded model, timed
in groups at :data:`SELECT_MOMENTS` moments of the run while no server
runs.  The workload seed drives the order in which requests cycle through
the unseen tasks.

Untraced run: ``repro serve`` is started :data:`SPAWNS` times; ``setup_s``
is the median host-normalised time from spawn to the first ``200`` from
``/healthz`` (imports, verified model load, engine build).  Each server but
the last is stopped with SIGTERM, which must drain cleanly.  The last one
takes warm-up requests, then the measured load:

* ``serve-rep`` — open loop at :data:`RATE_RPS` requests/s from two client
  threads (at most two connections in flight); each ``POST /select``
  carries a precomputed ``representation``.  Latency counts from the time
  a request was due.  At least :data:`MIN_SAMPLES` requests.
* ``serve-raw`` — closed loop on one connection; each request carries the
  raw task (``features`` 2417x103 plus ``labels``, ~5 MB of JSON).  The
  warm-up is one pass over the tasks, so measured requests hit the
  server's representation cache.

Latencies are host-normalised except for the batcher's window
(:meth:`Load.latencies_ms`).

Every ``200`` subset must equal the reference; a mismatch, a failed start
or an unclean drain makes the run incorrect.  ``peak_rss_mb`` is the
server's ``VmHWM``.  Garbage collection is frozen in this (load generator)
process during the measured window only.

Traced run: one untraced server and one started by ``serve_child.py``
(layer wrappers, then the same ``repro serve`` entry point) each take the
same load; layer metrics come from the traced server's spans inside the
measured window and ``trace_overhead`` is traced over untraced ``p50_ms``.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from common import CACHE, ROOT, HostNormalized, Outcome, calibrate, child_env
from fit_yeast import (
    REFERENCE_SEED, elapsed, fit_digest, fit_once, save_and_load, unseen_f1,
)
from spans import Span, within

SPAWNS = 5
#: Iterations of the served model's fit.  Selection and serving time depend
#: on the policy, not on how long it trained; a short fit keeps the run short.
SERVE_ITERATIONS = 10
FIT_REPEATS = 2
#: A request takes ~15 ms, so at 40 req/s (one due every 25 ms) a slow
#: stretch rarely makes two overlap.  At 60 req/s (16.7 ms) they often did,
#: and p99 moved 20-30 ms from run to run; p50 is flat to ~150 req/s.
RATE_RPS = 40.0
IN_FLIGHT = 2
#: Requests per run: ten samples beyond the tail figure (``p99_ms`` on
#: serve-rep, ``p90_ms`` on serve-raw).
MIN_SAMPLES = {"serve-rep": 1000, "serve-raw": 100}
#: Requests (~1 s) between two calibrations.
STRETCH = {"serve-rep": 40, "serve-raw": 10}
#: The micro-batcher's window, passed to ``repro serve --max-latency-ms``
#: (its default).  At these rates every flush holds one request, which
#: waits the whole window.
BATCH_WINDOW_MS = 5.0
WARMUP_PASSES = {"serve-rep": 3, "serve-raw": 1}
SELECT_ALL_REPEATS = 96
#: Moments of the run at which select_ms calls are timed: the fixture, after
#: each server but the last is stopped, and after the last one.
SELECT_MOMENTS = SPAWNS + 1
#: select_all_unseen calls between two calibrations.
SELECT_ALL_STRETCH = 4
REQUEST_TIMEOUT_S = 10.0
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 20.0


class ServerFailure(Exception):
    """The server did not start, or did not drain cleanly on SIGTERM."""


class Fixture:
    """Trained model, pre-encoded requests and their reference subsets."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        from repro.data.catalog import load_dataset
        from repro.data.stats import pearson_representation

        suite = load_dataset("yeast")
        segments, digests = [], set()
        for _ in range(FIT_REPEATS):
            model, fit_segments, test = fit_once(suite, REFERENCE_SEED, SERVE_ITERATIONS)
            digest, subsets = fit_digest(model)
            segments.append(fit_segments)
            digests.add(digest)
        # Identical fits that disagree (a determinism failure) are reported.
        self.fits_agree = len(digests) == 1
        self.fit_s = statistics.fmean(fit.values().sum() for fit in segments)
        self.unseen_f1 = unseen_f1(model, subsets, test, REFERENCE_SEED)
        self.model_dir, self.train = workdir / "model", model._suite
        self.served = save_and_load(model, self.model_dir)
        del model
        gc.collect()
        self.select_all = HostNormalized(calibrate())
        self.time_select_all()

        tasks = suite.unseen_tasks
        self.expected = [list(self.served.select(task)) for task in tasks]
        self.requests = []
        for task in tasks:
            if workload == "serve-rep":
                payload = {
                    "representation":
                        pearson_representation(task.features, task.labels).tolist()
                }
            else:
                payload = {
                    "features": task.features.tolist(),
                    "labels": task.labels.tolist(),
                }
            body = json.dumps(payload).encode()
            self.requests.append(
                b"POST /select HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
        rng = np.random.default_rng(seed)
        self.order = [
            int(i) for _ in range(400) for i in rng.permutation(len(tasks))
        ]

    def time_select_all(self) -> None:
        """Time one of :data:`SELECT_MOMENTS` groups of in-process
        ``select_all_unseen`` calls on the served model (no server running)."""
        self.select_all.close(calibrate())
        for _ in range(SELECT_ALL_REPEATS // SELECT_MOMENTS // SELECT_ALL_STRETCH):
            for _ in range(SELECT_ALL_STRETCH):
                self.select_all.add(elapsed(lambda: self.served.select_all_unseen(self.train)))
            self.select_all.close(calibrate())


def _http(port: int, request: bytes) -> tuple[int, bytes]:
    """One request on a fresh connection; returns (status, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(1 << 16):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), body


def _get(port: int, path: str) -> tuple[int, bytes]:
    return _http(port, f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode())


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One server child: spawned, health-checked, drained on stop."""

    def __init__(self, command: list[str], log: Path, port: int) -> None:
        self.port, self.log = port, log
        start = time.monotonic()
        with open(log, "wb") as sink:
            self.proc = subprocess.Popen(
                command, cwd=ROOT, env=child_env(), stdout=sink,
                stderr=subprocess.STDOUT,
            )
        try:
            self._await_health(start)
        except ServerFailure:
            self.kill()
            raise
        self.setup_s = time.monotonic() - start

    def _await_health(self, start: float) -> None:
        while True:
            if self.proc.poll() is not None:
                raise ServerFailure(
                    f"server exited with {self.proc.returncode} before "
                    f"answering /healthz: {self._tail()}"
                )
            try:
                if _get(self.port, "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() - start > START_TIMEOUT_S:
                raise ServerFailure(f"server not healthy after {START_TIMEOUT_S}s")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerFailure("no VmHWM in the server's /proc status")

    def batch_sizes(self) -> dict[int, float]:
        """``repro_serve_batch_size_total`` counts by size, from /metrics."""
        status, body = _get(self.port, "/metrics")
        if status != 200:
            raise ServerFailure(f"/metrics answered {status}")
        sizes = {}
        for line in body.decode().splitlines():
            if line.startswith('repro_serve_batch_size_total{size="'):
                label, value = line.split()
                sizes[int(label.split('"')[1])] = float(value)
        return sizes

    def stop(self) -> None:
        """SIGTERM, then require exit code 0 and the drain banner."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerFailure(f"server did not drain within {DRAIN_TIMEOUT_S}s")
        if code != 0 or b"drained; bye" not in self.log.read_bytes():
            raise ServerFailure(f"unclean drain (exit {code}): {self._tail()}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def _tail(self) -> str:
        return self.log.read_bytes()[-400:].decode(errors="replace")


class Load:
    """Results of one measured window: per request (task, due, sent, done,
    status, body), plus the window bounds on the shared monotonic clock.

    Requests go out in stretches of :data:`STRETCH` requests; after each
    stretch has been answered the load generator calibrates while the server
    is idle, and ``latency`` holds the host-normalised latencies less the
    batcher's window (:data:`BATCH_WINDOW_MS`).
    """

    def __init__(self, workload: str, fixture: Fixture, port: int, seconds: float) -> None:
        self.fixture = fixture
        minimum = MIN_SAMPLES[workload]
        total = max(minimum, int(RATE_RPS * seconds))
        self.results: list = []
        self.latency = HostNormalized(calibrate())
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            self.start = time.monotonic()
            deadline = self.start + seconds
            while True:
                sent = len(self.results)
                if workload == "serve-rep":
                    if sent >= total:
                        break
                    stretch = _open_loop(fixture, port, sent, min(STRETCH[workload], total - sent))
                else:
                    if sent >= minimum and time.monotonic() >= deadline:
                        break
                    stretch = _closed_loop(fixture, port, sent, STRETCH[workload])
                self.results.extend(stretch)
                for _, due, _, done, _, _ in stretch:
                    self.latency.add(done - due - BATCH_WINDOW_MS / 1000.0)
                self.latency.close(calibrate())
            self.end = time.monotonic()
        finally:
            gc.enable()
            gc.unfreeze()

    def check(self, outcome: Outcome) -> None:
        """Count attempts and failures; a wrong subset makes the run incorrect."""
        outcome.attempted += len(self.results)
        mismatches = []
        for task, _, _, _, status, body in self.results:
            if status != 200:
                outcome.failed += 1
            elif json.loads(body)["subset"] != self.fixture.expected[task]:
                outcome.failed += 1
                mismatches.append((task, body[:200]))
        if mismatches:
            outcome.problem(
                f"{len(mismatches)} subsets differ from the in-process reference, "
                f"first on unseen task {mismatches[0][0]}: {mismatches[0][1]!r}"
            )

    def latencies_ms(self) -> np.ndarray:
        """Host-normalised client latency from each request's due time.

        Only the CPU work is scaled: a request also waits out the batcher's
        window, a timer that runs the same on a slow host, so that is
        subtracted before scaling and added back after.  (Scaling all of a
        ~15 ms ``serve-rep`` request gave its p50 a 9% spread over five loads,
        against 5% this way.)
        """
        return self.latency.values() * 1000.0 + BATCH_WINDOW_MS

    def server_ms(self) -> np.ndarray:
        return np.array([
            json.loads(body)["latency_ms"]
            for *_, status, body in self.results if status == 200
        ])


def _open_loop(fixture: Fixture, port: int, offset: int, n: int) -> list:
    """Requests ``offset`` to ``offset + n``, due every 1/RATE_RPS s from
    now, sent by IN_FLIGHT threads."""
    results: list = [None] * n
    counter = itertools.count()
    first_due = time.monotonic() + 0.01

    def worker() -> None:
        while (index := next(counter)) < n:
            task = fixture.order[(offset + index) % len(fixture.order)]
            due = first_due + index / RATE_RPS
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            results[index] = _timed(port, fixture, task, due)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(IN_FLIGHT)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def _closed_loop(fixture: Fixture, port: int, offset: int, n: int) -> list:
    """Requests ``offset`` to ``offset + n``, each sent when the previous one
    has been answered."""
    return [
        _timed(port, fixture, fixture.order[(offset + i) % len(fixture.order)], None)
        for i in range(n)
    ]


def _timed(port: int, fixture: Fixture, task: int, due: float | None) -> tuple:
    sent = time.monotonic()
    try:
        status, body = _http(port, fixture.requests[task])
    except OSError as exc:  # refused, reset or timed out: a failed request
        status, body = 0, repr(exc).encode()
    return task, sent if due is None else due, sent, time.monotonic(), status, body


def _warm_up(workload: str, fixture: Fixture, server: Server) -> None:
    for _ in range(WARMUP_PASSES[workload]):
        for request in fixture.requests:
            status, body = _http(server.port, request)
            if status != 200:
                raise ServerFailure(f"warm-up request answered {status}: {body[:200]!r}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    workdir = CACHE / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    servers: list[Server] = []

    def start(traced: bool) -> Server:
        port = _free_port()
        serve_args = [
            "serve", "--checkpoint-dir", str(fixture.model_dir), "--port", str(port),
            "--max-latency-ms", str(BATCH_WINDOW_MS),
        ]
        if traced:
            command = [
                sys.executable, str(ROOT / "perfbench" / "serve_child.py"),
                str(workdir / "spans.json"), *serve_args,
            ]
        else:
            command = [sys.executable, "-m", "repro", *serve_args]
        server = Server(command, workdir / f"server-{len(servers)}.log", port)
        servers.append(server)
        return server

    try:
        fixture = Fixture(workload, seed, workdir)
        outcome.attempted += FIT_REPEATS
        if not fixture.fits_agree:
            outcome.failed += 1
            outcome.problem("two identical fits of the served model disagree")
        if trace:
            _run_traced(workload, fixture, start, seconds, outcome, workdir)
        else:
            setup = HostNormalized(calibrate())
            for spawn in range(SPAWNS):
                setup.close(calibrate())
                server = start(traced=False)
                setup.add(server.setup_s)
                setup.close(calibrate())
                if spawn < SPAWNS - 1:
                    server.stop()
                    fixture.time_select_all()
            _warm_up(workload, fixture, server)
            load = Load(workload, fixture, server.port, seconds)
            rss = server.peak_rss_mb()
            server.stop()
            fixture.time_select_all()
            load.check(outcome)
            p50, p90, p99 = np.percentile(load.latencies_ms(), [50, 90, 99])
            outcome.metrics.update(
                fit_s=fixture.fit_s, unseen_f1=fixture.unseen_f1,
                select_ms=np.median(fixture.select_all.values()) * 1000.0,
                setup_s=np.median(setup.values()), peak_rss_mb=rss,
                p50_ms=p50, p90_ms=p90, p99_ms=p99,
            )
    except ServerFailure as exc:
        outcome.attempted += 1
        outcome.failed += 1
        outcome.problem(str(exc))
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome


def _run_traced(workload, fixture, start, seconds, outcome, workdir) -> None:
    server = start(traced=False)
    _warm_up(workload, fixture, server)
    untraced = Load(workload, fixture, server.port, seconds)
    server.stop()
    untraced.check(outcome)

    server = start(traced=True)
    _warm_up(workload, fixture, server)
    sizes_before = server.batch_sizes()
    load = Load(workload, fixture, server.port, seconds)
    sizes_after = server.batch_sizes()
    server.stop()
    load.check(outcome)
    spans = [Span(*row) for row in json.loads((workdir / "spans.json").read_text())]
    outcome.metrics.update(serve_layers(spans, load, sizes_before, sizes_after))
    outcome.metrics["trace_overhead"] = (
        np.median(load.latencies_ms()) / np.median(untraced.latencies_ms())
    )


def serve_layers(spans, load: Load, sizes_before, sizes_after) -> dict[str, float]:
    """Per-layer serve metrics over the measured window (times in ms)."""
    # Cache hits: each representation span is tagged with the registry's
    # running hit count, so a call hit when the count moved past the
    # previous call's (calls are serial on the event loop).
    hit_flags, previous = {}, 0
    for span in sorted((s for s in spans if s.name == "registry.representation"),
                       key=lambda s: s.start):
        hit_flags[span.start] = span.tag > previous
        previous = span.tag
    window = within(spans, load.start, load.end)

    def named(name: str) -> list[Span]:
        return [span for span in window if span.name == name]

    engine, submit, rep = named("engine"), named("batcher.submit"), named("registry.representation")
    batch = named("batch")
    n = len(load.results)
    server_ms = load.server_ms()
    client_ms = np.array([done - sent for _, _, sent, done, _, _ in load.results]) * 1000.0
    rep_ms = sum(s.duration for s in rep) * 1000.0 / n
    submit_ms = sum(s.duration for s in submit) * 1000.0 / max(1, len(submit))
    engine_share_ms = (
        sum(s.duration * s.tag for s in engine) * 1000.0
        / max(1, sum(s.tag for s in engine))
    )
    flushed = {size: sizes_after.get(size, 0) - sizes_before.get(size, 0) for size in sizes_after}
    flushes = sum(flushed.values())
    lag_ms = np.array([sent - due for _, due, sent, _, _, _ in load.results]) * 1000.0
    return {
        "engine.ms": statistics.fmean(s.duration for s in engine) * 1000.0 if engine else 0.0,
        "engine.calls": len(engine),
        "batch.self_s": sum(s.self_time for s in batch),
        "batch.calls": len(batch),
        "batcher.batch_size": sum(k * v for k, v in flushed.items()) / flushes if flushes else 0.0,
        "batcher.wait.ms": submit_ms - engine_share_ms,
        "registry.representation.ms":
            statistics.fmean(s.duration for s in rep) * 1000.0 if rep else 0.0,
        "registry.hit_ratio":
            sum(hit_flags[s.start] for s in rep) / len(rep) if rep else 0.0,
        "decode.ms": float(server_ms.mean()) - rep_ms - submit_ms,
        "transport.ms": float(client_ms.mean() - server_ms.mean()),
        "coverage": (rep_ms + submit_ms) / float(server_ms.mean()),
        "gen.lag_ms": float(np.percentile(lag_ms, 99)),
    }
