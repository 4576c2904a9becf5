"""Whole-program repolint passes: layers, effects, certificate, hot paths.

Snippet-level tests build hermetic multi-module programs through
``analyze_source(..., config=..., extra_sources=...)`` (program rules only
run when a config is given, so the per-file tests elsewhere stay unaffected)
or :class:`ProgramContext.from_sources` when the test needs the graphs and
effect summaries directly.  The suite ends with certificate-shaped checks
against the real repository.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from tools.repolint import RepolintConfig, analyze_source, build_program
from tools.repolint.config import parse_toml
from tools.repolint.effects import EffectLevel, infer_effects, reachable_from
from tools.repolint.engine import ProgramContext
from tools.repolint.report import build_report
from tools.repolint.sarif import findings_to_sarif

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes(findings) -> list[str]:
    return [f.code for f in findings]


def layered_config(**overrides) -> RepolintConfig:
    defaults = dict(
        package="pkg",
        layer_ranks={"data": 0, "nn": 1, "core": 2, "cli": 3},
        free_layers=frozenset({"util"}),
    )
    defaults.update(overrides)
    return RepolintConfig(**defaults)


def program_effects(sources: dict[str, str], config: RepolintConfig):
    program = ProgramContext.from_sources(sources, config)
    return program, program.effects


# ---------------------------------------------------------------------------
# ARCH501 — layer contract
# ---------------------------------------------------------------------------

def test_arch501_flags_upward_import():
    findings = analyze_source(
        "import pkg.core.engine\n",
        Path("pkg/data/loader.py"),
        module="pkg.data.loader",
        config=layered_config(),
        extra_sources={"pkg.core.engine": "X = 1\n"},
    )
    assert "ARCH501" in codes(findings)


def test_arch501_allows_downward_and_free_imports():
    findings = analyze_source(
        "import pkg.data.loader\nimport pkg.util.helpers\n",
        Path("pkg/core/engine.py"),
        module="pkg.core.engine",
        config=layered_config(),
        extra_sources={
            "pkg.data.loader": "X = 1\n",
            "pkg.util.helpers": "Y = 2\n",
        },
    )
    assert "ARCH501" not in codes(findings)


def test_arch501_free_layer_may_import_anything():
    findings = analyze_source(
        "import pkg.cli.main\n",
        Path("pkg/util/helpers.py"),
        module="pkg.util.helpers",
        config=layered_config(),
        extra_sources={"pkg.cli.main": "Z = 3\n"},
    )
    assert "ARCH501" not in codes(findings)


# ---------------------------------------------------------------------------
# ARCH502 — import cycles
# ---------------------------------------------------------------------------

def test_arch502_flags_top_level_cycle():
    findings = analyze_source(
        "import pkg.core.b\n",
        Path("pkg/core/a.py"),
        module="pkg.core.a",
        config=layered_config(),
        extra_sources={"pkg.core.b": "import pkg.core.a\n"},
    )
    assert "ARCH502" in codes(findings)


def test_arch502_deferred_import_breaks_cycle():
    findings = analyze_source(
        "import pkg.core.b\n",
        Path("pkg/core/a.py"),
        module="pkg.core.a",
        config=layered_config(),
        extra_sources={
            "pkg.core.b": "def late():\n    import pkg.core.a\n",
        },
    )
    assert "ARCH502" not in codes(findings)


# ---------------------------------------------------------------------------
# ARCH503 — undeclared layers
# ---------------------------------------------------------------------------

def test_arch503_flags_layer_missing_from_contract():
    findings = analyze_source(
        "X = 1\n",
        Path("pkg/rogue/thing.py"),
        module="pkg.rogue.thing",
        config=layered_config(),
    )
    assert "ARCH503" in codes(findings)


def test_arch503_silent_without_layer_contract():
    findings = analyze_source(
        "X = 1\n",
        Path("pkg/rogue/thing.py"),
        module="pkg.rogue.thing",
        config=RepolintConfig(package="pkg"),
    )
    assert "ARCH503" not in codes(findings)


# ---------------------------------------------------------------------------
# PAR601 — rollout parallel-safety certificate
# ---------------------------------------------------------------------------

MUTATING_PROGRAM = (
    "class Runner:\n"
    "    def run(self):\n"
    "        self._bump()\n"
    "    def _bump(self):\n"
    "        self.count = self.count + 1\n"
)


def par_config(*sync_points: str, entry: str = "pkg.core.run.Runner.run"):
    return layered_config(
        entry_points=(entry,), sync_points=frozenset(sync_points)
    )


def test_par601_flags_reachable_self_mutation():
    findings = analyze_source(
        MUTATING_PROGRAM,
        Path("pkg/core/run.py"),
        module="pkg.core.run",
        config=par_config(),
    )
    assert "PAR601" in codes(findings)
    message = next(f.message for f in findings if f.code == "PAR601")
    assert "_bump" in message


def test_par601_sync_point_sanctions_own_effects_only():
    deeper = (
        "class Runner:\n"
        "    def run(self):\n"
        "        self._bump()\n"
        "    def _bump(self):\n"
        "        self.count = self.count + 1\n"
        "        self._deeper()\n"
        "    def _deeper(self):\n"
        "        self.other = 1\n"
    )
    findings = analyze_source(
        deeper,
        Path("pkg/core/run.py"),
        module="pkg.core.run",
        config=par_config("pkg.core.run.Runner._bump"),
    )
    par = [f for f in findings if f.code == "PAR601"]
    # _bump is sanctioned, but traversal continues: _deeper is still flagged.
    assert len(par) == 1
    assert "_deeper" in par[0].message


def test_par601_owned_receiver_drops_shared_context():
    owned = (
        "class Widget:\n"
        "    def mutate(self):\n"
        "        self.state = 1\n"
        "class Runner:\n"
        "    def run(self):\n"
        "        w = Widget()\n"
        "        w.mutate()\n"
    )
    findings = analyze_source(
        owned,
        Path("pkg/core/run.py"),
        module="pkg.core.run",
        config=par_config(),
    )
    assert "PAR601" not in codes(findings)


def test_par601_missing_entry_point_is_reported():
    findings = analyze_source(
        "X = 1\n",
        Path("pkg/core/run.py"),
        module="pkg.core.run",
        config=par_config(entry="pkg.core.run.Runner.gone"),
    )
    par = [f for f in findings if f.code == "PAR601"]
    assert par and "gone" in par[0].message


def test_par601_stale_sync_point_is_reported():
    findings = analyze_source(
        MUTATING_PROGRAM,
        Path("pkg/core/run.py"),
        module="pkg.core.run",
        config=par_config(
            "pkg.core.run.Runner._bump", "pkg.core.run.Runner.gone"
        ),
    )
    par = [f for f in findings if f.code == "PAR601"]
    # _bump is a live sanction; only the stale name is reported, anchored
    # to the module it claims to live in.
    assert len(par) == 1
    assert "'pkg.core.run.Runner.gone'" in par[0].message
    assert "sync-points" in par[0].message
    assert par[0].path.endswith("run.py")


def test_concurrency_stale_sanctions_are_reported():
    source = (
        "class Server:\n"
        "    def __init__(self):\n"
        "        self.state = None\n"
        "    async def start(self):\n"
        "        return self.state\n"
    )
    config = RepolintConfig(
        package="pkg",
        allow_blocking=frozenset(
            {"pkg.serve.Server.start", "pkg.serve.Server.load"}
        ),
        concurrency_sync_points=frozenset(
            {
                "pkg.serve.Server.start",  # a function
                "pkg.serve.Server.state",  # a Class.attr state key
                "pkg.serve.Gone.stop",  # names nothing
            }
        ),
    )
    findings = analyze_source(
        source, Path("pkg/serve.py"), module="pkg.serve", config=config
    )
    stale = [
        f
        for f in findings
        if "does not exist" in f.message or "names no function" in f.message
    ]
    assert sorted((f.code, f.message.split("'")[1]) for f in stale) == [
        ("ASYNC901", "pkg.serve.Server.load"),
        ("ASYNC904", "pkg.serve.Gone.stop"),
    ]


# ---------------------------------------------------------------------------
# PAR602 — module/class state mutation
# ---------------------------------------------------------------------------

def test_par602_flags_module_global_write():
    src = (
        "_COUNT = 0\n"
        "def bump():\n"
        "    global _COUNT\n"
        "    _COUNT += 1\n"
    )
    findings = analyze_source(
        src,
        Path("pkg/core/telemetry.py"),
        module="pkg.core.telemetry",
        config=layered_config(),
    )
    assert "PAR602" in codes(findings)


def test_par602_flags_module_dict_mutation_without_global():
    src = (
        "_CACHE = {}\n"
        "def put(key, value):\n"
        "    _CACHE[key] = value\n"
    )
    findings = analyze_source(
        src,
        Path("pkg/core/cache.py"),
        module="pkg.core.cache",
        config=layered_config(),
    )
    assert "PAR602" in codes(findings)


def test_par602_allows_instance_state():
    src = (
        "class Cache:\n"
        "    def __init__(self):\n"
        "        self._store = {}\n"
        "    def put(self, key, value):\n"
        "        self._store[key] = value\n"
    )
    findings = analyze_source(
        src,
        Path("pkg/core/cache.py"),
        module="pkg.core.cache",
        config=layered_config(),
    )
    assert "PAR602" not in codes(findings)


# ---------------------------------------------------------------------------
# HOT701 — hot-path allocations
# ---------------------------------------------------------------------------

def hot_config(qualname: str = "pkg.core.hot.step"):
    return layered_config(hot_functions=frozenset({qualname}))


def test_hot701_flags_numpy_allocation_in_hot_function():
    src = (
        "import numpy as np\n"
        "def step(n):\n"
        "    return np.zeros(n)\n"
    )
    findings = analyze_source(
        src, Path("pkg/core/hot.py"), module="pkg.core.hot", config=hot_config()
    )
    assert "HOT701" in codes(findings)


def test_hot701_flags_growth_only_inside_loops():
    in_loop = (
        "def step(items):\n"
        "    out = []\n"
        "    for item in items:\n"
        "        out.append(item)\n"
        "    return out\n"
    )
    findings = analyze_source(
        in_loop, Path("pkg/core/hot.py"), module="pkg.core.hot", config=hot_config()
    )
    assert "HOT701" in codes(findings)

    outside = (
        "def step(items):\n"
        "    out = []\n"
        "    out.append(1)\n"
        "    return out\n"
    )
    findings = analyze_source(
        outside, Path("pkg/core/hot.py"), module="pkg.core.hot", config=hot_config()
    )
    assert "HOT701" not in codes(findings)


def test_hot701_loop_iter_expression_is_not_in_loop():
    src = (
        "def step(items):\n"
        "    total = 0\n"
        "    for chunk in [items]:\n"
        "        total += len(chunk)\n"
        "    return total\n"
    )
    findings = analyze_source(
        src, Path("pkg/core/hot.py"), module="pkg.core.hot", config=hot_config()
    )
    assert "HOT701" not in codes(findings)


def test_hot701_ignores_functions_outside_contract():
    src = (
        "import numpy as np\n"
        "def cold(n):\n"
        "    return np.zeros(n)\n"
    )
    findings = analyze_source(
        src, Path("pkg/core/hot.py"), module="pkg.core.hot", config=hot_config()
    )
    assert "HOT701" not in codes(findings)


# ---------------------------------------------------------------------------
# RES801 — resilience discipline for always-bounded packages
# ---------------------------------------------------------------------------

def res_config():
    return layered_config(
        layer_ranks={"data": 0, "core": 2, "serve": 3},
        resilience_packages=("pkg.serve",),
    )


def test_res801_flags_unbounded_stream_await():
    src = (
        "async def handle(reader):\n"
        "    line = await reader.readline()\n"
        "    return line\n"
    )
    findings = analyze_source(
        src, Path("pkg/serve/server.py"), module="pkg.serve.server",
        config=res_config(),
    )
    res = [f for f in findings if f.code == "RES801"]
    assert res and "readline" in res[0].message


def test_res801_wait_for_wrapped_await_is_compliant():
    src = (
        "import asyncio\n"
        "async def handle(reader, timeout):\n"
        "    return await asyncio.wait_for(reader.readline(), timeout)\n"
    )
    findings = analyze_source(
        src, Path("pkg/serve/server.py"), module="pkg.serve.server",
        config=res_config(),
    )
    assert "RES801" not in codes(findings)


def test_res801_flags_direct_file_io():
    source_open = (
        "def load(path):\n"
        "    with open(path) as handle:\n"
        "        return handle.read()\n"
    )
    findings = analyze_source(
        source_open, Path("pkg/serve/registry.py"), module="pkg.serve.registry",
        config=res_config(),
    )
    assert "RES801" in codes(findings)

    source_pathlib = (
        "def load(path):\n"
        "    return path.read_bytes()\n"
    )
    findings = analyze_source(
        source_pathlib, Path("pkg/serve/registry.py"),
        module="pkg.serve.registry", config=res_config(),
    )
    res = [f for f in findings if f.code == "RES801"]
    assert res and "read_bytes" in res[0].message


def test_res801_only_applies_to_scoped_packages():
    src = (
        "async def handle(reader):\n"
        "    return await reader.readline()\n"
    )
    findings = analyze_source(
        src, Path("pkg/core/pipe.py"), module="pkg.core.pipe",
        config=res_config(),
    )
    assert "RES801" not in codes(findings)
    # And with no resilience contract at all, nothing anywhere is flagged.
    findings = analyze_source(
        src, Path("pkg/serve/server.py"), module="pkg.serve.server",
        config=layered_config(layer_ranks={"data": 0, "serve": 3}),
    )
    assert "RES801" not in codes(findings)


def test_res801_suppression_comment_is_honored():
    src = (
        "async def pump(queue):\n"
        "    return await queue.drain()  # repolint: disable=RES801\n"
    )
    findings = analyze_source(
        src, Path("pkg/serve/server.py"), module="pkg.serve.server",
        config=res_config(),
    )
    assert "RES801" not in codes(findings)


def test_resilience_packages_parse_from_pyproject_section():
    text = (
        "[tool.repolint]\n"
        'package = "pkg"\n'
        "[tool.repolint.resilience]\n"
        'packages = ["pkg.serve", "pkg.cli"]\n'
    )
    config = RepolintConfig.from_mapping(parse_toml(text)["tool"]["repolint"])
    assert config.resilience_packages == ("pkg.serve", "pkg.cli")


def test_res801_clean_on_real_serve_layer():
    """The repo's own serve package satisfies its resilience contract."""
    program = real_program()
    assert program is not None
    from tools.repolint.rules.resilience import UnboundedServeIORule

    findings = list(UnboundedServeIORule().check_program(program))
    # The only raw await is the batcher drain in stop(), suppressed with a
    # rationale at the call site.
    assert [f for f in findings if "serve" in f.path] == findings
    assert len(findings) <= 1


# ---------------------------------------------------------------------------
# Effect inference — edge cases
# ---------------------------------------------------------------------------

def effect_of(source: str, qualname: str, module: str = "pkg.core.mod"):
    program, effects = program_effects({module: source}, layered_config())
    return effects[qualname]


def test_effect_self_augassign_is_self_mutation():
    effect = effect_of(
        "class C:\n"
        "    def tick(self):\n"
        "        self.x += 1\n",
        "pkg.core.mod.C.tick",
    )
    assert effect.level is EffectLevel.MUTATES_SELF
    assert any(r.kind == "self-mutation" for r in effect.reasons)


def test_effect_property_setter_mutates_self():
    src = (
        "class C:\n"
        "    @property\n"
        "    def x(self):\n"
        "        return self._x\n"
        "    @x.setter\n"
        "    def x(self, value):\n"
        "        self._x = value\n"
    )
    program, effects = program_effects({"pkg.core.mod": src}, layered_config())
    levels = {
        qualname: effect.level
        for qualname, effect in effects.items()
        if ".C.x" in qualname
    }
    # Getter and setter share a name; both are indexed, the setter mutates.
    assert EffectLevel.MUTATES_SELF in levels.values()
    assert EffectLevel.READS_SELF in levels.values()


def test_effect_decorated_function_still_analyzed():
    src = (
        "import functools\n"
        "class C:\n"
        "    @functools.lru_cache\n"
        "    def compute(self):\n"
        "        self.hits += 1\n"
        "        return self.hits\n"
    )
    effect = effect_of(src, "pkg.core.mod.C.compute")
    assert effect.level is EffectLevel.MUTATES_SELF


def test_effect_closure_write_is_captured_write():
    src = (
        "def outer():\n"
        "    total = 0\n"
        "    def inner(x):\n"
        "        nonlocal total\n"
        "        total += x\n"
        "    return inner\n"
    )
    program, effects = program_effects({"pkg.core.mod": src}, layered_config())
    inner = effects["pkg.core.mod.outer.inner"]
    assert inner.level is EffectLevel.MUTATES_SHARED
    assert any(r.kind == "captured-write" for r in inner.reasons)


def test_effect_local_write_in_nested_function_is_pure():
    src = (
        "def outer():\n"
        "    def inner(x):\n"
        "        total = 0\n"
        "        total += x\n"
        "        return total\n"
        "    return inner\n"
    )
    program, effects = program_effects({"pkg.core.mod": src}, layered_config())
    assert effects["pkg.core.mod.outer.inner"].level is EffectLevel.PURE


def test_effect_functools_partial_creates_call_edge():
    src = (
        "import functools\n"
        "class C:\n"
        "    def _bump(self):\n"
        "        self.n += 1\n"
        "    def run(self):\n"
        "        hook = functools.partial(self._bump)\n"
        "        return hook\n"
    )
    program, _ = program_effects({"pkg.core.mod": src}, layered_config())
    edges = program.call_graph.edges_by_caller.get("pkg.core.mod.C.run", [])
    assert any(e.callee == "pkg.core.mod.C._bump" for e in edges)


def test_effect_shared_rng_draw_is_shared_hazard():
    src = (
        "class C:\n"
        "    def draw(self, rng):\n"
        "        return rng.random()\n"
    )
    effect = effect_of(src, "pkg.core.mod.C.draw")
    assert any(r.kind == "rng-draw" and r.shared for r in effect.reasons)


def test_effect_owned_rng_draw_is_clean():
    src = (
        "import numpy as np\n"
        "def draw(seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return rng.random()\n"
    )
    effect = effect_of(src, "pkg.core.mod.draw")
    assert effect.level is EffectLevel.PURE


# ---------------------------------------------------------------------------
# reachable_from — context propagation semantics
# ---------------------------------------------------------------------------

def test_reachable_from_owned_edge_drops_shared_context():
    edges = {
        "a": [("b", True)],   # receiver owned -> context drops
        "b": [("c", False)],  # stays non-shared downstream
    }
    reached = dict(reachable_from(edges, "a"))
    assert reached == {"a": True, "b": False, "c": False}


def test_reachable_from_shared_context_wins_on_diamond():
    edges = {
        "a": [("b", True), ("b", False)],
        "b": [],
    }
    reached = dict(reachable_from(edges, "a"))
    assert reached["b"] is True  # the shared path dominates


# ---------------------------------------------------------------------------
# Config parsing (including the pre-3.11 TOML fallback subset)
# ---------------------------------------------------------------------------

def test_parse_toml_subset_roundtrip():
    text = (
        "[tool.repolint]\n"
        'package = "pkg"\n'
        "[tool.repolint.layers]\n"
        'free = ["util"]\n'
        "[tool.repolint.layers.ranks]\n"
        "data = 0\n"
        "core = 2\n"
        "[tool.repolint.parallel]\n"
        "entry-points = [\n"
        '    "pkg.core.run.Runner.run",\n'
        "]\n"
    )
    data = parse_toml(text)
    section = data["tool"]["repolint"]
    config = RepolintConfig.from_mapping(section)
    assert config.package == "pkg"
    assert config.layer_ranks == {"data": 0, "core": 2}
    assert config.free_layers == frozenset({"util"})
    assert config.entry_points == ("pkg.core.run.Runner.run",)


def test_rank_for_layer_treats_root_as_free():
    config = layered_config()
    assert config.rank_for_layer("<root>") is None
    assert config.rank_for_layer("util") is None
    assert config.rank_for_layer("core") == 2
    assert config.rank_for_layer("unknown") is None


# ---------------------------------------------------------------------------
# SARIF rendering
# ---------------------------------------------------------------------------

def test_findings_to_sarif_shape():
    findings = analyze_source(
        "import random\nx = random.random()\n", Path("bad.py")
    )
    sarif = findings_to_sarif(findings, [("RNG102", "StdlibRandom", "no stdlib random")])
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "repolint"
    results = run["results"]
    assert results and results[0]["ruleId"] == "RNG102"
    assert results[0]["locations"][0]["physicalLocation"]["region"]["startLine"] == 2


# ---------------------------------------------------------------------------
# Certificate against the real repository
# ---------------------------------------------------------------------------

def real_program():
    return build_program(REPO_ROOT / "src")


def test_report_covers_every_reachable_public_function():
    program = real_program()
    assert program is not None
    report = build_report(program)
    entry = "repro.core.feat.FEATTrainer.buffer_filling"
    reachable = report["certificate"]["reachable"][entry]
    assert reachable, "buffer_filling reaches nothing — call graph broke"
    for item in reachable:
        assert item["function"] in report["effects"]
    public = [item for item in reachable if item["public"]]
    assert any("DuelingDQNAgent.act" in item["function"] for item in public)
    assert any("FeatureSelectionEnv.step" in item["function"] for item in public)


def test_rollout_inference_path_uses_pure_infer():
    """Agent.act must reach the pure ``infer`` stack, never a training
    ``forward`` that caches activations on shared layer objects."""
    program = real_program()
    assert program is not None
    edges = {}
    for caller, edge_list in program.call_graph.edges_by_caller.items():
        edges[caller] = [(e.callee, e.receiver_owned) for e in edge_list]
    reached = dict(reachable_from(edges, "repro.rl.agent.DuelingDQNAgent.act"))
    forwards = [fn for fn in reached if fn.endswith(".forward")]
    assert forwards == [], f"act reaches training forward(s): {forwards}"
    assert any(fn.endswith(".infer") for fn in reached)


def test_import_graph_has_no_cycles_in_real_repo():
    program = real_program()
    assert program is not None
    from tools.repolint.graphs.imports import find_cycles

    assert find_cycles(program.import_graph) == []


# ---------------------------------------------------------------------------
# CLI: formats, report subcommand, --changed from a subdirectory
# ---------------------------------------------------------------------------

def run_cli(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "tools.repolint", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env=env,
    )


def test_cli_format_json(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.random()\n")
    result = run_cli("--format", "json", str(bad))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload[0]["code"] == "RNG102"
    assert payload[0]["line"] == 2


def test_cli_format_sarif(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.random()\n")
    result = run_cli("--format", "sarif", str(bad))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["version"] == "2.1.0"
    assert payload["runs"][0]["results"][0]["ruleId"] == "RNG102"


def test_cli_output_writes_file(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.random()\n")
    out = tmp_path / "findings.sarif"
    result = run_cli("--format", "sarif", "--output", str(out), str(bad))
    assert result.returncode == 1
    assert json.loads(out.read_text())["version"] == "2.1.0"


def test_cli_report_subcommand(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("report", "--anchor", "src", "--out", str(out))
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["package"] == "repro"
    assert report["layers"]["ranks"]["core"] == 4
    assert report["certificate"]["entry_points"]


def test_cli_changed_works_from_subdirectory(tmp_path):
    """Regression: ``--changed`` used to resolve ``git status`` paths against
    the cwd, so running from a subdirectory produced wrong paths.  Paths are
    now anchored at ``git rev-parse --show-toplevel``."""
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    sub = tmp_path / "sub"
    sub.mkdir()
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    subprocess.run(["git", "-C", str(tmp_path), "add", "-A"], check=True)
    subprocess.run(
        ["git", "-C", str(tmp_path), "-c", "user.email=t@t", "-c", "user.name=t",
         "commit", "-qm", "seed"],
        check=True,
    )
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nrandom.seed(0)\n")
    result = run_cli("--changed", cwd=sub)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "bad.py" in result.stdout
