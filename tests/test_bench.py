"""The schema of BENCH_1.json, which scripts/write_bench.py writes."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCH_1.json").read_text())


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "write_bench", ROOT / "scripts" / "write_bench.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_names_its_commit_and_machine(bench):
    assert set(bench) == {"bench", "started_utc", "base_commit",
                          "src_changed", "src_sha256", "script", "machine",
                          "launcher_rss_mb", "units", "commands", "scaling",
                          "perfbench", "harness_flaws"}
    assert bench["bench"] == "BENCH_1"
    assert re.fullmatch(r"[0-9a-f]{40}", bench["base_commit"])
    assert re.fullmatch(r"[0-9a-f]{64}", bench["src_sha256"])
    assert all(isinstance(f, str) for f in bench["src_changed"])
    assert bench["script"].startswith("scripts/write_bench.py")
    m = bench["machine"]
    assert {"nproc", "platform", "python", "mem_total_mb",
            "mem_available_mb", "loadavg", "blas_threads"} <= set(m)
    assert m["nproc"] >= 1 and m["blas_threads"] == 1
    assert 0 < bench["launcher_rss_mb"] < 64
    assert bench["units"] == {"wall_s": "s", "rss_mb": "MB",
                              "median_wall_s": "s", "max_rss_mb": "MB"}


def test_bench_digest_is_that_of_the_sources_it_measured(bench):
    # the file is written before the change that adds it commits, so the
    # measured src/ is that of the last commit that wrote BENCH_1.json, or
    # the working tree while BENCH_1.json has changes not yet committed
    wb = _load_script()
    pending = wb.git("status", "--porcelain", "--", "BENCH_1.json")
    rev = None if pending else wb.git("log", "-1", "--format=%H", "--",
                                      "BENCH_1.json")
    assert bench["src_sha256"] == wb.src_digest(rev)


def test_bench_holds_every_workload_at_both_trace_levels(bench):
    parts = bench["perfbench"]
    assert [(p["workload"], p["trace"]) for p in parts] == [
        (w, t) for w in ("catalogue", "verify", "large_algebra")
        for t in (0, 1)]
    for p in parts:
        assert isinstance(p["seed"], int) and p["seconds"] > 0
        assert p["env"]["blas_threads"] == 1
        assert p["env"]["git_commit"] == bench["base_commit"]
        want = SPEC["per_layer" if p["trace"] else "end_to_end"]
        assert list(p["metrics"]) == [m["name"] for m in want]
        for name, metric in p["metrics"].items():
            assert metric["unit"] == METRICS[name]
            assert isinstance(metric["value"], (int, float))
        assert 0 <= p["fail_frac"] <= 1
        assert (p["fail_frac"] == 0) == (p["failures"] == [])
        assert p["trace"] == 0 or p["traced_wall_s"] > 0


def test_bench_times_the_three_commands_from_a_small_launcher(bench):
    assert list(bench["commands"]) == ["atlas", "report", "verify --seed 7"]
    for c in bench["commands"].values():
        n = len(c["exit"])
        assert n >= 1 and c["exit"] == [0] * n
        assert len(c["wall_s"]) == len(c["rss_mb"]) == n
        assert c["median_wall_s"] > 0
        assert c["max_rss_mb"] == max(c["rss_mb"]) > bench["launcher_rss_mb"]


def test_bench_scaling_runs_up_each_window(bench):
    assert list(bench["scaling"]) == ["sphere", "unitary_group"]
    for row in bench["scaling"].values():
        low, top = row["window"]
        ns = [p["n"] for p in row["points"]]
        assert ns == list(range(low, low + len(ns)))
        # the curve reaches the window top or says why it stopped
        assert ns[-1] == top or row["stopped"]
        dims = [p["dim"] for p in row["points"]]
        assert dims == sorted(dims)
        for p in row["points"]:
            assert p["exit"] == 0 and p["wall_s"] > 0 and p["rss_mb"] > 0


def test_bench_lists_the_harness_flaws_beside_their_metrics(bench):
    assert bench["harness_flaws"]
    for f in bench["harness_flaws"]:
        assert set(f) == {"flaw", "affects"} and f["flaw"]
        assert set(f["affects"]) <= set(METRICS)
    assert any("peak_rss_mb" in f["affects"] for f in bench["harness_flaws"])


def test_the_launcher_reads_a_child_exit_time_and_rss():
    r = _load_script().spawn([sys.executable, "-c", "raise SystemExit(3)"])
    assert r["exit"] == 3 and r["wall_s"] > 0 and r["rss_mb"] > 0
