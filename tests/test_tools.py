"""Smoke test of the repeated-run census bench, ``tools/bench_census.py``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_census.py"


def test_bench_census_writes_its_summary(tmp_path):
    out = tmp_path / "BENCH_census.json"
    run = subprocess.run(
        [sys.executable, str(TOOL), "--runs", "2", "--s-max", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(summary) == [
        "command", "commit", "cpu_median_s", "cpu_s", "machine", "parent_peak_rss_mb", "peak_rss_mb",
        "python", "runs", "stdout_sha256", "wall_median_s", "wall_p95_s", "wall_q1_s", "wall_q3_s",
        "wall_s", "workers",
    ]
    assert summary["command"] == "python -m roundfold census --n 5 --s-max 3 --format jsonl"
    assert summary["stdout_sha256"] == "9b6396558e7f8840f4daf46fe7dc00244527375ea76df9e378e8741a6809a509"
    assert summary["runs"] == len(summary["wall_s"]) == len(summary["cpu_s"]) == 2
    assert summary["wall_q1_s"] <= summary["wall_median_s"] <= summary["wall_q3_s"] <= summary["wall_p95_s"]
    assert summary["peak_rss_mb"] > 0


def test_bench_census_writes_the_bytecode_cache_its_runs_read(tmp_path):
    # with PYTHONDONTWRITEBYTECODE set here, the untimed import must still
    # write the cache, or every timed run compiles the package
    cache = tmp_path / "pycache"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(cache))
    run = subprocess.run(
        [sys.executable, str(TOOL), "--runs", "2", "--s-max", "3", "--out", str(tmp_path / "BENCH_census.json")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert run.returncode == 0, run.stderr
    assert [path.name for path in cache.rglob("census.*.pyc")] == [f"census.{sys.implementation.cache_tag}.pyc"]
