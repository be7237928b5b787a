"""Smoke tests of the repeated-run census bench, ``tools/bench_census.py``,
and of the code-line count, ``tools/code_lines.py``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_census.py"
CODE_LINES = TOOL.with_name("code_lines.py")

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code


# a comment line
class Thing:
    """A class docstring."""

    def method(self):
        """A method
        docstring."""
        text = """a string,
        not a docstring"""
        return os.sep + text
'''


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


def test_code_lines_counts_no_docstring_comment_or_blank_line(tmp_path):
    package = tmp_path / "package"
    (package / "sub").mkdir(parents=True)
    (package / "one.py").write_text(SOURCE, encoding="utf-8")
    (package / "sub" / "two.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    run = subprocess.run([sys.executable, str(CODE_LINES), str(package)], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    # import, class, def, the two lines of the string and return
    assert run.stdout == "one 6\nsub.two 1\ntotal 7\n"
