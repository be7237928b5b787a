"""Wall time, CPU time and peak RSS of the census command over repeated runs.

    python3 tools/bench_census.py [--runs N] [--s-max S] [--out PATH]

Runs ``python -m roundfold census --n 5 --s-max S --format jsonl`` N times
(default 15 runs at S = 7), each in a fresh interpreter, with the default
workers and PYTHONHASHSEED=0 as the benchmark sets it.  The sha256 of
stdout is checked on every run.  One untimed ``import roundfold`` writes the
bytecode cache first; the children run without PYTHONDONTWRITEBYTECODE, so
that it is written, and read by every timed run, even where the variable is
set.  The summary goes to PATH, by default
``BENCH_census.json`` at the repository root: the machine, the Python
version, the commit, each run's wall and CPU time, the median, quartiles and
p95 wall time, the median CPU time and the largest peak RSS.

Wall time covers interpreter start to exit.  CPU time and peak RSS come from
``RUSAGE_CHILDREN``, which counts the census process and its pool processes.
On Linux a child starts with its parent's peak RSS, since the high-water mark
survives fork and exec, so this process imports no roundfold and hashes each
run's output as it streams; ``parent_peak_rss_mb`` records that floor.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# stdout of `census --n 5 --s-max S --format jsonl`, pinned in the tests
EXPECTED_SHA256 = {
    3: "9b6396558e7f8840f4daf46fe7dc00244527375ea76df9e378e8741a6809a509",
    7: "75d8b75e2338e98fda792704160a7d2c1123acaba7afc5c82a7f24c66d5dd8f4",
}


def machine() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"{cpu}, {os.cpu_count()} CPUs ({usable} usable), {platform.platform()}"


def commit() -> str | None:
    """HEAD, with "+dirty" if tracked files differ from it; None outside git."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return head.stdout.strip() + ("+dirty" if status.stdout.strip() else "")


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(argv: list[str], env: dict[str, str]) -> tuple[float, float, str]:
    """Wall seconds, CPU seconds and stdout sha256 of one fresh process."""
    digest = hashlib.sha256()
    cpu_before = children_cpu_s()
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}")
    return wall, children_cpu_s() - cpu_before, digest.hexdigest()


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15, help="timed runs, at least 2 (default 15)")
    parser.add_argument("--s-max", type=int, default=7, choices=sorted(EXPECTED_SHA256))
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_census.json")
    opts = parser.parse_args(args)
    if opts.runs < 2:
        parser.error("--runs must be at least 2")

    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = ["-m", "roundfold", "census", "--n", "5", "--s-max", str(opts.s_max), "--format", "jsonl"]
    expected = EXPECTED_SHA256[opts.s_max]
    head = commit()

    subprocess.run([sys.executable, "-c", "import roundfold"], cwd=ROOT, env=env, check=True)
    walls, cpus = [], []
    for index in range(opts.runs):
        wall, cpu, sha = run_once([sys.executable, *command], env)
        if sha != expected:
            raise SystemExit(f"run {index}: stdout sha256 {sha}, expected {expected}")
        walls.append(wall)
        cpus.append(cpu)
        print(f"run {index + 1}/{opts.runs}: {wall * 1000:.1f} ms wall, {cpu * 1000:.1f} ms CPU", file=sys.stderr)

    q1, _, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    # ru_maxrss is in KiB on Linux
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    parent_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = {
        "command": "python " + " ".join(command),
        "workers": "default (every usable CPU)",
        "machine": machine(),
        "python": platform.python_version(),
        "commit": head,
        "runs": opts.runs,
        "stdout_sha256": expected,
        "wall_s": [round(w, 4) for w in walls],
        "cpu_s": [round(c, 4) for c in cpus],
        "wall_median_s": round(statistics.median(walls), 4),
        "wall_q1_s": round(q1, 4),
        "wall_q3_s": round(q3, 4),
        "wall_p95_s": round(statistics.quantiles(walls, n=20, method="inclusive")[18], 4),
        "cpu_median_s": round(statistics.median(cpus), 4),
        "peak_rss_mb": round(children_rss, 1),
        "parent_peak_rss_mb": round(parent_rss, 1),
    }
    opts.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
