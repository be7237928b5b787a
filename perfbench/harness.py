"""Worker processes seen from the benchmark side: spawn, time start-up,
exchange JSON lines, reap with resource usage, and kill at the deadline."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


class Worker:
    def __init__(self, harness: "Harness", mode: str, *args: str):
        self.harness = harness
        cmd = [sys.executable, str(WORKER), str(harness.src), mode, *args]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=harness.root,
            env=harness.env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        harness.workers.append(self)
        remaining = harness.deadline - time.monotonic()
        self.watchdog = threading.Timer(max(remaining, 0.0), self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line != "ready\n":
            self.close()
            raise BenchError(f"worker {mode} did not start (got {line!r})")
        self.peak_rss_mb = None

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("worker ended without a reply (crash or deadline)")
        return json.loads(line)

    def send(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self.receive()

    def close(self) -> int:
        """Reap the process; records its peak RSS from wait4."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.watchdog.cancel()
        self.harness.workers.remove(self)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        return self.proc.returncode


class Harness:
    """One benchmark run: the checkout root, a scratch directory inside it,
    the environment of the workers and the run's deadline."""

    def __init__(self, root: Path, seed: int, budget_s: float = 170.0):
        self.root = root
        self.src = root / "src"
        if not (self.src / "roundfold" / "__init__.py").is_file():
            raise BenchError(f"no roundfold sources under {self.src}")
        self.seed = seed
        self.deadline = time.monotonic() + budget_s
        self.work = root / ".perfbench_work" / f"run-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        # one dict/set layout for every run: in back-to-back runs the hash
        # seed alone moved request latencies by 6-9 %
        self.env["PYTHONHASHSEED"] = "0"
        self.setup_samples: list[float] = []
        self.workers: list[Worker] = []

    def spawn(self, mode: str, *args: str) -> Worker:
        worker = Worker(self, mode, *args)
        self.setup_samples.append(worker.setup_s)
        return worker

    def probe_setup(self, count: int) -> None:
        """Start `count` fresh interpreters that only import roundfold.
        One unmeasured start first writes the bytecode cache."""
        Worker(self, "probe").close()
        for _ in range(count):
            w = self.spawn("probe")
            if w.close() != 0:
                raise BenchError("probe worker failed")

    def close(self) -> None:
        """Stop and reap every worker still running, then remove scratch files."""
        for worker in list(self.workers):
            worker.proc.kill()
            worker.close()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass
