"""roundfold benchmark: the census, classify and queries workloads.

    python3 perfbench/run.py --workload census|classify|queries --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a checkout; it imports roundfold from ./src in
worker processes and writes scratch files under ./.perfbench_work.  The last
line of stdout is one JSON object: correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, taken by wrapping the layers' public functions from
outside.  The line before it records the environment and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from harness import BenchError, Harness  # noqa: E402

SETUP_PROBES = 15
MAX_S = 7

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

CENSUS_COUNTERS = (
    ("skeletons", "lower"),
    ("skeletons_rejected.disconnected", "lower"),
    ("skeletons_rejected.other", "lower"),
    ("twist_candidates", "lower"),
    ("classes", "higher"),
)
ENCODE_GENERA = (4, 8, 11)
INVARIANT_FUNCTIONS = ("surface_type", "page_orientable", "twist_class", "regular_fiber_counts", "gauge_generators")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [("census.self_s", "s", "lower")]
    for counter, better in CENSUS_COUNTERS:
        spec.append((f"census.{counter}", "count", better))
        spec += [(f"census.{counter}.s{s}", "count", better) for s in range(1, MAX_S + 1)]
    spec += [
        ("census.skeleton_yield", "ratio", "higher"),
        ("census.class_yield", "ratio", "higher"),
        ("pages.validate_page.calls", "count", "lower"),
        ("pages.validate_page.self_s", "s", "lower"),
        ("pages.validate_per_op", "ratio", "lower"),
        ("pages.canonical_page_encoding.calls", "count", "lower"),
        ("pages.canonical_page_encoding.self_s", "s", "lower"),
    ]
    spec += [(f"pages.encode_ms.g{g:02d}", "ms", "lower") for g in ENCODE_GENERA]
    spec += [
        ("pages.invariants.self_s", "s", "lower"),
        ("gf2.rref.calls", "count", "lower"),
        ("gf2.rref.self_s", "s", "lower"),
        ("gf2.rref_per_encoding", "ratio", "lower"),
        ("classify.canonical_form.self_s", "s", "lower"),
        ("classify.a_equivalent.calls", "count", "lower"),
        ("foldmaps.self_s", "s", "lower"),
        ("foldmaps.require_valid_descriptor.calls", "count", "lower"),
        ("manifolds.self_s", "s", "lower"),
        ("jsonio.parse_page.self_s", "s", "lower"),
        ("jsonio.census_jsonl.self_s", "s", "lower"),
        ("jsonio.bytes_out", "bytes", "lower"),
        ("render.self_s", "s", "lower"),
        ("render.bytes_out", "bytes", "lower"),
        ("cli.self_ms_per_call", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return spec


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end_metrics(h: Harness, out: workloads.Outcome) -> dict[str, float]:
    lat_ms = [x * 1000.0 for x in out.latencies_s]
    return {
        "setup_s": statistics.median(h.setup_samples),
        "latency_p50_ms": _percentile(lat_ms, 50),
        "latency_p95_ms": _percentile(lat_ms, 95),
        "latency_p99_ms": _percentile(lat_ms, 99),
        "peak_rss_mb": out.peak_rss_mb,
        "success_rate": (out.attempted - len(out.failures)) / out.attempted,
    }


def per_layer_metrics(out: workloads.Outcome) -> dict[str, float]:
    calls, self_s, layer_self = Counter(), Counter(), Counter()
    for _caller, callee, n, _incl, own in out.trace["records"]:
        calls[callee] += n
        self_s[callee] += own
        layer_self[callee.split(".")[0]] += own
    counters = Counter(out.trace["counters"])
    m: dict[str, float] = {"census.self_s": layer_self["census"]}
    for counter, _ in CENSUS_COUNTERS:
        per_s = [counters[f"census.{counter}.s{s}"] for s in range(1, MAX_S + 1)]
        m[f"census.{counter}"] = sum(per_s)
        m.update({f"census.{counter}.s{s}": n for s, n in enumerate(per_s, 1)})
    rejected = m["census.skeletons_rejected.disconnected"] + m["census.skeletons_rejected.other"]
    m["census.skeleton_yield"] = _ratio(m["census.skeletons"] - rejected, m["census.skeletons"])
    m["census.class_yield"] = _ratio(m["census.classes"], m["census.twist_candidates"])
    m["pages.validate_page.calls"] = calls["pages.validate_page"]
    m["pages.validate_page.self_s"] = self_s["pages.validate_page"]
    m["pages.validate_per_op"] = _ratio(calls["pages.validate_page"], out.ops)
    encodings = calls["pages.canonical_page_encoding"]
    m["pages.canonical_page_encoding.calls"] = encodings
    m["pages.canonical_page_encoding.self_s"] = self_s["pages.canonical_page_encoding"]
    for g in ENCODE_GENERA:
        bucket = f"pages.encode.g{g:02d}"
        m[f"pages.encode_ms.g{g:02d}"] = 1000.0 * _ratio(counters[f"{bucket}.s"], counters[f"{bucket}.calls"])
    m["pages.invariants.self_s"] = sum(self_s[f"pages.{f}"] for f in INVARIANT_FUNCTIONS)
    m["gf2.rref.calls"] = calls["gf2.rref"]
    m["gf2.rref.self_s"] = self_s["gf2.rref"]
    m["gf2.rref_per_encoding"] = _ratio(calls["gf2.rref"], encodings)
    m["classify.canonical_form.self_s"] = self_s["classify.canonical_form"]
    m["classify.a_equivalent.calls"] = calls["classify.a_equivalent"]
    m["foldmaps.self_s"] = layer_self["foldmaps"]
    m["foldmaps.require_valid_descriptor.calls"] = calls["foldmaps.require_valid_descriptor"]
    m["manifolds.self_s"] = layer_self["manifolds"]
    m["jsonio.parse_page.self_s"] = self_s["jsonio.parse_page"]
    m["jsonio.census_jsonl.self_s"] = self_s["jsonio.census_jsonl"]
    m["jsonio.bytes_out"] = counters["jsonio.bytes_out"]
    m["render.self_s"] = layer_self["render"]
    m["render.bytes_out"] = counters["render.bytes_out"]
    m["cli.self_ms_per_call"] = 1000.0 * _ratio(layer_self["cli"], calls["cli.main"])
    m["trace.overhead_ratio"] = _ratio(out.traced_s, out.untraced_s)
    return m


def run_workload(h: Harness, workload: str, seconds: float, trace: bool) -> workloads.Outcome:
    h.probe_setup(SETUP_PROBES)
    if workload == "census":
        return workloads.run_census(h, trace)
    if workload == "classify":
        return workloads.run_classify(h, seconds, trace)
    return workloads.run_queries(h, seconds, trace)


def environment(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def result_line(out: workloads.Outcome, metrics: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps({
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def self_test(root: Path) -> list[str]:
    """Tiny sizes of every workload, traced and untraced, plus negative cases:
    a wrong expected answer must count as a failure."""
    errors = []

    def expect(label: str, out: workloads.Outcome, failing: bool) -> None:
        if bool(out.failures) != failing:
            errors.append(f"{label}: failures={out.failures[:3]}")

    layer_names = {name for name, _, _ in per_layer_spec()}
    h = Harness(root, seed=1)
    try:
        out = workloads.run_census(h, trace=True, s_max=3)
        expect("census s<=3", out, False)
        m = per_layer_metrics(out)
        if set(m) != layer_names:
            errors.append(f"per-layer names differ: {sorted(set(m) ^ layer_names)}")
        if (m["census.skeletons.s3"], m["census.classes"]) != (18, 13) or m["pages.validate_per_op"] <= 0:
            errors.append(f"census s<=3 counters: {m}")
        expect("census wrong counts", workloads.run_census(h, False, 3, counts=(1, 3, 8)), True)
        tiny = {1: 2, 2: 2, 4: 2}
        out = workloads.run_classify(h, 0, True, histogram=tiny, min_requests=0)
        expect("classify", out, False)
        if per_layer_metrics(out)["classify.a_equivalent.calls"] != 6:
            errors.append("classify trace missed a_equivalent calls")
        out = workloads.run_classify(h, 0, False, histogram=tiny, sabotage=True, min_requests=0)
        expect("classify wrong answer", out, True)
        out = workloads.run_queries(h, 0, False, sizes=(6,), min_requests=0)
        expect("queries", out, False)
        if set(end_to_end_metrics(h, out)) != set(END_TO_END):
            errors.append("end-to-end names differ")
        out = workloads.run_queries(h, 0, False, sizes=(6,), sabotage=True, min_requests=0)
        expect("queries wrong answer", out, True)
    finally:
        h.close()
    spec_file = root / "BENCHMARK.json"
    if spec_file.is_file():
        spec = json.loads(spec_file.read_text(encoding="utf-8"))
        declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        if declared != list(END_TO_END.items()):
            errors.append("BENCHMARK.json end_to_end differs from run.py")
        declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        if declared != per_layer_spec():
            errors.append("BENCHMARK.json per_layer differs from run.py")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("census", "classify", "queries"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if args.self_test:
            errors = self_test(root)
            for e in errors:
                print(f"self-test: {e}", file=sys.stderr)
            print("self-test " + ("FAILED" if errors else "ok"))
            return 1 if errors else 0
        if not args.workload:
            parser.error("--workload is required")
        h = Harness(root, args.seed)
        try:
            out = run_workload(h, args.workload, args.seconds, bool(args.trace))
        finally:
            h.close()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for failure in out.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace:
        units = {name: unit for name, unit, _ in per_layer_spec()}
        metrics = per_layer_metrics(out)
    else:
        units, metrics = END_TO_END, end_to_end_metrics(h, out)
    print(json.dumps({"env": environment(args)}))
    print(result_line(out, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
