"""The three workloads and their independent answer checks.

Every workload is a closed loop with one client: one worker process runs
`roundfold.cli.main(argv)` for one request at a time.  The expected answers
come from the closed formulas in `pagegen` and from parsing the program's
own output with code that shares nothing with roundfold.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import pagegen
from harness import Harness

# -- census --------------------------------------------------------------------

# classes per stratum s = 1..7, from the source paper's census
CENSUS_COUNTS = (1, 3, 9, 43, 287, 2480, 26964)
# sha256 of the stdout of `roundfold census --n 5 --s-max S --format jsonl`
# at the commit that introduced this benchmark
CENSUS_DIGESTS = {
    3: "9b6396558e7f8840f4daf46fe7dc00244527375ea76df9e378e8741a6809a509",
    7: "75d8b75e2338e98fda792704160a7d2c1123acaba7afc5c82a7f24c66d5dd8f4",
}


@dataclass
class Outcome:
    """What one workload run produced, before it becomes metrics."""

    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    ops: int = 0  # rows (census) or requests, the base of per-op ratios
    trace: dict | None = None
    untraced_s: float = 0.0
    traced_s: float = 0.0

    def fail(self, what: str) -> None:
        self.failures.append(what)


def _row_problem(row: dict, n: int) -> str | None:
    """Check one census row: the manifold, surface, fiber counts and the
    directed flag are recomputed from the canonical encoding alone."""
    fields = dict(part.split("=", 1) for part in row["canonical"].split(";") if "=" in part)
    tags = fields["K"].split(",")
    s = len(tags)
    boundary_targets = [int(x) for x in fields["B"].split(",")] if fields["B"] else []
    b = len(boundary_targets)
    chi = tags.count("m") + tags.count("M") - tags.count("P") - tags.count("B")
    orientable = "B" not in tags and "1" not in fields["T"]
    counts = [0] * (s + 1)
    for key in fields["E"].split(","):
        low, high = key.split(">")
        low_rank = 0 if low.startswith("b") else int(low)
        for r in range(low_rank, int(high)):
            counts[r] += 1
    directed = orientable and all(counts[r - 1] > counts[r] for r in range(1, s + 1))
    if orientable:
        surface = f"orientable g={(2 - b - chi) // 2} b={b} chi={chi}"
    else:
        surface = f"nonorientable k={2 - b - chi} b={b} chi={chi}"
    expect = {
        "s": s,
        "clutching": 0,
        "manifold": pagegen.manifold_of(n, orientable, b, chi),
        "directed": directed,
    }
    for key, want in expect.items():
        if row[key] != want:
            return f"{key}={row[key]!r}, expected {want!r}"
    fibers = "c=[" + ",".join(map(str, counts)) + "]"
    if not row["summary"].endswith(f"; {surface}; {fibers}"):
        return f"summary {row['summary']!r} does not end with {surface}; {fibers}"
    return None


def check_census(text: str, s_max: int, counts=CENSUS_COUNTS) -> list[str]:
    problems = []
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if s_max in CENSUS_DIGESTS and digest != CENSUS_DIGESTS[s_max]:
        problems.append(f"stdout sha256 {digest} differs from the recorded output")
    rows = [json.loads(line) for line in text.splitlines()]
    per_s = Counter(row["s"] for row in rows)
    got = tuple(per_s.get(s, 0) for s in range(1, s_max + 1))
    if got != tuple(counts[:s_max]) or len(per_s) != s_max:
        problems.append(f"classes per stratum {got}, expected {tuple(counts[:s_max])}")
    bad = [(i, p) for i, row in enumerate(rows) if (p := _row_problem(row, 5))]
    if bad:
        problems.append(f"{len(bad)} rows fail the realization check, first: row {bad[0][0]}: {bad[0][1]}")
    if [r["canonical"] for r in rows] != sorted(r["canonical"] for r in rows):
        problems.append("rows are not sorted by canonical encoding")
    return problems


def run_census(h: Harness, trace: bool, s_max: int = 7, counts=CENSUS_COUNTS) -> Outcome:
    """One census command in a fresh process, so peak RSS belongs to it.
    A traced run repeats it under the tracer for the overhead ratio."""
    out = Outcome()
    argv = ["census", "--n", "5", "--s-max", str(s_max), "--format", "jsonl"]
    for traced in (False, True) if trace else (False,):
        out_file = h.work / "census.jsonl"
        args = [str(out_file), json.dumps(argv)] + (["--trace"] if traced else [])
        worker = h.spawn("census", *args)
        reply = worker.receive()
        if worker.close() != 0:
            out.fail("census worker exited with an error")
        out.attempted += 1
        text = out_file.read_text(encoding="utf-8")
        out_file.unlink()
        if reply["code"] != 0:
            out.fail(f"census exit code {reply['code']!r}: {reply['stderr'][-300:]}")
        else:
            out.failures += check_census(text, s_max, counts)
        if traced:
            out.traced_s, out.trace = reply["seconds"], reply["trace"]
        else:
            out.untraced_s = reply["seconds"]
            out.latencies_s.append(reply["seconds"])
            out.peak_rss_mb = worker.peak_rss_mb
            out.ops = text.count("\n")
    return out


# -- request loops (classify, queries) ---------------------------------------------


@dataclass
class Request:
    argv: list[str]
    check: object  # (code, stdout, stderr) -> problem text or None


# p99 needs at least ten samples beyond it
MIN_REQUESTS = 1000


def _serve(h: Harness, seconds: float, trace: bool, make_pass, sabotage: bool, min_requests: int) -> Outcome:
    """Send whole passes of requests until `seconds` have passed and at least
    `min_requests` were timed.  Each pass has the same fixed mix; its random
    draws come from (seed, pass index).
    A traced run sends every pass twice, untraced and traced, alternating
    which goes first, so the overhead ratio compares equal work."""
    out = Outcome()
    worker = h.spawn("serve")
    start = time.monotonic()
    index = 0
    while True:
        rng = random.Random(f"{h.seed}/{index}")
        pass_dir = h.work / f"pass{index}"
        pass_dir.mkdir()
        requests = make_pass(rng, pass_dir.relative_to(h.root))
        if sabotage and index == 0:
            requests[0] = Request(requests[0].argv, _expect(9))  # an exit code roundfold never uses
        modes = [False] if not trace else ([False, True] if index % 2 == 0 else [True, False])
        for traced in modes:
            reply = worker.send({"op": "run", "requests": [r.argv for r in requests], "trace": traced})
            for req, (code, stdout, stderr, elapsed) in zip(requests, reply["results"]):
                out.attempted += 1
                if code in (0, 1, 2):
                    problem = req.check(code, stdout, stderr)
                else:
                    problem = f"exit {code!r}: {stderr[-300:]}"
                if problem:
                    out.fail(f"{' '.join(req.argv)}: {problem}")
                if traced:
                    out.traced_s += elapsed
                else:
                    out.untraced_s += elapsed
                    out.latencies_s.append(elapsed)
                    out.ops += 1
        for f in pass_dir.iterdir():
            f.unlink()
        pass_dir.rmdir()
        index += 1
        if time.monotonic() - start >= seconds and out.ops >= min_requests:
            break
    if trace:
        out.trace = worker.send({"op": "report"})
    if worker.close() != 0:  # closing stdin ends the serve loop
        out.fail("serve worker exited with an error")
    out.peak_rss_mb = worker.peak_rss_mb
    return out


def _expect(code: int, stdout: str | None = None):
    def check(got_code, got_stdout, stderr):
        if got_code != code:
            return f"exit {got_code}, expected {code}: {stderr[-200:]}"
        if stdout is not None and got_stdout != stdout:
            return f"stdout {got_stdout[:200]!r}, expected {stdout[:200]!r}"
        return None

    return check


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


# classify: requests per pass by handle count g of the orientable_closed_page
# shape.  The encoding search costs about x2 per handle, so buckets are well
# apart and with this fixed histogram p50 falls inside the g=6 bucket, p95
# inside g=9 and p99 inside g=10 on every seed.
CLASSIFY_HISTOGRAM = {1: 17, 2: 17, 3: 17, 4: 17, 5: 16, 6: 32, 7: 34, 8: 34, 9: 11, 10: 4, 11: 1}


def classify_pass(histogram):
    def make(rng: random.Random, pass_dir: Path) -> list[Request]:
        requests = []
        for genus, count in histogram.items():
            for i in range(count):
                sums = [rng.randrange(2) for _ in range(genus)]
                equivalent = len(requests) % 2 == 0  # half of each pass
                other = list(sums)
                if not equivalent:
                    mask = rng.randrange(1, 2**genus)
                    other = [x ^ ((mask >> j) & 1) for j, x in enumerate(sums)]
                a = pagegen.closed_orientable_shape(rng, genus, sums)
                b = pagegen.closed_orientable_shape(rng, genus, other)
                name = f"g{genus}_{i}"
                fa = _write(pass_dir / f"{name}a.json", a.document(rng))
                fb = _write(pass_dir / f"{name}b.json", b.document(rng))
                answer = (0, "A-equivalent\n") if equivalent else (1, "not A-equivalent\n")
                requests.append(Request(["classify", fa, fb, "--n", "5"], _expect(*answer)))
        rng.shuffle(requests)
        return requests

    return make


def run_classify(h: Harness, seconds: float, trace: bool, histogram=CLASSIFY_HISTOGRAM, sabotage=False,
                 min_requests=MIN_REQUESTS) -> Outcome:
    return _serve(h, seconds, trace, classify_pass(histogram), sabotage, min_requests)


# -- queries -------------------------------------------------------------------

QUERY_SIZES = (6, 10, 16, 25, 40, 64, 100, 125, 150)


def query_pages(sizes=QUERY_SIZES):
    """(family, params) of the valid pages of one queries pass."""
    table = [("handle", (0, 0)), ("closed_orientable", (0,)), ("handle", (1, 0)),
             ("handle", (0, 1)), ("closed_orientable", (1,)), ("closed_nonorientable", (1,))]
    for s in sizes:
        table += [
            ("handle", (s - 1, 0)),
            ("handle", (s - 1 - s // 3, s // 3)),
            ("closed_orientable", ((s - 2) // 2,)),
            ("closed_nonorientable", (s - 2,)),
        ]
    return table


def query_specs(sizes=QUERY_SIZES):
    """Manifold specs for `admits` in one queries pass; `_witness` gives the
    page each must get."""
    specs = ["sphere n=5", "twisted_s2s2", "surface_product n=5 genus=0"]
    for s in sizes:
        specs += [
            f"handle_sum n=5 a={s - 1} b=0",
            f"handle_sum n=6 a={s - 1 - s // 3} b={s // 3}",
            f"surface_product n=5 genus={(s - 2) // 2}",
            f"surface_product n=6 crosscaps={s - 2}",
        ]
    return specs


BAD_SPECS = ("handle_sum n=3 a=1 b=0", "torus n=5", "surface_product n=5")


def _witness(spec: str, directed: bool):
    """(n, clutching, kind counts) of the expected witness, or None for 'none'."""
    head, *rest = spec.split()
    args = {k: int(v) for k, v in (kv.split("=") for kv in rest)}
    if head == "twisted_s2s2":
        return None if directed else (4, 1, {"min": 1, "max": 1})
    n = args["n"]
    if head == "sphere":
        return (n, 0, {"boundary": 1, "max": 1})
    if head == "handle_sum":
        a, b = args["a"], args["b"]
        if b:
            if directed:
                return None
            a, b = a + b - 1, 1
        kinds = {"boundary": a + 1, "saddle_p": a, "saddle_b": b, "max": 1}
        return (n, 0, {k: v for k, v in kinds.items() if v})
    if directed:
        return None
    if "genus" in args:
        g = args["genus"]
        return (n, 0, {"min": 1, "max": 1, **({"saddle_p": 2 * g} if g else {})})
    return (n, 0, {"min": 1, "max": 1, "saddle_b": args["crosscaps"]})


def _admits_check(spec: str, directed: bool):
    want = _witness(spec, directed)

    def check(code, stdout, stderr):
        if want is None:
            return _expect(1, "none\n")(code, stdout, stderr)
        if code != 0:
            return f"exit {code}: {stderr[-200:]}"
        doc = json.loads(stdout)
        page = doc["page"]
        got = (doc["n"], doc["clutching"], dict(Counter(v["kind"] for v in page["vertices"])))
        if got != want:
            return f"witness {got}, expected {want}"
        if any(e["twist"] for e in page["edges"]):
            return "witness page has twisted edges"
        return None

    return check


def _render_check(page: pagegen.Page, out: Path, kind: str, fmt: str):
    twisted = sum(1 for e in page.edges if e[3])

    def check(code, stdout, stderr):
        problem = _expect(0, f"wrote {out}\n")(code, stdout, stderr)
        if problem:
            return problem
        doc = out.read_text(encoding="utf-8")
        if kind == "circles":
            got = (doc.count("<circle "), [int(x) for x in re.findall(r">(\d+)</text>", doc)],
                   doc.count("<line "))
            want = (page.s, page.fiber_counts(), 3 * page.s if page.orientable else 0)
        elif fmt == "dot":
            got = (doc.count(" -- "), doc.count("style=dashed"), doc.count("[shape="))
            want = (len(page.edges), twisted, len(page.vertices))
        else:
            got = (doc.count("<line ") + doc.count("<path "), doc.count("stroke-dasharray"),
                   doc.count("<text "))
            want = (len(page.edges), twisted, len(page.vertices))
        return None if got == want else f"{kind}/{fmt} drawing has {got}, expected {want}"

    return check


def _page(rng: random.Random, family: str, params) -> pagegen.Page:
    if family == "handle":
        return pagegen.handle(rng, *params)
    if family == "closed_orientable":
        return pagegen.closed_orientable_shape(rng, *params)
    return pagegen.closed_nonorientable(rng, *params)


def _page_requests(page: pagegen.Page, path: str, out_stem: Path) -> list[Request]:
    fold = page.kinds
    n0 = fold.get("min", 0) + fold.get("max", 0)
    invariants = (
        f"surface: {page.surface_text()}\n"
        f"fiber counts: {' '.join(map(str, page.fiber_counts()))}\n"
        f"fold counts: n0={n0} n1={page.s - n0}\n"
    )
    requests = [
        Request(["validate", path], _expect(0, "valid\n")),
        Request(["invariants", path], _expect(0, invariants)),
        Request(["build", path, "--n", "5"], _expect(0, page.manifold_text(5) + "\n")),
    ]
    if page.family == "closed_orientable(0)":
        requests.append(Request(["build", path, "--n", "4", "--clutching", "1"], _expect(0, "twisted_s2s2\n")))
    for kind, fmt in (("reeb", "svg"), ("reeb", "dot"), ("circles", "svg")):
        out = out_stem.with_name(f"{out_stem.name}_{kind}.{fmt}")
        argv = ["render", path, "--kind", kind, "--out", str(out), "--format", fmt]
        requests.append(Request(argv, _render_check(page, out, kind, fmt)))
    return requests


# invalid documents: (family, params) x mutation x command
INVALID_PAGES = (("handle", (3, 1)), ("closed_orientable", (3,)))
INVALID_COMMANDS = (["validate"], ["invariants"], ["build", "--n", "5"], ["render", "--kind", "reeb", "--out"])


def queries_pass(sizes=QUERY_SIZES):
    def make(rng: random.Random, pass_dir: Path) -> list[Request]:
        requests = []
        for i, (family, params) in enumerate(query_pages(sizes)):
            page = _page(rng, family, params)
            path = _write(pass_dir / f"p{i}.json", page.document(rng))
            requests += _page_requests(page, path, pass_dir / f"p{i}")
        for spec in query_specs(sizes):
            for directed in (False, True):
                argv = ["admits", "--manifold", spec] + (["--directed"] if directed else [])
                requests.append(Request(argv, _admits_check(spec, directed)))
        for spec in BAD_SPECS:
            requests.append(Request(["admits", "--manifold", spec], _expect(2)))
        for i, (family, params) in enumerate(INVALID_PAGES):
            for mutation, (validate_code, other_code) in pagegen.MUTATIONS.items():
                text = pagegen.mutate(rng, _page(rng, family, params), mutation)
                path = _write(pass_dir / f"bad{i}_{mutation}.json", text)
                for command in INVALID_COMMANDS:
                    argv = [command[0], path, *command[1:]]
                    if command[0] == "render":
                        argv += [str(pass_dir / f"bad{i}.svg")]
                    if command[0] == "validate":
                        check = _expect(1, "invalid\n") if validate_code == 1 else _expect(2)
                    else:
                        check = _expect(other_code)
                    requests.append(Request(argv, check))
        rng.shuffle(requests)
        return requests

    return make


def run_queries(h: Harness, seconds: float, trace: bool, sizes=QUERY_SIZES, sabotage=False,
                min_requests=MIN_REQUESTS) -> Outcome:
    return _serve(h, seconds, trace, queries_pass(sizes), sabotage, min_requests)
