"""Bit-exact JSON serialization of pages, manifold spec parsing, and census
table formatting.

Page schema::

    {"vertices": [{"id": str, "kind": "boundary"|"min"|"max"|"saddle_p"|"saddle_b",
                   "rank": int}],
     "edges":    [{"id": str, "low": str, "high": str, "twist": 0|1}]}

``serialize_page`` emits the canonical-whitespace normal form (two-space
indent, vertices sorted by (rank, id), edges by id, trailing newline), so
parse and serialize are mutually inverse on valid documents.
"""

from __future__ import annotations

import json
import re
from typing import Iterator

from .census import CensusRow, CensusTable
from .errors import ManifoldSpecError, PageFormatError
from .manifolds import (
    HandleSum,
    ManifoldDescriptor,
    Sphere,
    SurfaceProduct,
    TwistedS2S2,
    describe,
)
from .pages import (
    Edge,
    LabeledReebGraph,
    Vertex,
    VertexKind,
    nonorientable_surface,
    orientable_surface,
)

_KINDS = {k.value: k for k in VertexKind}


def parse_page(text: str, validate: bool = True) -> LabeledReebGraph:
    """Parse a page JSON document; raises PageFormatError with JSON paths on
    schema violations and, when ``validate``, on page invariant violations."""
    problems: list[str] = []
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PageFormatError([f"$: not valid JSON ({exc.msg} at line {exc.lineno})"]) from exc
    except RecursionError as exc:
        raise PageFormatError(["$: not valid JSON (nested too deeply)"]) from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise PageFormatError([f"$: not valid JSON ({exc})"]) from exc
    if not isinstance(data, dict):
        raise PageFormatError(["$: document must be a JSON object"])
    extra = set(data) - {"vertices", "edges"}
    if extra:
        problems.append(f"$: unexpected keys {sorted(extra)}")
    for key in ("vertices", "edges"):
        if key not in data:
            problems.append(f"$.{key}: missing")
        elif not isinstance(data[key], list):
            problems.append(f"$.{key}: must be an array")
    if problems:
        raise PageFormatError(problems)

    vertices: list[Vertex] = []
    for i, item in enumerate(data["vertices"]):
        path = f"$.vertices[{i}]"
        if not isinstance(item, dict):
            problems.append(f"{path}: must be an object")
            continue
        vid = item.get("id")
        kind = item.get("kind")
        rank = item.get("rank")
        if not isinstance(vid, str) or not vid:
            problems.append(f"{path}.id: must be a non-empty string")
        if not isinstance(kind, str) or kind not in _KINDS:
            problems.append(f"{path}.kind: must be one of {sorted(_KINDS)}")
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
            problems.append(f"{path}.rank: must be a non-negative integer")
        extra = set(item) - {"id", "kind", "rank"}
        if extra:
            problems.append(f"{path}: unexpected keys {sorted(extra)}")
        if not problems:
            vertices.append(Vertex(vid, _KINDS[kind], rank))

    edges: list[Edge] = []
    for i, item in enumerate(data["edges"]):
        path = f"$.edges[{i}]"
        if not isinstance(item, dict):
            problems.append(f"{path}: must be an object")
            continue
        eid = item.get("id")
        low = item.get("low")
        high = item.get("high")
        twist = item.get("twist")
        if not isinstance(eid, str) or not eid:
            problems.append(f"{path}.id: must be a non-empty string")
        if not isinstance(low, str):
            problems.append(f"{path}.low: must be a vertex id string")
        if not isinstance(high, str):
            problems.append(f"{path}.high: must be a vertex id string")
        if type(twist) is not int or twist not in (0, 1):
            problems.append(f"{path}.twist: must be 0 or 1")
        extra = set(item) - {"id", "low", "high", "twist"}
        if extra:
            problems.append(f"{path}: unexpected keys {sorted(extra)}")
        if not problems:
            edges.append(Edge(eid, low, high, twist))

    if problems:
        raise PageFormatError(problems)
    graph = LabeledReebGraph(tuple(vertices), tuple(edges))
    if validate and not graph.report.ok:
        raise PageFormatError([f"$: {v.message}" for v in graph.report.violations])
    return graph


def serialize_page(graph: LabeledReebGraph) -> str:
    """Canonical JSON text of the page (inverse of :func:`parse_page`)."""
    doc = {
        "vertices": [
            {"id": v.id, "kind": v.kind.value, "rank": v.rank} for v in graph.vertices
        ],
        "edges": [
            {"id": e.id, "low": e.low, "high": e.high, "twist": e.twist} for e in graph.edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# manifold spec mini-grammar
# ---------------------------------------------------------------------------

_SPEC_RE = re.compile(r"^\s*(\w+)((?:\s+\w+=-?\d+)*)\s*$")
# the largest a, b, genus or crosscaps a spec may give: the witness page that
# ``admits`` builds has one vertex per count
_MAX_SPEC_COUNT = 10_000


def parse_manifold_spec(text: str) -> ManifoldDescriptor:
    """Parse ``sphere n=N | handle_sum n=N a=A b=B | surface_product n=N
    genus=G | surface_product n=N crosscaps=K | twisted_s2s2``."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ManifoldSpecError(f"cannot parse manifold spec {text!r}")
    head = m.group(1)
    pairs = [kv.split("=") for kv in m.group(2).split()]
    try:
        args = {key: int(value) for key, value in pairs}
    except ValueError as exc:  # a literal past the interpreter's integer digit limit
        raise ManifoldSpecError(f"bad manifold spec {text!r}: {exc}") from exc
    if len(args) < len(pairs):
        raise ManifoldSpecError(f"manifold spec {text!r} repeats a key")

    def need(keys: set[str]) -> None:
        if set(args) != keys:
            raise ManifoldSpecError(
                f"{head} takes exactly {sorted(keys)}, got {sorted(args)}"
            )

    def count(key: str) -> int:
        if args[key] > _MAX_SPEC_COUNT:
            raise ManifoldSpecError(f"{key} must be at most {_MAX_SPEC_COUNT}, got {args[key]}")
        return args[key]

    try:
        if head == "sphere":
            need({"n"})
            return Sphere(args["n"])
        if head == "handle_sum":
            need({"n", "a", "b"})
            return HandleSum(args["n"], count("a"), count("b"))
        if head == "surface_product":
            if set(args) == {"n", "genus"}:
                return SurfaceProduct(args["n"], orientable_surface(count("genus")))
            if set(args) == {"n", "crosscaps"}:
                return SurfaceProduct(args["n"], nonorientable_surface(count("crosscaps")))
            raise ManifoldSpecError("surface_product takes n plus genus or crosscaps")
        if head == "twisted_s2s2":
            need(set())
            return TwistedS2S2()
    except ManifoldSpecError:
        raise
    except ValueError as exc:
        raise ManifoldSpecError(f"bad manifold spec {text!r}: {exc}") from exc
    raise ManifoldSpecError(f"unknown manifold family {head!r}")


# ---------------------------------------------------------------------------
# census table formats
# ---------------------------------------------------------------------------

def census_jsonl(table: CensusTable) -> str:
    return "".join([f"{_jsonl_row(row, describe(row.manifold))}\n" for row in table.rows])


def census_text(table: CensusTable) -> str:
    bodies = [_text_row(row, describe(row.manifold)) for row in table.rows]
    return "".join(_text_document(table.n, table.s_max, table.k_max, bodies))


def _jsonl_row(row: CensusRow, manifold: str) -> str:
    """The JSONL line of a census row whose manifold describes as
    ``manifold``; a census finisher (see ``census._census_part``)."""
    return json.dumps(
        {
            "canonical": row.canonical.decode("ascii"),
            "s": row.s,
            "clutching": row.clutching,
            "manifold": manifold,
            "directed": row.directed,
            "summary": row.summary,
        },
        sort_keys=True,
    )


def _text_row(row: CensusRow, manifold: str) -> str:
    """The census text line of a row, without its index column; a census
    finisher like :func:`_jsonl_row`."""
    directed = "directed" if row.directed else "        "
    return f"s={row.s} k={row.clutching} {directed}  {manifold:<34}  {row.summary}"


def _text_document(n: int, s_max: int, k_max: int, bodies: list[str]) -> Iterator[str]:
    """The lines of the census text table, each with its newline."""
    header = f"census n={n} s_max={s_max} k_max={k_max} classes={len(bodies)}"
    yield f"{header}\n"
    yield "-" * len(header) + "\n"
    for i, body in enumerate(bodies):
        yield f"{i:>4}  {body}\n"
