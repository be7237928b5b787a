"""Bit-exact JSON serialization of pages, manifold spec parsing, and census
table formatting.

Page schema::

    {"vertices": [{"id": str, "kind": "boundary"|"min"|"max"|"saddle_p"|"saddle_b",
                   "rank": int}],
     "edges":    [{"id": str, "low": str, "high": str, "twist": 0|1}]}

``serialize_page`` emits the canonical-whitespace normal form (two-space
indent, vertices sorted by (rank, id), edges by id, trailing newline), so
parse and serialize are mutually inverse on valid documents.  It writes the
bytes of ``json.dumps(..., indent=2)`` directly, one f-string per item, and
``admits`` nests the same text in its witness.  ``parse_page`` accepts an
item by one compound test, and only an item that fails it goes to the one
explainer, ``_item_problems``, which writes a problem for each field that
fails its test in the item kind's field table (``_VERTEX_FIELDS`` or
``_EDGE_FIELDS``).
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _json_str
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
# each kind's JSON text: reading an Enum member's value costs a class lookup
_KIND_JSON = {k: _json_str(k.value) for k in VertexKind}


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

    # an item is accepted by one test; only a failing one is explained.  Its
    # record is made as NamedTuple._make makes one, by tuple.__new__, without
    # a call of the record class's Python-level __new__
    vertices: list[Vertex] = []
    for i, item in enumerate(data["vertices"]):
        if (
            type(item) is dict
            and len(item) == 3
            and type(vid := item.get("id")) is str
            and vid
            and type(kind := item.get("kind")) is str
            and kind in _KINDS
            and type(rank := item.get("rank")) is int
            and rank >= 0
        ):
            if not problems:
                vertices.append(tuple.__new__(Vertex, (vid, _KINDS[kind], rank)))
        else:
            problems += _item_problems(f"$.vertices[{i}]", item, _VERTEX_FIELDS)

    edges: list[Edge] = []
    for i, item in enumerate(data["edges"]):
        if (
            type(item) is dict
            and len(item) == 4
            and type(eid := item.get("id")) is str
            and eid
            and type(low := item.get("low")) is str
            and type(high := item.get("high")) is str
            and type(twist := item.get("twist")) is int
            and twist in (0, 1)
        ):
            if not problems:
                edges.append(tuple.__new__(Edge, (eid, low, high, twist)))
        else:
            problems += _item_problems(f"$.edges[{i}]", item, _EDGE_FIELDS)

    if problems:
        raise PageFormatError(problems)
    graph = LabeledReebGraph(vertices, edges)
    if validate and not graph.report.ok:
        raise PageFormatError([f"$: {v.message}" for v in graph.report.violations])
    return graph


# each field of an item kind, in the order its problems are written, with
# the test its value must pass and the rule a value that fails it breaks
_VERTEX_FIELDS = {
    "id": (lambda v: isinstance(v, str) and v != "", "must be a non-empty string"),
    "kind": (lambda v: isinstance(v, str) and v in _KINDS, f"must be one of {sorted(_KINDS)}"),
    "rank": (lambda v: type(v) is int and v >= 0, "must be a non-negative integer"),
}
_END_FIELD = (lambda v: isinstance(v, str), "must be a vertex id string")
_EDGE_FIELDS = {
    "id": _VERTEX_FIELDS["id"],
    "low": _END_FIELD,
    "high": _END_FIELD,
    "twist": (lambda v: type(v) is int and v in (0, 1), "must be 0 or 1"),
}


def _item_problems(path: str, item: object, fields: dict) -> list[str]:
    """What is wrong with an item that :func:`parse_page` does not accept:
    one problem per field of ``fields`` that fails its test, in table order,
    then the keys the table does not name."""
    if not isinstance(item, dict):
        return [f"{path}: must be an object"]
    problems = [f"{path}.{field}: {rule}" for field, (test, rule) in fields.items() if not test(item.get(field))]
    extra = item.keys() - fields.keys()
    if extra:
        problems.append(f"{path}: unexpected keys {sorted(extra)}")
    return problems


def serialize_page(graph: LabeledReebGraph) -> str:
    """Canonical JSON text of the page (inverse of :func:`parse_page`)."""
    return _page_text(graph, "") + "\n"


def _page_text(graph: LabeledReebGraph, indent: str) -> str:
    """``json.dumps`` of the page's document (``{"vertices": [{"id", "kind",
    "rank"}], "edges": [{"id", "low", "high", "twist"}]}``) with
    ``indent=2``, written directly, and every line after the first indented
    by ``indent`` more.  The json module drops its C encoder for any
    ``indent``; this writer is one f-string per item."""
    item, field = f"{indent}    ", f"{indent}      "
    vertices = [
        f'{item}{{\n{field}"id": {_scalar(vid)},\n{field}"kind": {_KIND_JSON[kind]},\n'
        f'{field}"rank": {_scalar(rank)}\n{item}}}'
        for vid, kind, rank in graph.vertices
    ]
    edges = [
        f'{item}{{\n{field}"id": {_scalar(eid)},\n{field}"low": {_scalar(low)},\n'
        f'{field}"high": {_scalar(high)},\n{field}"twist": {_scalar(twist)}\n{item}}}'
        for eid, low, high, twist in graph.edges
    ]
    return (
        f'{{\n{indent}  "vertices": {_array(vertices, indent)},\n'
        f'{indent}  "edges": {_array(edges, indent)}\n{indent}}}'
    )


def _array(items: list[str], indent: str) -> str:
    """The JSON array of these written items, closed at ``indent`` plus two
    spaces, as ``json.dumps`` with ``indent=2`` writes it."""
    return "[\n" + ",\n".join(items) + f"\n{indent}  ]" if items else "[]"


def _scalar(value: object) -> str:
    """``json.dumps(value)``: a str by the C string encoder, an exact int
    as digits, anything else (a bool or float twist of a library page) by
    ``json.dumps`` itself."""
    cls = type(value)
    if cls is str:
        return _json_str(value)
    if cls is int:
        return "%d" % value
    return json.dumps(value)


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
    ``manifold``; a census finisher (see ``census._census_part``).  The line
    is ``json.dumps`` of the row's fields with sorted keys, written
    directly."""
    return (
        f'{{"canonical": {_json_str(row.canonical.decode("ascii"))}, "clutching": {row.clutching:d}, '
        f'"directed": {"true" if row.directed else "false"}, "manifold": {_json_str(manifold)}, '
        f'"s": {row.s:d}, "summary": {_json_str(row.summary)}}}'
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
