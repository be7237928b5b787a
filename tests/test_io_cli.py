"""JSON round-tripping, renderers, and the command-line interface."""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_page_problems, reference_validate_page_data

import roundfold as rf
from roundfold import cli, jsonio
from roundfold.cli import main
from roundfold.pages import _PageView
from roundfold.render import render_critical_values, render_reeb

MIN, MAX = rf.VertexKind.MIN, rf.VertexKind.MAX

DISK_JSON = """{
  "vertices": [
    {
      "id": "b0",
      "kind": "boundary",
      "rank": 0
    },
    {
      "id": "v1",
      "kind": "max",
      "rank": 1
    }
  ],
  "edges": [
    {
      "id": "e0",
      "low": "b0",
      "high": "v1",
      "twist": 0
    }
  ]
}
"""


def test_parse_disk():
    g = rf.parse_page(DISK_JSON)
    assert rf.validate_page(g).ok
    assert g.s == 1


def test_serialize_is_canonical_fixed_point():
    assert rf.serialize_page(rf.parse_page(DISK_JSON)) == DISK_JSON


def test_round_trips():
    for g in [rf.orientable_closed_page(1), rf.klein_page(), rf.handle_page(2, 1)]:
        text = rf.serialize_page(g)
        assert rf.parse_page(text) == g
        assert rf.serialize_page(rf.parse_page(text)) == text


def built_pages():
    """One page of every builder, and of each at several sizes."""
    yield from [rf.disk_page(), rf.sphere_page(), rf.annulus_page(), rf.moebius_page(), rf.klein_page()]
    yield from map(rf.directed_page, range(1, 5))
    yield from map(rf.orientable_closed_page, range(4))
    yield from map(rf.nonorientable_closed_page, range(1, 4))
    yield from itertools.starmap(rf.handle_page, itertools.product(range(3), repeat=2))


def sha256(docs) -> str:
    return hashlib.sha256("".join(docs).encode("utf-8")).hexdigest()


def test_builders_keep_their_bytes():
    assert sha256(map(rf.serialize_page, built_pages())) == (
        "19d3238fcc77c44cbe7b8984924730ec1b4da049d7dd5a6ae74fcb0a3ae939c6"
    )
    named = [
        rf.disk_page(), rf.sphere_page(), rf.annulus_page(), rf.moebius_page(), rf.directed_page(3),
        rf.orientable_closed_page(2), rf.nonorientable_closed_page(2), rf.handle_page(2, 1),
    ]
    assert sha256(map(rf.serialize_page, named)) == (
        "4b15b003d360151d1ab40614d13caa2b9a35369a0e40d33206896e2628281758"
    )


def test_parse_reports_paths():
    with pytest.raises(rf.PageFormatError) as exc:
        rf.parse_page('{"vertices": [{"id": "v1", "kind": "peak", "rank": 1}], "edges": []}')
    assert "$.vertices[0].kind" in str(exc.value)
    with pytest.raises(rf.PageFormatError) as exc:
        rf.parse_page('{"vertices": []}')
    assert "$.edges" in str(exc.value)
    with pytest.raises(rf.PageFormatError):
        rf.parse_page("not json at all")


def test_parse_rejects_duplicate_rank():
    doc = {
        "vertices": [
            {"id": "v1", "kind": "min", "rank": 1},
            {"id": "v2", "kind": "max", "rank": 1},
        ],
        "edges": [{"id": "e0", "low": "v1", "high": "v2", "twist": 0}],
    }
    with pytest.raises(rf.PageFormatError):
        rf.parse_page(json.dumps(doc))


def test_parse_validate_flag():
    doc = {
        "vertices": [{"id": "v1", "kind": "min", "rank": 1}],
        "edges": [],
    }
    g = rf.parse_page(json.dumps(doc), validate=False)
    assert not rf.validate_page(g).ok


def test_parse_rejects_a_float_twist(tmp_path):
    for twist in (0.0, 1.0):
        doc = {
            "vertices": [{"id": "v1", "kind": "min", "rank": 1}, {"id": "v2", "kind": "max", "rank": 2}],
            "edges": [{"id": "e0", "low": "v1", "high": "v2", "twist": twist}],
        }
        with pytest.raises(rf.PageFormatError) as exc:
            rf.parse_page(json.dumps(doc), validate=False)
        assert exc.value.problems == ("$.edges[0].twist: must be 0 or 1",)
        page = tmp_path / "page.json"
        page.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(page)]) == 2


@pytest.mark.parametrize("twist", [1.0, True, 0.0, False])
def test_a_library_page_with_a_non_int_twist_is_invalid(twist):
    # serialize_page would write 1.0 or true, which parse_page rejects
    g = rf.LabeledReebGraph.of([("v1", "min", 1), ("v2", "max", 2)], [("e0", "v1", "v2", twist)])
    assert [(v.code, v.ids) for v in g.report.violations] == [("bad_twist", ("e0",))]
    with pytest.raises(rf.InvalidPageError):
        rf.canonical_page_encoding(g)


@pytest.mark.parametrize(
    "vertices, edges, violations",
    [
        # a bool rank would encode as "True"; a float rank made the page view raise TypeError
        ([("v1", MIN, True), ("v2", MAX, 2)], [("e0", "v1", "v2", 0)], [("bad_rank", ("v1",))]),
        ([("v1", MIN, 1), ("v2", MAX, 2.0)], [("e0", "v1", "v2", 0)], [("bad_rank", ("v2",))]),
        # render_reeb raised TypeError on int ids; serialize_page would write "" that parse_page rejects
        (
            [(1, MIN, 1), (2, MAX, 2)],
            [(0, 1, 2, 0)],
            [("bad_id", (1,)), ("bad_id", (2,)), ("bad_id", (0,))]
            + [("unknown_endpoint", (0, 1)), ("unknown_endpoint", (0, 2))],
        ),
        ([("", MIN, 1), ("v2", MAX, 2)], [("e0", "", "v2", 0)], [("bad_id", ("",))]),
        # each raised TypeError: sorting the vertices by (rank, id), sorting the
        # repeated ids, or hashing an id or an end
        ([("v1", MIN, "1"), ("v2", MAX, 2)], [("e0", "v1", "v2", 0)], [("bad_rank", ("v1",))]),
        ([("v1", MIN, None), ("v2", MAX, 2)], [("e0", "v1", "v2", 0)], [("bad_rank", ("v1",))]),
        ([(0, MIN, 1), ("a", MAX, 1)], [], [("bad_id", (0,))]),
        ([(0, MIN, 1), (0, MAX, 2), ("", MIN, 3), ("", MAX, 4)], [], [("duplicate_vertex_id", ("",))]),
        ([(["a"], MAX, 1)], [], [("bad_id", (["a"],))]),
        ([("v1", MIN, 1), ("v2", MAX, 2)], [("e0", ["v1"], "v1", 0)], [("unknown_endpoint", ("e0", ["v1"]))]),
        # a kind the constructor does not convert: "min" and "boundary" were
        # read as their members or passed the degree rule, top_not_max or
        # rank_bijection were reported, and a kind that is no member's value
        # raised KeyError or TypeError
        ([("v1", "min", 1), ("v2", "max", 2)], [("e0", "v1", "v2", 0)], [("bad_kind", ("v1",)), ("bad_kind", ("v2",))]),
        ([("v1", MIN, 1), ("v2", MAX, 2), ("v3", "boundary", 0)], [("e0", "v1", "v2", 0)], [("bad_kind", ("v3",))]),
        ([("v1", "bogus", 1), ("v2", MAX, 2)], [("e0", "v1", "v2", 0)], [("bad_kind", ("v1",))]),
        ([("v1", None, 1), ("v2", MAX, 2)], [("e0", "v1", "v2", 0)], [("bad_kind", ("v1",))]),
        (
            [("", ["x"], 1.5), ("v2", MAX, 2)],
            [("e0", "", "v2", 0)],
            [("bad_id", ("",)), ("bad_kind", ("",)), ("bad_rank", ("",))],
        ),
    ],
    ids=[
        "bool rank", "float rank", "int ids", "empty id", "str rank", "None rank", "int and str ids at one rank",
        "repeated int and empty ids", "list id", "list end", "str kinds", "str boundary kind", "unknown kind",
        "None kind", "list kind after its id and before its rank",
    ],
)
def test_a_library_page_with_a_non_int_rank_or_a_non_str_id_is_invalid(vertices, edges, violations):
    g = rf.LabeledReebGraph([rf.Vertex(*v) for v in vertices], [rf.Edge(*e) for e in edges])
    assert [(v.code, v.ids) for v in g.report.violations] == violations
    assert g.report == reference_validate_page_data(g.vertices, g.edges)
    for call in (rf.canonical_page_encoding, rf.surface_type, render_reeb):
        with pytest.raises(rf.InvalidPageError):
            call(g)


@pytest.mark.parametrize("twist", [0, 1])
def test_a_library_page_round_trips_through_its_json(twist):
    g = rf.LabeledReebGraph.of([("v1", "min", 1), ("v2", "max", 2)], [("e0", "v1", "v2", twist)])
    assert g.report.ok
    assert rf.parse_page(rf.serialize_page(g)) == g


def _page_document(graph: rf.LabeledReebGraph) -> dict:
    """The page as the dict whose ``json.dumps(indent=2)`` is the page's
    canonical text."""
    return {
        "vertices": [{"id": v.id, "kind": v.kind.value, "rank": v.rank} for v in graph.vertices],
        "edges": [{"id": e.id, "low": e.low, "high": e.high, "twist": e.twist} for e in graph.edges],
    }


def odd_library_pages():
    """Pages a library user can build and no builder does: ids that need
    escaping, empty vertex or edge lists, int ids, and bool or float twists."""
    names = ["\u00e9t\u00e9", "\u65e5\u672c", 'q"uote', "back\\slash", "tab\tnew\nline\x00\x1f", "\U0001f600"]
    yield rf.LabeledReebGraph((), ())
    yield rf.LabeledReebGraph.of([(name, "min", r) for r, name in enumerate(names, 1)], [])
    yield rf.LabeledReebGraph.of([], [("e0", names[0], names[1], 0)])
    yield rf.LabeledReebGraph.of(
        [(names[0], "min", 1), (names[1], "max", 2)],
        [(names[2], names[0], names[1], 1), (names[3], names[0], names[1], 0)],
    )
    yield rf.LabeledReebGraph.of([(1, "min", 1), (2, "max", 2)], [(0, 1, 2, 1)])
    for twist in (True, False, 1.0, 0.0):
        yield rf.LabeledReebGraph.of([("v1", "min", 1), ("v2", "max", 2)], [("e0", "v1", "v2", twist)])


def writer_pages():
    yield from rf.enumerate_pages(5)
    yield from itertools.starmap(rf.handle_page, itertools.product(range(151), range(5)))
    yield from odd_library_pages()


def test_page_writer_writes_json_dumps_of_the_page_document(monkeypatch, capsys):
    # serialize_page, and the witness that admits prints, fed every writer page
    pages = []
    monkeypatch.setattr(cli, "admits_round_fold", lambda d: rf.RoundFoldDescriptor(5, pages[-1]))
    for g in writer_pages():
        document = _page_document(g)
        assert rf.serialize_page(g) == json.dumps(document, indent=2) + "\n"
        pages.append(g)
        assert main(["admits", "--manifold", "sphere n=5"]) == 0
        witness = {"n": 5, "clutching": 0, "page": document}
        assert capsys.readouterr().out == json.dumps(witness, indent=2) + "\n"


def test_odd_library_pages_are_written_as_json_dumps_writes_them():
    twists = [json.loads(rf.serialize_page(g))["edges"][0]["twist"] for g in list(odd_library_pages())[-4:]]
    assert [repr(t) for t in twists] == ["True", "False", "1.0", "0.0"]
    assert rf.serialize_page(rf.LabeledReebGraph((), ())) == '{\n  "vertices": [],\n  "edges": []\n}\n'


PARSE_SEEDS = [
    json.loads(rf.serialize_page(g))
    for g in (rf.disk_page(), rf.klein_page(), rf.handle_page(2, 1), rf.orientable_closed_page(2))
]
# per key: values the schema rejects, and values it takes that may break a page invariant
REJECTED = {
    "id": ["", 0, None, ["v1"], True],
    "low": [0, None, ["v1"]],
    "high": [0, None, True],
    "kind": [["min"], {"min": 1}, 2, None, "peak", "MIN"],
    "rank": [True, False, -1, 1.0, 2.5, "1", None],
    "twist": [True, False, 0.0, 1.0, 2, -1, "1", None],
}
TAKEN = {
    "id": ["v1", "e0", "x"],
    "low": ["zz", "v1", "b0"],
    "high": ["zz", "v2", "v1"],
    "kind": ["min", "max", "saddle_b", "saddle_p", "boundary"],
    "rank": [0, 1, 2, 7],
    "twist": [0, 1],
}


@st.composite
def mutated_page_texts(draw) -> str:
    """A seed page with up to three edits; about half the documents get only
    edits the schema takes, so that page invariants and acceptance are
    reached as often as schema problems."""
    doc = json.loads(json.dumps(draw(st.sampled_from(PARSE_SEEDS))))
    schema_ok = draw(st.booleans())
    moves = ["taken", "drop", "copy"] + ([] if schema_ok else ["not_object", "missing", "extra", "rejected"])
    for _ in range(draw(st.integers(0, 3))):
        items = doc[draw(st.sampled_from(["vertices", "edges"]))]
        if not items:
            continue
        i = draw(st.integers(0, len(items) - 1))
        move = draw(st.sampled_from(moves))
        if move == "drop":
            del items[i]
        elif move == "copy":
            items.insert(draw(st.integers(0, len(items))), json.loads(json.dumps(items[i])))
        elif not isinstance(items[i], dict) or not items[i]:
            continue
        elif move == "not_object":
            items[i] = draw(st.sampled_from([[], [items[i]], "v1", 3, None]))
        elif move == "missing":
            del items[i][draw(st.sampled_from(sorted(items[i])))]
        elif move == "extra":
            items[i][draw(st.sampled_from(["color", "ID", ""]))] = 1
        elif keys := sorted(TAKEN.keys() & items[i].keys()):
            key = draw(st.sampled_from(keys))
            items[i][key] = draw(st.sampled_from((TAKEN if move == "taken" else REJECTED)[key]))
    return json.dumps(doc)


def assert_parse_page_explains_as_the_reference(text: str) -> None:
    # any exception but PageFormatError would end a command in exit 3
    for validate in (False, True):
        expected = reference_page_problems(text, validate)
        try:
            graph = rf.parse_page(text, validate=validate)
        except rf.PageFormatError as exc:
            assert exc.problems == expected
        else:
            assert expected is None
            doc = json.loads(text)
            assert _page_document(graph) == {
                "vertices": sorted(doc["vertices"], key=lambda v: (v["rank"], v["id"])),
                "edges": sorted(doc["edges"], key=lambda e: e["id"]),
            }


def test_parse_page_explains_every_single_field_edit_as_the_reference():
    for seed, section, values in itertools.product(PARSE_SEEDS, ["vertices", "edges"], [REJECTED, TAKEN]):
        for key in seed[section][0]:
            for value in values[key]:
                doc = json.loads(json.dumps(seed))
                doc[section][0][key] = value
                assert_parse_page_explains_as_the_reference(json.dumps(doc))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_page_texts())
def test_parse_page_explains_as_the_field_by_field_reference(text):
    assert_parse_page_explains_as_the_reference(text)


def test_manifold_spec_counts_are_bounded(capsys):
    # the witness page of admits has one vertex per count
    specs = [
        "handle_sum n=5 a={} b=0",
        "handle_sum n=5 a=0 b={}",
        "surface_product n=5 genus={}",
        "surface_product n=5 crosscaps={}",
    ]
    for spec in specs:
        rf.parse_manifold_spec(spec.format(10_000))
        with pytest.raises(rf.ManifoldSpecError, match="at most 10000"):
            rf.parse_manifold_spec(spec.format(10_001))
    # the dimension is not a count
    assert rf.parse_manifold_spec("sphere n=100000") == rf.Sphere(100_000)
    t0 = time.perf_counter()
    assert main(["admits", "--manifold", "handle_sum n=5 a=999999999 b=0"]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "a must be at most 10000, got 999999999\n"


def test_manifold_spec_errors():
    with pytest.raises(rf.ManifoldSpecError):
        rf.parse_manifold_spec("torus n=5")
    with pytest.raises(rf.ManifoldSpecError):
        rf.parse_manifold_spec("sphere")
    with pytest.raises(rf.ManifoldSpecError):
        rf.parse_manifold_spec("handle_sum n=5 a=1")
    with pytest.raises(rf.RoundFoldError):
        rf.parse_manifold_spec("sphere n=2")
    # a repeated key is an error, not the last value given
    for spec in ("sphere n=4 n=5", "handle_sum n=5 a=1 b=0 a=3"):
        with pytest.raises(rf.ManifoldSpecError, match="repeats a key"):
            rf.parse_manifold_spec(spec)


# -- renderers ---------------------------------------------------------------

def test_render_circles_torus():
    doc = render_critical_values(rf.RoundFoldDescriptor(6, rf.orientable_closed_page(1)))
    assert doc.count("<circle") == 4
    for label in (">0<", ">1<", ">2<"):
        assert label in doc
    assert "<line" in doc  # direction arrows present (orientable)


def test_render_circles_moebius_has_no_arrows():
    doc = render_critical_values(rf.RoundFoldDescriptor(5, rf.moebius_page()))
    assert doc.count("<circle") == 2
    assert "<line" not in doc


def test_render_circles_disk():
    doc = render_critical_values(rf.RoundFoldDescriptor(5, rf.disk_page()))
    assert doc.count("<circle") == 1


def test_render_circles_rejects_unknown_format():
    with pytest.raises(rf.RoundFoldError):
        render_critical_values(rf.RoundFoldDescriptor(5, rf.disk_page()), format="pdf")


def test_render_reeb_dot():
    doc = render_reeb(rf.klein_page(), format="dot")
    assert doc.startswith("graph page {")
    assert "style=dashed" in doc  # the twisted edge
    assert "invtriangle" in doc and "triangle" in doc
    doc = render_reeb(rf.moebius_page(), format="dot")
    assert "diamond" in doc  # saddle_b glyph distinct


def test_renderers_keep_their_bytes():
    docs = []
    for g in built_pages():
        docs += [render_reeb(g, "svg"), render_reeb(g, "dot"), render_critical_values(rf.RoundFoldDescriptor(5, g))]
    assert len(docs) == 75
    assert sha256(docs) == "f8eec413b40a6b9a1bfba5856f9a0f305f7a9dc4f4e3a9967ad583be4e3ab5e0"


def large_pages():
    """Pages of 150 to 300 vertices whose ranks hold many vertices (the
    boundary rank of a handle page) or parallel edges, one of them with
    seeded twists."""
    closed = rf.orientable_closed_page(74)
    rng = random.Random(23)
    twisted = closed.with_twists({e.id: rng.randrange(2) for e in closed.edges})
    return [rf.handle_page(149, 0), rf.handle_page(99, 50), rf.nonorientable_closed_page(148), twisted]


def shuffled_document(graph, rng) -> str:
    """A JSON document of the page with its items in a random order."""
    doc = json.loads(rf.serialize_page(graph))
    rng.shuffle(doc["vertices"])
    rng.shuffle(doc["edges"])
    return json.dumps(doc)


def test_large_drawings_and_parses_keep_their_bytes():
    rng = random.Random(7)
    docs = []
    for g in large_pages():
        parsed = rf.parse_page(shuffled_document(g, rng))
        assert parsed == g
        docs += [
            render_reeb(g, "svg"),
            render_reeb(g, "dot"),
            render_critical_values(rf.RoundFoldDescriptor(5, g)),
            rf.serialize_page(parsed),
        ]
    assert sha256(docs) == "b680b98ef0ed9c1ee9382c396248d54315cd724de1e5de205a809c28592e9a7e"


def test_render_reeb_svg():
    doc = render_reeb(rf.orientable_closed_page(1), format="svg")
    assert "<path" in doc  # bowed parallel edges are visible
    doc = render_reeb(rf.klein_page(), format="svg")
    assert "stroke-dasharray" in doc


def test_render_reeb_builds_no_page_view(monkeypatch):
    page = rf.handle_page(3, 1)
    views = []
    init = _PageView.__init__
    monkeypatch.setattr(_PageView, "__init__", lambda view, *args: views.append(args) or init(view, *args))
    for format in ("svg", "dot"):
        render_reeb(page, format)
    assert views == []


# a disk page whose ids need escaping in XML text and in DOT quoted strings
ODD_IDS_PAGE = rf.LabeledReebGraph.of(
    [('b<0>&"x', "boundary", 0), ('v"1', "max", 1)],
    [('e\\"0\\', 'b<0>&"x', 'v"1', 0)],
)


def dot_tokens(doc: str) -> collections.Counter:
    """The quoted strings of a DOT document, unescaped, with their counts."""
    return collections.Counter(
        re.sub(r'\\(["\\])', r"\1", token) for token in re.findall(r'"((?:[^"\\]|\\.)*)"', doc)
    )


def test_render_reeb_escapes_ids():
    svg = ElementTree.fromstring(render_reeb(ODD_IDS_PAGE, "svg"))
    texts = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]
    assert texts == ['b<0>&"x', 'v"1']
    # each vertex id on its node line, its rank line and its one edge; the
    # edge id in its label
    assert dot_tokens(render_reeb(ODD_IDS_PAGE, "dot")) == {
        'b<0>&"x': 3, 'v"1': 3, 'e\\"0\\': 1, "boundary@0": 1, "max@1": 1
    }


def test_cli_renders_odd_ids(tmp_path, capsys):
    page = tmp_path / "odd.json"
    page.write_text(rf.serialize_page(ODD_IDS_PAGE), encoding="utf-8")
    svg, dot = tmp_path / "odd.svg", tmp_path / "odd.dot"
    assert main(["render", str(page), "--kind", "reeb", "--out", str(svg)]) == 0
    assert main(["render", str(page), "--kind", "reeb", "--format", "dot", "--out", str(dot)]) == 0
    ElementTree.parse(svg)
    assert dot_tokens(dot.read_text(encoding="utf-8"))['v"1'] == 3


@pytest.mark.parametrize("bad", ["b\x00", "b\x01", "b\x08", "b\x0b", "b\x0c", "b\x0e", "b\x1f"])
def test_an_id_xml_does_not_allow_is_not_drawn_as_svg(bad, tmp_path, capsys):
    page = rf.LabeledReebGraph.of([(bad, "boundary", 0), ("v1", "max", 1)], [("e0", bad, "v1", 0)])
    with pytest.raises(rf.RoundFoldError, match=re.escape(repr(bad))):
        render_reeb(page, "svg")
    assert dot_tokens(render_reeb(page, "dot"))[bad] == 3
    path, svg, dot = tmp_path / "page.json", tmp_path / "page.svg", tmp_path / "page.dot"
    path.write_text(rf.serialize_page(page), encoding="utf-8")
    assert main(["render", str(path), "--kind", "reeb", "--out", str(svg)]) == 2
    assert repr(bad) in capsys.readouterr().err
    assert not svg.exists()
    assert main(["render", str(path), "--kind", "reeb", "--format", "dot", "--out", str(dot)]) == 0
    # XML allows tab, newline and carriage return in text
    fine = rf.LabeledReebGraph.of([("b\t\n\r", "boundary", 0), ("v1", "max", 1)], [("e0", "b\t\n\r", "v1", 0)])
    ElementTree.fromstring(render_reeb(fine, "svg"))


def test_svg_refuses_surrogate_and_noncharacter_ids():
    for bad in ("b\ud800", "b\udfff", "b\ufffe", "b\uffff"):
        page = rf.LabeledReebGraph.of([(bad, "boundary", 0), ("v1", "max", 1)], [("e0", bad, "v1", 0)])
        with pytest.raises(rf.RoundFoldError, match=re.escape(repr(bad))):
            render_reeb(page, "svg")


@pytest.mark.parametrize("what, vertex, edge", [("vertex", "b\ud800", "e0"), ("edge", "b0", "e\udfff")])
def test_dot_refuses_a_lone_surrogate_id(what, vertex, edge, tmp_path, capsys):
    # UTF-8 cannot encode one: the drawing is refused before any file opens
    page = rf.LabeledReebGraph.of([(vertex, "boundary", 0), ("v1", "max", 1)], [(edge, vertex, "v1", 0)])
    message = f"{what} id {(vertex if what == 'vertex' else edge)!r} holds a lone surrogate"
    with pytest.raises(rf.RoundFoldError, match=re.escape(message)):
        render_reeb(page, "dot")
    path, dot = tmp_path / "page.json", tmp_path / "page.dot"
    path.write_text(rf.serialize_page(page), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert main(["render", str(path), "--kind", "reeb", "--format", "dot", "--out", str(dot)]) == 2
    assert message in capsys.readouterr().err
    assert not dot.exists()


# -- CLI ----------------------------------------------------------------------

@pytest.fixture
def disk_file(tmp_path):
    p = tmp_path / "disk.json"
    p.write_text(DISK_JSON, encoding="utf-8")
    return str(p)


@pytest.fixture
def torus_file(tmp_path):
    p = tmp_path / "torus.json"
    p.write_text(rf.serialize_page(rf.orientable_closed_page(1)), encoding="utf-8")
    return str(p)


@pytest.fixture
def klein_file(tmp_path):
    p = tmp_path / "klein.json"
    p.write_text(rf.serialize_page(rf.klein_page()), encoding="utf-8")
    return str(p)


def test_cli_validate(disk_file, tmp_path, capsys):
    assert main(["validate", disk_file]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "vertices": [
                    {"id": "v1", "kind": "min", "rank": 1},
                    {"id": "v2", "kind": "max", "rank": 2},
                    {"id": "v3", "kind": "max", "rank": 3},
                ],
                "edges": [
                    {"id": "e0", "low": "v1", "high": "v2", "twist": 0},
                ],
            }
        ),
        encoding="utf-8",
    )
    assert main(["validate", str(bad)]) == 1
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{", encoding="utf-8")
    assert main(["validate", str(garbage)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_cli_invariants(torus_file, capsys):
    assert main(["invariants", torus_file]) == 0
    out = capsys.readouterr().out
    assert "orientable g=1" in out
    assert "0 1 2 1 0" in out
    assert "n0=2 n1=2" in out


def test_cli_build(disk_file, klein_file, capsys):
    assert main(["build", disk_file, "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "sphere n=5"
    assert main(["build", klein_file, "--n", "6"]) == 0
    assert capsys.readouterr().out.strip() == "surface_product n=6 crosscaps=2"
    # nonzero clutching is invalid input away from the sphere page at n=4
    assert main(["build", disk_file, "--n", "5", "--clutching", "1"]) == 2


def test_cli_build_moebius(tmp_path, capsys):
    p = tmp_path / "moebius.json"
    p.write_text(rf.serialize_page(rf.moebius_page()), encoding="utf-8")
    assert main(["build", str(p), "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "handle_sum n=5 a=0 b=1"


def test_cli_admits(capsys):
    assert main(["admits", "--manifold", "handle_sum n=5 a=2 b=0", "--directed"]) == 0
    witness = json.loads(capsys.readouterr().out)
    assert witness["n"] == 5 and witness["clutching"] == 0
    page = rf.parse_page(json.dumps(witness["page"]))
    assert rf.page_isomorphic(page, rf.directed_page(3))

    assert main(["admits", "--manifold", "surface_product n=6 genus=1", "--directed"]) == 1
    assert capsys.readouterr().out.strip() == "none"

    assert main(["admits", "--manifold", "twisted_s2s2"]) == 0
    witness = json.loads(capsys.readouterr().out)
    assert witness == {
        "n": 4,
        "clutching": 1,
        "page": json.loads(rf.serialize_page(rf.sphere_page())),
    }

    assert main(["admits", "--manifold", "flat_torus n=5"]) == 2
    capsys.readouterr()
    for spec in ("sphere n=4 n=5", "handle_sum n=5 a=1 b=0 a=3"):
        assert main(["admits", "--manifold", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"manifold spec {spec!r} repeats a key\n"


@pytest.mark.parametrize(
    "spec, directed",
    [("handle_sum n=6 a=100 b=50", False), ("twisted_s2s2", False), ("handle_sum n=5 a=2 b=0", True)],
)
def test_cli_admits_writes_the_witness_as_serialize_page_does(spec, directed, capsys):
    # the witness's page is the document of serialize_page, nested at indent 2
    assert main(["admits", "--manifold", spec] + ["--directed"] * directed) == 0
    d = jsonio.parse_manifold_spec(spec)
    found = rf.admits_directed(d) if directed else rf.admits_round_fold(d)
    witness = {"n": found.n, "clutching": found.clutching, "page": json.loads(rf.serialize_page(found.page))}
    assert capsys.readouterr().out == json.dumps(witness, indent=2) + "\n"


def test_cli_classify(torus_file, klein_file, capsys):
    assert main(["classify", torus_file, klein_file, "--n", "5"]) == 1
    assert capsys.readouterr().out.strip() == "not A-equivalent"
    assert main(["classify", torus_file, torus_file, "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "A-equivalent"
    # clutching comparison at n=4 through the dedicated flags
    assert main(["classify", torus_file, klein_file, "--n", "3"]) == 2


def test_cli_classify_clutching(tmp_path, capsys):
    p = tmp_path / "sphere.json"
    p.write_text(rf.serialize_page(rf.sphere_page()), encoding="utf-8")
    assert main(["classify", str(p), str(p), "--n", "4", "--clutching0", "2", "--clutching1", "-2"]) == 0
    assert main(["classify", str(p), str(p), "--n", "4", "--clutching0", "1", "--clutching1", "2"]) == 1


def test_cli_census(capsys):
    assert main(["census", "--n", "5", "--s-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "classes=4" in out
    assert main(["census", "--n", "5", "--s-max", "2", "--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [json.loads(line) for line in lines]
    assert len(rows) == 4
    assert {r["manifold"] for r in rows} >= {"sphere n=5", "handle_sum n=5 a=1 b=0"}
    assert main(["census", "--n", "4", "--s-max", "2", "--k-max", str(rf.MAX_CLUTCHING + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "k_max must be between 0 and 1000" in captured.err
    for workers in ("0", "-7"):
        assert main(["census", "--n", "5", "--s-max", "2", "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"workers must be >= 1, got {workers}" in captured.err


def _row_dict(row: rf.CensusRow, manifold: str) -> dict:
    return {
        "canonical": row.canonical.decode("ascii"),
        "s": row.s,
        "clutching": row.clutching,
        "manifold": manifold,
        "directed": row.directed,
        "summary": row.summary,
    }


def test_jsonl_row_is_sorted_key_json_dumps():
    rows = rf.census_table(4, 5, k_max=12).rows
    assert {row.clutching for row in rows} == set(range(13))
    for row in rows:
        name = rf.describe(row.manifold)
        assert jsonio._jsonl_row(row, name) == json.dumps(_row_dict(row, name), sort_keys=True)
    base = rows[0]
    for text in ('a "quoted" name', "back\\slash", "tab\there\x00\x1f", "Möbius × χ=−1 \U0001d4d5", ""):
        for directed in (True, False):
            row = rf.CensusRow(base.canonical, 12, -3, text, base.manifold, directed)
            line = jsonio._jsonl_row(row, text[::-1])
            assert line == json.dumps(_row_dict(row, text[::-1]), sort_keys=True)
            assert json.loads(line)["summary"] == text


def test_cli_render(torus_file, tmp_path, capsys):
    out = tmp_path / "t.svg"
    assert main(["render", torus_file, "--kind", "circles", "--out", str(out), "--n", "6"]) == 0
    assert out.read_text().startswith("<svg")
    out2 = tmp_path / "t.dot"
    assert main(["render", torus_file, "--kind", "reeb", "--format", "dot", "--out", str(out2)]) == 0
    assert out2.read_text().startswith("graph page {")
    assert main(["render", torus_file, "--kind", "circles", "--format", "dot", "--out", str(out)]) == 2


def _handle_twisted_closed_page(genus, twisted_handles, edge_in_pair=0):
    """orientable_closed_page(genus) with one edge of the parallel pair of each
    handle in ``twisted_handles`` twisted; the handle twist sums are the
    page's gauge invariants."""
    page = rf.orientable_closed_page(genus)
    parallel: dict[tuple[str, str], list[str]] = {}
    for e in page.edges:
        parallel.setdefault((e.low, e.high), []).append(e.id)
    pairs = [ids for ids in parallel.values() if len(ids) == 2]
    labeling = page.twist_labeling()
    for h in twisted_handles:
        labeling[pairs[h][edge_in_pair]] = 1
    return page.with_twists(labeling)


def test_cli_classify_genus_40(tmp_path, capsys):
    files = {}
    for name, graph in [
        ("a", _handle_twisted_closed_page(40, [3, 17])),
        ("b", _handle_twisted_closed_page(40, [3, 18])),
        ("c", _handle_twisted_closed_page(40, [3, 17], edge_in_pair=1)),
    ]:
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(rf.serialize_page(graph), encoding="utf-8")
    assert main(["classify", str(files["a"]), str(files["b"]), "--n", "5"]) == 1
    assert capsys.readouterr().out.strip() == "not A-equivalent"
    assert main(["classify", str(files["a"]), str(files["c"]), "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "A-equivalent"


def _src_env() -> dict[str, str]:
    """The environment with this checkout's roundfold first on the path."""
    src = str(Path(rf.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_python_dash_m_entry_point():
    env = _src_env()
    run = subprocess.run(
        [sys.executable, "-m", "roundfold", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0
    assert run.stdout.startswith("usage: roundfold")
    assert "classify" in run.stdout
    run = subprocess.run([sys.executable, "-m", "roundfold"], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 2
    assert "usage: roundfold" in run.stderr


# Runs the command given as JSON and prints the exit code and the peak RSS in
# KiB that wait4 reports for it and the processes it waited for.  A child
# starts with the peak RSS of the process it was forked from, so the command
# is started from this small process, not from the test process.
_PEAK_RSS = """
import json, os, subprocess, sys
proc = subprocess.Popen(json.loads(sys.argv[1]), stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mb(argv: list[str]) -> float:
    run = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, json.dumps(argv)], capture_output=True, text=True, env=_src_env(), timeout=300
    )
    code, kib = map(int, run.stdout.split())
    assert (run.returncode, code) == (0, 0), run.stderr
    return kib / 1024


@pytest.mark.slow
@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_census_memory_does_not_grow_with_its_output():
    # the census writes each part's lines as the parts before it are done,
    # so the s <= 7 census (26,964 lines, about 9 MB) holds only the lines in
    # flight; buffering the output took about 20 MB more than s <= 1
    argv = [sys.executable, "-m", "roundfold", "census", "--n", "5", "--format", "jsonl", "--workers", "2"]
    small = _peak_rss_mb([*argv, "--s-max", "1"])
    large = _peak_rss_mb([*argv, "--s-max", "7"])
    assert large - small <= 10, (small, large)


def test_census_default_workers_print_the_same_bytes():
    argv = [sys.executable, "-m", "roundfold", "census", "--n", "5", "--s-max", "4", "--format", "jsonl"]
    runs = [
        subprocess.run(argv + extra, capture_output=True, env=_src_env(), timeout=120)
        for extra in ([], ["--workers", "1"])
    ]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert len(runs[0].stdout.splitlines()) == 1 + 3 + 9 + 43


def test_import_loads_no_pool_machinery():
    code = (
        "import sys, roundfold, roundfold.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=60)
    assert run.returncode == 0
    assert run.stdout.strip() == "[]"


def test_main_twice_in_one_process_leaks_nothing(tmp_path, capsys, monkeypatch):
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    workers_seen = []
    run_census = cli._run_census

    def recording_census(n, s_max, k_max, workers, finish):
        workers_seen.append(workers)
        return run_census(n, s_max, k_max, 1, finish)

    monkeypatch.setattr(cli, "_run_census", recording_census)
    sphere = tmp_path / "sphere.json"
    sphere.write_text(rf.serialize_page(rf.sphere_page()), encoding="utf-8")

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    assert run(["build", str(sphere), "--n", "4", "--clutching", "1"]) == (0, "twisted_s2s2\n", "")
    # the clutching of the call before is not the default of this one
    assert run(["build", str(sphere), "--n", "4"]) == (0, "surface_product n=4 genus=0\n", "")
    monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
    code, out, err = run(["census", "--n", "5", "--s-max", "2", "--workers", "2", "--format", "jsonl"])
    assert (code, len(out.splitlines()), err) == (0, 4, "")
    code, out, err = run(["census", "--n", "5", "--s-max", "1"])
    assert (code, err) == (0, "") and "classes=1" in out
    monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
    assert run(["census", "--n", "5", "--s-max", "1"])[0] == 0
    # an omitted --workers is resolved when the census runs, not when the
    # parser was built, and an explicit value does not stick
    assert workers_seen == [2, 3, 1]
    with pytest.raises(SystemExit) as info:
        main(["classify", str(sphere)])
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: roundfold classify") and "required: file1, --n" in captured.err
    assert run(["validate", str(sphere)]) == (0, "valid\n", "")
    assert run(["census", "--n", "3", "--s-max", "1"]) == (2, "", "census dimension must be >= 4, got 3\n")
    assert len(builds) == 1
