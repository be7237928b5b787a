"""JSON round-tripping, renderers, and the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roundfold as rf
from roundfold.cli import main
from roundfold.render import render_critical_values, render_reeb

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


def test_manifold_spec_errors():
    with pytest.raises(rf.ManifoldSpecError):
        rf.parse_manifold_spec("torus n=5")
    with pytest.raises(rf.ManifoldSpecError):
        rf.parse_manifold_spec("sphere")
    with pytest.raises(rf.ManifoldSpecError):
        rf.parse_manifold_spec("handle_sum n=5 a=1")
    with pytest.raises(rf.RoundFoldError):
        rf.parse_manifold_spec("sphere n=2")


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


def test_render_reeb_svg():
    doc = render_reeb(rf.orientable_closed_page(1), format="svg")
    assert "<path" in doc  # bowed parallel edges are visible
    doc = render_reeb(rf.klein_page(), format="svg")
    assert "stroke-dasharray" in doc


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


def test_python_dash_m_entry_point():
    src = str(Path(rf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-m", "roundfold", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0
    assert run.stdout.startswith("usage: roundfold")
    assert "classify" in run.stdout
    run = subprocess.run([sys.executable, "-m", "roundfold"], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 2
    assert "usage: roundfold" in run.stderr
