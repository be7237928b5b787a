"""The public names of the package and of its page module, pinned so that a
change which adds or drops one fails here first, and the error each public
function raises on input that is not of its kind."""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

import pytest

import roundfold
from roundfold import classify, foldmaps, pages
from roundfold.cli import main


def public_names(module) -> list[str]:
    """Names without a leading underscore that the module binds to objects
    of this package: functions, classes and constants, not submodules and
    not what it imports from elsewhere."""
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and not inspect.ismodule(obj)
        and getattr(obj, "__module__", "roundfold").startswith("roundfold")
    )


def test_package_public_names():
    assert public_names(roundfold) == [
        "CensusRow", "CensusTable", "Direction", "Edge", "FreeGroup", "HandleSum",
        "InvalidDescriptorError", "InvalidPageError", "LabeledReebGraph", "MAX_CLUTCHING",
        "MAX_ENUMERATION_S", "ManifoldSpecError", "NonOrientableError",
        "OpenBookDescriptor", "OpenBookUnsupportedError", "PageFormatError",
        "RoundFoldDescriptor", "RoundFoldError", "Sphere", "SurfaceGroup", "SurfaceProduct",
        "SurfaceType", "Trivial", "TwistClass", "TwistedS2S2", "ValidationReport", "Vertex",
        "VertexKind", "Violation", "a_equivalent", "admits_directed", "admits_round_fold",
        "annulus_page", "build_total_space",
        "canonical_form", "canonical_page_encoding", "census_jsonl", "census_table",
        "census_text", "component_directions", "describe", "directed_page", "disk_page",
        "enumerate_pages", "equivalent", "euler_characteristic", "euler_via_folds",
        "fold_counts", "fundamental_group", "handle_page", "is_directed",
        "is_orientable_manifold", "is_sphere_page", "klein_page", "moebius_page",
        "nonorientable_closed_page", "nonorientable_surface", "normalize", "open_book",
        "orientable_closed_page", "orientable_surface", "page_isomorphic",
        "page_orientable", "parse_manifold_spec", "parse_page",
        "regular_fiber_counts", "render_critical_values", "render_reeb", "serialize_page",
        "sphere_page", "surface_type", "twist_class", "validate_page",
    ]


def test_page_module_public_names():
    assert public_names(pages) == [
        "Edge", "InvalidPageError", "LabeledReebGraph", "RoundFoldError",
        "SurfaceType", "TwistClass", "ValidationReport", "Vertex", "VertexKind", "Violation",
        "annulus_page", "canonical_page_encoding", "directed_page",
        "disk_page", "handle_page", "klein_page", "moebius_page",
        "nonorientable_closed_page", "nonorientable_surface", "orientable_closed_page",
        "orientable_surface", "page_isomorphic", "page_orientable",
        "regular_fiber_counts", "require_valid", "sphere_page", "surface_type",
        "twist_class", "validate_page",
    ]


def test_version_is_stated_once():
    # a regex, not tomllib: requires-python is 3.10, and tomllib is 3.11
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "(.*)"$', pyproject, re.MULTILINE) == [roundfold.__version__]


def test_removed_in_0_4_0():
    # each removed entry point only restated another public call; README's
    # "Removed in 0.4.0" gives the call that replaces it
    for keyword in ("allow_nonorientable", "allow_closed"):
        with pytest.raises(TypeError):
            roundfold.enumerate_pages(2, **{keyword: False})
    assert not hasattr(roundfold, "standard_page")
    assert not hasattr(pages, "standard_page")
    assert not hasattr(pages, "_BUILDERS")
    assert not hasattr(pages.LabeledReebGraph, "critical_by_rank")
    assert not hasattr(pages.LabeledReebGraph, "boundary_vertices")


def test_removed_in_0_5_0():
    # each removed call only restated another public call; README's "Removed
    # in 0.5.0" gives the call that replaces it
    for name in ("page_euler", "height_critical_counts", "validate_descriptor"):
        assert not hasattr(roundfold, name)
    assert not hasattr(pages, "page_euler")
    assert not hasattr(foldmaps, "height_critical_counts")
    assert not hasattr(foldmaps, "validate_descriptor")


def test_removed_in_0_6_0():
    # each removed call only restated another public call; README's "Removed
    # in 0.6.0" gives the call that replaces it
    for name in ("twist_equivalent", "boundary_count", "r_equivalent_standard"):
        assert not hasattr(roundfold, name)
    assert not hasattr(pages, "twist_equivalent")
    assert not hasattr(pages, "boundary_count")
    assert not hasattr(classify, "r_equivalent_standard")
    assert not hasattr(classify, "warnings")
    g = pages.klein_page()
    with pytest.raises(TypeError):
        pages.twist_class(g, g.twist_labeling())


def test_changed_in_0_7_0():
    # README's "Changed in 0.7.0": the gauge step needs no GF(2) module, and
    # the page view holds the edges of the gauge graph H
    with pytest.raises(ImportError):
        importlib.import_module("roundfold.gf2")
    assert pages.klein_page()._view.h_edges == ((1, 2, 3), (2, 3, 2), (2, 3, 1), (3, 4, 0))


def test_removed_in_0_8_0():
    # README's "Removed in 0.8.0": the page view holds what the encoding
    # layout held, and reads a page's twists as bits itself
    for name in ("EncodingLayout", "_encoding_layout", "_labeling_bits"):
        assert not hasattr(pages, name)
    assert not hasattr(pages._PageView, "layout")


NOT_A_DESCRIPTOR = 3

# (id, call, error type, message): each call raises its error with its
# message and no other
ERRORS = [
    ("parse-list", lambda: roundfold.parse_page("[]"), roundfold.PageFormatError, "$: document must be a JSON object"),
    ("parse-null", lambda: roundfold.parse_page("null"), roundfold.PageFormatError, "$: document must be a JSON object"),
    ("parse-str", lambda: roundfold.parse_page('"x"'), roundfold.PageFormatError, "$: document must be a JSON object"),
    (
        "parse-vertices-object",
        lambda: roundfold.parse_page('{"vertices": {}, "edges": []}'),
        roundfold.PageFormatError,
        "$.vertices: must be an array",
    ),
    (
        "parse-edges-number",
        lambda: roundfold.parse_page('{"vertices": [], "edges": 3}'),
        roundfold.PageFormatError,
        "$.edges: must be an array",
    ),
    (
        "surface-negative-boundary",
        lambda: roundfold.SurfaceType(True, -1, genus=0),
        roundfold.RoundFoldError,
        "boundary_circles must be >= 0",
    ),
    (
        "surface-orientable-crosscaps",
        lambda: roundfold.SurfaceType(True, 0, genus=1, crosscaps=1),
        roundfold.RoundFoldError,
        "orientable surface needs genus >= 0 and no crosscaps",
    ),
    (
        "surface-nonorientable-genus",
        lambda: roundfold.SurfaceType(False, 0, genus=1, crosscaps=1),
        roundfold.RoundFoldError,
        "non-orientable surface needs crosscaps >= 1 and no genus",
    ),
    (
        "twist-2",
        lambda: roundfold.sphere_page().with_twists({"e0": 2}),
        roundfold.RoundFoldError,
        "twist of edge e0 must be 0 or 1",
    ),
    (
        "handle-negative",
        lambda: roundfold.handle_page(-1, 2),
        roundfold.RoundFoldError,
        "handle page needs a, b >= 0, got a=-1 b=2",
    ),
    (
        "render-png",
        lambda: roundfold.render_reeb(roundfold.disk_page(), format="png"),
        roundfold.RoundFoldError,
        "unsupported reeb format 'png'",
    ),
    ("describe", lambda: roundfold.describe(NOT_A_DESCRIPTOR), roundfold.RoundFoldError, "unknown descriptor 3"),
    (
        "euler",
        lambda: roundfold.euler_characteristic(NOT_A_DESCRIPTOR),
        roundfold.RoundFoldError,
        "unknown descriptor 3",
    ),
    (
        "fundamental-group",
        lambda: roundfold.fundamental_group(NOT_A_DESCRIPTOR),
        roundfold.RoundFoldError,
        "unknown descriptor 3",
    ),
    (
        "admits",
        lambda: roundfold.admits_round_fold(NOT_A_DESCRIPTOR),
        roundfold.RoundFoldError,
        "unknown descriptor 3",
    ),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in ERRORS], ids=[row[0] for row in ERRORS])
def test_error_messages(call, error, message):
    with pytest.raises(roundfold.RoundFoldError) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_a_report_is_true_iff_the_page_is_valid():
    assert bool(roundfold.validate_page(roundfold.disk_page())) is True
    loop = roundfold.LabeledReebGraph.of([("v1", "max", 1)], [("e0", "v1", "v1", 0)])
    assert bool(roundfold.validate_page(loop)) is False


def test_cli_validate_refuses_a_document_that_is_not_an_object(tmp_path, capsys):
    page = tmp_path / "page.json"
    page.write_text("[]", encoding="utf-8")
    assert main(["validate", str(page)]) == 2
    assert "$: document must be a JSON object" in capsys.readouterr().err
