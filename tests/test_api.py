"""The public names of the package and of its page module, pinned so that a
change which adds or drops one fails here first."""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

import pytest

import roundfold
from roundfold import classify, foldmaps, pages


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
