"""The validation report cached on each page: one validation per page
object, and the same errors from every public function."""

from __future__ import annotations

import pytest

import roundfold as rf
from roundfold import pages
from roundfold.census import brute_force_isomorphic
from roundfold.render import render_critical_values, render_reeb


def test_page_functions_validate_a_page_once(monkeypatch):
    calls = []
    original = pages.validate_page

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(pages, "validate_page", counting)
    g = rf.handle_page(3, 0)
    d = rf.RoundFoldDescriptor(5, g)
    assert rf.surface_type(g) == rf.orientable_surface(0, 4)
    assert rf.regular_fiber_counts(g) == [4, 3, 2, 1, 0]
    assert rf.fold_counts(d) == (1, 3)
    assert rf.build_total_space(d) == rf.HandleSum(5, 3, 0)
    assert rf.canonical_form(d).startswith(b"RF1;n=5;k=0;P1;s=4;")
    assert rf.is_directed(d)
    assert calls == [g]


def test_valid_pages_share_one_report():
    assert rf.disk_page().report is rf.klein_page().report
    assert rf.disk_page().report.violations == ()


INVALID = rf.LabeledReebGraph.of(
    [("b0", "boundary", 0), ("v1", "max", 1), ("v2", "max", 2)],
    [("e0", "b0", "v1", 0)],
)
VALID = rf.annulus_page()
LABELING = {e.id: 0 for e in INVALID.edges}

PAGE_CALLS = [
    rf.page_euler,
    rf.boundary_count,
    rf.page_orientable,
    rf.surface_type,
    rf.regular_fiber_counts,
    rf.twist_class,
    lambda g: rf.twist_class(g, LABELING),
    lambda g: rf.twist_equivalent(g, LABELING, LABELING),
    rf.canonical_page_encoding,
    lambda g: rf.page_isomorphic(g, VALID),
    lambda g: rf.page_isomorphic(VALID, g),
    render_reeb,
    lambda g: brute_force_isomorphic(g, VALID),
    lambda g: brute_force_isomorphic(VALID, g),
]

DESCRIPTOR_CALLS = [
    rf.build_total_space,
    rf.component_directions,
    rf.is_directed,
    rf.fold_counts,
    rf.euler_via_folds,
    rf.height_critical_counts,
    rf.open_book,
    rf.canonical_form,
    render_critical_values,
    lambda d: rf.a_equivalent(d, rf.RoundFoldDescriptor(4, VALID)),
    lambda d: rf.a_equivalent(rf.RoundFoldDescriptor(4, VALID), d),
    lambda d: rf.r_equivalent_standard(d, rf.RoundFoldDescriptor(4, VALID)),
]


@pytest.mark.parametrize("call", PAGE_CALLS)
def test_page_functions_reject_invalid_page(call):
    with pytest.raises(rf.InvalidPageError) as info:
        call(INVALID)
    assert info.value.report.violations == rf.validate_page(INVALID).violations


@pytest.mark.filterwarnings("error")  # the n = 4 warning comes after the checks
@pytest.mark.parametrize("call", DESCRIPTOR_CALLS)
def test_descriptor_functions_reject_invalid_page(call):
    with pytest.raises(rf.InvalidDescriptorError) as info:
        call(rf.RoundFoldDescriptor(4, INVALID))
    assert info.value.report.violations == rf.validate_page(INVALID).violations
