"""What each page caches: its validation report, its validated view (which
holds its encoding layout and lists the edges of the page's gauge graph
once), its canonical encoding and its surface type are computed once per
page object, and its twisted copies share its view; the census lays out
each skeleton once, unvalidated, in its walk, with no view and no page; a
descriptor computes its report once per object; and every public function
gives the same errors on an invalid page or descriptor."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import graph_from_skeleton, valid_skeletons

import roundfold as rf
from roundfold import census, pages
from roundfold.cli import main
from roundfold.render import render_critical_values, render_reeb


def count_calls(monkeypatch, name: str, *modules) -> list:
    """Wrap the function ``name`` on every given module with one shared
    counter; return the list of first arguments it was called with."""
    calls = []
    original = getattr(modules[0], name)

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def test_page_functions_validate_a_page_once(monkeypatch):
    calls = count_calls(monkeypatch, "validate_page", pages)
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


def test_census_validates_no_skeleton_and_encodes_each_candidate_once(monkeypatch):
    validations = count_calls(monkeypatch, "_validate_page_data", pages)
    layouts = count_calls(monkeypatch, "_layout_prefix", pages)
    blocks = []
    encode_bits = pages._encode_bits
    monkeypatch.setattr(pages, "_encode_bits", lambda *args: blocks.append(args) or encode_bits(*args))
    candidates = []
    find_candidates = census._candidates

    def counting_candidates(*args):
        found = find_candidates(*args)
        candidates.extend(found)
        return found

    monkeypatch.setattr(census, "_candidates", counting_candidates)
    views = count_calls(monkeypatch, "__init__", pages._PageView)
    built_pages = count_calls(monkeypatch, "__post_init__", pages.LabeledReebGraph)
    assert len(rf.census_table(5, 6).rows) == 2823
    connected_skeletons = 1 + 3 + 8 + 37 + 233 + 1920
    # the generator's skeletons are valid (tests/test_census.py checks them),
    # so none is validated, and each is laid out once, by the walk, with no
    # page view
    assert validations == []
    assert len(layouts) == connected_skeletons
    assert views == []
    # the walk finds which twists are free.  A skeleton with none has one
    # candidate, untwisted, whose twist block is all zeros with no
    # encoding; each candidate of the 544 skeletons with a free twist costs
    # one encoding of its twist block on its skeleton's layout (its prefix,
    # parallel pairs and edges of the gauge graph), and no page is built at all
    assert len(candidates) == 2834
    assert len(blocks) == 2834 - (connected_skeletons - 544)
    assert built_pages == []


def test_census_row_classifies_its_surface_once(monkeypatch):
    classifications = count_calls(monkeypatch, "twist_class", pages)
    surfaces = count_calls(monkeypatch, "_surface_of", pages)
    rows = rf.census_table(5, 5).rows
    # a row's orientability comes from its skeleton's saddle_b count and its
    # twist picks, and its surface is classified once per row key: its
    # sequence, fiber counts and orientability, which its summary names
    assert classifications == []
    assert len(surfaces) == len({r.summary for r in rows})


def test_one_encoding_layout_per_page(monkeypatch):
    g = rf.orientable_closed_page(3)
    m = len(g.edges)
    calls = count_calls(monkeypatch, "__init__", pages._PageView)
    assert rf.surface_type(g) == rf.orientable_surface(3)
    assert rf.page_orientable(g)
    assert rf.twist_class(g).representative == 0
    assert rf.twist_class(g.with_twists({e.id: 1 for e in g.edges})).representative == 0
    assert rf.canonical_page_encoding(g).endswith(b";T=" + b"0" * m)
    # the twist class and the encoding read the one view of the page, which
    # holds its encoding layout and which its twisted copies share
    assert calls == [g._view]
    # so with no unequally twisted parallel pair to swap, the T block is
    # the twist class's representative, in the same (encoding) edge order
    rnd = random.Random(28)
    for page in SKELETON_PAGES:
        by_ends: dict = {}
        twisted = page.with_twists({e.id: by_ends.setdefault((e.low, e.high), rnd.randint(0, 1)) for e in page.edges})
        rep = rf.twist_class(twisted).representative
        assert rf.canonical_page_encoding(twisted).split(b";T=")[1] == f"{rep:0{len(page.edges)}b}".encode()


def test_surface_type_computed_once_per_page(monkeypatch):
    calls = count_calls(monkeypatch, "twist_class", pages)
    g = rf.orientable_closed_page(2)
    d = rf.RoundFoldDescriptor(5, g)
    assert rf.surface_type(g) == rf.orientable_surface(2)
    assert rf.page_orientable(g)
    assert rf.build_total_space(d) == rf.SurfaceProduct(5, rf.orientable_surface(2))
    assert not rf.is_directed(d)
    assert rf.open_book(d).page == rf.orientable_surface(2)
    assert calls == [g]


def test_encoding_kept_on_the_page(monkeypatch):
    g = rf.orientable_closed_page(3)
    calls = count_calls(monkeypatch, "_encode_bits", pages)
    d = rf.RoundFoldDescriptor(5, g)
    assert rf.canonical_form(d).endswith(rf.canonical_page_encoding(g))
    assert rf.page_isomorphic(g, g)
    assert calls == [g._view.prefix]


SKELETON_PAGES = [
    graph_from_skeleton(kinds, edges, {}) for s in range(1, 6) for kinds, edges in valid_skeletons(s)
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_twisted_copy_report_matches_validation(data):
    page = data.draw(st.sampled_from(SKELETON_PAGES))
    twists = data.draw(st.lists(st.integers(0, 1), min_size=len(page.edges), max_size=len(page.edges)))
    copy = page.with_twists({e.id: t for e, t in zip(page.edges, twists)})
    assert copy.report == rf.validate_page(copy)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_twisted_copies_share_a_view_that_holds_no_twist(data):
    page = data.draw(st.sampled_from(SKELETON_PAGES))
    for _ in range(2):
        twists = data.draw(st.lists(st.integers(0, 1), min_size=len(page.edges), max_size=len(page.edges)))
        copy = page.with_twists({e.id: t for e, t in zip(page.edges, twists)})
        assert copy._view is page._view
        # a page with the copy's items builds a view of its own
        fresh = rf.LabeledReebGraph(copy.vertices, copy.edges)
        assert fresh._view is not page._view
        assert rf.canonical_page_encoding(copy) == rf.canonical_page_encoding(fresh)
        assert rf.twist_class(copy) == rf.twist_class(fresh)


def test_twisted_copy_of_invalid_page_is_revalidated():
    disconnected = rf.LabeledReebGraph.of(
        [("b0", "boundary", 0), ("b1", "boundary", 0), ("v1", "max", 1), ("v2", "max", 2)],
        [("e0", "b0", "v1", 0), ("e1", "b1", "v2", 0)],
    )
    copy = disconnected.with_twists({"e0": 1, "e1": 0})
    assert "disconnected" in {v.code for v in copy.report.violations}
    assert copy.report == rf.validate_page(copy)
    for read in (lambda g: g.canonical_encoding, lambda g: g._view):
        with pytest.raises(rf.InvalidPageError):
            read(copy)


INVALID = rf.LabeledReebGraph.of(
    [("b0", "boundary", 0), ("v1", "max", 1), ("v2", "max", 2)],
    [("e0", "b0", "v1", 0)],
)
VALID = rf.annulus_page()
LABELING = {e.id: 0 for e in INVALID.edges}

# in both lists, each call by a name of its own, so that no id changes with
# the position of another entry
PAGE_CALLS = [
    rf.page_orientable,
    rf.surface_type,
    pytest.param(lambda g: rf.surface_type(g).boundary_circles, id="boundary_circles"),
    rf.regular_fiber_counts,
    rf.twist_class,
    pytest.param(lambda g: rf.twist_class(g.with_twists(LABELING)), id="twist_class_of_copy"),
    rf.canonical_page_encoding,
    pytest.param(lambda g: rf.page_isomorphic(g, VALID), id="page_isomorphic_to_valid"),
    pytest.param(lambda g: rf.page_isomorphic(VALID, g), id="valid_page_isomorphic_to"),
    render_reeb,
]

DESCRIPTOR_CALLS = [
    rf.build_total_space,
    rf.component_directions,
    rf.is_directed,
    rf.fold_counts,
    rf.euler_via_folds,
    rf.open_book,
    rf.canonical_form,
    render_critical_values,
    # the invalid descriptor on the left or right of a_equivalent; the ids stay
    # short so each full test name fits in 100 characters, where reports cut it
    pytest.param(lambda d: rf.a_equivalent(d, rf.RoundFoldDescriptor(4, VALID)), id="a_equiv_lhs"),
    pytest.param(lambda d: rf.a_equivalent(rf.RoundFoldDescriptor(4, VALID), d), id="a_equiv_rhs"),
]


@pytest.mark.parametrize("call", PAGE_CALLS)
def test_page_functions_reject_invalid_page(call):
    with pytest.raises(rf.InvalidPageError) as info:
        call(INVALID)
    assert info.value.report.violations == rf.validate_page(INVALID).violations


@pytest.mark.parametrize("call", DESCRIPTOR_CALLS)
def test_descriptor_functions_reject_invalid_page(call):
    with pytest.raises(rf.InvalidDescriptorError) as info:
        call(rf.RoundFoldDescriptor(4, INVALID))
    assert info.value.report.violations == rf.validate_page(INVALID).violations


# a valid page under a descriptor that breaks one descriptor rule
BAD_DESCRIPTORS = {
    "dimension": rf.RoundFoldDescriptor(3, rf.annulus_page()),
    "clutching_dim": rf.RoundFoldDescriptor(5, rf.sphere_page(), 1),
    "clutching_page": rf.RoundFoldDescriptor(4, rf.disk_page(), 1),
}


@pytest.mark.filterwarnings("error")  # the n = 4 warning comes after the checks
@pytest.mark.parametrize("code", BAD_DESCRIPTORS)
@pytest.mark.parametrize("call", DESCRIPTOR_CALLS)
def test_descriptor_functions_reject_invalid_descriptor(call, code):
    descriptor = BAD_DESCRIPTORS[code]
    with pytest.raises(rf.InvalidDescriptorError) as info:
        call(descriptor)
    assert [v.code for v in info.value.report.violations] == [code]
    assert info.value.report.violations == descriptor.report.violations


@pytest.mark.parametrize(
    "command, stderr",
    [
        (["build", "{annulus}", "--n", "3"], "descriptor dimension must be an integer >= 4, got 3"),
        (
            ["classify", "{sphere}", "{sphere}", "--n", "5", "--clutching0", "1"],
            "clutching must be 0 for n = 5; the page determines the map",
        ),
        (
            ["render", "{annulus}", "--kind", "circles", "--n", "3", "--out", "{out}"],
            "descriptor dimension must be an integer >= 4, got 3",
        ),
    ],
)
def test_cli_rejects_invalid_descriptor(command, stderr, tmp_path, capsys):
    files = {"out": str(tmp_path / "out.svg")}
    for name in ("annulus", "sphere"):
        path = files[name] = tmp_path / f"{name}.json"
        path.write_text(rf.serialize_page(getattr(rf, f"{name}_page")()), encoding="utf-8")
    assert main([arg.format(**files) for arg in command]) == 2
    assert capsys.readouterr() == ("", f"invalid descriptor: {stderr}\n")
    assert not (tmp_path / "out.svg").exists()


@pytest.mark.filterwarnings("ignore:standard-form comparison")
@pytest.mark.parametrize("code", ["valid", *BAD_DESCRIPTORS])
def test_descriptor_functions_check_a_descriptor_once(monkeypatch, code):
    # a fresh object, with nothing cached on it yet
    descriptor = dataclasses.replace(BAD_DESCRIPTORS.get(code, rf.RoundFoldDescriptor(4, rf.annulus_page())))
    checks = []
    rule = rf.RoundFoldDescriptor.report.func
    monkeypatch.setattr(rf.RoundFoldDescriptor.report, "func", lambda d: checks.append(d) or rule(d))
    for call in DESCRIPTOR_CALLS:
        call = getattr(call, "values", (call,))[0]  # a pytest.param holds its call first in values
        if code == "valid":
            call(descriptor)
        else:
            with pytest.raises(rf.InvalidDescriptorError):
                call(descriptor)
    assert [d for d in checks if d is descriptor] == [descriptor]


def test_descriptor_check_keeps_its_place_among_the_checks():
    bad = rf.RoundFoldDescriptor(3, rf.moebius_page())
    # the descriptor before the orientability of its page
    for call in (rf.component_directions, rf.is_directed):
        with pytest.raises(rf.InvalidDescriptorError):
            call(bad)
    # the format before the descriptor
    with pytest.raises(rf.RoundFoldError, match="unsupported critical-value format") as info:
        render_critical_values(bad, format="pdf")
    assert not isinstance(info.value, rf.InvalidDescriptorError)
