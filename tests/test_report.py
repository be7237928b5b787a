"""What each page caches: its validation report, its validated view (with
the gauge pivots), its canonical encoding and its surface type are computed
once per page object; the census lays out each skeleton once, unvalidated,
in its walk, with no view and no page; a descriptor computes its report
once per object; and every public function gives the same errors on an
invalid page or descriptor."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import graph_from_skeleton, valid_skeletons

import roundfold as rf
from roundfold import gf2, pages
from roundfold.census import brute_force_isomorphic
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
    gauges = count_calls(monkeypatch, "_gauge_vectors", pages)
    eliminations = count_calls(monkeypatch, "rref", gf2)
    page_layouts = count_calls(monkeypatch, "_encoding_layout", pages)
    layouts = count_calls(monkeypatch, "_layout_prefix", pages)
    blocks = []
    encode_bits = pages._encode_bits
    monkeypatch.setattr(pages, "_encode_bits", lambda *args: blocks.append(args) or encode_bits(*args))
    views = count_calls(monkeypatch, "__init__", pages._PageView)
    page_encodings = count_calls(monkeypatch, "_encode_page", pages)
    built_pages = count_calls(monkeypatch, "__post_init__", pages.LabeledReebGraph)
    assert len(rf.census_table(5, 6).rows) == 2823
    connected_skeletons = 1 + 3 + 8 + 37 + 233 + 1920
    # the generator's skeletons are valid (tests/test_census.py checks them),
    # so none is validated, and each is laid out once, by the walk, with no
    # view or page layout
    assert validations == []
    assert len(layouts) == connected_skeletons
    assert views == page_layouts == []
    # each twist candidate costs one encoding of its twist block on its
    # skeleton's layout (its prefix, pair vectors and gauge echelon form),
    # and no page is built at all
    assert len(blocks) == 2834  # twist candidates
    # the walk finds which twists are free; only the 544 skeletons with a
    # free twist build their gauge generators and eliminate them, once, in
    # encoding order, and the other eliminations extend an echelon form by
    # the swap vectors of a candidate's unequal parallel pairs
    assert len(gauges) == 544
    assert len(eliminations) == 544 + 350
    assert page_encodings == []
    assert built_pages == []


def test_census_row_classifies_its_surface_once(monkeypatch):
    classifications = count_calls(monkeypatch, "twist_class", pages)
    surfaces = count_calls(monkeypatch, "_surface_of", pages)
    rows = rf.census_table(5, 5).rows
    # a row's orientability comes from its skeleton's saddle_b count and its
    # twist picks, and each stratum classifies each of its surfaces once
    assert classifications == []
    assert len(surfaces) == len({(r.s, r.summary.split("; ")[-2]) for r in rows})


def test_gauge_pivots_computed_once_per_page(monkeypatch):
    g = rf.klein_page()
    calls = count_calls(monkeypatch, "rref", gf2)
    assert rf.surface_type(g) == rf.nonorientable_surface(2)
    assert not rf.page_orientable(g)
    assert rf.twist_class(g).representative != 0
    assert rf.twist_class(g, {e.id: 0 for e in g.edges}).representative == 0
    assert len(calls) == 1


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
    calls = count_calls(monkeypatch, "_encode_page", pages)
    d = rf.RoundFoldDescriptor(5, g)
    assert rf.canonical_form(d).endswith(rf.canonical_page_encoding(g))
    assert rf.page_isomorphic(g, g)
    assert calls == [g]


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
    assert info.value.report.violations == rf.validate_descriptor(descriptor).violations


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
        if code == "valid":
            call(descriptor)
        else:
            with pytest.raises(rf.InvalidDescriptorError):
                call(descriptor)
    assert [d for d in checks if d is descriptor] == [descriptor]
    assert rf.validate_descriptor(descriptor) is descriptor.report


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
