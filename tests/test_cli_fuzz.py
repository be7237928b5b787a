"""Command-line fuzz: whatever page document or manifold spec a user sends,
every page-reading command and ``admits`` end with exit code 0, 1 or 2, never
with 3 (internal error).  Documents are mutated standard pages, as JSON and as
raw text and bytes; specs follow the mini-grammar with mutated parts."""

from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import roundfold as rf
from roundfold.cli import main

FUZZ_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)

SEEDS = [
    json.loads(rf.serialize_page(g))
    for g in (
        rf.disk_page(),
        rf.sphere_page(),
        rf.moebius_page(),
        rf.klein_page(),
        rf.handle_page(2, 1),
        rf.orientable_closed_page(2),
    )
]

# inputs that once ended in an internal error; the two long integers pass
# the interpreter's integer digit limit, where it has one
NO_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
DEEP_NESTING = "[" * 100_000
BIG_RANK = '{"vertices": [{"id": "v1", "kind": "max", "rank": ' + "7" * 5000 + '}], "edges": []}'
BIG_SPEC = "sphere n=1" + "0" * 4999

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def page_documents(draw) -> str | bytes:
    doc = json.loads(json.dumps(draw(st.sampled_from(SEEDS))))
    for _ in range(draw(st.integers(0, 3))):
        section = doc[draw(st.sampled_from(["vertices", "edges"]))]
        if not section:
            continue
        i = draw(st.integers(0, len(section) - 1))
        move = draw(st.sampled_from(["set", "delete", "add", "copy", "drop", "replace"]))
        if move == "set":
            section[i][draw(st.sampled_from(sorted(section[i])))] = draw(json_values)
        elif move == "delete":
            del section[i][draw(st.sampled_from(sorted(section[i])))]
        elif move == "add":
            section[i][draw(st.text(max_size=6))] = draw(json_values)
        elif move == "copy":
            section.append(dict(section[i]))
        elif move == "drop":
            del section[i]
        else:
            section[i] = draw(json_values)
    text = json.dumps(doc)
    cut = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["none", "truncate", "insert", "bytes"]))
    if edit == "truncate":
        return text[:cut]
    if edit == "insert":
        return text[:cut] + draw(st.text(max_size=4)) + text[cut:]
    if edit == "bytes":
        raw = text.encode("utf-8")
        return raw[:cut] + draw(st.binary(min_size=1, max_size=3)) + raw[cut:]
    return text


def run(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects argv
            code = exc.code
    if code == 2:
        assert err.getvalue(), argv
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ_SETTINGS
@given(document=page_documents(), n=st.integers(3, 6), clutching=st.integers(-2, 2))
@example(document=DEEP_NESTING, n=5, clutching=0)
@example(document=BIG_RANK, n=5, clutching=0)
def test_page_commands_never_end_in_an_internal_error(workdir, document, n, clutching):
    page = workdir / "page.json"
    if isinstance(document, bytes):
        page.write_bytes(document)
    else:
        page.write_text(document, encoding="utf-8")
    other = workdir / "disk.json"
    other.write_text(rf.serialize_page(rf.disk_page()), encoding="utf-8")
    out = str(workdir / "out.svg")
    commands = [
        ["validate", str(page)],
        ["invariants", str(page)],
        ["build", str(page), "--n", str(n), "--clutching", str(clutching)],
        ["classify", str(page), str(other), "--n", str(n), "--clutching0", str(clutching)],
        ["render", str(page), "--kind", "reeb", "--out", out],
        ["render", str(page), "--kind", "circles", "--out", out, "--n", str(n), "--clutching", str(clutching)],
    ]
    for argv in commands:
        assert run(argv) in (0, 1, 2), argv


# page-building counts stay small: the witness page has one vertex per count
counts = st.integers(-2, 40).map(str)
values = st.one_of(
    counts,
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["1" + "0" * 4299, "9" * 4301, "", "x", "1.5", "--1"]),
)


@st.composite
def manifold_specs(draw) -> str:
    head = draw(st.sampled_from(["sphere", "handle_sum", "surface_product", "twisted_s2s2", "torus"]))
    keys = draw(st.lists(st.sampled_from(["n", "a", "b", "genus", "crosscaps", "k"]), max_size=4))
    n = draw(st.one_of(st.integers(-1, 8), st.integers(10, 10**40)).map(str))
    parts = [head, f"n={n}"] if draw(st.booleans()) else [head]
    parts += [f"{key}={draw(counts if key != 'n' else values)}" for key in keys]
    spec = " ".join(parts)
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(spec)))
        spec = spec[:cut] + draw(st.text(max_size=3)) + spec[cut:]
    return spec


@FUZZ_SETTINGS
@given(spec=manifold_specs(), directed=st.booleans())
@example(spec=BIG_SPEC, directed=False)
@example(spec=BIG_SPEC, directed=True)
def test_admits_never_ends_in_an_internal_error(spec, directed):
    argv = ["admits", "--manifold", spec] + (["--directed"] if directed else [])
    assert run(argv) in (0, 1, 2), argv


@pytest.mark.parametrize(
    "argv_tail, message",
    [
        pytest.param(DEEP_NESTING, "$: not valid JSON (nested too deeply)", id="deep-nesting"),
        pytest.param(BIG_RANK, "$: not valid JSON (Exceeds the limit", id="big-rank", marks=NO_DIGIT_LIMIT),
    ],
)
@pytest.mark.parametrize("command", ["validate", "invariants", "build", "classify", "render"])
def test_unreadable_page_json_exits_2(tmp_path, capsys, command, argv_tail, message):
    page = tmp_path / "page.json"
    page.write_text(argv_tail, encoding="utf-8")
    argv = {
        "validate": ["validate", str(page)],
        "invariants": ["invariants", str(page)],
        "build": ["build", str(page), "--n", "5"],
        "classify": ["classify", str(page), str(page), "--n", "5"],
        "render": ["render", str(page), "--kind", "reeb", "--out", str(tmp_path / "out.svg")],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(message)


@NO_DIGIT_LIMIT
def test_admits_with_a_too_long_integer_exits_2(capsys):
    assert main(["admits", "--manifold", BIG_SPEC]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("bad manifold spec 'sphere n=1000")
