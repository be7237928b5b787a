"""Static diagram emitters: concentric critical-value circles (SVG) and
rank-layered Reeb graph drawings (DOT or SVG).  All output is self-contained
text with no external assets."""

from __future__ import annotations

import math
import re
from collections import Counter

from .errors import RoundFoldError
from .foldmaps import RoundFoldDescriptor
from .pages import LabeledReebGraph, VertexKind, page_orientable, require_valid

_R_STEP = 48  # px between consecutive critical circles


def render_critical_values(rf: RoundFoldDescriptor, format: str = "svg") -> str:
    """Concentric circles C_1..C_s with the regular-fiber circle count in
    each annular region and, for orientable total spaces, an inward/outward
    arrow on each circle."""
    if format != "svg":
        raise RoundFoldError(f"unsupported critical-value format {format!r}")
    view = rf._view
    s, counts = view.s, view.fiber_counts
    # whether each circle's arrow points inward, for orientable total spaces
    inward = view.inward if page_orientable(rf.page) else ()
    size = 2 * (_R_STEP * s + _R_STEP)
    cx = cy = size // 2
    parts: list[str] = []
    for r in range(1, s + 1):
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{r * _R_STEP}" fill="none" stroke="black"/>'
        )
    # annulus labels along the +x axis: counts[r] lives between C_r and C_(r+1)
    for r in range(0, s + 1):
        x = cx + r * _R_STEP + _R_STEP // 2
        parts.append(
            f'<text x="{x}" y="{cy - 6}" font-size="14" text-anchor="middle">{counts[r]}</text>'
        )
    # one arrow per circle on the diagonal, pointing inward or outward
    ux, uy = math.cos(2.3), -math.sin(2.3)
    wx, wy = -uy, ux
    for r, flag in enumerate(inward, 1):
        px, py = cx + r * _R_STEP * ux, cy + r * _R_STEP * uy
        sign = -1 if flag else 1
        tip_x, tip_y = px + sign * 14 * ux, py + sign * 14 * uy
        parts.append(
            f'<line x1="{px:.1f}" y1="{py:.1f}" x2="{tip_x:.1f}" y2="{tip_y:.1f}" '
            f'stroke="black" stroke-width="2"/>'
        )
        for w in (-1, 1):
            bx, by = tip_x - sign * 6 * ux + w * 4 * wx, tip_y - sign * 6 * uy + w * 4 * wy
            parts.append(
                f'<line x1="{tip_x:.1f}" y1="{tip_y:.1f}" x2="{bx:.1f}" y2="{by:.1f}" '
                f'stroke="black" stroke-width="2"/>'
            )
    return _svg(size, size, parts)


def _svg(width: int, height: int, body: list[str]) -> str:
    """The SVG document of this size with a white background under ``body``."""
    head = f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    return "\n".join([head, f'<rect width="{width}" height="{height}" fill="white"/>', *body, "</svg>"]) + "\n"


# each kind's DOT node attributes up to its rank, and its SVG glyph at (x, y):
# tables, since naming an Enum member costs a class lookup each time.  A
# vertex's y is the int of its rank's row, written as it is, and its x a float
_DOT_NODES = {
    VertexKind.BOUNDARY: 'shape=box, label="boundary@',
    VertexKind.MIN: 'shape=invtriangle, label="min@',
    VertexKind.MAX: 'shape=triangle, label="max@',
    VertexKind.SADDLE_P: 'shape=ellipse, label="saddle_p@',
    VertexKind.SADDLE_B: 'shape=diamond, label="saddle_b@',
}
_GLYPHS = {
    VertexKind.BOUNDARY: lambda x, y: (
        f'<rect x="{x - 6:.0f}" y="{y - 6}" width="12" height="12" fill="white" stroke="black"/>'
    ),
    VertexKind.MIN: lambda x, y: (
        f'<polygon points="{x - 7:.0f},{y - 6} {x + 7:.0f},{y - 6} {x:.0f},{y + 7}" fill="black"/>'
    ),
    VertexKind.MAX: lambda x, y: (
        f'<polygon points="{x - 7:.0f},{y + 6} {x + 7:.0f},{y + 6} {x:.0f},{y - 7}" fill="black"/>'
    ),
    VertexKind.SADDLE_B: lambda x, y: (
        f'<polygon points="{x:.0f},{y - 8} {x + 8:.0f},{y} {x:.0f},{y + 8} '
        f'{x - 8:.0f},{y}" fill="white" stroke="black"/>'
    ),
    VertexKind.SADDLE_P: lambda x, y: f'<circle cx="{x:.0f}" cy="{y}" r="7" fill="white" stroke="black"/>',
}


def render_reeb(graph: LabeledReebGraph, format: str = "svg") -> str:
    """Rank-layered drawing of the page graph; twist-1 edges dashed and each
    vertex kind drawn with its own glyph; it builds no page view."""
    require_valid(graph)
    # the vertex ids of each rank, in the graph's (rank, id) order
    by_rank: dict[int, list[str]] = {}
    for v in graph.vertices:
        by_rank.setdefault(v.rank, []).append(v.id)
    if format == "dot":
        return _reeb_dot(graph, by_rank)
    if format == "svg":
        # a valid page ranks its critical vertices 1..s, so s is the top rank
        return _reeb_svg(graph, max(by_rank), by_rank)
    raise RoundFoldError(f"unsupported reeb format {format!r}")


def _dot_quoted(ids: list[str]) -> dict[str, str]:
    """Each of these ids as a DOT quoted string, with ``\\`` and ``"``
    escaped."""
    return {i: '"' + i.replace("\\", "\\\\").replace('"', '\\"') + '"' for i in ids}


def _reeb_dot(graph: LabeledReebGraph, by_rank: dict[int, list[str]]) -> str:
    ids = [v.id for v in graph.vertices] + [e.id for e in graph.edges]
    if _SURROGATE.search("".join(ids)):
        first = next(j for j, i in enumerate(ids) if _SURROGATE.search(i))
        what = "vertex" if first < len(graph.vertices) else "edge"
        raise RoundFoldError(f"{what} id {ids[first]!r} holds a lone surrogate, which a DOT file cannot hold")
    quoted = _dot_quoted(ids)
    lines = ["graph page {", "  rankdir=BT;"]
    for vid, kind, rank in graph.vertices:
        lines.append(f'  {quoted[vid]} [{_DOT_NODES[kind]}{rank}"];')
    for ids in by_rank.values():
        same = " ".join(f"{quoted[vid]};" for vid in ids)
        lines.append(f"  {{ rank=same; {same} }}")
    for eid, low, high, twist in graph.edges:
        style = ", style=dashed" if twist else ""
        lines.append(f"  {quoted[low]} -- {quoted[high]} [label={quoted[eid]}{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _reeb_svg(graph: LabeledReebGraph, s: int, by_rank: dict[int, list[str]]) -> str:
    vertex_ids = [v.id for v in graph.vertices]
    if _NOT_XML.search("".join(vertex_ids)):
        bad = next(vid for vid in vertex_ids if _NOT_XML.search(vid))
        raise RoundFoldError(f"vertex id {bad!r} holds a character that an SVG drawing cannot hold")
    width = 120 * max(len(ids) for ids in by_rank.values()) + 80
    height = 90 * (s + 1) + 60
    pos: dict[str, tuple[float, int]] = {}
    at: dict[str, tuple[str, str]] = {}  # the coordinates as drawn, formatted once
    for rank, ids in by_rank.items():
        y = height - 50 - rank * 90
        y_text, step = str(y), width / (len(ids) + 1)
        for i, vid in enumerate(ids, 1):
            x = i * step
            pos[vid], at[vid] = (x, y), (f"{x:.0f}", y_text)
    parts: list[str] = []
    # edges first; parallel edges bow apart
    totals = Counter([(low, high) for _, low, high, _ in graph.edges])
    seen_pairs: dict[tuple[str, str], int] = {}
    for _, low, high, twist in graph.edges:  # a page keeps its edges sorted by id
        dash = ' stroke-dasharray="6,4"' if twist else ""
        (x1, y1), (x2, y2) = at[low], at[high]
        total = totals[low, high]
        if total == 1:
            parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black"{dash}/>')
        else:
            slot = seen_pairs.get((low, high), 0)
            seen_pairs[low, high] = slot + 1
            (px1, py1), (px2, py2) = pos[low], pos[high]
            mx, my = (px1 + px2) / 2 + (slot - (total - 1) / 2) * 44, (py1 + py2) / 2
            parts.append(
                f'<path d="M {x1} {y1} Q {mx:.0f} {my:.0f} {x2} {y2}" fill="none" stroke="black"{dash}/>'
            )
    for vid, kind, _ in graph.vertices:
        x, y = pos[vid]
        parts.append(_GLYPHS[kind](x, y))
        parts.append(f'<text x="{x + 12:.0f}" y="{y - 8}" font-size="12">{_xml_text(vid)}</text>')
    return _svg(width, height, parts)


# the characters XML 1.0 allows nowhere in a document, not even escaped
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# a code point UTF-8 cannot encode: half of a surrogate pair, on its own
_SURROGATE = re.compile("[\ud800-\udfff]")


def _xml_text(text: str) -> str:
    """``text`` as XML character data, with ``&``, ``<`` and ``>`` escaped."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

