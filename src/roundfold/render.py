"""Static diagram emitters: concentric critical-value circles (SVG) and
rank-layered Reeb graph drawings (DOT or SVG).  All output is self-contained
text with no external assets."""

from __future__ import annotations

import math
from collections import Counter

from .errors import RoundFoldError
from .foldmaps import (
    Direction,
    RoundFoldDescriptor,
    component_directions,
    require_valid_descriptor,
)
from .pages import (
    LabeledReebGraph,
    VertexKind,
    page_orientable,
    regular_fiber_counts,
)

_R_STEP = 48  # px between consecutive critical circles


def render_critical_values(rf: RoundFoldDescriptor, format: str = "svg") -> str:
    """Concentric circles C_1..C_s with the regular-fiber circle count in
    each annular region and, for orientable total spaces, an inward/outward
    arrow on each circle."""
    if format != "svg":
        raise RoundFoldError(f"unsupported critical-value format {format!r}")
    require_valid_descriptor(rf)
    counts = regular_fiber_counts(rf.page)
    s = len(counts) - 1
    directions = (
        {r: d for r, d in component_directions(rf)} if page_orientable(rf.page) else {}
    )
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
    for r in range(1, s + 1):
        d = directions.get(r)
        if d is None:
            continue
        ux, uy = math.cos(2.3), -math.sin(2.3)
        px, py = cx + r * _R_STEP * ux, cy + r * _R_STEP * uy
        sign = -1 if d is Direction.INWARD else 1
        tip_x, tip_y = px + sign * 14 * ux, py + sign * 14 * uy
        parts.append(
            f'<line x1="{px:.1f}" y1="{py:.1f}" x2="{tip_x:.1f}" y2="{tip_y:.1f}" '
            f'stroke="black" stroke-width="2"/>'
        )
        wx, wy = -uy, ux
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


_DOT_SHAPES = {
    VertexKind.BOUNDARY: "box",
    VertexKind.MIN: "invtriangle",
    VertexKind.MAX: "triangle",
    VertexKind.SADDLE_P: "ellipse",
    VertexKind.SADDLE_B: "diamond",
}


def render_reeb(graph: LabeledReebGraph, format: str = "svg") -> str:
    """Rank-layered drawing of the page graph; twist-1 edges dashed and each
    vertex kind drawn with its own glyph."""
    s = graph._view.s
    # the vertex ids of each rank, in the graph's (rank, id) order
    by_rank: dict[int, list[str]] = {}
    for v in graph.vertices:
        by_rank.setdefault(v.rank, []).append(v.id)
    if format == "dot":
        return _reeb_dot(graph, by_rank)
    if format == "svg":
        return _reeb_svg(graph, s, by_rank)
    raise RoundFoldError(f"unsupported reeb format {format!r}")


def _reeb_dot(graph: LabeledReebGraph, by_rank: dict[int, list[str]]) -> str:
    lines = ["graph page {", "  rankdir=BT;"]
    for v in graph.vertices:
        lines.append(
            f'  "{v.id}" [shape={_DOT_SHAPES[v.kind]}, label="{v.kind.value}@{v.rank}"];'
        )
    for ids in by_rank.values():
        same = " ".join(f'"{vid}";' for vid in ids)
        lines.append(f"  {{ rank=same; {same} }}")
    for e in graph.edges:
        style = ", style=dashed" if e.twist else ""
        lines.append(f'  "{e.low}" -- "{e.high}" [label="{e.id}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _reeb_svg(graph: LabeledReebGraph, s: int, by_rank: dict[int, list[str]]) -> str:
    width = 120 * max(len(ids) for ids in by_rank.values()) + 80
    height = 90 * (s + 1) + 60
    pos: dict[str, tuple[float, float]] = {}
    for rank, ids in by_rank.items():
        y = height - 50 - rank * 90
        step = width / (len(ids) + 1)
        for i, vid in enumerate(ids):
            pos[vid] = ((i + 1) * step, y)
    parts: list[str] = []
    # edges first; parallel edges bow apart
    totals = Counter((e.low, e.high) for e in graph.edges)
    seen_pairs: dict[tuple[str, str], int] = {}
    for e in graph.edges:  # a page keeps its edges sorted by id
        k = (e.low, e.high)
        slot = seen_pairs.get(k, 0)
        seen_pairs[k] = slot + 1
        total = totals[k]
        (x1, y1), (x2, y2) = pos[e.low], pos[e.high]
        dash = ' stroke-dasharray="6,4"' if e.twist else ""
        if total == 1:
            parts.append(
                f'<line x1="{x1:.0f}" y1="{y1:.0f}" x2="{x2:.0f}" y2="{y2:.0f}" '
                f'stroke="black"{dash}/>'
            )
        else:
            bow = (slot - (total - 1) / 2) * 44
            mx, my = (x1 + x2) / 2 + bow, (y1 + y2) / 2
            parts.append(
                f'<path d="M {x1:.0f} {y1:.0f} Q {mx:.0f} {my:.0f} {x2:.0f} {y2:.0f}" '
                f'fill="none" stroke="black"{dash}/>'
            )
    for v in graph.vertices:
        x, y = pos[v.id]
        parts.append(_vertex_glyph(v.kind, x, y))
        parts.append(
            f'<text x="{x + 12:.0f}" y="{y - 8:.0f}" font-size="12">{v.id}</text>'
        )
    return _svg(width, height, parts)


def _vertex_glyph(kind: VertexKind, x: float, y: float) -> str:
    if kind is VertexKind.BOUNDARY:
        return f'<rect x="{x - 6:.0f}" y="{y - 6:.0f}" width="12" height="12" fill="white" stroke="black"/>'
    if kind is VertexKind.MIN:
        return f'<polygon points="{x - 7:.0f},{y - 6:.0f} {x + 7:.0f},{y - 6:.0f} {x:.0f},{y + 7:.0f}" fill="black"/>'
    if kind is VertexKind.MAX:
        return f'<polygon points="{x - 7:.0f},{y + 6:.0f} {x + 7:.0f},{y + 6:.0f} {x:.0f},{y - 7:.0f}" fill="black"/>'
    if kind is VertexKind.SADDLE_B:
        return (
            f'<polygon points="{x:.0f},{y - 8:.0f} {x + 8:.0f},{y:.0f} {x:.0f},{y + 8:.0f} '
            f'{x - 8:.0f},{y:.0f}" fill="white" stroke="black"/>'
        )
    return f'<circle cx="{x:.0f}" cy="{y:.0f}" r="7" fill="white" stroke="black"/>'
