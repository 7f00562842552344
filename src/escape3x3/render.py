"""Plan rendering: a small fixed-size text diagram, and DOT output.

Terminals are drawn as filled squares, exits carry a star, and every path
gets its own glyph; edge-disjointness means no cell is ever claimed twice.
"""

from __future__ import annotations

from .grid import GRID_SIZE, Edge, edge, full_grid
from .model import EscapePlan
from .terminals import TerminalConfig

_PATH_GLYPHS = "123456789abcdef"


def _glyph_assignment(plan: EscapePlan) -> list[tuple[str, str, list[Edge]]]:
    """(glyph, description, edges) per path, in plan order."""
    out = []
    k = 0
    for i, path in plan.linkages:
        out.append((_PATH_GLYPHS[k], f"pair {i}: {path.start}-{path.end}", path.edges()))
        k += 1
    for term, exit_v, path in plan.escapes:
        out.append((_PATH_GLYPHS[k], f"escape {term} -> {exit_v}", path.edges()))
        k += 1
    return out


def render_ascii(plan: EscapePlan, cfg: TerminalConfig | None = None) -> str:
    """Deterministic text diagram of a plan on the corner grid."""
    terminals = set(cfg.terminals) if cfg else set()
    exits = {x for _, x, _ in plan.escapes}
    edge_glyph: dict[Edge, str] = {}
    legend = []
    for glyph, desc, edges in _glyph_assignment(plan):
        legend.append(f"  {glyph} {desc}")
        for e in edges:
            if e in edge_glyph:
                raise ValueError(f"edge {e} claimed by two paths")
            edge_glyph[e] = glyph

    rows = []
    for r in range(1, GRID_SIZE + 1):
        cells = []
        for c in range(1, GRID_SIZE + 1):
            v = (r, c)
            mark = "■" if v in terminals else "o"
            mark += "*" if v in exits else " "
            cells.append(mark)
            if c < GRID_SIZE:
                g = edge_glyph.get(edge(v, (r, c + 1)))
                cells.append(f"{g * 3} " if g else "    ")
        rows.append("".join(cells).rstrip())
        if r < GRID_SIZE:
            cells = []
            for c in range(1, GRID_SIZE + 1):
                g = edge_glyph.get(edge((r, c), (r + 1, c)))
                cells.append(f"{g} " if g else "  ")
                if c < GRID_SIZE:
                    cells.append("    ")
            rows.append("".join(cells).rstrip())
    return "\n".join(rows + legend)


_DOT_COLORS = (
    "red",
    "blue",
    "darkgreen",
    "orange",
    "purple",
    "brown",
    "cyan4",
    "magenta",
)


def render_dot(plan: EscapePlan, cfg: TerminalConfig | None = None) -> str:
    """DOT graph with one color per path; unused grid edges in gray."""
    terminals = set(cfg.terminals) if cfg else set()
    exits = {x for _, x, _ in plan.escapes}
    grid = full_grid()
    lines = ["graph escape {", "  node [shape=circle, fontsize=10];"]
    for r, c in grid.sorted_vertices():
        attrs = [f'pos="{c},{GRID_SIZE - r}!"']
        if (r, c) in terminals:
            attrs.append("style=filled")
            attrs.append('fillcolor="black"')
            attrs.append('fontcolor="white"')
        if (r, c) in exits:
            attrs.append('xlabel="exit"')
        lines.append(f'  "{r},{c}" [{", ".join(attrs)}];')
    used: dict[Edge, str] = {}
    for k, (_, _, edges) in enumerate(_glyph_assignment(plan)):
        color = _DOT_COLORS[k % len(_DOT_COLORS)]
        for e in edges:
            used[e] = color
    for e in grid.sorted_edges():
        (r, c), w = e
        color = used.get(e, "gray80")
        width = 3 if e in used else 1
        lines.append(f'  "{r},{c}" -- "{w[0]},{w[1]}" [color={color}, penwidth={width}];')
    lines.append("}")
    return "\n".join(lines)
