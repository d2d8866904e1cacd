"""Meander renderers: dot, tikz, json and svg emitters.

All outputs are byte-deterministic for a given spec and options: edges
are emitted in ascending order, component colors are assigned in component
order, and numeric formatting is fixed.  Vertices sit on a horizontal
line; top arcs are drawn concave down and bottom arcs concave up, with
tail vertices highlighted.  The JSON summary is counted off the component
list: cycles, paths, and the paths whose ``tail_count`` is not 1.
"""

from __future__ import annotations

import json

from .meander import Component, Meander, components

FORMATS = ("dot", "tikz", "json", "svg")

# Dense palette reused cyclically for component coloring.
_PALETTE = ("blue", "red", "green", "orange", "purple", "brown", "teal", "magenta")


def render_meander(meander: Meander, fmt: str = "json", label: str = "", color_components: bool = False) -> str:
    """``meander`` in format ``fmt``; ``color_components`` colours dot, tikz and svg by component."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; choose from {FORMATS}")
    if fmt == "json":
        return _render_json(meander, label)
    colors = _component_colors(meander) if color_components else {}
    if fmt == "dot":
        return _render_dot(meander, colors, label)
    if fmt == "tikz":
        return _render_tikz(meander, colors, label)
    return _render_svg(meander, colors, label)


def component_payload(comps: list[Component]) -> list[dict]:
    """JSON form of a component list (the meander render and ``index --explain``)."""
    return [{"vertices": list(c.vertices), "kind": c.kind, "tail_count": c.tail_count} for c in comps]


def _component_colors(meander: Meander) -> dict[int, str]:
    colors: dict[int, str] = {}
    for k, comp in enumerate(components(meander)):
        for v in comp.vertices:
            colors[v] = _PALETTE[k % len(_PALETTE)]
    return colors


def _render_json(meander: Meander, label: str) -> str:
    comps = components(meander)
    cycles = sum(c.kind == "cycle" for c in comps)
    payload = {
        "schema": "seaweeds/meander/v1",
        "spec": label,
        "n_vertices": meander.n_vertices,
        "top_edges": [list(e) for e in meander.top_edges],
        "bottom_edges": [list(e) for e in meander.bottom_edges],
        "tail": list(meander.tail),
        "tail_config": meander.tail_config,
        "components": component_payload(comps),
        "summary": {
            "cycles": cycles,
            "paths": len(comps) - cycles,
            "tailed_paths": sum(c.kind == "path" and c.tail_count != 1 for c in comps),
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def _render_dot(meander: Meander, colors: dict[int, str], label: str) -> str:
    lines = [f'graph "{label or "meander"}" {{']
    lines.append("  rankdir=LR;")
    lines.append('  node [shape=circle, fontsize=10, width=0.3, fixedsize=true];')
    for v in range(1, meander.n_vertices + 1):
        attrs = []
        if v in meander.tail:
            attrs.append('style=filled, fillcolor=yellow')
        if v in colors:
            attrs.append(f'color={colors[v]}')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  v{v}{suffix};")
    for edges, style in ((meander.top_edges, 'class="top"'), (meander.bottom_edges, 'class="bottom", style=dashed')):
        for a, b in edges:
            color = f", color={colors[a]}" if a in colors else ""
            lines.append(f"  v{a} -- v{b} [{style}{color}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_tikz(meander: Meander, colors: dict[int, str], label: str) -> str:
    lines = ["\\begin{tikzpicture}[scale=.6]"]
    for v in range(1, meander.n_vertices + 1):
        fill = "[fill=yellow]" if v in meander.tail else ""
        lines.append(f"\\node[vertex]{fill} ({v}) at ({v},0) {{{v}}};")
    for edges, bend in ((meander.top_edges, "left"), (meander.bottom_edges, "right")):
        for a, b in edges:
            color = f"[color={colors[a]}] " if a in colors else ""
            lines.append(f"\\draw {color}({a}) to [bend {bend}=50] ({b});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def _render_svg(meander: Meander, colors: dict[int, str], label: str) -> str:
    step, radius, baseline = 40, 10, 120
    width = (meander.n_vertices + 1) * step
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="240" '
        f'viewBox="0 0 {width} 240">',
        f"  <title>{label or 'meander'}</title>",
    ]

    def x(v: int) -> int:
        return v * step

    def arc(a: int, b: int, up: bool, color: str) -> str:
        rx = (x(b) - x(a)) // 2
        ry = min(90, rx)
        sweep = 1 if up else 0
        return (
            f'  <path d="M {x(a)} {baseline} A {rx} {ry} 0 0 {sweep} {x(b)} {baseline}" '
            f'fill="none" stroke="{color}"/>'
        )

    for edges, up in ((meander.top_edges, True), (meander.bottom_edges, False)):
        for a, b in edges:
            lines.append(arc(a, b, up, colors.get(a, "black")))
    for v in range(1, meander.n_vertices + 1):
        fill = "yellow" if v in meander.tail else "white"
        lines.append(
            f'  <circle cx="{x(v)}" cy="{baseline}" r="{radius}" fill="{fill}" stroke="black"/>'
        )
        lines.append(
            f'  <text x="{x(v)}" y="{baseline + 4}" font-size="10" text-anchor="middle">{v}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
