"""Graphviz DOT export for the CFG and the analysis graphs.

No rendering dependency: these functions emit DOT text; pipe it to
``dot -Tsvg`` locally when a picture is wanted.  Used by examples and
handy when debugging coloring decisions (`--- why did v7 land in bank 1?`
is much easier to answer while looking at the RCG).
"""

from __future__ import annotations

from .function import Function


def _escape(text: str) -> str:
    return text.replace('"', '\\"')


def cfg_to_dot(function: Function, *, include_instructions: bool = False) -> str:
    """The function's CFG; optionally with instruction listings per node."""
    from .cfg import CFG

    cfg = CFG.build(function)
    lines = [f'digraph "{_escape(function.name)}" {{', "  node [shape=box fontname=monospace];"]
    for block in function.blocks:
        if include_instructions:
            body = "\\l".join(_escape(repr(i)) for i in block.instructions)
            label = f"{block.label}\\l{body}\\l"
        else:
            extra = ""
            if block.attrs.get("loop_header"):
                extra = f" (loop x{block.attrs.get('trip_count', '?')})"
            label = f"{block.label}{extra}"
        lines.append(f'  "{block.label}" [label="{label}"];')
    for label, succs in cfg.succs.items():
        for succ in succs:
            lines.append(f'  "{label}" -> "{succ}";')
    lines.append("}")
    return "\n".join(lines)


def interference_to_dot(graph, *, colors: dict | None = None) -> str:
    """An undirected interference/conflict graph; optional color map
    (e.g. a bank assignment) fills the nodes."""
    palette = ("lightblue", "lightsalmon", "palegreen", "plum",
               "khaki", "lightgray", "pink", "aquamarine")
    lines = ["graph interference {", "  node [style=filled fontname=monospace];"]
    for node in sorted(graph.adjacency, key=lambda r: r.vid):
        fill = "white"
        if colors and node in colors:
            fill = palette[colors[node] % len(palette)]
        lines.append(f'  "{node!r}" [fillcolor={fill}];')
    seen = set()
    for node, neighbors in graph.adjacency.items():
        for other in neighbors:
            key = frozenset((node, other))
            if key in seen:
                continue
            seen.add(key)
            lines.append(f'  "{node!r}" -- "{other!r}";')
    # Soft edges (bundle extension), dashed.
    for key in getattr(graph, "soft_edge_cost", {}):
        a, b = tuple(key)
        lines.append(f'  "{a!r}" -- "{b!r}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines)


def sdg_to_dot(sdg) -> str:
    """The Same Displacement Graph (directed: input -> output)."""
    lines = ["digraph sdg {", "  node [fontname=monospace];"]
    for node in sorted(sdg.out_edges, key=lambda r: r.vid):
        lines.append(f'  "{node!r}";')
    for src, dsts in sdg.out_edges.items():
        for dst in dsts:
            lines.append(f'  "{src!r}" -> "{dst!r}";')
    lines.append("}")
    return "\n".join(lines)
