"""Deterministic DOT export of posets and poset morphisms.

Three graph kinds: the hasse diagram (directed, cover pairs), the covering
graph (undirected, same pairs), and the comparability graph (undirected,
all comparable pairs).  Morphisms render as two clusters joined by dashed
mapping edges.  Nodes and edges are emitted in sorted order so identical
inputs give identical text.
"""

from __future__ import annotations

from .errors import OracleSizeExceeded
from .morphisms import PosetMorphism
from .posets import GRAPH_KINDS, Poset, bit_indices

# the comparability graph prints one line per comparable pair, and a chain
# of n elements has n(n-1)/2 of them; 447 elements make 99 681 pairs, which
# print 2.2 MB in about 0.2 s (Python 3.11, 2-vCPU Xeon VM)
COMPARABLE_PAIR_LIMIT = 100_000


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _edge_pairs(p: Poset, kind: str):
    if kind in ("hasse", "covering"):
        return p._cover_pairs()
    if kind == "comparability":
        # every comparable pair once, from its lower end; ids are sorted,
        # so the lesser index names the lesser element
        ids = p._ids
        return sorted((ids[min(i, j)], ids[max(i, j)])
                      for i, up in enumerate(p._above) for j in bit_indices(up))
    raise ValueError(f"unknown graph kind {kind!r}; pick one of {GRAPH_KINDS}")


def export_dot(obj, kind: str = "hasse") -> str:
    if isinstance(obj, Poset):
        posets, render = (obj,), _poset_dot
    elif isinstance(obj, PosetMorphism):
        posets, render = (obj.source, obj.target), _morphism_dot
    else:
        raise TypeError(f"cannot export {type(obj).__name__} as DOT")
    if kind == "comparability":
        # each strict up-closure holds the pairs that start at its element
        pairs = sum(up.bit_count() for p in posets for up in p._above)
        if pairs > COMPARABLE_PAIR_LIMIT:
            raise OracleSizeExceeded(pairs, COMPARABLE_PAIR_LIMIT, "comparable pairs")
    return render(obj, kind)


def _poset_dot(p: Poset, kind: str) -> str:
    directed = kind == "hasse"
    arrow = "->" if directed else "--"
    lines = [("digraph" if directed else "graph") + " poset {"]
    if directed:
        lines.append("  rankdir=BT;")
    for e in p._ids:
        lines.append(f"  {_quote(e)};")
    for a, b in _edge_pairs(p, kind):
        lines.append(f"  {_quote(a)} {arrow} {_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _morphism_dot(phi: PosetMorphism, kind: str) -> str:
    directed = kind == "hasse"
    arrow = "->" if directed else "--"
    lines = ["digraph morphism {" if directed else "graph morphism {"]
    if directed:
        lines.append("  rankdir=BT;")

    def cluster(tag, poset):
        lines.append(f"  subgraph cluster_{tag} {{")
        lines.append(f'    label="{tag}";')
        for e in poset._ids:
            lines.append(f"    {_quote(tag + ':' + e)} [label={_quote(e)}];")
        for a, b in _edge_pairs(poset, kind):
            lines.append(f"    {_quote(tag + ':' + a)} {arrow} {_quote(tag + ':' + b)};")
        lines.append("  }")

    cluster("source", phi.source)
    cluster("target", phi.target)
    for x in phi.source._ids:
        lines.append(
            f"  {_quote('source:' + x)} {arrow} {_quote('target:' + phi.mapping[x])} [style=dashed];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
