"""Line-based text formats for graphs, hypergraphs and benzenoid cell sets.

Every writer/parser pair round-trips: parsing written output reproduces an
identical object.  Lines starting with '#' are comments.
"""

from __future__ import annotations

from .benzenoid import Benzenoid, build_benzenoid
from .errors import FormatError
from .graph import Graph
from .hypergraphs import Hypergraph


def _payload_lines(text: str) -> list[str]:
    return [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    lines = _payload_lines(text)
    if not lines:
        raise FormatError("empty graph file")
    try:
        n, m = map(int, lines[0].split())
    except ValueError:
        raise FormatError(f"bad graph header {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise FormatError(f"bad edge line {ln!r}") from None
        edges.append((u, v))
    return Graph(n, edges)


def hypergraph_to_text(h: Hypergraph) -> str:
    lines = [f"{h.ground_size} {len(h.edges)}"]
    lines += [" ".join(map(str, sorted(e))) for e in h.edges]
    return "\n".join(lines) + "\n"


def hypergraph_from_text(text: str) -> Hypergraph:
    lines = _payload_lines(text)
    if not lines:
        raise FormatError("empty hypergraph file")
    try:
        n, k = map(int, lines[0].split())
    except ValueError:
        raise FormatError(f"bad hypergraph header {lines[0]!r}") from None
    if len(lines) - 1 != k:
        raise FormatError(f"expected {k} hyperedge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            edges.append([int(t) for t in ln.split()])
        except ValueError:
            raise FormatError(f"bad hyperedge line {ln!r}") from None
    return Hypergraph.from_lists(n, edges)


def cells_to_text(b: Benzenoid) -> str:
    return "\n".join(f"{q} {r}" for q, r in b.cells) + "\n"


def cells_from_text(text: str) -> Benzenoid:
    cells = []
    for ln in _payload_lines(text):
        try:
            q, r = map(int, ln.split())
        except ValueError:
            raise FormatError(f"bad cell line {ln!r}") from None
        cells.append((q, r))
    if not cells:
        raise FormatError("empty benzenoid cell file")
    return build_benzenoid(cells)
