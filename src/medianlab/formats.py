"""Line-based text formats for graphs, hypergraphs, benzenoid cell sets and
tabulated consensus functions.

Every writer/parser pair round-trips: parsing written output reproduces an
identical object.  Lines starting with '#' are comments.  A consensus table
is a header `n max_len` followed by one `profile vertices | value vertices`
line per profile, each profile exactly once.
"""

from __future__ import annotations

from .benzenoid import Benzenoid, build_benzenoid
from .consensus import TabulatedConsensus, profile_keys
from .errors import FormatError
from .graph import Graph
from .hypergraphs import Hypergraph


def _payload_lines(text: str) -> list[str]:
    """The stripped lines of `text` without blank lines and `#` comments:
    the one line reader of every format."""
    return [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]


def _header(lines: list[str], kind: str) -> tuple[int, int]:
    """The two integers of the `a b` header line that `lines` start with."""
    try:
        a, b = map(int, lines[0].split())
    except ValueError:
        raise FormatError(f"bad {kind} header {lines[0]!r}") from None
    return a, b


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    lines = _payload_lines(text)
    if not lines:
        raise FormatError("empty graph file")
    n, m = _header(lines, "graph")
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
    n, k = _header(lines, "hypergraph")
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


def table_to_text(f: TabulatedConsensus) -> str:
    lines = [f"{f.graph.n} {f.max_len}"]
    for key in profile_keys(f.graph.n, f.max_len):
        verts = " ".join(map(str, key))
        value = " ".join(map(str, sorted(f.table[key])))
        lines.append(f"{verts} | {value}")
    return "\n".join(lines) + "\n"


def table_from_text(g: Graph, text: str) -> TabulatedConsensus:
    lines = _payload_lines(text)
    if not lines:
        raise FormatError("empty consensus table")
    n, max_len = _header(lines, "table")
    if n != g.n:
        raise FormatError(f"table is for {n} vertices, graph has {g.n}")
    table = {}
    for ln in lines[1:]:
        left, sep, right = ln.partition("|")
        if not sep:
            raise FormatError(f"missing '|' in table line {ln!r}")
        try:
            key = tuple(sorted(int(t) for t in left.split()))
            value = frozenset(int(t) for t in right.split())
        except ValueError:
            raise FormatError(f"bad table line {ln!r}") from None
        if key in table:
            raise FormatError(f"profile {' '.join(map(str, key))} listed twice")
        table[key] = value
    return TabulatedConsensus(g, max_len, table)
