"""Line-based text formats for graphs, hypergraphs, benzenoid cell sets and
tabulated consensus functions, and the graph fingerprint of the CLI reports.

Every writer/parser pair round-trips: parsing written output reproduces an
identical object.  Lines starting with '#' are comments.  Graphs,
hypergraphs and cell sets are read by one reader, `_int_rows`.  A consensus
table is a header `n max_len` followed by one `profile vertices | value
vertices` line per profile, each profile exactly once.
"""

from __future__ import annotations

import hashlib

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


def _int_rows(text: str, kind: str, row: str, width: int | None,
              header: bool = True) -> tuple[tuple[int, int] | None, list]:
    """The `a b` header (None without `header`) and the rows of a `kind`
    file, each row a tuple of `width` integers, or of any number when
    `width` is None.  With a header, exactly b row lines must follow it."""
    lines = _payload_lines(text)
    if not lines:
        raise FormatError(f"empty {kind} file")
    head = None
    if header:
        head = _header(lines, kind)
        lines = lines[1:]
        if len(lines) != head[1]:
            raise FormatError(f"expected {head[1]} {row} lines, found {len(lines)}")
    rows = []
    for ln in lines:
        try:
            ints = tuple(map(int, ln.split()))
        except ValueError:
            ints = None
        if ints is None or width is not None and len(ints) != width:
            raise FormatError(f"bad {row} line {ln!r}")
        rows.append(ints)
    return head, rows


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    (n, _), edges = _int_rows(text, "graph", "edge", 2)
    return Graph(n, edges)


def fingerprint(g: Graph) -> dict:
    """Vertex and edge counts of g and the first 16 hex digits of the
    SHA-256 of its `graph_to_text` form."""
    digest = hashlib.sha256(graph_to_text(g).encode()).hexdigest()
    return {"vertices": g.n, "edges": g.edge_count, "hash": digest[:16]}


def hypergraph_to_text(h: Hypergraph) -> str:
    lines = [f"{h.ground_size} {len(h.edges)}"]
    lines += [" ".join(map(str, sorted(e))) for e in h.edges]
    return "\n".join(lines) + "\n"


def hypergraph_from_text(text: str) -> Hypergraph:
    (n, _), edges = _int_rows(text, "hypergraph", "hyperedge", None)
    return Hypergraph.from_lists(n, edges)


def cells_to_text(b: Benzenoid) -> str:
    return "\n".join(f"{q} {r}" for q, r in b.cells) + "\n"


def cells_from_text(text: str) -> Benzenoid:
    _, cells = _int_rows(text, "benzenoid cell", "cell", 2, header=False)
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
