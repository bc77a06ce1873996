"""Plain-text interchange format for bigraphs and hypergraphs.

Record grammar (one graph per record, records separated by blank lines):

    c <free text>            comment, allowed anywhere inside a record
    p bigraph NX NY          header of a bigraph record
    e I J                    edge x_I ~ y_J, 1-indexed
    p hgraph NV NE           header of a hypergraph record
    s V1 V2 ...              one hyperedge per line (possibly empty after s)

The parser is strict: numbers that fail :func:`errors.is_number` (ASCII
decimal digits only), out-of-range indices, duplicate ``e`` lines,
wrong token counts, an ``s``-line count that disagrees with NE, and unknown
tags are all rejected with :class:`FormatError`.  Serialization is
canonical (sorted edges), so parse/serialize round-trips are bit-exact on
canonical text and ``parse(serialize(g)) == g`` always.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from .bigraph import Bigraph, Hypergraph
from .errors import FormatError, InputError, is_number

Graph = Union[Bigraph, Hypergraph]


def serialize_bigraph(g: Bigraph, comments: Iterable[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p bigraph {g.x_count} {g.y_count}")
    lines.extend(f"e {x} {y}" for x, y in sorted(g.edges()))
    return "\n".join(lines) + "\n"


def serialize_hypergraph(h: Hypergraph, comments: Iterable[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p hgraph {h.vertex_count} {len(h.edges)}")
    for e in h.edges:
        lines.append(("s " + " ".join(map(str, sorted(e)))).rstrip())
    return "\n".join(lines) + "\n"


def serialize(g: Graph, comments: Iterable[str] = ()) -> str:
    if isinstance(g, Bigraph):
        return serialize_bigraph(g, comments)
    return serialize_hypergraph(g, comments)


def parse_graph(text: str) -> Graph:
    """Parse a single record; trailing non-blank content is an error."""
    records = list(iter_records(text))
    if len(records) != 1:
        raise FormatError(f"expected exactly one record, found {len(records)}")
    return records[0]


def parse_bigraph(text: str) -> Bigraph:
    g = parse_graph(text)
    if not isinstance(g, Bigraph):
        raise FormatError("expected a bigraph record, found a hypergraph")
    return g


def parse_hypergraph(text: str) -> Hypergraph:
    h = parse_graph(text)
    if not isinstance(h, Hypergraph):
        raise FormatError("expected a hypergraph record, found a bigraph")
    return h


def iter_records(text: str) -> Iterator[Graph]:
    """Yield every graph in a stream, in order of appearance."""
    block: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            if block:
                yield _parse_record(block)
                block = []
            continue
        block.append(line)
    if block:
        yield _parse_record(block)


def write_stream(graphs: Iterable[Graph]) -> str:
    return "\n".join(serialize(g) for g in graphs)


def _parse_record(lines: list[str]) -> Graph:
    body = [ln for ln in lines if ln.split(maxsplit=1)[0] != "c"]
    if not body:
        raise FormatError("record has no p line")
    head = body[0].split()
    if head[0] != "p":
        raise FormatError(f"record must start with a p line, got {body[0]!r}")
    if len(head) != 4:
        raise FormatError(f"p line needs 4 tokens, got {body[0]!r}")
    kind = head[1]
    if not is_number(head[2] + head[3]):
        raise FormatError(f"non-integer sizes in {body[0]!r}")
    a, b = int(head[2]), int(head[3])
    if kind == "bigraph":
        return _parse_bigraph_body(a, b, body[1:])
    if kind == "hgraph":
        return _parse_hypergraph_body(a, b, body[1:])
    raise FormatError(f"unknown record kind {kind!r}")


def _parse_bigraph_body(nx: int, ny: int, lines: list[str]) -> Bigraph:
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for ln in lines:
        toks = ln.split()
        if toks[0] != "e" or len(toks) != 3:
            raise FormatError(f"expected 'e I J', got {ln!r}")
        if not is_number(toks[1] + toks[2]):  # one check a line
            raise FormatError(f"non-integer edge in {ln!r}")
        x, y = int(toks[1]), int(toks[2])
        if not 1 <= x <= nx or not 1 <= y <= ny:
            raise FormatError(f"edge ({x}, {y}) out of range for ({nx}, {ny})")
        if (x, y) in seen:
            raise FormatError(f"duplicate edge ({x}, {y})")
        seen.add((x, y))
        edges.append((x, y))
    try:
        return Bigraph(nx, ny, edges)
    except InputError as exc:  # counts out of cap
        raise FormatError(str(exc)) from None


def _parse_hypergraph_body(nv: int, ne: int, lines: list[str]) -> Hypergraph:
    edges: list[list[int]] = []
    for ln in lines:
        toks = ln.split()
        if toks[0] != "s":
            raise FormatError(f"expected 's V1 V2 ...', got {ln!r}")
        if len(toks) > 1 and not is_number("".join(toks[1:])):
            raise FormatError(f"non-integer vertex in {ln!r}")
        vs = [int(t) for t in toks[1:]]
        if len(set(vs)) != len(vs):
            raise FormatError(f"repeated vertex within one edge: {ln!r}")
        for v in vs:
            if not 1 <= v <= nv:
                raise FormatError(f"edge vertex {v} out of range for {nv}")
        edges.append(vs)
    if len(edges) != ne:
        raise FormatError(f"header announces {ne} edges, found {len(edges)}")
    try:
        return Hypergraph(nv, edges)
    except InputError as exc:  # count out of cap
        raise FormatError(str(exc)) from None
