import pytest
from hypothesis import given

from supercyclic import (
    Bigraph,
    FormatError,
    Hypergraph,
    iter_records,
    parse_bigraph,
    parse_graph,
    parse_hypergraph,
    serialize,
    write_stream,
)

from strategies import bigraphs, hypergraphs


def test_parse_bigraph_frozen():
    text = "c ring on six vertices\np bigraph 3 3\ne 1 1\ne 2 1\ne 2 2\ne 3 2\ne 3 3\ne 1 3\n"
    g = parse_bigraph(text)
    assert g == Bigraph(3, 3, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 3)])


def test_serialize_is_canonical():
    g = Bigraph(2, 2, [(2, 2), (1, 1)])
    assert serialize(g) == "p bigraph 2 2\ne 1 1\ne 2 2\n"
    h = Hypergraph(3, [{3, 1}, set()])
    assert serialize(h) == "p hgraph 3 2\ns 1 3\ns\n"


def test_parse_hypergraph_frozen():
    h = parse_hypergraph("p hgraph 4 2\nc middle comment\ns 1 2 3\ns 4\n")
    assert h == Hypergraph(4, [{1, 2, 3}, {4}])


def test_empty_sided_records():
    assert parse_bigraph("p bigraph 0 0\n") == Bigraph(0, 0, [])
    assert parse_bigraph("p bigraph 0 2\n") == Bigraph(0, 2, [])
    assert parse_hypergraph("p hgraph 1 0\n") == Hypergraph(1, [])


@pytest.mark.parametrize("bad", [
    "",  # no record at all
    "e 1 1\n",  # edge before header
    "p bigraph 2\n",  # token count
    "p bigraph two 2\n",
    "p multigraph 2 2\n",
    "p bigraph 2 2\ne 3 1\n",  # x out of range
    "p bigraph 2 2\ne 1 0\n",
    "p bigraph 2 2\ne 1 1\ne 1 1\n",  # duplicate edge
    "p bigraph 2 2\ne 1 1 9\n",
    "p bigraph 2 2\nf 1 1\n",
    "p bigraph 2 2\ne 1 x\n",
    "p bigraph 99 1\n",  # over the 64-per-side cap
    "p hgraph 3 2\ns 1 2\n",  # edge count disagrees with header
    "p hgraph 3 1\ns 1 1\n",  # repeated vertex in one edge
    "p hgraph 3 1\ns 4\n",
    "p hgraph 3 1\ne 1 2\n",
    "p bigraph 2 2\ne 1 1\n\np bigraph 1 1\n",  # two records where one expected
    # numbers are ASCII decimal digits only
    "p bigraph 12 2\ne 1_2 1\n",
    "p bigraph 2 2\ne \u0661 \u0662\n",  # Arabic-Indic digits
    "p bigraph 2 2\ne +1 1\n",
    "p bigraph +2 2\n",
    "p hgraph 3 1\ns 1 \u0662\n",
])
def test_parse_rejects(bad):
    with pytest.raises(FormatError):
        parse_graph(bad)


def test_comment_is_the_c_token_alone():
    # a line whose first token merely starts with c is an unknown tag
    with pytest.raises(FormatError, match="cat 2 2"):
        parse_graph("p bigraph 3 3\ne 1 1\ncat 2 2\ne 3 3\n")
    g = parse_bigraph("c\np bigraph 3 3\ne 1 1\nc text\nc\te 2 2\ne 3 3\n")
    assert g == Bigraph(3, 3, [(1, 1), (3, 3)])


def test_kind_mismatch():
    with pytest.raises(FormatError):
        parse_bigraph("p hgraph 2 0\n")
    with pytest.raises(FormatError):
        parse_hypergraph("p bigraph 2 2\n")


def test_stream_roundtrip_mixed_kinds():
    graphs = [Bigraph(2, 1, [(1, 1)]),
              Hypergraph(2, [{1, 2}]),
              Bigraph(1, 1, [])]
    text = write_stream(graphs)
    assert list(iter_records(text)) == graphs


def test_stream_tolerates_extra_blank_lines_and_comments():
    text = "\n\nc leading\np bigraph 1 1\ne 1 1\n\n\n\np hgraph 2 1\ns 1\nc trailing\n\n"
    got = list(iter_records(text))
    assert got == [Bigraph(1, 1, [(1, 1)]), Hypergraph(2, [{1}])]


@given(bigraphs())
def test_bigraph_roundtrip(g):
    assert parse_bigraph(serialize(g)) == g
    # canonical text is a fixed point
    assert serialize(parse_bigraph(serialize(g))) == serialize(g)


@given(hypergraphs())
def test_hypergraph_roundtrip(h):
    assert parse_hypergraph(serialize(h)) == h
