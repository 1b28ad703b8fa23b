"""Shared hypothesis strategies (small loop-free multigraphs and labelings) and
an independent cordiality recount."""

from hypothesis import strategies as st

from cordial import MultiGraph, VertexLabeling


@st.composite
def multigraphs(draw, min_n: int = 1, max_n: int = 10, max_m: int = 24) -> MultiGraph:
    n = draw(st.integers(min_n, max_n))
    if n < 2:
        return MultiGraph(n, ())
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    edges = draw(st.lists(pairs, max_size=max_m))
    return MultiGraph(n, edges)


@st.composite
def labeled_multigraphs(draw, **kwargs):
    g = draw(multigraphs(**kwargs))
    bits = draw(st.lists(st.integers(0, 1), min_size=g.n, max_size=g.n))
    return g, VertexLabeling(tuple(bits))


def is_cordial(edges, labels) -> bool:
    """Whether the bit tuple labels is cordial on edges, recounting v0, v1, e0
    and e1 from the edge list itself: no balance() and no certificate check."""
    v0, v1 = labels.count(0), labels.count(1)
    edge_labels = [labels[u] ^ labels[v] for u, v in edges]
    e0, e1 = edge_labels.count(0), edge_labels.count(1)
    return abs(v0 - v1) <= 1 and abs(e0 - e1) <= 1
