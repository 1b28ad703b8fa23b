"""Balance accounting of binary vertex labelings, and the degree-parity
noncordiality test. A labeling is a tuple of bits, bit i labeling vertex i.
balance reads a graph's pair table, so it sums multiplicities over the
distinct vertex pairs instead of visiting every parallel edge."""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import CordialError
from .graph_core import MultiGraph


class VertexLabeling(tuple):
    """A bit tuple that prints itself with to_string.

    Package code passes plain bit tuples. This stays only for perfbench/,
    which builds these for balance and prints the oracle's.
    """

    __slots__ = ()

    def to_string(self) -> str:
        return "".join(map(str, self))


class BalanceReport(NamedTuple):
    """The four counts a cordiality check compares."""

    v0: int
    v1: int
    e0: int
    e1: int


def balance(g: MultiGraph, f: tuple[int, ...]) -> BalanceReport:
    """Exact label counts of the bit sequence f; edges count with multiplicity.

    e1 counts the distinct pairs whose ends differ, plus the copies past the
    first of each repeated one.
    """
    if len(f) != g.n:
        raise CordialError(f"labeling has {len(f)} bits for a graph on {g.n} vertices")
    v1 = sum(f)
    differ = [f[u] ^ f[v] for u, v in g.pairs]
    e1 = differ.count(1) + sum([k for i, k in g.repeats if differ[i]])
    return BalanceReport(v0=g.n - v1, v1=v1, e0=g.m - e1, e1=e1)


def first_pair_with_edge_label(labels: tuple[int, ...],
                               label: int) -> tuple[int, int] | None:
    """Lexicographically smallest vertex pair whose induced label under the
    bit tuple labels matches."""
    pairs = combinations(range(len(labels)), 2)  # in lexicographic order
    return next(((u, v) for u, v in pairs if labels[u] ^ labels[v] == label), None)


def parity_obstruction(g: MultiGraph) -> bool:
    """Degree-parity test for noncordiality: True when it proves g noncordial.

    Summing induced labels edge by edge counts each vertex label deg(v) times,
    so e1 = sum of deg(v) over 1-labeled v, mod 2. With an even edge count m a
    cordial labeling must hit e1 = m/2 exactly, and friendliness pins how many
    odd-degree vertices can be labeled 1; if the required parity of e1 is
    unreachable, no cordial labeling exists. Sound but not complete: False
    proves nothing, and an odd m always gives False.
    """
    m = g.m
    if m % 2 == 1:
        return False
    need = (m // 2) % 2
    n_odd = sum(1 for d in g.degrees if d % 2 == 1)
    n_even = g.n - n_odd
    for ones in {g.n // 2, (g.n + 1) // 2}:
        # ones = total 1-labeled vertices; j of them have odd degree
        j_lo = max(0, ones - n_even)
        j_hi = min(ones, n_odd)
        if j_lo <= j_hi and (j_hi > j_lo or j_lo % 2 == need):
            return False
    return True
