"""Balance accounting of binary vertex labelings, and the degree-parity
noncordiality test. A labeling is a tuple of bits, bit i labeling vertex i."""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from typing import NamedTuple

from .errors import LengthMismatch
from .graph_core import MultiGraph


class VertexLabeling(namedtuple("VertexLabeling", "labels")):
    """A bit tuple checked and wrapped in a one-field named tuple.

    Package code passes plain bit tuples. This stays only for perfbench/,
    which builds these for balance and prints the oracle's with to_string.
    """

    __slots__ = ()

    def __new__(cls, labels: tuple[int, ...]):
        clean = tuple(int(b) for b in labels)
        if any(b not in (0, 1) for b in clean):
            raise ValueError("labels must be bits")
        return super().__new__(cls, clean)

    @classmethod
    def _make(cls, iterable) -> VertexLabeling:
        # _replace builds through _make, which would skip the check above
        return cls(*iterable)

    def to_string(self) -> str:
        return "".join(str(b) for b in self.labels)


class BalanceReport(NamedTuple):
    """The four counts a cordiality check compares."""

    v0: int
    v1: int
    e0: int
    e1: int


def balance(g: MultiGraph, f: tuple[int, ...]) -> BalanceReport:
    """Exact label counts of the bit tuple f; edges count with multiplicity."""
    labels = f.labels if isinstance(f, VertexLabeling) else f
    if len(labels) != g.n:
        raise LengthMismatch(
            f"labeling has {len(labels)} bits for a graph on {g.n} vertices"
        )
    v1 = sum(labels)
    e1 = sum([labels[u] ^ labels[v] for u, v in g.edges])
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
