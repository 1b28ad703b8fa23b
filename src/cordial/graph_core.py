"""Loopless multigraphs, the graph families under study, and the edge-list parser.

Vertices are dense 0-based ids. Graphs are valid by construction and immutable
once built, so one instance can be shared by any number of callers. Each
holds its pair table, counted once where it is built. MultiGraph checks a
caller's graph; only the family builders and parse_edge_list, whose edges
are integer and in range already, skip the checks: parse_edge_list hands
MultiGraph._unchecked canonical (u < v) sorted pairs, whose repeats it
counts, and the builders hand MultiGraph._simple distinct ones. A family
member is built only by FamilySpec(family, size).build(), which runs its
builder on every call; no member is kept here.
"""

from __future__ import annotations

import sys
from collections import Counter, namedtuple
from itertools import combinations
from typing import Callable, NamedTuple

from .errors import CordialError, ParseError


def _integer(value, what: str) -> int:
    """value, if it is an int and not a bool; else CordialError."""
    if type(value) is not int:
        raise CordialError(f"{what} must be an integer, got {value!r}")
    return value


class MultiGraph(namedtuple("MultiGraph", "n edges pairs repeats mu")):
    """A loopless multigraph: a vertex count plus a multiset of unordered edges.

    Edges are stored (min, max)-ordered and sorted, which makes equality and
    iteration order deterministic. Parallel edges are kept with multiplicity.
    The pair table holds them once each: pairs, the distinct edges in the
    same order; repeats, (i, k) for each pair i with k > 0 copies past its
    first, in ascending i; and mu, the largest multiplicity (0 with no
    edge). So a simple graph's table is its edges and no repeat. The table
    is derived from edges, so equality, hashing and pickling mean what n and
    edges mean, and _make and _replace read only n and edges.
    """

    __slots__ = ()

    def __new__(cls, n: int, edges):
        if _integer(n, "vertex count") < 0:
            raise CordialError("vertex count must be non-negative")
        edges = tuple(edges)  # any iterable of (u, v) pairs
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise CordialError(f"edge ({u!r}, {v!r}): vertex ids must be integers")
            if u == v:
                raise CordialError(f"loop at vertex {u}")
            if not (0 <= u < n) or not (0 <= v < n):
                raise CordialError(f"edge ({u}, {v}) outside 0..{n - 1}")
        return cls._unchecked(n, sorted([(u, v) if u < v else (v, u) for u, v in edges]))

    @classmethod
    def _unchecked(cls, n: int, edges) -> MultiGraph:
        """Wrap pairs the package built as they come, counting their repeats;
        no checks, no reorder.

        The caller's pairs are integer, in range, canonical (u < v) and
        sorted, as parse_edge_list makes them, so the counted pairs ascend.
        """
        edges = tuple(edges)
        counts = Counter(edges)
        repeats = tuple((i, c - 1) for i, c in enumerate(counts.values()) if c > 1)
        mu = max(counts.values(), default=0)
        return tuple.__new__(cls, (n, edges, tuple(counts), repeats, mu))

    @classmethod
    def _simple(cls, n: int, edges) -> MultiGraph:
        """_unchecked for distinct pairs, as the family builders make them:
        the edge tuple is the pair tuple, copied nowhere, with no repeat."""
        edges = tuple(edges)
        return tuple.__new__(cls, (n, edges, edges, (), min(1, len(edges))))

    @classmethod
    def _make(cls, iterable) -> MultiGraph:
        # _replace builds through _make, which would skip the checks above;
        # the pair table follows from the edges, so it is counted again
        n, edges, *_ = iterable
        return cls(n, edges)

    def __getnewargs__(self):
        return self.n, self.edges  # a copy or an unpickled graph is checked again

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)


def _complete(n: int) -> MultiGraph:
    """K_n: every unordered pair of the n vertices is an edge."""
    return MultiGraph._simple(n, combinations(range(n), 2))


def _cycle(n: int) -> MultiGraph:
    """C_n, vertices in cyclic order."""
    edges = [(0, 1), (0, n - 1)] + [(i, i + 1) for i in range(1, n - 1)]
    return MultiGraph._simple(n, edges)


def _path(n: int) -> MultiGraph:
    """P_n on n vertices, so n - 1 edges."""
    return MultiGraph._simple(n, ((i, i + 1) for i in range(n - 1)))


def _ladder(k: int) -> MultiGraph:
    """The ladder P_2 x P_k: rails 0..k-1 and k..2k-1 joined by k rungs."""
    edges = []
    for i in range(k - 1):
        edges += [(i, i + 1), (i, k + i)]
    edges.append((k - 1, 2 * k - 1))
    edges += [(k + i, k + i + 1) for i in range(k - 1)]
    return MultiGraph._simple(2 * k, edges)


def _mobius(k: int) -> MultiGraph:
    """The Mobius ladder M_k: a 2k-cycle plus the k cross-edges (i, i+k);
    3-regular with 3k edges."""
    edges = [(0, 1), (0, k), (0, 2 * k - 1)]
    for i in range(1, k):
        edges += [(i, i + 1), (i, i + k)]
    edges += [(i, i + 1) for i in range(k, 2 * k - 1)]
    return MultiGraph._simple(2 * k, edges)


def _wheel(n: int) -> MultiGraph:
    """W_n: an n-cycle on 0..n-1 plus a center vertex n joined to the rim."""
    edges = [(0, 1), (0, n - 1), (0, n)]
    for i in range(1, n - 1):
        edges += [(i, i + 1), (i, n)]
    edges.append((n - 1, n))
    return MultiGraph._simple(n + 1, edges)


class _Generator(NamedTuple):
    build: Callable[[int], MultiGraph]
    min_size: int  # the family's one minimum size, which FamilySpec checks
    vertices: Callable[[int], int]  # vertex count of the member, without building it
    edges: Callable[[int], int]  # edge count of the member, without building it


_GENERATORS = {
    "complete": _Generator(_complete, 1, lambda n: n, lambda n: n * (n - 1) // 2),
    "cycle": _Generator(_cycle, 3, lambda n: n, lambda n: n),
    "path": _Generator(_path, 1, lambda n: n, lambda n: n - 1),
    "ladder": _Generator(_ladder, 1, lambda k: 2 * k, lambda k: 3 * k - 2),
    # k >= 3: M_2's cross-edges would duplicate cycle chords; the family facts assume k >= 3
    "mobius": _Generator(_mobius, 3, lambda k: 2 * k, lambda k: 3 * k),
    "wheel": _Generator(_wheel, 3, lambda n: n + 1, lambda n: 2 * n),
}

FAMILIES = tuple(_GENERATORS)
MIN_SIZE = {name: gen.min_size for name, gen in _GENERATORS.items()}


class FamilySpec(namedtuple("FamilySpec", "family size")):
    """Names one member of a parameterized family, e.g. ("mobius", 6)."""

    __slots__ = ()

    def __new__(cls, family: str, size: int):
        if family not in FAMILIES:
            raise CordialError(f"unknown family {family!r}")
        if _integer(size, f"{family} size") < MIN_SIZE[family]:
            raise CordialError(f"{family} requires size >= {MIN_SIZE[family]}")
        return super().__new__(cls, family, size)

    @classmethod
    def _make(cls, iterable) -> FamilySpec:
        # _replace builds through _make, which would skip the checks above
        return cls(*iterable)

    @property
    def vertex_count(self) -> int:
        return _GENERATORS[self.family].vertices(self.size)

    @property
    def edge_count(self) -> int:
        return _GENERATORS[self.family].edges(self.size)

    def build(self) -> MultiGraph:
        return _GENERATORS[self.family].build(self.size)


def _read_ints(tokens: list[str], what: str, line_no: int) -> list[int]:
    """The tokens as ints, each -?[0-9]+ in ASCII; one with more digits than
    int() reads (sys.get_int_max_str_digits, 4300 by default) is named so."""
    digits = "".join(tokens).replace("-", "")
    try:
        if digits.isascii() and digits.isdigit():  # so int() reads only -?[0-9]+
            return [int(token) for token in tokens]
    except ValueError:  # a misplaced '-', or more digits than int() reads
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        numbers = [token.removeprefix("-") for token in tokens]
        if limit and any(d.isdigit() and len(d) > limit for d in numbers):
            raise ParseError(f"{what} must have at most {limit} digits", line_no) from None
    raise ParseError(f"{what} must be integers", line_no)


def parse_edge_list(text: str) -> MultiGraph:
    """Parse the edge-list format: a header line "n m", then m lines "u v".

    Lines starting with '#' are comments and may appear anywhere; tokens are
    separated by single spaces. Every fault, a loop and an out-of-range id
    among them, raises ParseError with its line.
    The pairs are ordered (u < v) and sorted here, as MultiGraph._unchecked
    expects them; it counts their repeats into the graph's pair table, the
    one count of this graph's edges.
    """
    header = None
    n = m = 0
    edges: list[tuple[int, int]] = []
    line_no = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            continue
        tokens = line.split(" ")
        if header is None:
            if len(tokens) != 2:
                raise ParseError("expected header 'n m'", line_no)
            n, m = _read_ints(tokens, "header counts", line_no)
            if n < 0 or m < 0:
                raise ParseError("header counts must be non-negative", line_no)
            header = (n, m)
            continue
        if len(edges) == m:
            raise ParseError(f"expected exactly {m} edge lines", line_no)
        if len(tokens) != 2:
            raise ParseError("expected edge line 'u v'", line_no)
        u, v = _read_ints(tokens, "vertex ids", line_no)
        if u == v:
            raise ParseError(f"loop at vertex {u}", line_no)
        if not (0 <= u < n) or not (0 <= v < n):
            raise ParseError(f"edge ({u}, {v}) outside 0..{n - 1}", line_no)
        edges.append((u, v) if u < v else (v, u))
    if header is None:
        raise ParseError("missing header 'n m'", line_no + 1)
    if len(edges) != m:
        raise ParseError(f"expected {m} edge lines, found {len(edges)}", line_no + 1)
    edges.sort()
    return MultiGraph._unchecked(n, edges)
