"""Loopless multigraphs, the graph families under study, and the edge-list parser.

Vertices are dense 0-based ids. Graphs are valid by construction and immutable
once built, so one instance can be shared by any number of callers. MultiGraph
checks a caller's graph; only the generators and parse_edge_list, whose edges
are integer and in range already, build through MultiGraph._unchecked, and
they hand it canonical (u < v) pairs in sorted order. FamilySpec.build shares
the last member it built until _member's cache is cleared.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from typing import Callable, NamedTuple

from .errors import IdOutOfRange, LoopRejected, ParseError, SizeTooSmall


def _integer(value, what: str) -> int:
    """value, if it is an int and not a bool; else SizeTooSmall."""
    if type(value) is not int:
        raise SizeTooSmall(f"{what} must be an integer, got {value!r}")
    return value


class MultiGraph(namedtuple("MultiGraph", "n edges")):
    """A loopless multigraph: a vertex count plus a multiset of unordered edges.

    Edges are stored (min, max)-ordered and sorted, which makes equality and
    iteration order deterministic. Parallel edges are kept with multiplicity.
    """

    __slots__ = ()

    def __new__(cls, n: int, edges):
        if _integer(n, "vertex count") < 0:
            raise SizeTooSmall("vertex count must be non-negative")
        edges = tuple(edges)  # any iterable of (u, v) pairs
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise IdOutOfRange(f"edge ({u!r}, {v!r}): vertex ids must be integers")
            if u == v:
                raise LoopRejected(f"loop at vertex {u}")
            if not (0 <= u < n) or not (0 <= v < n):
                raise IdOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        return cls._unchecked(n, sorted([(u, v) if u < v else (v, u) for u, v in edges]))

    @classmethod
    def _unchecked(cls, n: int, edges) -> MultiGraph:
        """Wrap pairs the package built as they come; no checks, no reorder.

        The caller's pairs are integer, in range, canonical (u < v) and
        sorted, as the generators and parse_edge_list make them.
        """
        return tuple.__new__(cls, (n, tuple(edges)))

    @classmethod
    def _make(cls, iterable) -> MultiGraph:
        # _replace builds through _make, which would skip the checks above
        return cls(*iterable)

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


def complete_graph(n: int) -> MultiGraph:
    """K_n: every unordered pair of the n vertices is an edge."""
    if _integer(n, "n") < 1:
        raise SizeTooSmall("complete graphs need n >= 1")
    return MultiGraph._unchecked(n, combinations(range(n), 2))


def cycle_graph(n: int) -> MultiGraph:
    """C_n for n >= 3, vertices in cyclic order."""
    if _integer(n, "n") < 3:
        raise SizeTooSmall("cycles need n >= 3")
    edges = [(0, 1), (0, n - 1)] + [(i, i + 1) for i in range(1, n - 1)]
    return MultiGraph._unchecked(n, edges)


def path_graph(n: int) -> MultiGraph:
    """P_n on n >= 1 vertices, so n - 1 edges."""
    if _integer(n, "n") < 1:
        raise SizeTooSmall("paths need n >= 1")
    return MultiGraph._unchecked(n, ((i, i + 1) for i in range(n - 1)))


def ladder_graph(k: int) -> MultiGraph:
    """The ladder P_2 x P_k: rails 0..k-1 and k..2k-1 joined by k rungs."""
    if _integer(k, "k") < 1:
        raise SizeTooSmall("ladders need k >= 1")
    edges = []
    for i in range(k - 1):
        edges += [(i, i + 1), (i, k + i)]
    edges.append((k - 1, 2 * k - 1))
    edges += [(k + i, k + i + 1) for i in range(k - 1)]
    return MultiGraph._unchecked(2 * k, edges)


def mobius_ladder(k: int) -> MultiGraph:
    """The Mobius ladder M_k: a 2k-cycle plus the k cross-edges (i, i+k).

    3-regular with 3k edges. k = 2 is rejected: its cross-edges would
    duplicate cycle chords and the family facts below assume k >= 3.
    """
    if _integer(k, "k") < 3:
        raise SizeTooSmall("mobius ladders need k >= 3")
    edges = [(0, 1), (0, k), (0, 2 * k - 1)]
    for i in range(1, k):
        edges += [(i, i + 1), (i, i + k)]
    edges += [(i, i + 1) for i in range(k, 2 * k - 1)]
    return MultiGraph._unchecked(2 * k, edges)


def wheel_graph(n: int) -> MultiGraph:
    """W_n: an n-cycle on 0..n-1 plus a center vertex n joined to the rim."""
    if _integer(n, "n") < 3:
        raise SizeTooSmall("wheels need n >= 3")
    edges = [(0, 1), (0, n - 1), (0, n)]
    for i in range(1, n - 1):
        edges += [(i, i + 1), (i, n)]
    edges.append((n - 1, n))
    return MultiGraph._unchecked(n + 1, edges)


class _Generator(NamedTuple):
    build: Callable[[int], MultiGraph]
    min_size: int  # smallest size parameter build accepts
    vertices: Callable[[int], int]  # vertex count of the member, without building it
    edges: Callable[[int], int]  # edge count of the member, without building it


_GENERATORS = {
    "complete": _Generator(complete_graph, 1, lambda n: n, lambda n: n * (n - 1) // 2),
    "cycle": _Generator(cycle_graph, 3, lambda n: n, lambda n: n),
    "path": _Generator(path_graph, 1, lambda n: n, lambda n: n - 1),
    "ladder": _Generator(ladder_graph, 1, lambda k: 2 * k, lambda k: 3 * k - 2),
    "mobius": _Generator(mobius_ladder, 3, lambda k: 2 * k, lambda k: 3 * k),
    "wheel": _Generator(wheel_graph, 3, lambda n: n + 1, lambda n: 2 * n),
}

FAMILIES = tuple(_GENERATORS)
MIN_SIZE = {name: gen.min_size for name, gen in _GENERATORS.items()}


@lru_cache(maxsize=1)
def _member(family: str, size: int) -> MultiGraph:
    """The generator's member, shared with every build of the same (family,
    size) until another is built or the cache is cleared."""
    return _GENERATORS[family].build(size)


class FamilySpec(namedtuple("FamilySpec", "family size")):
    """Names one member of a parameterized family, e.g. ("mobius", 6)."""

    __slots__ = ()

    def __new__(cls, family: str, size: int):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if _integer(size, f"{family} size") < MIN_SIZE[family]:
            raise SizeTooSmall(f"{family} requires size >= {MIN_SIZE[family]}")
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
        return _member(self.family, self.size)


def _read_ints(tokens: list[str], what: str, line_no: int) -> list[int]:
    """The tokens as ints; a decimal number longer than int()'s digit limit
    (sys.get_int_max_str_digits, 4300 by default) is named as such."""
    try:
        return [int(token) for token in tokens]
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        digits = [token.lstrip("+-") for token in tokens]
        if limit and any(d.isdecimal() and len(d) > limit for d in digits):
            raise ParseError(f"{what} must have at most {limit} digits", line_no) from None
        raise ParseError(f"{what} must be integers", line_no) from None


def parse_edge_list(text: str) -> MultiGraph:
    """Parse the edge-list format: a header line "n m", then m lines "u v".

    Lines starting with '#' are comments and may appear anywhere; tokens are
    separated by single spaces. Loops and out-of-range ids raise their own
    error types, everything else malformed raises ParseError with the line.
    The pairs are ordered (u < v) and sorted here, as MultiGraph._unchecked
    expects them.
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
            raise LoopRejected(f"line {line_no}: loop at vertex {u}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise IdOutOfRange(f"line {line_no}: edge ({u}, {v}) outside 0..{n - 1}")
        edges.append((u, v) if u < v else (v, u))
    if header is None:
        raise ParseError("missing header 'n m'", line_no + 1)
    if len(edges) != m:
        raise ParseError(f"expected {m} edge lines, found {len(edges)}", line_no + 1)
    edges.sort()
    return MultiGraph._unchecked(n, edges)
