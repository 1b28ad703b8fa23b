"""Exhaustive search for cordiality and the two deficiency measures.

Labelings are encoded as n-bit integers, bit i giving the label of vertex i.
Each measure depends on a labeling only through its cell (ones, e1), its
counts of 1-labeled vertices and edges. So one scan serves any set of
measures: it records the least encoding reaching each cell, _cost prices the
cells in each mode, and a result's witness is the least encoding among its
cheapest cells. The scan covers the friendly labelings, or all of them when
cvd is asked for, with vertex n-1 pinned at label 0. Pinning is sound because
complementing a labeling preserves every edge label, and the canonical
encoding, the smaller of a labeling and its complement, is the one with
vertex n-1 labeled 0. labelings_examined counts the halved stream of the
result's own mode. Results are bit-identical whatever the worker count or the
modes scanned alongside, and equal to those of a search over all 2**n
labelings. Every witness passes the certificate checker before it is
returned.

The scan kernel splits the free vertices 0..n-2 into a low part of at most
LOW_BITS vertices and a high part holding the rest. With inc[v] the bitmask
of edges at v, the 1-labeled edges of the labeling made of low subset l and
high subset h are A[l] ^ B[h], where A and B are the XORs of the subsets'
incidence masks, built by doubling. The low table is grouped by popcount and
listed in ascending order, so for one h the labelings with a given ones count
form a block whose e1 values come from one list comprehension over A. High
subsets ascend, so the first hit of a cell is its least encoding. Worker
processes take contiguous ranges of high subsets.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

from .certify import Certificate, check_certificate
from .errors import CordialError, SizeLimitExceeded, self_check
from .graph_core import MultiGraph
from .labeling import VertexLabeling, first_pair_with_edge_label

DEFAULT_MAX_VERTICES = 24
MEASURES = ("cordial", "ced", "cvd")
LOW_BITS = 10  # low table of at most 2**10 entries, rebuilt per call


class InfinityReason(Enum):
    STRICTLY_NONCORDIAL = "StrictlyNoncordial"
    NO_FEASIBLE_AUGMENTATION = "NoFeasibleAugmentation"


@dataclass(frozen=True)
class DeficiencyValue:
    """A deficiency: a non-negative integer or infinity with a stated reason."""

    value: int | None
    reason: InfinityReason | None = None

    @classmethod
    def finite(cls, value: int) -> "DeficiencyValue":
        if value < 0:
            raise ValueError("deficiencies are non-negative")
        return cls(value, None)

    @classmethod
    def infinite(cls, reason: InfinityReason) -> "DeficiencyValue":
        return cls(None, reason)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def render(self) -> str:
        return "infinity" if self.is_infinite else str(self.value)

    def describe(self) -> str:
        if self.is_infinite:
            return f"infinity ({self.reason.value})"
        return str(self.value)

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one exhaustive scan.

    witness is an accepted certificate achieving the value, or None when the
    value is infinite. labelings_examined counts every encoding visited.
    """

    value: DeficiencyValue
    witness: Certificate | None
    labelings_examined: int


def _split(n: int) -> tuple[int, int]:
    """(low, high): the widths of the low and high parts of vertices 0..n-2.

    Vertex n-1 is pinned. The high part keeps two vertices whenever it can,
    so that small graphs still split into more than two worker parts.
    """
    width = max(0, n - 1)
    low = max(0, min(LOW_BITS, width - 2))
    return low, width - low


def _subset_xors(masks: list[int]) -> list[int]:
    """t[s] is the XOR of masks[j] over the set bits j of s, built by doubling."""
    t = [0]
    for inc in masks:
        t += [x ^ inc for x in t]
    return t


def _scan_plan(n: int, workers: int) -> list[tuple[int, int]]:
    """High-subset ranges [lo, hi), one per process the scan will use.

    The part count is clamped to the cpu count and to the number of high
    subsets, so a large worker count never starts idle processes.
    """
    if workers < 1:
        raise CordialError(f"workers must be at least 1, got {workers}")
    size = 1 << _split(n)[1]
    parts = min(workers, size, os.cpu_count() or 1) if workers > 1 else 1
    return [(size * i // parts, size * (i + 1) // parts) for i in range(parts)]


def _ones_range(modes, n: int) -> range:
    """The ones counts of the stream that modes scan."""
    return range(n + 1) if "cvd" in modes else range(n // 2, (n + 1) // 2 + 1)


def _cost(mode: str, n: int, m: int, ones: int, e1: int) -> int | None:
    """The cost in mode of every labeling in the cell (ones, e1).

    None means the cell holds no candidate: cordial and ced take only
    friendly labelings, cordial and cvd only edge-balanced ones.
    """
    vertex_gap, edge_gap = abs(n - 2 * ones), abs(m - 2 * e1)
    if mode == "cvd":
        return max(0, vertex_gap - 1) if edge_gap <= 1 else None
    if vertex_gap > 1:
        return None
    if edge_gap <= 1:
        return 0
    # ced adds edges of the minority label. A friendly labeling of three or
    # more vertices has a mixed and a same-labeled pair to add them at; one
    # of two vertices has no same-labeled pair, and every edge is 1-labeled
    return edge_gap - 1 if mode == "ced" and n > 2 else None


def _scan_part(n: int, edges, min_ones: int, max_ones: int, h_lo: int, h_hi: int):
    """Scan the labelings with min_ones..max_ones ones, high subset in [h_lo, h_hi).

    Returns (examined, first): examined[ones] counts the labelings visited
    with that ones count, and first maps each reached (ones, e1) cell to the
    least encoding reaching it.
    """
    low, high = _split(n)
    inc = [0] * n
    for j, (u, v) in enumerate(edges):
        inc[u] |= 1 << j
        inc[v] |= 1 << j
    B = _subset_xors(inc[low:low + high])
    table = [([], []) for _ in range(low + 1)]
    for l, a in enumerate(_subset_xors(inc[:low])):
        A_k, L_k = table[l.bit_count()]
        A_k.append(a)
        L_k.append(l)
    examined = [0] * (n + 1)
    reached = [set() for _ in range(n + 1)]
    first: dict[tuple[int, int], int] = {}
    for h in range(h_lo, h_hi):
        b = B[h]
        h_ones = h.bit_count()
        x_high = h << low
        for ones in range(max(min_ones, h_ones), min(max_ones, h_ones + low) + 1):
            A_k, L_k = table[ones - h_ones]
            E = [(a ^ b).bit_count() for a in A_k]
            examined[ones] += len(E)
            if not reached[ones].issuperset(E):
                for e1 in set(E) - reached[ones]:
                    first[ones, e1] = L_k[E.index(e1)] | x_high
                reached[ones].update(E)
    return examined, first


def check_search_size(n: int, max_vertices: int) -> None:
    """Raise SizeLimitExceeded when n vertices are beyond the search cap."""
    if n > max_vertices:
        raise SizeLimitExceeded(
            f"graph has {n} vertices; exhaustive search is capped at"
            f" {max_vertices} (raise max_vertices to override)"
        )


def _reduce(parts) -> tuple[list[int], dict[tuple[int, int], int]]:
    """Summed examined counts and the least encoding per cell over the parts."""
    examined = [sum(counts) for counts in zip(*(p[0] for p in parts))]
    first: dict[tuple[int, int], int] = {}
    for _, cells in parts:
        for cell, x in cells.items():
            first[cell] = min(x, first.get(cell, x))
    return examined, first


def _result(mode: str, g: MultiGraph, examined: list[int], first) -> OracleResult:
    """Read one mode's checked result off a scan's examined counts and cells.

    The witness is the least encoding among the cheapest cells. A ced
    witness adds the first vertex pair of the minority edge label cost times,
    a cvd witness adds the minority vertex label cost times, and a cordial
    one, whose cost is always 0, adds nothing.
    """
    count = sum(examined[ones] for ones in _ones_range((mode,), g.n))
    costs = [
        (cost, x, ones, e1)
        for (ones, e1), x in first.items()
        if (cost := _cost(mode, g.n, g.m, ones, e1)) is not None
    ]
    if not costs:
        reason = InfinityReason.STRICTLY_NONCORDIAL
        if mode == "ced":
            reason = InfinityReason.NO_FEASIBLE_AUGMENTATION
        return OracleResult(DeficiencyValue.infinite(reason), None, count)
    cost, canon, ones, e1 = min(costs)
    f = VertexLabeling.from_encoding(canon, g.n)
    added_edges: tuple[tuple[int, int], ...] = ()
    added_labels: tuple[int, ...] = ()
    if cost:
        if mode == "ced":
            pair = first_pair_with_edge_label(f, 0 if 2 * e1 > g.m else 1)
            self_check(pair is not None, "ced witness has no vertex pair to repair at")
            added_edges = (pair,) * cost
        else:
            added_labels = (0 if 2 * ones > g.n else 1,) * cost
    witness = Certificate(
        kind=mode,
        labels=f.labels,
        claimed_value=cost,
        n=g.n,
        edges=g.edges,
        added_edges=added_edges,
        added_vertex_labels=added_labels,
    )
    self_check(check_certificate(witness).accepted, f"{mode} witness rejected")
    return OracleResult(DeficiencyValue.finite(cost), witness, count)


def solve(
    g: MultiGraph,
    modes: tuple[str, ...],
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    workers: int = 1,
) -> dict[str, OracleResult]:
    """Answer each of modes, a subset of MEASURES, from one scan of g.

    Each result equals that of a scan in its mode alone.
    """
    check_search_size(g.n, max_vertices)
    ones = _ones_range(modes, g.n)
    plan = _scan_plan(g.n, workers)
    tasks = [(g.n, g.edges, ones[0], ones[-1], lo, hi) for lo, hi in plan]
    if len(tasks) == 1:
        examined, first = _reduce([_scan_part(*tasks[0])])
    else:
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            examined, first = _reduce(list(pool.map(_scan_part, *zip(*tasks))))
    return {mode: _result(mode, g, examined, first) for mode in modes}


def decide_cordial(
    g: MultiGraph,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    workers: int = 1,
) -> tuple[bool, VertexLabeling | None]:
    """Exhaustively decide cordiality; on success return the canonical witness."""
    res = solve(g, ("cordial",), max_vertices=max_vertices, workers=workers)
    witness = res["cordial"].witness
    return (False, None) if witness is None else (True, VertexLabeling(witness.labels))


def ced_oracle(
    g: MultiGraph,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    workers: int = 1,
) -> OracleResult:
    """Minimum edge additions over friendly labelings, with a checked witness.

    A friendly labeling is repairable only if vertices supporting edges of
    the minority label exist; labelings without them are skipped, and if
    every unbalanced labeling is skipped the value is infinite.
    """
    return solve(g, ("ced",), max_vertices=max_vertices, workers=workers)["ced"]


def cvd_oracle(
    g: MultiGraph,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    workers: int = 1,
) -> OracleResult:
    """Minimum isolated-vertex additions over edge-balanced labelings.

    The scan covers all labelings, not only friendly ones; when no labeling
    balances the edge labels the value is infinite.
    """
    return solve(g, ("cvd",), max_vertices=max_vertices, workers=workers)["cvd"]
