"""Exhaustive search for cordiality and the two deficiency measures.

Labelings are encoded as n-bit integers, bit i giving the label of vertex i.
A search covers its whole stream: friendly labelings for cordial and ced, all
labelings for cvd, each with vertex n-1 pinned at label 0. Pinning halves the
stream and is sound because complementing a labeling preserves every edge
label; labelings_examined counts the halved stream. The canonical encoding of
a labeling is the smaller of itself and its complement, the one with vertex
n-1 labeled 0, so every encoding the scan visits is already canonical. The
search reduces by (cost, encoding), so results are bit-identical regardless
of worker count and equal to those of a search over all 2**n labelings. Every
witness, the cordial one included, is passed through the certificate checker
before it is returned.

The scan kernel splits the free vertices 0..n-2 into a low part of at most
LOW_BITS vertices and a high part holding the rest. With inc[v] the bitmask
of edges at v, the 1-labeled edges of the labeling made of low subset l and
high subset h are A[l] ^ B[h], where A and B are the XORs of the subsets'
incidence masks, built by doubling. The low table is grouped by popcount and
listed in ascending order, so for one h the labelings with a given ones count
form a block whose e1 values come from one list comprehension over A. Cost
depends only on (ones, e1), so a block is judged by its cheapest admissible
e1 values, and its first hit is its least encoding. Worker processes take
contiguous ranges of high subsets.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

from .certify import Certificate, check_certificate
from .errors import CordialError, SizeLimitExceeded, self_check
from .graph_core import MultiGraph
from .labeling import VertexLabeling, balance, first_pair_with_edge_label

DEFAULT_MAX_VERTICES = 24
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


def _block_rule(mode: str, n: int, m: int):
    """judge(E, ones) -> (cost, e1 targets) or None, for one block of labelings.

    E lists the block's e1 values and ones is its fixed ones count; None
    means no labeling in the block is a candidate.
    """
    balanced = sorted({m // 2, (m + 1) // 2})
    if mode == "cordial":
        return lambda E, ones: (0, balanced)
    if mode == "cvd":
        return lambda E, ones: (max(0, abs(n - 2 * ones) - 1), balanced)

    def ced(E, ones):
        # surplus label-1 edges are repaired with a mixed vertex pair, surplus
        # label-0 edges with a same-labeled pair
        light = 0 < ones < n
        heavy = ones > 1 or n - ones > 1
        feasible = [
            e for e in set(E)
            if abs(m - 2 * e) <= 1 or (heavy if 2 * e > m else light)
        ]
        if not feasible:
            return None
        gap = min(abs(m - 2 * e) for e in feasible)
        return max(0, gap - 1), [e for e in feasible if abs(m - 2 * e) == gap]

    return ced


def _scan_part(task) -> tuple[int, tuple[int, int] | None]:
    """Scan the labelings whose high subset lies in [h_lo, h_hi).

    Returns (examined, best), best being the minimum (cost, encoding) over
    the part's candidates, or None. Labelings that are not candidates still
    count as examined.
    """
    mode, n, edges, h_lo, h_hi = task
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
    judge = _block_rule(mode, n, len(edges))
    min_ones, max_ones = (0, n) if mode == "cvd" else (n // 2, (n + 1) // 2)
    best: tuple[int, int] | None = None
    examined = 0
    for h in range(h_lo, h_hi):
        b = B[h]
        h_ones = h.bit_count()
        x_high = h << low
        for ones in range(max(min_ones, h_ones), min(max_ones, h_ones + low) + 1):
            A_k, L_k = table[ones - h_ones]
            E = [(a ^ b).bit_count() for a in A_k]
            examined += len(E)
            judged = judge(E, ones)
            if judged is None:
                continue
            cost, targets = judged
            if best is not None and cost > best[0]:
                continue
            hits = [E.index(t) for t in targets if t in E]
            if not hits:
                continue
            x = L_k[min(hits)] | x_high
            if best is None or (cost, x) < best:
                best = (cost, x)
    return examined, best


def check_search_size(n: int, max_vertices: int) -> None:
    """Raise SizeLimitExceeded when n vertices are beyond the search cap."""
    if n > max_vertices:
        raise SizeLimitExceeded(
            f"graph has {n} vertices; exhaustive search is capped at"
            f" {max_vertices} (raise max_vertices to override)"
        )


def _reduce(
    results: list[tuple[int, tuple[int, int] | None]]
) -> tuple[int, tuple[int, int] | None]:
    """Total examined and the least best over the parts' (examined, best)."""
    examined = sum(r[0] for r in results)
    bests = [r[1] for r in results if r[1] is not None]
    return examined, (min(bests) if bests else None)


def _solve(mode: str, g: MultiGraph, max_vertices: int, workers: int) -> OracleResult:
    """Scan g in one mode and turn the least hit into a checked result.

    The witness is the canonical hit's labeling. A ced witness adds the
    first vertex pair of the minority edge label cost times, a cvd witness
    adds the minority vertex label cost times, and a cordial one, whose cost
    is always 0, adds nothing.
    """
    check_search_size(g.n, max_vertices)
    tasks = [(mode, g.n, g.edges, lo, hi) for lo, hi in _scan_plan(g.n, workers)]
    if len(tasks) == 1:
        examined, best = _reduce([_scan_part(tasks[0])])
    else:
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            examined, best = _reduce(list(pool.map(_scan_part, tasks)))
    if best is None:
        reason = (
            InfinityReason.NO_FEASIBLE_AUGMENTATION
            if mode == "ced"
            else InfinityReason.STRICTLY_NONCORDIAL
        )
        return OracleResult(DeficiencyValue.infinite(reason), None, examined)
    cost, canon = best
    f = VertexLabeling.from_encoding(canon, g.n)
    added_edges: tuple[tuple[int, int], ...] = ()
    added_labels: tuple[int, ...] = ()
    if cost:
        rep = balance(g, f)
        if mode == "ced":
            pair = first_pair_with_edge_label(f, 0 if rep.e1 > rep.e0 else 1)
            self_check(pair is not None, "ced witness has no vertex pair to repair at")
            added_edges = (pair,) * cost
        else:
            added_labels = (0 if rep.v1 > rep.v0 else 1,) * cost
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
    return OracleResult(DeficiencyValue.finite(cost), witness, examined)


def decide_cordial(
    g: MultiGraph,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    workers: int = 1,
) -> tuple[bool, VertexLabeling | None]:
    """Exhaustively decide cordiality; on success return the canonical witness."""
    witness = _solve("cordial", g, max_vertices, workers).witness
    if witness is None:
        return False, None
    return True, VertexLabeling(witness.labels)


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
    return _solve("ced", g, max_vertices, workers)


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
    return _solve("cvd", g, max_vertices, workers)
