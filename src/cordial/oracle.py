"""Exhaustive search for cordiality and the two deficiency measures.

Labelings are encoded as n-bit integers, bit i giving the label of vertex i.
Each measure depends on a labeling only through its cell (ones, e1), its
counts of 1-labeled vertices and edges. So one scan serves any set of
measures: it records the least encoding reaching each candidate cell of the
measures asked, and a result's witness is the least encoding among its
cheapest candidate cells. Every mode prices a cell by one rule, the
certificate checker's: the additions that make it cordial,
max(0, |n - 2 ones| - 1) + max(0, |m - 2 e1| - 1). Modes differ only in
their candidates: cordial takes the friendly edge-balanced cells, ced every
friendly cell (only the edge-balanced ones at n <= 2, whose friendly
labelings have no same-labeled pair to repair at) and cvd every
edge-balanced cell. So only ced at n > 2 needs every e1 of a row, on its
friendly rows; every other row needs only its one or two edge-balanced e1
values. The scan covers the friendly labelings, or all of them when cvd is
asked for, with vertex n-1 pinned at label 0. Pinning is sound because
complementing a labeling preserves every edge label, and the canonical
encoding, the smaller of a labeling and its complement, is the one with
vertex n-1 labeled 0. labelings_examined is the size of the halved stream
of the result's own mode, computed once per (n, mode). Results are
bit-identical whatever the modes scanned alongside, and in whatever order,
and equal to those of a search over all 2**n labelings. A graph is cordial
exactly when the scan reaches a cordial cell, a friendly row at an
edge-balanced e1; then every measure is 0 and the least encoding of those
cells is every measure's witness, so a cordial graph's measures share one
labeling and one check, certify.cordial_witnesses. A noncordial graph's
measures are priced one by one and each witness is built and checked by
certify.witness. Certificates are made only in certify, and a scan witness
is checked against the scanned MultiGraph itself, not a rebuild. The
result's value types and the search cap DEFAULT_MAX_VERTICES come from
certify, below this module and families.

The scan kernel splits the free vertices 0..n-2 into a low part of at most
LOW_BITS vertices and a high part holding the rest. For one high subset h a
single big int holds the e1 of every low subset l, one fixed-width lane per
l: e1 = alpha(l) + beta(h) - 2 w(l, h), where alpha and beta count the edges
leaving l and h and w those between them. One pass over the graph's pair
table, its distinct vertex pairs and their multiplicities, gathers what
alpha, w and beta need; the table is counted where the graph is built, so
a scan counts no edge. A low pair (u, v) of multiplicity c adds c to the
lanes holding exactly one of u and v; the edges from a low vertex out of
the low part add their count to the lanes holding it, and are kept per
high end. The pairs ascend, so those with both ends high are the pass's
tail, left unread until the scan passes h = 0. All of the high part's terms
are built then: the high vertices' degrees, the bit masks of their edges
among themselves and w's packed steps. beta(h) is built as h ascends, from
beta(h & (h - 1)), so a scan that stops at h = 0 builds none of them. Lanes
are 1, 2 or 4 bytes, the least that holds cap = min(m, mu * (n//2) *
((n+1)//2)), where mu is the graph's largest multiplicity: e1 counts the
edges across one cut, and a cut separates at most (n//2) * ((n+1)//2)
pairs. Packing is linear, so a lane may overflow while the terms are
summed, yet every final lane lies in 0..cap and the bytes of the sum are
the lanes. Lanes are grouped by
popcount, ascending inside a group, so each ones count is one byte range.
The groups whose rows need only their edge-balanced e1 values form at most
two runs of bytes, below and above the rows that need every e1. These
spans depend only on the high subset's popcount, and are computed once per
process for each n, row set and lane width. Each high subset makes one
search per balanced e1 over each span, for the e1's bytes in the lane
width: a match that straddles two lanes is skipped, and an aligned one
records its group's cell if it is new and resumes the search at the next
group. A row that needs every e1 takes the values not reached before by
bytes.translate, locating each by a bytes search, or on wider lanes by a set
difference of the map from each value to its least lane, built in one pass
over the row's lanes. High subsets ascend, so the first hit
of a cell is its least encoding, and a scan stops after the first high
subset that reaches a cordial cell, the only cells the rule prices at 0.

At h = 0 only the friendly groups, k = n//2 or (n+1)//2 with k <= low,
hold cordial cells; the groups ascend by popcount, so their lanes are one
byte range. A first stage packs alpha on it alone, from the low vertices'
indicators cut to it once per process, and searches it like a span. A hit
returns just the cordial cells, at their least lanes: every mode prices
them at 0. A miss records nothing and packs every lane, which h = 0 reads
unless its plan is the stage's own. Every scan runs in the calling process.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache
from itertools import accumulate, chain, groupby
from math import comb
from typing import NamedTuple

from .certify import (
    DEFAULT_MAX_VERTICES,
    MEASURES,
    Certificate,
    DeficiencyValue,
    InfinityReason,
    cordial_witnesses,
    witness,
)
from .errors import CordialError
from .graph_core import MultiGraph
from .labeling import VertexLabeling

LOW_BITS = 10  # at most 2**10 lanes; each layout is built once per process
_LANE_CODES = {1: "B", 2: "H", 4: "I"}  # lane bytes -> array typecode
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # binary digits -> bits
_ZERO = DeficiencyValue.finite(0)  # every cordial result's value


class OracleResult(NamedTuple):
    """Outcome of one exhaustive scan.

    witness is an accepted certificate achieving the value, or None when the
    value is infinite. labelings_examined is the size of the mode's halved
    stream of labelings, the stream the result is exact over.
    """

    value: DeficiencyValue
    witness: Certificate | None
    labelings_examined: int


def _split(n: int) -> tuple[int, int]:
    """(low, high): the widths of the low and high parts of vertices 0..n-2.

    Vertex n-1 is pinned. The high part keeps two vertices whenever it can,
    so that a small graph's scan still checks its cordial stop after each
    quarter of its labelings.
    """
    width = max(0, n - 1)
    low = max(0, min(LOW_BITS, width - 2))
    return low, width - low


def _candidates(modes, n: int, m: int):
    """(rows, whole, balanced): where the candidate cells of modes lie.

    rows are the ones counts of the stream that modes scan, whole the rows
    whose every e1 is a candidate, ced's friendly rows at n > 2, and balanced
    the e1 of the edge-balanced cells, the only candidates of the other rows.
    """
    friendly = range(n // 2, (n + 1) // 2 + 1)
    rows = range(n + 1) if "cvd" in modes else friendly
    return rows, friendly if "ced" in modes and n > 2 else (), {m // 2, (m + 1) // 2}


@cache
def _lanes(low: int, width: int):
    """The lane layout of the low subsets at width bytes per lane.

    Lane i holds low subset order[i]; the lanes are grouped by popcount,
    ascending inside each group. ones packs a 1 in every lane and ind[x] a 1
    in the lanes of the subsets holding vertex x, and cut(lo, hi) is ind cut
    to bytes lo..hi of the lanes, made once per process for each range.
    """
    order = tuple(sorted(range(1 << low), key=int.bit_count))  # a stable sort
    code = _LANE_CODES[width]
    ones = _pack([1] * len(order), code)
    # octets[i] packs bits 8i..8i+7 of each lane's subset, so one shift and
    # a mask with ones leave the bit of vertex x in every lane
    octets = [_pack([l >> s & 255 for l in order], code) for s in range(0, low, 8)]
    ind = tuple(octets[x >> 3] >> (x & 7) & ones for x in range(low))
    size = len(order) * width
    cut = cache(lambda lo, hi: tuple(
        int.from_bytes(v.to_bytes(size, sys.byteorder)[lo:hi], sys.byteorder) for v in ind))
    return order, code, ones, ind, cut


@cache
def _plans(n: int, low: int, rows: range, whole, width: int):
    """Where a scan reads the lanes of a high subset, by its ones count.

    Returns (group_end, stage, plans). Popcount group k of the lanes, the
    low subsets of k vertices, ends at byte group_end[k]. stage holds the
    bytes of the friendly groups at h = 0, k = n//2 to min((n+1)//2, low),
    none when n//2 > low. plans[h_ones] is (spans, wholes) for a high subset
    of h_ones vertices, whose group k holds row h_ones + k. spans are the
    byte ranges of the runs of groups whose rows are in rows but not in
    whole, so need only their edge-balanced e1 values: at most two runs,
    below and above whole. wholes holds (ones, start, stop) for each group
    whose row is in whole, start and stop being its lanes.
    """
    bounds = (0, *accumulate(comb(low, k) for k in range(low + 1)))
    plans = []
    for h_ones in range(n + 1):
        groups = range(max(0, rows[0] - h_ones), min(low, rows[-1] - h_ones) + 1)
        spans, wholes = [], []
        for in_whole, run in groupby(groups, lambda k: h_ones + k in whole):
            run = list(run)
            if in_whole:
                wholes += [(h_ones + k, bounds[k], bounds[k + 1]) for k in run]
            else:
                spans.append((bounds[run[0]] * width, bounds[run[-1] + 1] * width))
        plans.append((tuple(spans), tuple(wholes)))
    stage = bounds[min(n // 2, low + 1)] * width, bounds[min((n + 1) // 2, low) + 1] * width
    return tuple(b * width for b in bounds[1:]), stage, tuple(plans)


def _pack(values, code: str) -> int:
    """The int whose lane i, in E.to_bytes(..., sys.byteorder), is values[i]."""
    return int.from_bytes(array(code, values).tobytes(), sys.byteorder)


def _alpha(ind, lows, out) -> int:
    """alpha(l), the edges leaving low subset l, on ind's lanes: from the low
    pairs ((u, v), c) and out, each low vertex's edges out of the low part."""
    g = 0  # each product skips c = 1, where it would only copy the lanes
    for (u, v), c in lows:  # in a lane exactly when one end is in its subset
        g += c * (ind[u] ^ ind[v]) if c > 1 else ind[u] ^ ind[v]
    return g + sum(c * lanes if c > 1 else lanes for c, lanes in zip(out, ind) if c)


def _scan(graph: MultiGraph, modes) -> dict[tuple[int, int], int]:
    """Scan graph's labelings of the stream that modes scan, vertex n-1 at 0.

    Returns first, mapping each reached candidate cell of modes, as
    _candidates places them, to the least encoding reaching it. The scan
    ends with the first high subset at which a cordial cell is reached, once
    all of that subset's candidate cells are recorded; but a stop in the
    first stage, at high subset 0, records just the cordial cells. The lane
    width is the least that holds cap, the cut bound of the module
    docstring. Each high subset makes one aligned search per balanced e1
    over each of the cached spans of _plans, and reads the rows of whole
    from their groups' lanes. The pairs are read off graph's pair table,
    canonical (u < v) and ascending.
    """
    n, m, mu = graph.n, graph.m, graph.mu
    low, high = _split(n)
    rows, whole, balanced = _candidates(modes, n, m)
    cap = min(m, mu * (n // 2) * ((n + 1) // 2))
    width = next(w for w in _LANE_CODES if cap < 1 << 8 * w)
    order, code, ones_lanes, ind, cut = _lanes(low, width)
    group_end, stage, plans = _plans(n, low, rows, whole, width)
    lows = []  # the low pairs, packed by the first stage and again on a miss
    out = [0] * low  # out[x] counts the edges from low vertex x out of the low part
    ends = [[] for _ in range(high)]  # ends[t]: (u, c) per low u with c edges to low + t
    mults = [1] * len(graph.pairs)  # each pair's multiplicity, from the table's repeats
    for i, k in graph.repeats:
        mults[i] += k
    # the pairs are canonical and ascend, so those with both ends high, which
    # only h > 0 reads, are their tail: the pass stops at the first, kept in
    # tail, and h = 1 resumes it from items
    items = zip(graph.pairs, mults)
    tail = ()
    for item in items:
        (u, v), c = item
        if v < low:
            lows.append(item)
        elif u < low:
            out[u] += c
            if v < low + high:
                ends[v - low].append((u, c))
        else:
            tail = (item,)
            break
    size = len(order) * width
    # a cut of at least m/2 edges exists, so cap >= (m+1)//2 and both fit a lane
    pats = [(e1, e1.to_bytes(width, sys.byteorder)) for e1 in balanced]
    seen = {ones: b"" if width == 1 else set() for ones in whole}  # e1s reached so far
    first: dict[tuple[int, int], int] = {}
    beta = [0]  # beta[h] counts the edges leaving high subset h
    # the first stage runs h = 0 on its friendly lanes; after a miss, h = 0
    # builds g and reads every lane, unless its plan is the stage's, as for cordial alone
    first_stage = stage[0] < stage[1]
    for h in chain((0,) * first_stage, range(1 << high)):
        if first_stage:  # E holds zero bytes below the friendly lanes
            first_stage = False
            lo, hi = stage
            E = bytes(lo) + _alpha(cut(lo, hi), lows, out).to_bytes(hi - lo, sys.byteorder)
            h_ones, spans, wholes = 0, (stage,), ()
        else:
            if h == 0:
                # g packs alpha(l) - 2 w(l, h) per lane, starting at h = 0:
                # w(l, h) counts the edges between l and h, so adding beta(h),
                # the edges leaving h, gives e1 of labeling l | h << low
                g = _alpha(ind, lows, out)
            elif h == 1:  # the high part's terms, which h = 0 does not read
                deg = [sum(c for _, c in e) for e in ends]  # the high vertices' degrees
                # up[t]: (mask, k + 1) per bit k, mask the high vertices above
                # t whose count to t has bit k
                up = [[0] * mu.bit_length() for _ in range(high)]
                for (u, v), c in chain(tail, items):
                    deg[u - low] += c
                    if v < low + high:
                        deg[v - low] += c
                        up[u - low] = [mask | (c >> k & 1) << v - low
                                       for k, mask in enumerate(up[u - low])]
                up = [[(mask, k + 1) for k, mask in enumerate(masks) if mask] for masks in up]
                # cross[t] packs the edges from each low subset to low + t
                cross = [sum(c * ind[u] if c > 1 else ind[u] for u, c in e) for e in ends]
                # from h - 1 to h, the lowest set bit t of h joins and the bits below t leave
                steps = [(below - c) << 1 for below, c in zip(accumulate(cross, initial=0), cross)]
            if h:  # t joins h & (h - 1), whose vertices all lie above it
                t = (h & -h).bit_length() - 1
                g += steps[t]
                beta.append(beta[h & (h - 1)] + deg[t])
                for mask, k in up[t]:  # less twice the edges from t into h
                    beta[h] -= (mask & h).bit_count() << k
            spans, wholes = plans[h_ones := h.bit_count()]
            if not (spans or wholes) or h == 0 and (spans, wholes) == ((stage,), ()):
                continue
            # every lane holds an e1 in [0, cap], so E's digits are the lanes
            E = (g + beta[h] * ones_lanes).to_bytes(size, sys.byteorder)
        cordial = False
        for lo, hi in spans:  # one search per balanced e1 over each run of groups
            for e1, pat in pats:
                i = E.find(pat, lo, hi)
                while i >= 0:
                    if i % width:  # straddles two lanes: go on from the next lane
                        i = E.find(pat, i - i % width + width, hi)
                        continue
                    x = order[i // width]  # the least lane of its group holding e1
                    k = x.bit_count()
                    if (h_ones + k, e1) not in first:
                        first[h_ones + k, e1] = x | h << low
                        cordial |= abs(n - 2 * (h_ones + k)) <= 1  # a friendly row
                    i = E.find(pat, group_end[k], hi)  # go on from the next group
        if wholes and width > 1:
            E = array(code, E)
        for ones, start, stop in wholes:
            block = E[start:stop]
            if width == 1:  # a bytes search per new e1 finds its least lane
                new = block.translate(None, seen[ones])
                if not new:
                    continue
                seen[ones] += new
                new = set(new)
                lane = {e1: start + block.index(e1) for e1 in new}
            else:  # one pass maps every e1 of the block to its least lane
                lane = dict(zip(block[::-1], range(stop - 1, start - 1, -1)))
                new = lane.keys() - seen[ones]
                if not new:
                    continue
                seen[ones] |= new
            for e1 in new:
                first[ones, e1] = order[lane[e1]] | h << low
            cordial |= not new.isdisjoint(balanced)
        if cordial:
            break
    return first


def check_search_size(n: int, max_vertices: int) -> None:
    """Raise CordialError when n vertices are beyond the search cap, before any work."""
    if n > max_vertices:
        raise CordialError(
            f"graph has {n} vertices; exhaustive search is capped at"
            f" {max_vertices} (raise max_vertices to override)"
        )


def _bits(x: int, n: int) -> tuple[int, ...]:
    """The labeling encoded by x on n vertices: bit i of x labels vertex i."""
    return tuple(bin(x | 1 << n)[:2:-1].encode().translate(_BIT_BYTES))


@cache
def _stream_size(n: int, mode: str) -> int:
    """labelings_examined of mode on n vertices: its halved stream's size."""
    rows = _candidates((mode,), n, 0)[0]
    return sum(comb(max(n - 1, 0), ones) for ones in rows)


def _result(mode: str, g: MultiGraph, first) -> OracleResult:
    """Read one mode's checked result off a scan's cells.

    Each candidate cell is priced by the module's one rule, and the witness
    is the least encoding among the cheapest, built and checked by
    certify.witness: a ced witness repairs at a pair of the minority edge
    label, a cvd witness adds the minority vertex label.
    """
    n, m = g.n, g.m
    rows, whole, balanced = _candidates((mode,), n, m)
    count = _stream_size(n, mode)
    if whole:  # a friendly cell of any e1 may be repaired
        cells = [cell for cell in first if cell[0] in whole]
    else:  # only edge-balanced cells are candidates
        cells = [(ones, e1) for ones in rows for e1 in balanced]
    priced = [
        (max(0, abs(n - 2 * ones) - 1) + max(0, abs(m - 2 * e1) - 1), x, e1)
        for ones, e1 in cells
        if (x := first.get((ones, e1))) is not None
    ]
    if not priced:
        reason = InfinityReason.STRICTLY_NONCORDIAL
        if mode == "ced":
            reason = InfinityReason.NO_FEASIBLE_AUGMENTATION
        return OracleResult(DeficiencyValue.infinite(reason), None, count)
    cost, canon, e1 = min(priced)
    repair = 0 if 2 * e1 > m else 1  # the minority edge label
    cert = witness(mode, _bits(canon, n), cost, repair=repair, graph=g)
    return OracleResult(DeficiencyValue.finite(cost), cert, count)


def solve(
    g: MultiGraph,
    modes: tuple[str, ...],
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> dict[str, OracleResult]:
    """Answer each of modes, a subset of certify.MEASURES, from one scan of g.

    Each result equals that of a scan in its mode alone. A cordial cell is
    a candidate of every mode and the only one any prices at 0, so a scan
    that reached one settles every mode with one labeling and one check;
    otherwise _result prices each mode.
    """
    check_search_size(g.n, max_vertices)
    if not set(modes) <= set(MEASURES):
        raise CordialError(f"measures must be among {', '.join(MEASURES)}, got {modes!r}")
    if not modes:
        return {}
    n, m = g.n, g.m
    first = _scan(g, modes)
    rows, _, balanced = _candidates(("cordial",), n, m)
    cordial = [x for ones in rows for e1 in balanced if (x := first.get((ones, e1))) is not None]
    if not cordial:
        return {mode: _result(mode, g, first) for mode in modes}
    certs = cordial_witnesses(modes, _bits(min(cordial), n), graph=g)
    return {mode: OracleResult(_ZERO, cert, _stream_size(n, mode))
            for mode, cert in zip(modes, certs)}


# The three one-mode calls below are the API from before solve. Only the
# benchmark under perfbench/ still calls them, with a worker count that
# changes nothing; no package code or script may (tests/test_graph_core.py).


def decide_cordial(g: MultiGraph, *, workers: int = 1) -> tuple[bool, VertexLabeling | None]:
    """solve's cordial answer as (cordial?, its witness labeling or None)."""
    witness = solve(g, ("cordial",))["cordial"].witness
    return (False, None) if witness is None else (True, VertexLabeling(witness.labels))


def ced_oracle(g: MultiGraph, *, workers: int = 1) -> OracleResult:
    """solve's ced result."""
    return solve(g, ("ced",))["ced"]


def cvd_oracle(g: MultiGraph, *, workers: int = 1) -> OracleResult:
    """solve's cvd result."""
    return solve(g, ("cvd",))["cvd"]
