"""Exhaustive search: agreement with a definitional reference, determinism,
and frozen small values.

The reference implementations here work straight from the definitions with
no bit tricks, so they can arbitrate the packed scans.
"""

import os
import random
import subprocess
import sys
from itertools import combinations, permutations, zip_longest
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given

from cordial import (
    Certificate,
    DeficiencyValue,
    FamilySpec,
    InfinityReason,
    MalformedCertificate,
    MultiGraph,
    Verdict,
    balance,
    check_certificate,
    cross_validate,
    serialize_certificate,
)
from cordial import certify, cli, oracle
from cordial.certify import MEASURES
from cordial.errors import CordialError, SelfCheckFailed
from cordial.labeling import VertexLabeling
from cordial.oracle import _result, _scan, _split, ced_oracle, cvd_oracle, decide_cordial, solve
from strategies import is_cordial, multigraphs

# ------------------------------------------------- definitional references


def _labels(x, n):
    """The bit tuple of encoding x: bit i of x is the label of vertex i."""
    return tuple(x >> i & 1 for i in range(n))


def _reference(g, mode, halve):
    """(examined, best) of a scan, from balance() over all 2^n labelings.

    best is the least (cost, min(x, complement of x)) over candidate
    labelings x, or None; examined counts the labelings the stream holds.
    """
    mask = (1 << g.n) - 1
    examined, best = 0, None
    for x in range(1 << g.n):
        if halve and x & 1:
            continue  # halved at vertex 0, not at the scan's vertex n-1
        f = _labels(x, g.n)
        rep = balance(g, f)
        vertex_diff, edge_diff = abs(rep.v0 - rep.v1), abs(rep.e0 - rep.e1)
        if mode != "cvd" and vertex_diff > 1:
            continue
        examined += 1
        if edge_diff <= 1:
            cost = max(0, vertex_diff - 1) if mode == "cvd" else 0
        elif mode == "ced":
            minority = 0 if rep.e1 > rep.e0 else 1
            pairs = (
                f[u] ^ f[v] == minority
                for u in range(g.n)
                for v in range(u + 1, g.n)
            )
            if not any(pairs):
                continue
            cost = edge_diff - 1
        else:
            continue
        cand = (cost, min(x, mask ^ x))
        if best is None or cand < best:
            best = cand
    return examined, best


def _brute_value(g, mode):
    best = _reference(g, mode, False)[1]
    return None if best is None else best[0]


def _brute_cordial(g):
    return _brute_value(g, "cordial") is not None


def _brute_ced(g):
    """Minimum additions over friendly labelings, None when no repair exists."""
    return _brute_value(g, "ced")


def _brute_cvd(g):
    return _brute_value(g, "cvd")


def _random_graph(rng, max_n=7, max_m=12):
    n = rng.randint(1, max_n)
    edges = []
    if n >= 2:
        for _ in range(rng.randint(0, max_m)):
            u = rng.randrange(n)
            v = rng.randrange(n)
            while v == u:
                v = rng.randrange(n)
            edges.append((u, v))
    return MultiGraph(n, edges)


def _alone(g, mode, **kw):
    """The result of a scan in mode alone."""
    return solve(g, (mode,), **kw)[mode]


def _crossing_multigraph(m, n=7, side=3):
    """m parallel-heavy edges between vertices 0..side-1 and the rest, so the
    labeling with exactly 0..side-1 labeled 1 puts all m edges on label 1."""
    rng = random.Random(m)
    return MultiGraph(n, [(rng.randrange(side), rng.randrange(side, n)) for _ in range(m)])


# ------------------------------------------------------ scan vs definition


@pytest.mark.parametrize("seed", range(25))
def test_oracles_match_definitional_brute_force(seed):
    g = _random_graph(random.Random(seed))
    assert (_alone(g, "cordial").witness is not None) == _brute_cordial(g)
    ced = _alone(g, "ced").value
    want = _brute_ced(g)
    assert (ced.value if not ced.is_infinite else None) == want
    cvd = _alone(g, "cvd").value
    want = _brute_cvd(g)
    assert (cvd.value if not cvd.is_infinite else None) == want


def _deficiencies_by_definition(g):
    """(ced, cvd) of g from the definitions, None for infinity.

    cvd is the least k <= n for which g plus k isolated vertices has a
    cordial labeling, and ced the least k <= m for which g plus some multiset
    of k non-loop vertex pairs has one. A labeling of g plus k isolated
    vertices is one of g plus some number j of ones among the new vertices.
    Under a labeling f of g, k added pairs are some number a of pairs that f
    labels 0 and k - a that it labels 1; each kind is open only if f has
    such a pair. Counts are recounted from the edge list, with no balance()
    and no price rule.
    """
    def cordial(v0, v1, e0, e1):
        return abs(v0 - v1) <= 1 and abs(e0 - e1) <= 1

    counts = []  # (v0, v1, e0, e1, the induced labels of g's vertex pairs)
    for x in range(1 << g.n):
        f = _labels(x, g.n)
        e1 = sum(f[u] ^ f[v] for u, v in g.edges)
        kinds = {f[u] ^ f[v] for u, v in combinations(range(g.n), 2)}
        counts.append((g.n - sum(f), sum(f), g.m - e1, e1, kinds))
    cvd = next((k for k in range(g.n + 1)
                if any(cordial(v0 + k - j, v1 + j, e0, e1)
                       for v0, v1, e0, e1, _ in counts for j in range(k + 1))), None)
    ced = next((k for k in range(g.m + 1)
                if any(cordial(v0, v1, e0 + a, e1 + k - a)
                       for v0, v1, e0, e1, kinds in counts for a in range(k + 1)
                       if (a == 0 or 0 in kinds) and (a == k or 1 in kinds))), None)
    return ced, cvd


def test_ced_and_cvd_match_their_definitions():
    # unlike _reference, which prices cells by the oracle's own rule, this
    # adds isolated vertices or vertex pairs until some labeling is cordial
    rng = random.Random(5)
    members = [*(("complete", n) for n in range(1, 6)), *(("cycle", n) for n in range(3, 7)),
               *(("path", n) for n in range(1, 6)), ("wheel", 3), ("wheel", 4)]
    graphs = [*(FamilySpec(*member).build() for member in members),
              *(_random_graph(rng, max_n=6, max_m=8) for _ in range(300))]
    for g in graphs:
        got = solve(g, ("cordial", "ced", "cvd"))
        ced, cvd = _deficiencies_by_definition(g)
        assert (got["ced"].value.value, got["cvd"].value.value) == (ced, cvd), g
        assert (got["cordial"].witness is not None) == (ced == 0) == (cvd == 0), g


def test_scan_visits_every_friendly_labeling_exactly_once():
    # vertex n-1 is pinned at label 0, so one labeling of each complement pair
    assert _alone(FamilySpec("complete", 6).build(), "ced").labelings_examined == comb(5, 3)
    empty = MultiGraph(0, [])
    assert _alone(empty, "cvd").labelings_examined == 1
    assert _alone(empty, "cordial").witness.labels == ()


@example(FamilySpec("wheel", 12).build())  # 13 vertices: the low part is full, high part 2
@example(FamilySpec("mobius", 7).build())  # 14 vertices: high part 3
@example(FamilySpec("complete", 7).build())
@example(FamilySpec("wheel", 5).build())
@example(FamilySpec("mobius", 4).build())
@example(MultiGraph(0, []))
@example(_crossing_multigraph(255))  # e1 reaches 255, the top of a 1-byte lane
@example(_crossing_multigraph(256))  # the first graph with 2-byte lanes
@given(multigraphs(min_n=0, max_n=9, max_m=20))
def test_scan_matches_reference_in_every_mode_and_plan(g):
    # the scan pins vertex n-1, so it examines the halved stream, yet its best
    # (cost, canonical encoding) must be that of all 2^n labelings; the
    # reference halves at vertex 0, which by symmetry has the same size
    refs = {
        mode: (_reference(g, mode, True)[0], _reference(g, mode, False)[1])
        for mode in ("cordial", "ced", "cvd")
    }

    def check(mode, res):
        examined, best = refs[mode]
        assert res.labelings_examined == examined
        if best is None:
            assert res.value.is_infinite and res.witness is None
        else:
            assert res.value.value == best[0]
            assert res.witness.labels == _labels(best[1], g.n)

    for mode in refs:
        check(mode, _alone(g, mode))
        check(mode, _result(mode, g, _scan(g, (mode,))))


def _recount(g):
    """Every (ones, e1) cell with the least labeling reaching it, from
    balance() on every labeling of each high subset, up to and including the
    first that reaches a cordial cell."""
    low, high = _split(g.n)
    first, cordial = {}, False
    for h in range(1 << high):
        for x in range(h << low, (h + 1) << low):
            rep = balance(g, tuple(x >> i & 1 for i in range(g.n)))
            first.setdefault((rep.v1, rep.e1), x)
            cordial |= abs(rep.v0 - rep.v1) <= 1 and abs(rep.e0 - rep.e1) <= 1
        if cordial:
            break
    return first


def _priced(g, cells, modes):
    """The cells of cells that one of modes prices: every mode prices the
    friendly edge-balanced cells, cvd every edge-balanced one, and ced every
    friendly one when a same-labeled pair exists to add edges at (n > 2)."""
    def priced(ones, e1):
        friendly = abs(g.n - 2 * ones) <= 1
        balanced = abs(g.m - 2 * e1) <= 1
        return balanced and (friendly or "cvd" in modes) or (
            friendly and "ced" in modes and g.n > 2)

    return {cell: x for cell, x in cells.items() if priced(*cell)}


def _scanned(g, cells, modes):
    """What _scan returns, from _recount's cells: the cordial cells alone when
    high subset 0 reaches one, as the scan's first stage then stops on its
    friendly lanes; otherwise every cell that one of modes prices."""
    low = _split(g.n)[0]
    cordial = _priced(g, cells, ("cordial",))
    if cordial and max(x >> low for x in cordial.values()) == 0:
        return cordial
    return _priced(g, cells, modes)


@pytest.fixture
def lane_widths(monkeypatch):
    """The lane width of every scan run in the test, in order."""
    widths = []
    lanes = oracle._lanes

    def spy(low, width):
        widths.append(width)
        return lanes(low, width)

    monkeypatch.setattr(oracle, "_lanes", spy)
    return widths


# every row of the ones counts 0..n looks up only its edge-balanced e1
# values, friendly rows record every e1, and both mix in one scan
_MODE_SETS = (("cvd",), ("ced",), ("ced", "cvd"))


def test_scan_part_matches_a_recount_on_any_high_range(lane_widths):
    # n <= 3 leaves the low part empty, n = 13 and 14 fill it; the crossing
    # multigraphs cut all m edges at once, so m = 255 is the last with 1-byte
    # lanes. Cases alternate lane widths and run twice, so a layout cached
    # for one width and reused for another shows
    rng = random.Random(8)
    narrow, wide = [], []
    for n in (0, 1, 2, 3, 13, 14):
        for m in ((0,) if n < 2 else (12 + n, 255, 256 + n)):
            if m < 255:
                g = MultiGraph(n, [tuple(rng.sample(range(n), 2)) for _ in range(m)])
            else:
                g = _crossing_multigraph(m, n, n // 2)
            full = _recount(g)
            for modes in _MODE_SETS:
                (narrow if m < 256 else wide).append((g, modes, _scanned(g, full, modes)))
    # a dense multigraph on 2-byte lanes with no edge-balanced cell, so ced
    # scans every high subset; its friendly row holds 57 distinct e1 values,
    # each recorded at its least lane
    g = _even_multigraph(14, 2, 400)
    want = _priced(g, _recount(g), ("ced",))
    assert g.m == 414 and len(want) == 57
    wide.append((g, ("ced",), want))
    cases = [c for pair in zip_longest(narrow, wide) for c in pair if c]
    for g, modes, want in cases * 2:
        assert _scan(g, modes) == want
    assert lane_widths == [1 if g.m < 256 else 2 for g, _, _ in cases] * 2


@pytest.mark.parametrize("m", [255, 256])
def test_scan_part_is_exact_when_degree_sums_overflow_a_lane(m, lane_widths):
    # all m edges lie among the 10 low vertices of a 13-vertex graph, so
    # alpha alone sets every lane, and the degree sums of large low subsets
    # pass 255 while no lane does: the packed alpha must never hold them.
    # m = 256 is the twin with 2-byte lanes, as its largest multiplicity, 9,
    # times the 6 * 7 pairs a cut separates is above 256. Both are cordial
    # at high subset 0, so the first stage packs and settles them on the
    # lanes of the friendly groups 6 and 7 alone. Each twin, five copies of
    # the low part's K10 with 28 edges (0, 1) and m - 253 edges (2, 3), has
    # the same lane width; a low subset of j vertices cuts 5 j (10 - j) plus
    # 0, m - 253, 28 or both, which is balanced only at j = 5 with 2 and 3
    # apart. So the first stage misses, and the full-width lanes are packed
    # and read at high subsets 0 and 1, where vertex 10 makes j = 5 friendly
    rng = random.Random(m)
    g = MultiGraph(13, [tuple(rng.sample(range(10), 2)) for _ in range(m)])
    twin = MultiGraph(13, 5 * list(combinations(range(10), 2)) + [(0, 1)] * 28
                      + [(2, 3)] * (m - 253))
    assert _split(13) == (10, 2) and twin.m == m
    full, twin_full = _recount(g), _recount(twin)
    assert min(x >> 10 for x in _priced(twin, twin_full, ("cordial",)).values()) == 1
    for modes in _MODE_SETS:
        assert _scan(g, modes) == _scanned(g, full, modes)
        assert _scan(twin, modes) == _priced(twin, twin_full, modes)
    assert lane_widths == [1 if m < 256 else 2] * (2 * len(_MODE_SETS))


def test_scan_packs_one_byte_lanes_when_no_cut_reaches_256_edges(lane_widths):
    # 52 pairs of 14 vertices, 5 edges each: m = 260 needs 2 bytes, but a cut
    # separates at most 7 * 7 pairs, so every e1 is at most 5 * 49 = 245.
    # g is cordial at high subset 0, so the first stage settles it; its twin,
    # K10 on the low vertices, K4 on the rest and the pair (0, 10), each pair
    # 5 times, cuts 5 (j (10 - j) + a (4 - a)) plus 0 or 5 pairs with j low
    # and a other vertices at 1, never the balanced 130 at 7 ones. So it is
    # not cordial, and every high subset is packed and read on full lanes
    rng = random.Random(14)
    g = MultiGraph(14, 5 * rng.sample(list(combinations(range(14), 2)), 52))
    twin = MultiGraph(14, 5 * [*combinations(range(10), 2), *combinations(range(10, 14), 2),
                               (0, 10)])
    assert g.m == twin.m == 260 and _split(14) == (10, 3)
    full, twin_full = _recount(g), _recount(twin)
    assert not _priced(twin, twin_full, ("cordial",))
    for modes in _MODE_SETS:
        assert _scan(g, modes) == _scanned(g, full, modes)
        assert _scan(twin, modes) == _priced(twin, twin_full, modes)
    assert lane_widths == [1] * (2 * len(_MODE_SETS))


@pytest.mark.parametrize("c, width", [(1, 1), (22, 2)])
def test_balanced_lookup_stays_inside_its_popcount_group(c, width, lane_widths):
    # c edges from each of vertices 0..11 to the pinned vertex 12, so e1 is c
    # times the ones: at high subset 0 the balanced e1, 6c, lies only in
    # group 6, after the groups of rows 0..5, which must not find it there.
    # Row 6 is friendly, so the scan stops at high subset 0. c = 22 gives
    # m = 264 and 2-byte lanes
    g = MultiGraph(13, [(v, 12) for v in range(12) for _ in range(c)])
    assert _scan(g, ("cvd",)) == {(6, 6 * c): 0b111111}
    assert lane_widths == [width]


def _lane_e1(g, h):
    """The e1 of labeling l | h << low for every low subset l, in lane order:
    grouped by popcount, ascending inside each group."""
    low = _split(g.n)[0]
    order = sorted(range(1 << low), key=int.bit_count)
    return [balance(g, _labels(l | h << low, g.n)).e1 for l in order]


def test_scan_matches_a_recount_on_four_byte_lanes(lane_widths):
    # a star at the pinned vertex 4: 33,001 edges from vertex 0 and 11,000
    # from each of 1, 2 and 3, so m = 66,001 and the cut bound needs 4-byte
    # lanes. Row 1 is balanced at high subset 0, and the only friendly
    # balanced cell, {1, 2, 3}, lies in the top high subset, so every high
    # subset is scanned. 4 bytes is the widest lane
    g = MultiGraph(5, [(0, 4)] * 33001 + [(v, 4) for v in (1, 2, 3) for _ in range(11000)])
    full = _recount(g)
    assert full[1, 33001] == 0b1 and full[3, 33000] == 0b1110
    for modes in _MODE_SETS:
        assert _scan(g, modes) == _priced(g, full, modes)
    assert lane_widths == [4] * len(_MODE_SETS)


def test_span_search_skips_a_match_straddling_two_lanes(lane_widths):
    # m = 512, so the balanced e1 is 256, two bytes 0 and 1. At high subset 0
    # the lanes hold 0, 257, 199, 256: in either byte order the bytes of 256
    # first appear across the first two lanes or the middle two, before the
    # lane that holds it. Read as a lane, that match would record a cell of
    # row 0 or 1, which no labeling reaches. The last lane is the friendly
    # group 2, so the first stage settles g there and never reads the others;
    # its twin, one edge moved from (1, 4) to (2, 3), holds 0, 257, 198, 255
    # and is not cordial, so the full scan meets those matches. cvd's lanes
    # hold no 256 at any high subset, so it records no cell at all
    g = MultiGraph(5, [(0, 1)] * 100 + [(0, 4)] * 157 + [(1, 4)] * 99 + [(2, 3)] * 156)
    twin = MultiGraph(5, [(0, 1)] * 100 + [(0, 4)] * 157 + [(1, 4)] * 98 + [(2, 3)] * 157)
    assert _lane_e1(g, 0) == [0, 257, 199, 256] and _lane_e1(twin, 0) == [0, 257, 198, 255]
    for modes in _MODE_SETS:
        assert _scan(g, modes) == _priced(g, _recount(g), modes) == {(2, 256): 0b11}
        assert _scan(twin, modes) == _priced(twin, _recount(twin), modes)
    assert _scan(twin, ("cvd",)) == {}
    assert lane_widths == [2] * (2 * len(_MODE_SETS) + 1)


def test_span_search_goes_on_past_a_cell_recorded_before():
    # m = 5. Cell (1, 3) is first reached at high subset 1, by {2}; at high
    # subset 2, {3} reaches it again in group 0, and {0, 3} first reaches
    # (2, 3) in group 1, which the search must still record
    g = MultiGraph(5, [(0, 1), (0, 3), (2, 3), (2, 3), (2, 4)])
    low = _split(g.n)[0]
    full = _recount(g)
    assert full[1, 3] >> low == 1 and full[2, 3] >> low == 2
    assert _lane_e1(g, 2)[0] == 3
    for modes in _MODE_SETS:
        assert _scan(g, modes) == _priced(g, full, modes)


def test_span_search_covers_runs_below_and_above_whole_rows():
    # a star at the pinned vertex 12: 9 edges from vertex 0 and one from each
    # of 1..9, so m = 18 and an e1 of 9 takes {0} or {1, ..., 9}, with either
    # high vertex added. ced and cvd together look the balanced e1 up below
    # and above ced's whole friendly rows 6 and 7; both runs record a cell at
    # high subsets 0, 1 and 3, and no friendly cell is balanced, so every high
    # subset is scanned
    g = MultiGraph(13, [(0, 12)] * 9 + [(v, 12) for v in range(1, 10)])
    low = _split(g.n)[0]
    full = _recount(g)
    cells = _priced(g, full, ("cvd",))
    assert {(ones, x >> low) for (ones, _), x in cells.items()} == {
        (1, 0), (9, 0), (2, 1), (10, 1), (3, 3), (11, 3)}
    for modes in _MODE_SETS:
        assert _scan(g, modes) == _priced(g, full, modes)


def _even_multigraph(n, seed, m_min):
    """A multigraph on n vertices whose degrees are all even and whose m is 2
    modulo 4: e1 is then always even and m/2 odd, so no labeling is
    edge-balanced, no cell is cordial and every scan runs in full.

    It is a union of triangles, each with one multiplicity: pair-disjoint
    ones among the high vertices and the pinned vertex n-1, with
    multiplicities 2 to 5, then triangles of two low vertices and one of
    those, until m is at least m_min.
    """
    rng = random.Random(seed)
    low = _split(n)[0]
    triangles, used = [], set()
    for tri in rng.sample(list(combinations(range(low, n), 3)), comb(n - low, 3)):
        if used.isdisjoint(combinations(tri, 2)):
            used.update(combinations(tri, 2))
            triangles.append((tri, rng.randint(2, 5)))
    while 3 * sum(c for _, c in triangles) < m_min or sum(c for _, c in triangles) % 4 != 2:
        tri = (*rng.sample(range(low), 2), rng.randrange(low, n))
        triangles.append((tri, rng.randint(1, 5)))
    return MultiGraph(n, [p for tri, c in triangles for p in combinations(tri, 2) for _ in range(c)])


@pytest.mark.parametrize("n, m_min, width", [(16, 0, 1), (17, 0, 1), (16, 256, 2), (17, 256, 2)])
def test_scan_builds_beta_exactly_on_five_and_six_high_vertices(n, m_min, width, lane_widths):
    # beta(h) grows from beta(h & (h - 1)) as h ascends; here it is built for
    # all 2**5 or 2**6 high subsets, from multiplicities up to 5 among the
    # high vertices and edges to the pinned vertex. No cell is edge-balanced,
    # so only ced's whole friendly rows record cells; the seeds are ones whose
    # friendly rows first reach a cell at the top high subset
    seed = {(16, 0): 9, (17, 0): 9, (16, 256): 91, (17, 256): 96}[n, m_min]
    g = _even_multigraph(n, seed, m_min)
    low, high = _split(n)
    assert high == n - 11 and any(v == n - 1 for _, v in g.edges)
    full = _recount(g)  # every stream scans every high subset
    assert _priced(g, full, ("cvd",)) == {}
    whole = _priced(g, full, ("ced",))
    assert max(x >> low for x in whole.values()) == (1 << high) - 1
    for modes in _MODE_SETS:
        assert _scan(g, modes) == _priced(g, full, modes)
    assert lane_widths == [width] * len(_MODE_SETS)


def _planted_cordial_multigraph(n, seed, h=None):
    """A multigraph on n vertices, cordial under a planted labeling whose high
    subset is h: 0, or one high vertex t alone, by default the top one, n-2.

    With a t, vertex 0 links t to the pinned vertex n-1 and every other edge
    has an even multiplicity, so t and n-1 are the only odd-degree vertices
    and e1 is odd exactly when their labels differ. m/2 is odd, so every
    cordial labeling with n-1 labeled 0 labels t with 1, and none has a
    lower high subset. Every high vertex and the pinned one also gets
    multi-edges from two low vertices, one labeled like it and one not.
    """
    rng = random.Random(seed)
    low, high = _split(n)
    if h is None:
        h = 1 << (high - 1)
    t = [low + h.bit_length() - 1] if h else []
    ones = rng.sample(range(low), n // 2 - len(t)) + t
    labels = [int(v in ones) for v in range(n)]
    pairs = list(combinations(range(n), 2))
    mixed = [(u, v) for u, v in pairs if labels[u] != labels[v]]
    same = [(u, v) for u, v in pairs if labels[u] == labels[v]]
    # the planted labeling puts 1 + 2 * 6 of these 26 edges on label 1, or 2 * 6 of 24
    edges = [(0, t[0]), (0, n - 1)] if t else []
    edges += 2 * rng.sample(mixed, 6) + 2 * rng.sample(same, 6)
    for v in range(low, n):  # c of the 2c edges below are on label 1, and 4 divides 2c
        c = 2 * rng.randint(1, 3)
        for like in (True, False):
            u = rng.choice([u for u in range(low) if (labels[u] == labels[v]) == like])
            edges += [(u, v)] * c
    g = MultiGraph(n, edges)
    assert is_cordial(g.edges, labels)
    return g


@pytest.mark.parametrize("n", [13, 14])
def test_scan_stops_at_the_witness_high_subset(n):
    # the witness at high subset 0, where the scan builds none of the high
    # part's terms, at 1, the first that reads them, and at the top
    low, high = _split(n)
    for h in (0, 1, 1 << (high - 1)):
        g = _planted_cordial_multigraph(n, n, h)
        # multi-edges from the low part to every high vertex and the pinned one
        assert {v for u, v in g.edges if u < low <= v and g.edges.count((u, v)) > 1} == set(range(low, n))
        for mode in MEASURES:
            res = solve(g, (mode,))[mode]
            best = _reference(g, mode, False)[1]
            assert res.value.value == best[0] == 0
            assert res.witness.labels == _labels(best[1], n)
            assert best[1] >> low == h
            first = _scan(g, (mode,))
            # nothing above the witness's high subset is scanned and all of
            # it is, except at high subset 0, where the first stage records
            # the cordial cells alone
            assert max(x >> low for x in first.values()) == h
            assert first == _scanned(g, _recount(g), (mode,))


@pytest.mark.parametrize("n, seed, copies, width", [
    (13, 0, 1, 1), (13, 0, 6, 2), (13, 0, 1500, 4), (15, 4, 1, 1), (16, 0, 1, 1)])
def test_first_stage_settles_a_graph_cordial_at_high_subset_zero(n, seed, copies, width,
                                                                lane_widths):
    # a planted graph cordial at high subset 0, every edge repeated copies
    # times: its cordial labelings stay the same, as each has e1 = m/2
    # exactly, and the multiplicities set the lane width. Parallel edges lie
    # inside the low part and run from it to the high part. No friendly
    # group's first lane, (1 << k) - 1, is cordial, so the first stage must
    # find each group's least cordial lane past it; the scan returns just
    # those cells, and every measure takes the least of them as its witness
    low = _split(n)[0]
    g = MultiGraph(n, _planted_cordial_multigraph(n, seed, 0).edges * copies)
    pairs = [g.pairs[i] for i, _ in g.repeats]  # the pairs with parallel edges
    assert any(v < low for _, v in pairs) and any(u < low <= v < n - 1 for u, v in pairs)
    want = _scanned(g, _recount(g), ("cvd",))
    assert want == _priced(g, want, ("cordial",))
    assert {x >> low for x in want.values()} == {0}
    assert all(x != (1 << ones) - 1 for (ones, _), x in want.items())
    for modes in (*_MODE_SETS, ("cordial",)):
        assert _scan(g, modes) == want
    got = solve(g, MEASURES)
    assert {r.value for r in got.values()} == {DeficiencyValue.finite(0)}
    assert {r.witness.labels for r in got.values()} == {_labels(min(want.values()), n)}
    assert lane_widths == [width] * (len(_MODE_SETS) + 2)


def test_first_stage_reads_the_last_lane_of_its_range():
    # vertices 0, 1 and 2 have 5 edges each to the pinned vertex 12 and
    # 3..9 have 3, and 6 edges join the high vertices 10 and 11, so m = 42,
    # and at high subset 0 the e1 of a low subset is its count of edges to
    # 12. Of the friendly groups 6 and 7, only {3, ..., 9} reaches 21, the
    # last lane of group 7 and of the first stage's range. Non-friendly
    # subsets such as {0, 1, 2, 3, 4} reach it too, which cvd would record
    # if the first stage missed
    g = MultiGraph(13, [(v, 12) for v in range(10) for _ in range(5 if v < 3 else 3)]
                   + [(10, 11)] * 6)
    full = _recount(g)
    assert full[5, 21] == 0b11111
    for modes in (*_MODE_SETS, ("cordial",)):
        assert _scan(g, modes) == _scanned(g, full, modes) == {(7, 21): 0b1111111000}


@pytest.mark.parametrize("g", [
    FamilySpec("cycle", 14).build(), FamilySpec("complete", 15).build(),
    _planted_cordial_multigraph(14, 14, 1), _planted_cordial_multigraph(14, 14),
], ids=["C14", "K15", "planted-h1", "planted-top"])
def test_first_stage_miss_leaves_the_full_scan(g):
    # C14 and K15 are not cordial, and the planted graphs are cordial first
    # at high subset 1 and at the top one: high subset 0 reaches no cordial
    # cell on its friendly lanes, so the scan packs every lane and records
    # every candidate cell of the modes, high subset 0 included
    full = _recount(g)
    for modes in (*_MODE_SETS, ("cordial",), MEASURES):
        assert _scan(g, modes) == _priced(g, full, modes)


@pytest.mark.parametrize("n", [2, 3, 4, 21, 22, 23])
def test_first_stage_needs_a_friendly_group_at_high_subset_zero(n):
    # high subset 0 holds the labelings with at most low ones, fewer than
    # n//2 at n = 2, 3 and 4 and, as low is at most LOW_BITS = 10, at
    # n >= 22: there the first stage is empty, and a path's scan goes on to
    # its witness past high subset 0. n = 21 is the last n with a friendly
    # group there, its one lane the top one, the whole low part: a comb of
    # one edge from each low vertex plus a path on the rest is balanced on
    # it, and the first stage settles it there
    low = _split(n)[0]
    if n == 21:
        g = MultiGraph(n, [(v, v + low) for v in range(low)]
                       + [(v, v + 1) for v in range(low, n - 1)])
    else:
        g = FamilySpec("path", n).build()
    full = _recount(g)
    for modes in (*_MODE_SETS, ("cordial",)):
        assert _scan(g, modes) == _scanned(g, full, modes)
    if n == 21:
        assert _scan(g, ("cvd",)) == {(10, 10): (1 << low) - 1}
    else:
        assert min(x >> low for x in _scan(g, ("cordial",)).values()) >= 1


def _key(res):
    witness = res.witness and serialize_certificate(res.witness)
    return res.value, witness, res.labelings_examined


@example(FamilySpec("wheel", 12).build())
@example(FamilySpec("mobius", 7).build())
@example(_crossing_multigraph(256))  # 2-byte lanes
@example(_planted_cordial_multigraph(13, 13))  # settled at the top high subset
@given(multigraphs(max_n=9))
def test_one_scan_answers_any_modes_like_single_mode_calls(g):
    # one scan records the candidate cells of every mode asked for, so every
    # subset of modes must give exactly the single-mode results; so must the
    # one-mode calls from before solve, which take a workers count and ignore it
    cordial = solve(g, ("cordial",))["cordial"]
    alone = {"cordial": _key(cordial), "ced": _key(ced_oracle(g, workers=2))}
    alone["cvd"] = _key(cvd_oracle(g, workers=3))
    ok, f = decide_cordial(g, workers=2)
    assert ok == (cordial.witness is not None)
    assert f == (VertexLabeling(cordial.witness.labels) if ok else None)
    # a cordial graph's modes share one check, whichever mode comes first
    for modes in [s for k in (1, 2, 3) for s in permutations(MEASURES, k)]:
        got = solve(g, modes)
        assert list(got) == list(modes)
        assert {mode: _key(got[mode]) for mode in modes} == {
            mode: alone[mode] for mode in modes
        }


@pytest.mark.parametrize("g, cordial", [
    (FamilySpec("mobius", 4).build(), True), (FamilySpec("complete", 3).build(), True),
    (_crossing_multigraph(256), True), (_planted_cordial_multigraph(13, 13), True),
    (FamilySpec("wheel", 7).build(), False), (FamilySpec("complete", 4).build(), False),
    (FamilySpec("complete", 5).build(), False),
    (MultiGraph(2, [(0, 1)] * 3), False),  # no measure finite
])
def test_a_cordial_graph_settles_every_measure_with_one_check(monkeypatch, g, cordial):
    # a cordial cell prices every measure at 0 with one labeling, so one
    # check issues all three witnesses; a noncordial graph checks each finite
    # ced or cvd witness on its own, and never a cordial one
    checked = []

    def check(cert, graph=None):
        checked.append(cert.kind)
        return check_certificate(cert, graph)

    monkeypatch.setattr(certify, "check_certificate", check)
    got = solve(g, MEASURES)
    finite = [m for m in ("ced", "cvd") if not got[m].value.is_infinite]
    assert (got["cordial"].witness is not None) == cordial
    assert checked == (["cordial"] if cordial else finite)
    if cordial:
        assert {got[m].value for m in MEASURES} == {DeficiencyValue.finite(0)}
        assert len({got[m].witness.labels for m in MEASURES}) == 1
    for m in MEASURES:
        cert = got[m].witness
        assert (cert is None) == got[m].value.is_infinite
        if cert is not None:  # every issued certificate stands on its own
            assert cert.kind == m
            assert check_certificate(cert) == Verdict(True)


def test_no_measure_asked_scans_nothing(monkeypatch):
    # the cap and the measure names are still checked, then nothing is scanned
    def scan(*args):
        raise AssertionError("scanned with no measure asked")

    monkeypatch.setattr(oracle, "_scan", scan)
    assert solve(FamilySpec("complete", 20).build(), ()) == {}
    with pytest.raises(CordialError,
                       match="^graph has 25 vertices; exhaustive search is capped at 24 "):
        solve(FamilySpec("complete", 25).build(), ())
    with pytest.raises(CordialError):
        solve(FamilySpec("complete", 3).build(), ("cordial", "odd"))


@pytest.mark.parametrize("family, n", [("complete", 6), ("mobius", 8)])
def test_compute_loads_only_the_standard_library_and_starts_no_pool(family, n):
    # K6 cvd scans every high subset, M8 cvd stops at its first; neither
    # loads multiprocessing or concurrent.futures at any worker count. The
    # child reports on stdout, so the check holds under python -O too. It
    # runs without site-packages (-S) and names every loaded top-level
    # module outside the standard library, so the package stays stdlib-only
    src = str(Path(oracle.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from cordial.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "top = {name.partition('.')[0] for name in sys.modules}\n"
        "own = {'cordial', '__main__'}\n"
        "print(sorted(top - sys.stdlib_module_names - own))\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
        "sys.exit(status)\n"
    )
    for workers in (1, 2):
        args = ["compute", "--family", family, "--n", str(n), "--measure", "cvd",
                "--method", "oracle", "--workers", str(workers)]
        proc = subprocess.run([sys.executable, "-S", "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]


def test_unknown_measure_is_rejected_before_the_scan(monkeypatch):
    def scan(*task):
        raise AssertionError("scanned before checking the measures")

    monkeypatch.setattr(oracle, "_scan", scan)
    for modes in (("cordail",), ("cvd", "ced", "size"), "cvd"):
        with pytest.raises(CordialError, match="^measures must be among cordial, ced, cvd"):
            solve(FamilySpec("complete", 18).build(), modes)


def test_rejected_witness_raises_self_check_failed(monkeypatch):
    import cordial.certify
    import cordial.families

    def reject(cert, graph=None):
        return Verdict(False, "forced")

    monkeypatch.setattr(cordial.certify, "check_certificate", reject)
    for mode in ("ced", "cvd"):
        with pytest.raises(SelfCheckFailed):
            _alone(FamilySpec("complete", 4).build(), mode)
    with pytest.raises(SelfCheckFailed):
        _alone(FamilySpec("cycle", 4).build(), "cordial")
    with pytest.raises(SelfCheckFailed):
        cordial.families.complete_ced_witness(6)
    with pytest.raises(SelfCheckFailed):
        cordial.families.family_certificates("complete", 6)


def test_scan_witness_is_checked_on_the_scanned_graph(monkeypatch):
    # the oracle hands the checker the graph it scanned, so no witness builds
    # a second MultiGraph; a graph that is not the certificate's own, by its
    # edges object or its n, is ignored: the certificate's graph is built and
    # validated instead. The forged graphs below skip MultiGraph's checks
    built = []
    new = MultiGraph.__new__

    def spy(cls, n, edges):
        built.append(n)
        return new(cls, n, edges)

    graphs = (FamilySpec("cycle", 4).build(), FamilySpec("wheel", 7).build(),
              _crossing_multigraph(256))
    monkeypatch.setattr(MultiGraph, "__new__", spy)
    witnesses = {g: [r.witness for r in solve(g, MEASURES).values() if r.witness]
                 for g in graphs}
    assert built == []
    for g, certs in witnesses.items():
        assert certs and all(w.edges is g.edges for w in certs)
        assert all(check_certificate(w, graph=g).accepted for w in certs)
    assert built == []

    def forged(n, edges):
        return tuple.__new__(MultiGraph, (n, edges))

    # rejected on its own three edges, accepted on the one edge of the stand-in
    cert = Certificate("cordial", (0, 1), 0, n=2, edges=((0, 1),) * 3)
    for stand_in in (MultiGraph(2, [(0, 1)]), forged(2, ((0, 1),)), forged(3, cert.edges)):
        built.clear()
        assert not check_certificate(cert, graph=stand_in).accepted
        assert built == [2]
    loop = Certificate("cordial", (0, 1), 0, n=2, edges=((0, 0),))
    for stand_in in (forged(2, tuple([(0, 0)])), forged(3, loop.edges)):
        with pytest.raises(MalformedCertificate, match="loop"):
            check_certificate(loop, graph=stand_in)


# --------------------------------------------------------- frozen values


def test_complete_edge_deficiency_frozen():
    expected = {2: 0, 3: 0, 4: 1, 5: 1, 6: 2, 7: 2, 8: 3, 9: 3, 10: 4}
    for n, want in expected.items():
        g = FamilySpec("complete", n).build()
        assert _alone(g, "ced").value == DeficiencyValue.finite(want)


def test_complete_vertex_deficiency_frozen():
    finite = {1: 0, 2: 0, 3: 0, 4: 1, 6: 1, 7: 2, 9: 2}
    for n, want in finite.items():
        g = FamilySpec("complete", n).build()
        assert _alone(g, "cvd").value == DeficiencyValue.finite(want)
    for n in (5, 8, 10):
        value = _alone(FamilySpec("complete", n).build(), "cvd").value
        assert value.is_infinite
        assert value.reason is InfinityReason.STRICTLY_NONCORDIAL
        assert value.describe() == "infinity (StrictlyNoncordial)"


def _is_cordial(g, **kw):
    return _alone(g, "cordial", **kw).witness is not None


def test_cycle_cordiality_frozen():
    for n in range(3, 11):
        assert _is_cordial(FamilySpec("cycle", n).build()) == (n % 4 != 2)


def test_wheel_cordiality_frozen():
    for n in range(3, 11):
        assert _is_cordial(FamilySpec("wheel", n).build()) == (n % 4 != 3)


def test_mobius_cordiality_frozen():
    for k in range(3, 8):
        assert _is_cordial(FamilySpec("mobius", k).build()) == (k % 4 != 2)


def test_every_path_is_cordial():
    for n in range(1, 9):
        assert _is_cordial(FamilySpec("path", n).build())


def test_edge_deficiency_can_be_infinite():
    # a triple edge: only mixed labelings are friendly, all edges land on 1,
    # and no same-labeled pair exists to absorb additions
    g = MultiGraph(2, [(0, 1)] * 3)
    value = _alone(g, "ced").value
    assert value.is_infinite
    assert value.reason is InfinityReason.NO_FEASIBLE_AUGMENTATION
    assert _alone(g, "cvd").value.reason is InfinityReason.STRICTLY_NONCORDIAL


# ------------------------------------------------- witnesses, determinism


def test_witnesses_are_accepted_and_claim_the_value():
    for member in (("complete", 6), ("wheel", 7), ("mobius", 6), ("cycle", 6)):
        g = FamilySpec(*member).build()
        for res in (_alone(g, "ced"), _alone(g, "cvd")):
            if res.value.is_infinite:
                assert res.witness is None
            else:
                assert res.witness.claimed_value == res.value.value
                assert check_certificate(res.witness).accepted


def test_cordial_witness_is_cordial_and_scan_invariant():
    g = FamilySpec("cycle", 4).build()
    f = _alone(g, "cordial").witness.labels
    assert is_cordial(g.edges, f)
    # the same canonical witness as a search over every labeling
    assert f == _labels(_reference(g, "cordial", False)[1][1], g.n)


def test_cross_validate_and_compute_scan_each_graph_once(monkeypatch, capsys):
    calls = []
    scan = oracle._scan

    def counted(*task):
        calls.append(task)
        return scan(*task)

    monkeypatch.setattr(oracle, "_scan", counted)
    assert cross_validate([FamilySpec("wheel", 6)]).all_match
    assert len(calls) == 1
    assert cli.main(["compute", "--family", "wheel", "--n", "6"]) == 0
    assert len(calls) == 2
    assert "cvd MATCH" in capsys.readouterr().out


def test_size_cap_is_enforced_and_overridable():
    g = FamilySpec("path", 6).build()
    with pytest.raises(CordialError,
                       match="^graph has 6 vertices; exhaustive search is capped at 5 "):
        _is_cordial(g, max_vertices=5)
    assert _is_cordial(g, max_vertices=6)


def test_deficiency_value_rendering():
    assert DeficiencyValue.finite(3).render() == "3"
    assert DeficiencyValue.finite(3).describe() == "3"
    inf = DeficiencyValue.infinite(InfinityReason.NO_FEASIBLE_AUGMENTATION)
    assert inf.render() == "infinity"
    assert inf.describe() == "infinity (NoFeasibleAugmentation)"
    with pytest.raises(CordialError, match="^deficiencies are non-negative$"):
        DeficiencyValue.finite(-1)
