"""Exhaustive search: agreement with a definitional reference, determinism,
and frozen small values.

The reference implementations here work straight from the definitions with
no bit tricks, so they can arbitrate the packed scans.
"""

import math
import os
import random
import subprocess
import sys
from concurrent.futures import Future
from itertools import combinations, count, zip_longest
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given

from cordial import (
    DeficiencyValue,
    FamilySpec,
    InfinityReason,
    SizeLimitExceeded,
    Verdict,
    VertexLabeling,
    balance,
    ced_oracle,
    check_certificate,
    complete_graph,
    cross_validate,
    cvd_oracle,
    cycle_graph,
    decide_cordial,
    is_cordial_labeling,
    mobius_ladder,
    new_graph,
    path_graph,
    serialize_certificate,
    wheel_graph,
)
from cordial import cli, oracle
from cordial.errors import CordialError, SelfCheckFailed
from cordial.oracle import (
    MEASURES,
    _ones_range,
    _reduce,
    _result,
    _scan_part,
    _scan_plan,
    _split,
    solve,
)
from strategies import multigraphs

# ------------------------------------------------- definitional references


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
        f = VertexLabeling.from_encoding(x, g.n)
        rep = balance(g, f)
        if mode != "cvd" and rep.vertex_diff > 1:
            continue
        examined += 1
        if rep.edge_diff <= 1:
            cost = max(0, rep.vertex_diff - 1) if mode == "cvd" else 0
        elif mode == "ced":
            minority = 0 if rep.e1 > rep.e0 else 1
            pairs = (
                f[u] ^ f[v] == minority
                for u in range(g.n)
                for v in range(u + 1, g.n)
            )
            if not any(pairs):
                continue
            cost = rep.edge_diff - 1
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
    return new_graph(n, edges)


def _crossing_multigraph(m, n=7, side=3):
    """m parallel-heavy edges between vertices 0..side-1 and the rest, so the
    labeling with exactly 0..side-1 labeled 1 puts all m edges on label 1."""
    rng = random.Random(m)
    return new_graph(n, [(rng.randrange(side), rng.randrange(side, n)) for _ in range(m)])


# ------------------------------------------------------ scan vs definition


@pytest.mark.parametrize("seed", range(25))
def test_oracles_match_definitional_brute_force(seed):
    g = _random_graph(random.Random(seed))
    assert decide_cordial(g)[0] == _brute_cordial(g)
    ced = ced_oracle(g).value
    want = _brute_ced(g)
    assert (ced.value if not ced.is_infinite else None) == want
    cvd = cvd_oracle(g).value
    want = _brute_cvd(g)
    assert (cvd.value if not cvd.is_infinite else None) == want


def test_scan_visits_every_friendly_labeling_exactly_once():
    # vertex n-1 is pinned at label 0, so one labeling of each complement pair
    assert ced_oracle(complete_graph(6)).labelings_examined == comb(5, 3)
    empty = new_graph(0, [])
    assert cvd_oracle(empty).labelings_examined == 1
    assert decide_cordial(empty) == (True, VertexLabeling(()))


@example(wheel_graph(12))  # 13 vertices: the low part is full, high part 2
@example(mobius_ladder(7))  # 14 vertices: high part 3
@example(complete_graph(7))
@example(wheel_graph(5))
@example(mobius_ladder(4))
@example(new_graph(0, []))
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
            assert res.witness.labels == VertexLabeling.from_encoding(best[1], g.n).labels

    ok, f = decide_cordial(g)
    best = refs["cordial"][1]
    assert ok == (best is not None)
    assert f == (VertexLabeling.from_encoding(best[1], g.n) if ok else None)
    check("ced", ced_oracle(g))
    check("cvd", cvd_oracle(g))

    with mock.patch("os.cpu_count", return_value=64):
        plans = [_scan_plan(g.n, w) for w in (2, 3)]
    for plan in plans:
        for mode in refs:
            ones = _ones_range((mode,), g.n)
            task = (g.n, g.edges, ones[0], ones[-1])
            parts = [_scan_part(*task, *h) for h in plan]
            check(mode, _result(mode, g, _reduce(parts)))


def _recount(g, min_ones, max_ones, h_lo, h_hi):
    """_scan_part's cells from balance() on every labeling of each high subset
    in [h_lo, h_hi), up to and including the first that reaches a cordial cell."""
    low = _split(g.n)[0]
    first, cordial = {}, False
    for h in range(h_lo, h_hi):
        for x in range(h << low, (h + 1) << low):
            rep = balance(g, VertexLabeling.from_encoding(x, g.n))
            if min_ones <= rep.v1 <= max_ones:
                first.setdefault((rep.v1, rep.e1), x)
                cordial |= rep.vertex_diff <= 1 and rep.edge_diff <= 1
        if cordial:
            break
    return first


def _holds_cordial_cell(g, cells):
    return any(abs(g.n - 2 * v1) <= 1 and abs(g.m - 2 * e1) <= 1 for v1, e1 in cells)


def test_scan_part_matches_a_recount_on_any_high_range():
    # n <= 3 leaves the low part empty, n = 13 and 14 fill it; m = 255 is the
    # last graph with 1-byte lanes. Cases alternate lane widths and run
    # twice, so a layout cached for one width and reused for another shows
    rng = random.Random(8)
    narrow, wide = [], []
    for n in (0, 1, 2, 3, 13, 14):
        for m in ((0,) if n < 2 else (12 + n, 255, 256 + n)):
            if m < 255:
                g = new_graph(n, [tuple(rng.sample(range(n), 2)) for _ in range(m)])
            else:
                g = _crossing_multigraph(m, n, n // 2)
            size = 1 << _split(n)[1]
            lo = rng.randrange(size)
            hi = min(size, lo + rng.randint(1, 2))
            for ones in (_ones_range(("cvd",), n), _ones_range(("ced",), n)):
                (narrow if m < 256 else wide).append((g, ones[0], ones[-1], lo, hi))
    cases = [c for pair in zip_longest(narrow, wide) for c in pair if c]
    for g, *task in cases * 2:
        assert _scan_part(g.n, g.edges, *task) == _recount(g, *task)


@pytest.mark.parametrize("m", [255, 256])
def test_scan_part_is_exact_when_degree_sums_overflow_a_lane(m):
    # all m edges lie among the 10 low vertices of a 13-vertex graph, so the
    # lanes of large low subsets sum degrees past 255 before twice the pairs
    # inside them are taken off; m = 256 is the twin with 2-byte lanes
    rng = random.Random(m)
    g = new_graph(13, [tuple(rng.sample(range(10), 2)) for _ in range(m)])
    assert _split(13) == (10, 2)
    for ones in (_ones_range(("cvd",), 13), _ones_range(("ced",), 13)):
        task = (ones[0], ones[-1], 0, 4)
        assert _scan_part(g.n, g.edges, *task) == _recount(g, *task)


def _planted_cordial_multigraph(n, seed):
    """A multigraph on n vertices, cordial under a planted labeling whose high
    subset holds the top high vertex t = n-2 alone.

    Vertex 0 links t to the pinned vertex n-1 and every other edge is
    doubled, so t and n-1 are the only odd-degree vertices and e1 is odd
    exactly when their labels differ. m/2 is odd, so every cordial labeling
    with n-1 labeled 0 labels t with 1, and none has a lower high subset.
    """
    rng = random.Random(seed)
    low = _split(n)[0]
    ones = rng.sample(range(low), n // 2 - 1) + [n - 2]
    labels = [int(v in ones) for v in range(n)]
    pairs = list(combinations(range(n), 2))
    mixed = [(u, v) for u, v in pairs if labels[u] != labels[v]]
    same = [(u, v) for u, v in pairs if labels[u] == labels[v]]
    # m = 26 and the planted labeling puts 1 + 2 * 6 = m/2 edges on label 1
    edges = [(0, n - 2), (0, n - 1)] + 2 * rng.sample(mixed, 6) + 2 * rng.sample(same, 6)
    g = new_graph(n, edges)
    assert is_cordial_labeling(g, VertexLabeling(tuple(labels)))
    return g


@pytest.mark.parametrize("n", [13, 14])
def test_scan_stops_at_the_witness_high_subset(n):
    g = _planted_cordial_multigraph(n, n)
    low, high = _split(n)
    top = 1 << (high - 1)  # the high subset of the planted labeling
    for mode in MEASURES:
        res = solve(g, (mode,))[mode]
        best = _reference(g, mode, False)[1]
        assert res.value.value == best[0] == 0
        assert res.witness.labels == VertexLabeling.from_encoding(best[1], n).labels
        assert best[1] >> low == top
        ones = _ones_range((mode,), n)
        first = _scan_part(n, g.edges, ones[0], ones[-1], 0, 1 << high)
        # nothing above the witness's high subset is scanned, all of it is
        assert max(x >> low for x in first.values()) == top
        assert first == _recount(g, ones[0], ones[-1], 0, 1 << high)


@pytest.mark.parametrize("n", [13, 14])
def test_each_part_stops_on_its_own_and_reduce_keeps_the_least(n):
    # the planted graph reaches cordial cells only in the later parts of a
    # plan; the mobius ladder or wheel reaches one in every high subset, so
    # every part stops at its first
    low, high = _split(n)
    late = _planted_cordial_multigraph(n, n)
    early = mobius_ladder(7) if n == 14 else wheel_graph(12)
    ones = _ones_range(("cvd",), n)
    with mock.patch("os.cpu_count", return_value=64):
        plans = [_scan_plan(n, w) for w in (2, 3)]
    for g in (late, early):
        task = (n, g.edges, ones[0], ones[-1])
        whole = _result("cvd", g, _scan_part(*task, 0, 1 << high))
        for plan in plans:
            parts = [_scan_part(*task, *h) for h in plan]
            stops = [_holds_cordial_cell(g, cells) for cells in parts]
            if g is late:
                assert not stops[0] and stops[-1]
            else:
                assert all(stops)
                assert [max(x >> low for x in cells.values()) for cells in parts] == [
                    lo for lo, _ in plan
                ]
            reduced = _reduce(parts)
            assert reduced == {
                cell: min(cells[cell] for cells in parts if cell in cells)
                for cell in set().union(*parts)
            }
            got = _result("cvd", g, reduced)
            assert got.value == whole.value
            assert got.witness.labels == whole.witness.labels


def _key(res):
    witness = res.witness and serialize_certificate(res.witness)
    return res.value, witness, res.labelings_examined


class _InlinePool:
    """Stands in for the process pool: runs each part in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    map = staticmethod(map)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@example(wheel_graph(12))
@example(mobius_ladder(7))
@given(multigraphs(max_n=9))
def test_one_scan_answers_any_modes_like_single_mode_calls(g):
    # a multi-part plan reduces the parts' cells, so every subset of modes on
    # every plan must give exactly the single-mode, single-part results; the
    # pool runs in process here, test_worker_count_does_not_change_results
    # starts real worker processes
    cordial = solve(g, ("cordial",))["cordial"]
    alone = {"cordial": _key(cordial), "ced": _key(ced_oracle(g))}
    alone["cvd"] = _key(cvd_oracle(g))
    ok, f = decide_cordial(g)
    assert ok == (cordial.witness is not None)
    assert f == (VertexLabeling(cordial.witness.labels) if ok else None)
    subsets = [s for k in (1, 2, 3) for s in combinations(MEASURES, k)]
    with mock.patch("os.cpu_count", return_value=64), \
            mock.patch("concurrent.futures.ProcessPoolExecutor", _InlinePool):
        for workers in (1, 2, 3):
            plan = _scan_plan(g.n, workers)
            assert len(plan) == min(workers, 1 << _split(g.n)[1])
            for modes in subsets:
                got = solve(g, modes, workers=workers)
                assert list(got) == list(modes)
                assert {mode: _key(got[mode]) for mode in modes} == {
                    mode: alone[mode] for mode in modes
                }


class _NoPool:
    def __init__(self, max_workers):
        raise RuntimeError("a scan that needs no pool started one")


@pytest.mark.parametrize("g", [mobius_ladder(7), wheel_graph(12)], ids=["M7", "W12"])
def test_scan_settled_by_the_first_high_subset_starts_no_pool(g):
    alone = {mode: _key(solve(g, (mode,))[mode]) for mode in MEASURES}
    assert _holds_cordial_cell(g, _scan_part(g.n, g.edges, 0, g.n, 0, 1))
    with mock.patch("os.cpu_count", return_value=64), \
            mock.patch("concurrent.futures.ProcessPoolExecutor", _NoPool):
        for workers in (2, 3):
            assert len(_scan_plan(g.n, workers)) == workers
            got = solve(g, MEASURES, workers=workers)
            assert {mode: _key(got[mode]) for mode in MEASURES} == alone


def _recording_pool(log):
    """An in-process pool that logs its size and the high ranges it maps."""

    class Pool(_InlinePool):
        def __init__(self, max_workers):
            log.append(max_workers)

        def map(self, fn, *columns):
            log.extend(zip(*columns[-2:]))
            return map(fn, *columns)

    return Pool


@pytest.mark.parametrize("n", [13, 14])
def test_unsettled_scan_starts_one_process_per_later_part(n, free_pool):
    # at no pool cost the caller hands off after high subset 0 and scans the
    # first range of the rest itself, so a pool of len(parts) - 1 processes
    # gets exactly the later ranges; K7 reaches no cordial cell and the
    # planted graph reaches its first in a later range
    for g in (complete_graph(7), _planted_cordial_multigraph(n, n)):
        alone = {mode: _key(solve(g, (mode,))[mode]) for mode in MEASURES}
        assert not _holds_cordial_cell(g, _scan_part(g.n, g.edges, 0, g.n, 0, 1))
        for workers in (2, 3):
            log = []
            with mock.patch("os.cpu_count", return_value=64), \
                    mock.patch("concurrent.futures.ProcessPoolExecutor",
                               _recording_pool(log)):
                parts = _scan_plan(g.n, workers, 1)
                assert len(parts) == len(_scan_plan(g.n, workers))
                for modes in [(mode,) for mode in MEASURES] + [MEASURES]:
                    log.clear()
                    got = solve(g, modes, workers=workers)
                    assert log == [len(parts) - 1, *parts[1:]]
                    assert {mode: _key(got[mode]) for mode in modes} == {
                        mode: alone[mode] for mode in modes
                    }


@pytest.mark.parametrize("n", [13, 14])
def test_scan_that_ends_before_a_pool_pays_starts_no_pool(n, monkeypatch):
    # a pool that costs more than any scan keeps the caller scanning alone to
    # a cordial stop or the end of the range, with no process started
    monkeypatch.setattr(oracle, "_pool_cost", math.inf)
    for g in (complete_graph(7), _planted_cordial_multigraph(n, n)):
        alone = {mode: _key(solve(g, (mode,))[mode]) for mode in MEASURES}
        with mock.patch("os.cpu_count", return_value=64), \
                mock.patch("concurrent.futures.ProcessPoolExecutor", _NoPool):
            for workers in (2, 3):
                assert len(_scan_plan(g.n, workers)) == workers
                got = solve(g, MEASURES, workers=workers)
                assert {mode: _key(got[mode]) for mode in MEASURES} == alone


@example(complete_graph(7))
@example(_planted_cordial_multigraph(14, 14))
@example(_crossing_multigraph(256, 14, 7))  # 2-byte lanes, 8 high subsets
@given(multigraphs(max_n=9))
def test_results_do_not_depend_on_the_hand_off_point(g):
    # a stub clock ticks once per reading, so a pool cost of h hands off at
    # high subset h: the caller has scanned 0..h-1 alone, and the rest is
    # split, unless a cordial cell settled the scan first
    subsets = [s for k in (1, 2, 3) for s in combinations(MEASURES, k)]
    alone = {modes: solve(g, modes) for modes in subsets}
    size = 1 << _split(g.n)[1]
    log = []
    with mock.patch("os.cpu_count", return_value=64), \
            mock.patch("concurrent.futures.ProcessPoolExecutor", _recording_pool(log)):
        for h in range(1, size + 1):
            settled = _holds_cordial_cell(g, _scan_part(g.n, g.edges, 0, g.n, 0, h))
            for workers in (2, 3):
                rest = _scan_plan(g.n, workers, h)[1:]
                for modes in subsets:
                    log.clear()
                    with mock.patch.object(oracle, "_pool_cost", h), \
                            mock.patch.object(oracle, "perf_counter", count().__next__):
                        got = solve(g, modes, workers=workers)
                    assert log == ([] if settled or not rest else [len(rest), *rest])
                    assert {mode: _key(r) for mode, r in got.items()} == {
                        mode: _key(r) for mode, r in alone[modes].items()
                    }


@pytest.mark.parametrize("family,n,loaded", [("mobius", 8, False), ("complete", 6, True)])
def test_two_worker_compute_loads_multiprocessing_only_for_a_pool(family, n, loaded):
    # M8 reaches a cordial cell in its first high subset, K6 never does. One
    # worker goes through the same hand-off as two, and a fresh process hands
    # off after high subset 0, yet its one-range plan has nothing to share, so
    # it starts no pool even for K6. The child reports on stdout, so the check
    # holds under python -O too. It runs without site-packages (-S) and names
    # every loaded top-level module outside the standard library, so the
    # package stays stdlib-only
    src = str(Path(oracle.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import os, sys\n"
        "os.cpu_count = lambda: 2  # a two-part plan on any machine\n"
        "from cordial.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "top = {name.partition('.')[0] for name in sys.modules}\n"
        "own = {'cordial', '__main__', '__mp_main__'}\n"
        "print(sorted(top - sys.stdlib_module_names - own))\n"
        "print('multiprocessing' in sys.modules)\n"
        "sys.exit(status)\n"
    )
    for workers in (1, 2):
        args = ["compute", "--family", family, "--n", str(n), "--measure", "cvd",
                "--method", "oracle", "--workers", str(workers)]
        proc = subprocess.run([sys.executable, "-S", "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["[]", str(loaded and workers == 2)]


def test_scan_plan_clamps_parts_and_tiles_the_high_subsets(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    size = 1 << _split(20)[-1]
    assert _scan_plan(20, 8) == [(0, size // 2), (size // 2, size)]
    assert _scan_plan(20, 1) == [(0, size)]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert len(_scan_plan(20, 8)) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    plan = _scan_plan(20, 3)
    assert [lo for lo, _ in plan[1:]] == [hi for _, hi in plan[:-1]]
    assert plan[0][0] == 0 and plan[-1][1] == size and len(plan) == 3
    # a tiny graph has few high subsets, so it never gets more parts than that
    assert len(_scan_plan(3, 64)) == 1 << _split(3)[-1]
    assert len(_scan_plan(0, 64)) == 1
    # a range that starts above 0 is tiled the same way, and one shorter than
    # the part count gets one part per high subset, an empty one none
    assert _scan_plan(20, 3, 5) == [(5, 5 + (size - 5) // 3),
                                    (5 + (size - 5) // 3, 5 + 2 * (size - 5) // 3),
                                    (5 + 2 * (size - 5) // 3, size)]
    assert _scan_plan(20, 3, size - 2) == [(size - 2, size - 1), (size - 1, size)]
    assert _scan_plan(20, 1, size - 1) == [(size - 1, size)]
    assert _scan_plan(20, 3, size) == _scan_plan(20, 1, size) == []


def test_worker_count_below_one_is_rejected():
    for bad in (0, -1):
        with pytest.raises(CordialError, match="workers"):
            _scan_plan(6, bad)
        with pytest.raises(CordialError, match="workers"):
            ced_oracle(complete_graph(4), workers=bad)


def test_rejected_witness_raises_self_check_failed(monkeypatch):
    import cordial.certify
    import cordial.families

    def reject(cert):
        return Verdict(False, "forced")

    monkeypatch.setattr(cordial.certify, "check_certificate", reject)
    for oracle in (ced_oracle, cvd_oracle):
        with pytest.raises(SelfCheckFailed):
            oracle(complete_graph(4))
    with pytest.raises(SelfCheckFailed):
        decide_cordial(cycle_graph(4))
    with pytest.raises(SelfCheckFailed):
        cordial.families.complete_ced_witness(6)
    with pytest.raises(SelfCheckFailed):
        cordial.families.family_certificates("complete", 6)


# --------------------------------------------------------- frozen values


def test_complete_edge_deficiency_frozen():
    expected = {2: 0, 3: 0, 4: 1, 5: 1, 6: 2, 7: 2, 8: 3, 9: 3, 10: 4}
    for n, want in expected.items():
        assert ced_oracle(complete_graph(n)).value == DeficiencyValue.finite(want)


def test_complete_vertex_deficiency_frozen():
    finite = {1: 0, 2: 0, 3: 0, 4: 1, 6: 1, 7: 2, 9: 2}
    for n, want in finite.items():
        assert cvd_oracle(complete_graph(n)).value == DeficiencyValue.finite(want)
    for n in (5, 8, 10):
        value = cvd_oracle(complete_graph(n)).value
        assert value.is_infinite
        assert value.reason is InfinityReason.STRICTLY_NONCORDIAL
        assert value.describe() == "infinity (StrictlyNoncordial)"


def test_cycle_cordiality_frozen():
    for n in range(3, 11):
        assert decide_cordial(cycle_graph(n))[0] == (n % 4 != 2)


def test_wheel_cordiality_frozen():
    for n in range(3, 11):
        assert decide_cordial(wheel_graph(n))[0] == (n % 4 != 3)


def test_mobius_cordiality_frozen():
    for k in range(3, 8):
        assert decide_cordial(mobius_ladder(k))[0] == (k % 4 != 2)


def test_every_path_is_cordial():
    for n in range(1, 9):
        assert decide_cordial(path_graph(n))[0]


def test_edge_deficiency_can_be_infinite():
    # a triple edge: only mixed labelings are friendly, all edges land on 1,
    # and no same-labeled pair exists to absorb additions
    g = new_graph(2, [(0, 1)] * 3)
    value = ced_oracle(g).value
    assert value.is_infinite
    assert value.reason is InfinityReason.NO_FEASIBLE_AUGMENTATION
    assert cvd_oracle(g).value.reason is InfinityReason.STRICTLY_NONCORDIAL


# ------------------------------------------------- witnesses, determinism


def test_witnesses_are_accepted_and_claim_the_value():
    for g in (complete_graph(6), wheel_graph(7), mobius_ladder(6), cycle_graph(6)):
        for res in (ced_oracle(g), cvd_oracle(g)):
            if res.value.is_infinite:
                assert res.witness is None
            else:
                assert res.witness.claimed_value == res.value.value
                assert check_certificate(res.witness).accepted


def test_cordial_witness_is_cordial_and_scan_invariant():
    g = cycle_graph(4)
    ok, f = decide_cordial(g)
    assert ok and is_cordial_labeling(g, f)
    # the same canonical witness as a search over every labeling
    assert f == VertexLabeling.from_encoding(_reference(g, "cordial", False)[1][1], g.n)


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


def test_worker_count_does_not_change_results(free_pool):
    # W5 is settled by its first high subset; K6 and the 256-edge crossing
    # multigraph start the real pool, the latter on 2-byte lanes, whose new
    # e1 values a set difference finds
    for g in (wheel_graph(5), complete_graph(6), _crossing_multigraph(256)):
        runs = [ced_oracle(g, workers=w) for w in (1, 2, 5)]
        assert len({(r.value, r.witness, r.labelings_examined) for r in runs}) == 1


def test_size_cap_is_enforced_and_overridable():
    g = path_graph(6)
    with pytest.raises(SizeLimitExceeded):
        decide_cordial(g, max_vertices=5)
    assert decide_cordial(g, max_vertices=6)[0]


def test_deficiency_value_rendering():
    assert DeficiencyValue.finite(3).render() == "3"
    assert DeficiencyValue.finite(3).describe() == "3"
    inf = DeficiencyValue.infinite(InfinityReason.NO_FEASIBLE_AUGMENTATION)
    assert inf.render() == "infinity"
    assert inf.describe() == "infinity (NoFeasibleAugmentation)"
    with pytest.raises(ValueError):
        DeficiencyValue.finite(-1)
