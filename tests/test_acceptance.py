"""Acceptance gate: one test per primary requirement, with wall-clock budgets.

Each test prints a single `[criterion N] PASS/FAIL` line (visible with -s or
in captured output); under -v the per-test verdicts map one-to-one onto the
criteria.
"""

import random
import time
from contextlib import contextmanager

import pytest
from strategies import is_cordial

import cordial as c
from cordial.families import _mobius_labels


@contextmanager
def criterion(num: int, desc: str, budget: float):
    t0 = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - t0
        if elapsed >= budget:
            raise AssertionError(
                f"criterion {num} took {elapsed:.1f}s, budget {budget:.0f}s"
            )
    except BaseException:
        print(f"[criterion {num}] FAIL: {desc}")
        raise
    print(f"[criterion {num}] PASS: {desc} ({elapsed:.1f}s)")


def test_criterion_1_complete_edge_deficiency():
    with criterion(1, "complete graphs n=2..12: search equals floor(n/2)-1", 60.0):
        for n in range(2, 13):
            want = c.DeficiencyValue.finite(n // 2 - 1)
            res = c.ced_oracle(c.complete_graph(n))
            assert res.value == want
            assert c.ced_complete(n) == want
            assert res.witness.claimed_value == n // 2 - 1
            assert c.check_certificate(res.witness).accepted


def test_criterion_2_complete_vertex_deficiency():
    finite = {1: 0, 2: 0, 3: 0, 4: 1, 6: 1, 7: 2, 9: 2, 11: 2, 14: 3}
    desc = "complete graphs n=1..14: vertex deficiency table, size-2 divergence flagged"
    with criterion(2, desc, 300.0):
        for n in range(1, 15):
            res = c.cvd_oracle(c.complete_graph(n))
            if n in finite:
                assert res.value == c.DeficiencyValue.finite(finite[n])
                assert c.check_certificate(res.witness).accepted
            else:
                assert n in (5, 8, 10, 12, 13)
                assert res.value.is_infinite
                assert res.value.reason is c.InfinityReason.STRICTLY_NONCORDIAL
            assert c.cvd_complete(n) == res.value
        # the square-rule reading gives 1 at n=2; the tooling must surface it
        assert c.cvd_complete_literal(2) == c.DeficiencyValue.finite(1)
        assert c.cvd_complete(2) == c.DeficiencyValue.finite(0)
        report = c.cross_validate(
            [c.FamilySpec("complete", n) for n in range(1, 15)]
        )
        flagged = next(r for r in report.rows if r.size == 2)
        assert flagged.match is False
        assert any("square-rule" in note for note in flagged.notes)
        assert all(r.match for r in report.rows if r.size != 2)


def test_criterion_3_complete_cordiality():
    with criterion(3, "complete graphs n=1..8: cordial exactly when n <= 3", 10.0):
        for n in range(1, 9):
            g = c.complete_graph(n)
            ok, witness = c.decide_cordial(g)
            assert ok == (n <= 3) == c.is_cordial_complete(n)
            if ok:
                assert is_cordial(g.edges, witness.labels)
            else:
                assert witness is None


def test_criterion_4_mobius_cordiality_and_constructions():
    desc = "mobius ladders: search verdicts k=3..10, constructions through k=200"
    with criterion(4, desc, 300.0):
        for k in range(3, 11):
            assert c.decide_cordial(c.mobius_ladder(k))[0] == (k % 4 != 2)
            assert c.is_cordial_mobius(k) == (k % 4 != 2)
        for k in range(3, 201):
            if k % 4 == 2:
                with pytest.raises(c.NotApplicable):
                    c.construct_mobius_labeling(k)
                continue
            t0 = time.monotonic()
            cert = c.construct_mobius_labeling(k)
            assert time.monotonic() - t0 < 1.0
            assert (cert.kind, cert.family, cert.param) == ("cordial", "mobius", k)
            assert c.check_certificate(cert).accepted


def test_criterion_5_mobius_deficiencies():
    desc = ("mobius ladders 2 mod 4: deficiencies equal 1, witnesses through 200,"
            " parity lower bound")
    with criterion(5, desc, 300.0):
        one = c.DeficiencyValue.finite(1)
        for k in (6, 10):
            g = c.mobius_ladder(k)
            assert c.ced_oracle(g).value == one
            assert c.cvd_oracle(g).value == one
        # the pinned seed balance: two edges apart before the single repair
        seed = c.mobius_ced_witness(6)
        rep = c.balance(c.mobius_ladder(6), c.VertexLabeling(seed.labels))
        assert (rep.e0, rep.e1) == (10, 8)
        for k in range(6, 201, 4):
            ced_w = c.mobius_ced_witness(k)
            cvd_w = c.mobius_cvd_witness(k)
            assert ced_w.claimed_value == 1 and cvd_w.claimed_value == 1
            assert c.check_certificate(ced_w).accepted
            assert c.check_certificate(cvd_w).accepted
            assert c.parity_obstruction(c.mobius_ladder(k))


def test_criterion_6_wheel_deficiencies():
    desc = ("wheels 3 mod 4: deficiencies equal 1, witnesses through 199,"
            " exact pre-repair balance")
    with criterion(6, desc, 300.0):
        one = c.DeficiencyValue.finite(1)
        for n in (7, 11):
            g = c.wheel_graph(n)
            assert c.ced_oracle(g).value == one
            assert c.cvd_oracle(g).value == one
        for n in range(7, 200, 4):
            k = (n - 3) // 4
            g = c.wheel_graph(n)
            ced_w = c.wheel_ced_witness(n)
            assert ced_w.claimed_value == 1
            assert c.check_certificate(ced_w).accepted
            assert ced_w.labels[n] == 0  # hub
            rep = c.balance(g, c.VertexLabeling(ced_w.labels))
            assert (rep.e0, rep.e1) == (4 * k + 2, 4 * k + 4)
            cvd_w = c.wheel_cvd_witness(n)
            assert cvd_w.claimed_value == 1
            assert c.check_certificate(cvd_w).accepted
            assert cvd_w.labels[n] == 1  # hub
            rep = c.balance(g, c.VertexLabeling(cvd_w.labels))
            assert rep.e0 == rep.e1 == 4 * k + 3


def test_criterion_7_cycle_and_wheel_cordiality():
    desc = "cycles and wheels: residue rules against search, constructions through 200"
    with criterion(7, desc, 300.0):
        for n in range(3, 13):
            assert c.decide_cordial(c.cycle_graph(n))[0] == (n % 4 != 2)
            assert c.is_cordial_cycle(n) == (n % 4 != 2)
        for n in range(3, 12):
            assert c.decide_cordial(c.wheel_graph(n))[0] == (n % 4 != 3)
            assert c.is_cordial_wheel(n) == (n % 4 != 3)
        for n in range(3, 201):
            if n % 4 == 2:
                with pytest.raises(c.NotApplicable):
                    c.cycle_cordial_labeling(n)
            else:
                t0 = time.monotonic()
                cert = c.cycle_cordial_labeling(n)
                assert time.monotonic() - t0 < 1.0
                assert c.check_certificate(cert).accepted
            if n % 4 == 3:
                with pytest.raises(c.NotApplicable):
                    c.wheel_cordial_labeling(n)
            else:
                t0 = time.monotonic()
                cert = c.wheel_cordial_labeling(n)
                assert time.monotonic() - t0 < 1.0
                assert c.check_certificate(cert).accepted


def _random_labeled_graph(rng):
    n = rng.randint(1, 9)
    edges = []
    if n >= 2:
        for _ in range(rng.randint(0, 16)):
            u = rng.randrange(n)
            v = rng.randrange(n)
            while v == u:
                v = rng.randrange(n)
            edges.append((u, v))
    g = c.MultiGraph(n, edges)
    return g, tuple(rng.randint(0, 1) for _ in range(n))


def test_criterion_8_property_suites():
    desc = ("properties: count partitions, complement symmetry, zero-deficiency"
            " equivalence, determinism, period additivity, round-trip")
    with criterion(8, desc, 300.0):
        rng = random.Random(2026)
        pairs = [_random_labeled_graph(rng) for _ in range(1000)]

        # handshake parity: the 1-edge count is congruent mod 2 to the sum
        # of degrees over 1-labeled vertices; complement fixes edge labels
        for g, f in pairs:
            rep = c.balance(g, f)
            assert rep.v0 + rep.v1 == g.n
            assert rep.e0 + rep.e1 == g.m
            weighted = sum(d for d, bit in zip(g.degrees, f) if bit)
            assert rep.e1 % 2 == weighted % 2
            flipped = tuple(1 - b for b in f)
            for u, v in g.edges:
                assert f[u] ^ f[v] == flipped[u] ^ flipped[v]

        # zero deficiency of either kind is exactly cordiality, on every
        # family member with at most 14 vertices
        zero = c.DeficiencyValue.finite(0)
        small = [c.complete_graph(n) for n in range(1, 15)]
        small += [c.cycle_graph(n) for n in range(3, 15)]
        small += [c.path_graph(n) for n in range(1, 15)]
        small += [c.ladder_graph(k) for k in range(1, 8)]
        small += [c.mobius_ladder(k) for k in range(3, 8)]
        small += [c.wheel_graph(n) for n in range(3, 14)]
        for g in small:
            ok = c.decide_cordial(g)[0]
            assert (c.ced_oracle(g).value == zero) == ok
            assert (c.cvd_oracle(g).value == zero) == ok

        # worker count never changes values, witnesses, or visit counts
        for g in (c.mobius_ladder(5), c.wheel_graph(6), c.complete_graph(9)):
            for fn in (c.ced_oracle, c.cvd_oracle):
                runs = [fn(g, workers=w) for w in (1, 2, 8)]
                assert len({
                    (r.value, r.witness, r.labelings_examined) for r in runs
                }) == 1
            assert len({c.decide_cordial(g, workers=w) for w in (1, 2, 8)}) == 1

        # one period adds exactly (4, 4, 6, 6) to (v0, v1, e0, e1) at every
        # step of every induction chain used above: the three cordial chains
        # and the two seeds, whose labels stay the seed plus whole periods
        seeds = [(k0, c.construct_mobius_labeling(k0)) for k0 in (3, 4, 5)]
        seeds += [(6, c.mobius_ced_witness(6)), (6, c.mobius_cvd_witness(6))]
        chains = [
            c.LabeledFamilyInstance.build("mobius", k0, cert.labels)
            for k0, cert in seeds
        ]
        for cur in chains:
            k0, seed = cur.spec.size, cur.labeling.labels
            while cur.spec.size <= 200:
                k = cur.spec.size
                labels = _mobius_labels(cur.labeling.labels, k, k + 4)
                assert labels == _mobius_labels(seed, k0, k + 4)
                merged = c.LabeledFamilyInstance.build("mobius", k + 4, labels)
                assert merged.balance.v0 == cur.balance.v0 + 4
                assert merged.balance.v1 == cur.balance.v1 + 4
                assert merged.balance.e0 == cur.balance.e0 + 6
                assert merged.balance.e1 == cur.balance.e1 + 6
                cur = merged

        # certificates survive serialization and re-verification
        certs = [
            c.complete_ced_witness(9),
            c.complete_cvd_witness(9),
            c.mobius_ced_witness(10),
            c.mobius_cvd_witness(10),
            c.wheel_ced_witness(11),
            c.wheel_cvd_witness(11),
            c.cycle_cordial_labeling(8),
            c.ced_oracle(c.complete_graph(8)).witness,
            c.cvd_oracle(c.wheel_graph(7)).witness,
        ]
        for cert in certs:
            again = c.parse_certificate(c.serialize_certificate(cert))
            assert again == cert
            assert c.check_certificate(again).accepted
