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


def _alone(g, mode):
    """The result of a scan in mode alone."""
    return c.solve(g, (mode,))[mode]


def _is_cordial(g):
    return _alone(g, "cordial").witness is not None


def test_criterion_1_complete_edge_deficiency():
    with criterion(1, "complete graphs n=2..12: search equals floor(n/2)-1", 60.0):
        for n in range(2, 13):
            want = c.DeficiencyValue.finite(n // 2 - 1)
            res = _alone(c.FamilySpec("complete", n).build(), "ced")
            assert res.value == want
            assert c.ced_complete(n) == want
            assert res.witness.claimed_value == n // 2 - 1
            assert c.check_certificate(res.witness).accepted


def test_criterion_2_complete_vertex_deficiency():
    finite = {1: 0, 2: 0, 3: 0, 4: 1, 6: 1, 7: 2, 9: 2, 11: 2, 14: 3}
    desc = "complete graphs n=1..14: vertex deficiency table, size-2 divergence flagged"
    with criterion(2, desc, 300.0):
        for n in range(1, 15):
            res = _alone(c.FamilySpec("complete", n).build(), "cvd")
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
            g = c.FamilySpec("complete", n).build()
            witness = _alone(g, "cordial").witness
            ok = witness is not None
            assert ok == (n <= 3) == c.is_cordial_complete(n)
            if ok:
                assert is_cordial(g.edges, witness.labels)


def test_criterion_4_mobius_cordiality_and_constructions():
    desc = "mobius ladders: search verdicts k=3..10, constructions through k=200"
    with criterion(4, desc, 300.0):
        for k in range(3, 11):
            assert _is_cordial(c.FamilySpec("mobius", k).build()) == (k % 4 != 2)
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
            g = c.FamilySpec("mobius", k).build()
            assert _alone(g, "ced").value == one
            assert _alone(g, "cvd").value == one
        # the pinned seed balance: two edges apart before the single repair
        seed = c.mobius_ced_witness(6)
        rep = c.balance(c.FamilySpec("mobius", 6).build(), seed.labels)
        assert (rep.e0, rep.e1) == (10, 8)
        for k in range(6, 201, 4):
            ced_w = c.mobius_ced_witness(k)
            cvd_w = c.mobius_cvd_witness(k)
            assert ced_w.claimed_value == 1 and cvd_w.claimed_value == 1
            assert c.check_certificate(ced_w).accepted
            assert c.check_certificate(cvd_w).accepted
            assert c.parity_obstruction(c.FamilySpec("mobius", k).build())


def test_criterion_6_wheel_deficiencies():
    desc = ("wheels 3 mod 4: deficiencies equal 1, witnesses through 199,"
            " exact pre-repair balance")
    with criterion(6, desc, 300.0):
        one = c.DeficiencyValue.finite(1)
        for n in (7, 11):
            g = c.FamilySpec("wheel", n).build()
            assert _alone(g, "ced").value == one
            assert _alone(g, "cvd").value == one
        for n in range(7, 200, 4):
            k = (n - 3) // 4
            g = c.FamilySpec("wheel", n).build()
            ced_w = c.wheel_ced_witness(n)
            assert ced_w.claimed_value == 1
            assert c.check_certificate(ced_w).accepted
            assert ced_w.labels[n] == 0  # hub
            rep = c.balance(g, ced_w.labels)
            assert (rep.e0, rep.e1) == (4 * k + 2, 4 * k + 4)
            cvd_w = c.wheel_cvd_witness(n)
            assert cvd_w.claimed_value == 1
            assert c.check_certificate(cvd_w).accepted
            assert cvd_w.labels[n] == 1  # hub
            rep = c.balance(g, cvd_w.labels)
            assert rep.e0 == rep.e1 == 4 * k + 3


def test_criterion_7_cycle_and_wheel_cordiality():
    desc = "cycles and wheels: residue rules against search, constructions through 200"
    with criterion(7, desc, 300.0):
        for n in range(3, 13):
            assert _is_cordial(c.FamilySpec("cycle", n).build()) == (n % 4 != 2)
            assert c.is_cordial_cycle(n) == (n % 4 != 2)
        for n in range(3, 12):
            assert _is_cordial(c.FamilySpec("wheel", n).build()) == (n % 4 != 3)
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
            " equivalence, period additivity, round-trip")
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
        small = [c.FamilySpec("complete", n).build() for n in range(1, 15)]
        small += [c.FamilySpec("cycle", n).build() for n in range(3, 15)]
        small += [c.FamilySpec("path", n).build() for n in range(1, 15)]
        small += [c.FamilySpec("ladder", k).build() for k in range(1, 8)]
        small += [c.FamilySpec("mobius", k).build() for k in range(3, 8)]
        small += [c.FamilySpec("wheel", n).build() for n in range(3, 14)]
        for g in small:
            ok = _is_cordial(g)
            assert (_alone(g, "ced").value == zero) == ok
            assert (_alone(g, "cvd").value == zero) == ok

        # one period adds exactly (4, 4, 6, 6) to (v0, v1, e0, e1) at every
        # step of every induction chain used above: the three cordial chains
        # and the two seeds, whose labels stay the seed plus whole periods
        seeds = [(k0, c.construct_mobius_labeling(k0)) for k0 in (3, 4, 5)]
        seeds += [(6, c.mobius_ced_witness(6)), (6, c.mobius_cvd_witness(6))]
        for k0, cert in seeds:
            seed = labels = cert.labels
            rep = c.balance(c.FamilySpec("mobius", k0).build(), labels)
            for k in range(k0, 201, 4):
                labels = _mobius_labels(labels, k, k + 4)
                assert labels == _mobius_labels(seed, k0, k + 4)
                merged = c.balance(c.FamilySpec("mobius", k + 4).build(), labels)
                assert merged.v0 == rep.v0 + 4
                assert merged.v1 == rep.v1 + 4
                assert merged.e0 == rep.e0 + 6
                assert merged.e1 == rep.e1 + 6
                rep = merged

        # certificates survive serialization and re-verification
        certs = [
            c.complete_ced_witness(9),
            c.complete_cvd_witness(9),
            c.mobius_ced_witness(10),
            c.mobius_cvd_witness(10),
            c.wheel_ced_witness(11),
            c.wheel_cvd_witness(11),
            c.cycle_cordial_labeling(8),
            _alone(c.FamilySpec("complete", 8).build(), "ced").witness,
            _alone(c.FamilySpec("wheel", 7).build(), "cvd").witness,
        ]
        for cert in certs:
            again = c.parse_certificate(c.serialize_certificate(cert))
            assert again == cert
            assert c.check_certificate(again).accepted
