"""Certificate checking, serialization, and formula/search cross-validation."""

import json
import re
import sys
import threading
from enum import IntEnum

import pytest

import cordial.certify
from cordial import graph_core
from cordial import (
    Certificate,
    DeficiencyValue,
    FamilySpec,
    InfinityReason,
    MalformedCertificate,
    Verdict,
    ced_complete,
    check_certificate,
    complete_ced_witness,
    cross_validate,
    mobius_cvd_witness,
    parse_certificate,
    serialize_certificate,
)
from cordial.certify import witness
from cordial.errors import SelfCheckFailed
from cordial.families import REGISTRY

# ------------------------------------------------------------ verdict logic


def test_accepts_a_cordial_labeling():
    cert = Certificate(
        kind="cordial", family="cycle", param=4, labels=(1, 1, 0, 0), claimed_value=0
    )
    assert check_certificate(cert).accepted


def test_rejects_unbalanced_edges():
    cert = Certificate(
        kind="cordial", family="cycle", param=4, labels=(0, 1, 0, 1), claimed_value=0
    )
    verdict = check_certificate(cert)
    assert not verdict.accepted
    assert "edge labels" in verdict.reason


def test_rejects_unfriendly_labels():
    cert = Certificate(
        kind="cordial", family="cycle", param=4, labels=(1, 1, 1, 1), claimed_value=0
    )
    verdict = check_certificate(cert)
    assert not verdict.accepted
    assert "not friendly" in verdict.reason


def test_ced_certificate_accounts_added_edges():
    # alternating labels on C_4 put all four edges at 1; two same-labeled
    # additions close the gap to one
    good = Certificate(
        kind="ced",
        family="cycle",
        param=4,
        labels=(0, 1, 0, 1),
        claimed_value=3,
        added_edges=((0, 2), (0, 2), (1, 3)),
    )
    assert check_certificate(good).accepted
    short = Certificate(
        kind="ced",
        family="cycle",
        param=4,
        labels=(0, 1, 0, 1),
        claimed_value=1,
        added_edges=((0, 2),),
    )
    assert not check_certificate(short).accepted


def test_ced_rejects_bad_added_edges():
    loop = Certificate(
        kind="ced",
        family="cycle",
        param=4,
        labels=(0, 1, 0, 1),
        claimed_value=3,
        added_edges=((2, 2), (0, 2), (1, 3)),
    )
    verdict = check_certificate(loop)
    assert not verdict.accepted and "loop" in verdict.reason
    outside = Certificate(
        kind="ced",
        family="cycle",
        param=4,
        labels=(0, 1, 0, 1),
        claimed_value=3,
        added_edges=((0, 9), (0, 2), (1, 3)),
    )
    verdict = check_certificate(outside)
    assert not verdict.accepted and "outside" in verdict.reason


def test_cvd_certificate_restores_friendliness():
    # edge-balanced (4 vs 4) but six ones against two zeros; three isolated
    # zeros bring the vertex counts within one
    labels = (1, 1, 1, 1, 1, 0, 1, 0)
    good = Certificate(
        kind="cvd",
        family="cycle",
        param=8,
        labels=labels,
        claimed_value=3,
        added_vertex_labels=(0, 0, 0),
    )
    assert check_certificate(good).accepted
    wrong_side = Certificate(
        kind="cvd",
        family="cycle",
        param=8,
        labels=labels,
        claimed_value=3,
        added_vertex_labels=(1, 1, 1),
    )
    assert not check_certificate(wrong_side).accepted
    unbalanced = Certificate(
        kind="cvd",
        family="cycle",
        param=4,
        labels=(1, 1, 1, 1),
        claimed_value=1,
        added_vertex_labels=(0,),
    )
    verdict = check_certificate(unbalanced)
    assert not verdict.accepted and "edge labels" in verdict.reason


# C_8 under these labels is edge-balanced (4 vs 4) with six ones to two zeros
_UNFRIENDLY_C8 = dict(family="cycle", param=8, labels=(1, 1, 1, 1, 1, 0, 1, 0))
# C_4 alternating is friendly with all four edges at 1
_ALTERNATING_C4 = dict(family="cycle", param=4, labels=(0, 1, 0, 1))


@pytest.mark.parametrize("fields,reason", [
    (dict(kind="cordial", **_UNFRIENDLY_C8), "vertex labels not friendly (2 vs 6)"),
    (dict(kind="cordial", **_ALTERNATING_C4), "edge labels unbalanced (0 vs 4)"),
    (dict(kind="ced", **_UNFRIENDLY_C8), "vertex labels not friendly (2 vs 6)"),
    (dict(kind="ced", claimed_value=3, added_edges=((2, 2), (0, 2), (1, 3)),
          **_ALTERNATING_C4), "added edge (2, 2) is a loop"),
    (dict(kind="ced", claimed_value=3, added_edges=((0, 2), (0, 9), (1, 3)),
          **_ALTERNATING_C4), "added edge (0, 9) outside 0..3"),
    (dict(kind="ced", claimed_value=3, added_edges=((0, 2), (-1, 2), (1, 3)),
          **_ALTERNATING_C4), "added edge (-1, 2) outside 0..3"),
    (dict(kind="ced", claimed_value=1, added_edges=((0, 2),), **_ALTERNATING_C4),
     "augmented edge labels unbalanced (1 vs 4)"),
    (dict(kind="cvd", **_ALTERNATING_C4), "edge labels unbalanced (0 vs 4)"),
    (dict(kind="cvd", claimed_value=3, added_vertex_labels=(1, 1, 1), **_UNFRIENDLY_C8),
     "augmented vertex labels not friendly (2 vs 9)"),
    # several faults: cvd names the edge count first, ced the vertex count
    # before a bad added edge
    (dict(kind="cvd", family="cycle", param=4, labels=(1, 1, 1, 1), claimed_value=1,
          added_vertex_labels=(1,)), "edge labels unbalanced (4 vs 0)"),
    (dict(kind="ced", claimed_value=1, added_edges=((3, 3),), **_UNFRIENDLY_C8),
     "vertex labels not friendly (2 vs 6)"),
], ids=["cordial-unfriendly", "cordial-unbalanced", "ced-unfriendly", "ced-loop",
        "ced-outside", "ced-outside-negative", "ced-augmented-unbalanced",
        "cvd-unbalanced", "cvd-augmented-unfriendly", "cvd-edges-first",
        "ced-vertices-before-added-edges"])
def test_each_rejection_names_its_fault(fields, reason):
    assert check_certificate(Certificate(**{"claimed_value": 0, **fields})) == Verdict(
        False, reason)


def test_explicit_graph_certificates():
    g = FamilySpec("cycle", 5).build()
    cert = Certificate(
        kind="cordial", n=g.n, edges=g.edges, labels=(1, 1, 0, 0, 1), claimed_value=0
    )
    assert check_certificate(cert).accepted
    # a pair is a 2-tuple, as the annotation says: list pairs, which
    # MultiGraph would take, would parse back as tuples, so not equal
    listed = cert._replace(edges=tuple(map(list, g.edges)))
    with pytest.raises(MalformedCertificate, match=r"^edges must be \(u, v\) pairs$"):
        check_certificate(listed)


def test_family_and_explicit_graph_must_agree():
    g = FamilySpec("cycle", 4).build()
    both = Certificate(
        kind="cordial",
        family="cycle",
        param=4,
        n=g.n,
        edges=g.edges,
        labels=(1, 1, 0, 0),
        claimed_value=0,
    )
    assert check_certificate(both).accepted
    with pytest.raises(MalformedCertificate):
        check_certificate(
            Certificate(
                kind="cordial",
                family="cycle",
                param=4,
                n=3,
                edges=((0, 1), (0, 2), (1, 2)),
                labels=(1, 1, 0, 0),
                claimed_value=0,
            )
        )


# --------------------------------------------------------- structural rules


def _malformed(**kwargs):
    defaults = dict(kind="cordial", family="cycle", param=4, labels=(1, 1, 0, 0),
                    claimed_value=0)
    defaults.update(kwargs)
    with pytest.raises(MalformedCertificate):
        check_certificate(Certificate(**defaults))


def test_structural_breakage_is_malformed_not_rejected():
    _malformed(kind="friendly")
    _malformed(claimed_value=-1)
    _malformed(claimed_value=1)  # cordial must claim 0
    _malformed(added_edges=((0, 1),))  # cordial admits no additions
    _malformed(labels=(1, 1, 0))  # wrong length
    _malformed(labels=(1, 2, 0, 0))  # not bits
    _malformed(kind="ced", claimed_value=2, added_edges=((0, 1),))  # count
    _malformed(kind="ced", claimed_value=0, added_vertex_labels=(0,))
    _malformed(kind="cvd", claimed_value=2, added_vertex_labels=(0,))
    _malformed(kind="cvd", claimed_value=0, added_edges=((0, 1),))
    _malformed(family=None, param=None)  # no graph at all
    _malformed(param=None)  # family without param
    _malformed(family="petersen")
    _malformed(family="cycle", param=2)  # below family minimum


def test_an_explicit_graph_needs_both_n_and_edges():
    with pytest.raises(MalformedCertificate, match="^n and edges must appear together$"):
        check_certificate(Certificate("cordial", (0, 1), 0, n=2))


# K2 with a cordial labeling, and one field of it a bool or a float: each
# would be written as JSON that parse_certificate refuses
_K2 = dict(kind="cordial", n=2, edges=((0, 1),), labels=(1, 0), claimed_value=0)


@pytest.mark.parametrize("fields,reason", [
    (dict(labels=(True, False)), "labels must be an integer"),
    (dict(labels=(1.0, 0)), "labels must be an integer"),
    (dict(family="complete", param=True, n=None, edges=None, labels=(0,)),
     "param must be an integer"),
    (dict(n=True, edges=(), labels=(0,)), "n must be an integer"),
    # the graph build, which checks every edge, names a bool endpoint
    (dict(edges=((False, True),)),
     "bad explicit graph: edge (False, True): vertex ids must be integers"),
    (dict(kind="ced", claimed_value=1, added_edges=((False, 2),)),
     "added_edges must be an integer"),
    # an int subclass other than bool is no int either, as for MultiGraph
    (dict(labels=tuple(IntEnum("Bit", "ZERO ONE", start=0))), "labels must be an integer"),
], ids=["bool-labels", "float-label", "bool-param", "bool-n", "bool-edge",
        "bool-added-edge", "int-subclass-labels"])
def test_integer_fields_refuse_bools_and_floats(fields, reason):
    with pytest.raises(MalformedCertificate, match=f"^{re.escape(reason)}$"):
        check_certificate(Certificate(**{**_K2, **fields}))


@pytest.mark.parametrize("fields,reason", [
    (dict(edges=(1, 2)), "edges must be (u, v) pairs"),
    (dict(edges=((0, 1, 1),)), "edges must be (u, v) pairs"),
    (dict(edges=({0, 1},)), "edges must be (u, v) pairs"),
    (dict(edges=((0,),), labels=(True, False)), "labels must be an integer"),
    (dict(kind="ced", claimed_value=1, added_edges=((0, 1, 1),)),
     "added_edges must be (u, v) pairs"),
    (dict(kind="ced", claimed_value=1, added_edges=(0,)), "added_edges must be (u, v) pairs"),
    (dict(kind="ced", claimed_value=1, added_edges=((b for b in (0, 1)),)),
     "added_edges must be (u, v) pairs"),
    (dict(kind="ced", claimed_value=1, added_edges=({0, 1},)), "added_edges must be (u, v) pairs"),
    (dict(edges=([0, 1],)), "edges must be (u, v) pairs"),
    (dict(kind="ced", claimed_value=1, added_edges=([0, 1],)),
     "added_edges must be (u, v) pairs"),
], ids=["int-edges", "triple-edge", "set-edge", "before-labels", "triple-added-edge",
        "int-added-edge", "generator-added-edge", "set-added-edge", "list-edge",
        "list-added-edge"])
def test_pair_fields_refuse_items_that_are_not_pairs(fields, reason):
    # a pair is a 2-tuple, as the annotations say; a list pair would parse
    # back as a tuple. An edges item that is not one is found at the graph
    # step, the last, so the labels' bools are named before it
    with pytest.raises(MalformedCertificate, match=f"^{re.escape(reason)}$"):
        check_certificate(Certificate(**{**_K2, **fields}))


# iterables that are not sequences, then sequences that are not tuples but
# hold the bits a tuple would; each test builds its own generator
_NOT_SEQUENCES = [pytest.param(lambda: (b for b in (1, 0)), id="generator"),
                  pytest.param(lambda: {1, 0}, id="set"),
                  pytest.param(lambda: {1: 0, 0: 1}, id="dict")]
_NOT_TUPLES = [pytest.param(lambda: [1, 0], id="list"),
               pytest.param(lambda: range(2), id="range"),
               pytest.param(lambda: bytes((1, 0)), id="bytes")]


@pytest.mark.parametrize("value", [None, 5, *_NOT_SEQUENCES, *_NOT_TUPLES])
@pytest.mark.parametrize("key", ["labels", "added_edges", "added_vertex_labels"])
def test_fields_that_are_not_sequences_are_malformed(key, value):
    # a certificate built in code may hold anything; JSON input never reaches
    # here with such a field, as its readers make tuples. A field that is not
    # a tuple is named, never iterated or converted: a generator could be
    # read once only, and a list, range or bytes would parse back unequal
    value = value() if callable(value) else value
    reason = f"{key} must be a tuple"
    if key == "added_edges":
        reason = "added_edges must be (u, v) pairs"
    with pytest.raises(MalformedCertificate, match=f"^{re.escape(reason)}$"):
        check_certificate(Certificate(**{**_K2, key: value}))
    # a field that is one is named before the others, in step 3's key order
    if key != "labels":
        with pytest.raises(MalformedCertificate, match="^labels must be a tuple$"):
            check_certificate(Certificate(**{**_K2, "labels": "10", key: value}))


@pytest.mark.parametrize("value", [5, *_NOT_SEQUENCES,
                                   pytest.param(lambda: [(0, 1)], id="list")])
def test_explicit_edges_that_are_not_a_sequence_are_malformed(value):
    # the graph build would take any iterable of pairs, but the certificate
    # could then not be written as JSON, or would parse back unequal
    value = value() if callable(value) else value
    cert = Certificate(**{**_K2, "edges": value})
    with pytest.raises(MalformedCertificate, match=r"^edges must be \(u, v\) pairs$"):
        check_certificate(cert)


def test_label_count_is_checked_before_the_family_member_is_built(monkeypatch):
    def build(spec):
        raise AssertionError(f"built {spec} before checking the label count")

    monkeypatch.setattr(FamilySpec, "build", build)
    cert = Certificate(kind="cordial", family="complete", param=10**9,
                       labels=(0, 1), claimed_value=0)
    with pytest.raises(MalformedCertificate, match="2 labels for a graph on 1000000000"):
        check_certificate(cert)


# -------------------------------------------------------------- wire format


def test_serialize_uses_fixed_key_order():
    cert = complete_ced_witness(6)
    payload = json.loads(serialize_certificate(cert))
    assert list(payload) == ["kind", "family", "param", "labels", "added_edges",
                             "claimed_value"]
    cert = mobius_cvd_witness(6)
    payload = json.loads(serialize_certificate(cert))
    assert list(payload) == ["kind", "family", "param", "labels",
                             "added_vertex_labels", "claimed_value"]
    assert payload["labels"] == "111010110010"


def test_round_trip_preserves_certificates():
    g = FamilySpec("cycle", 5).build()
    samples = [
        complete_ced_witness(8),
        mobius_cvd_witness(10),
        Certificate(kind="cordial", n=g.n, edges=g.edges,
                    labels=(1, 1, 0, 0, 1), claimed_value=0),
    ]
    for cert in samples:
        again = parse_certificate(serialize_certificate(cert))
        assert again == cert
        assert check_certificate(again).accepted == check_certificate(cert).accepted


def test_parse_rejects_unknown_keys():
    text = serialize_certificate(complete_ced_witness(4))
    payload = json.loads(text)
    payload["comment"] = "hello"
    with pytest.raises(MalformedCertificate, match="unknown keys"):
        parse_certificate(json.dumps(payload))


def test_parse_rejects_shape_problems():
    with pytest.raises(MalformedCertificate):
        parse_certificate("not json at all")
    with pytest.raises(MalformedCertificate):
        parse_certificate("[1, 2]")
    with pytest.raises(MalformedCertificate):
        parse_certificate('{"kind": "cordial"}')  # missing labels/claim
    base = {"kind": "cordial", "family": "cycle", "param": 4,
            "labels": "1100", "claimed_value": 0}
    for key, bad in [("labels", "11a0"), ("labels", 1100),
                     ("claimed_value", True), ("claimed_value", "0"),
                     ("param", "4"), ("kind", 3)]:
        broken = dict(base)
        broken[key] = bad
        with pytest.raises(MalformedCertificate):
            parse_certificate(json.dumps(broken))
    with pytest.raises(MalformedCertificate):
        parse_certificate(json.dumps({**base, "added_edges": [[0, 1, 2]]}))


def test_parse_refuses_an_edges_item_that_is_not_a_pair_array():
    text = '{"kind": "cordial", "n": 2, "edges": [5], "labels": "01", "claimed_value": 0}'
    with pytest.raises(MalformedCertificate,
                       match=r"^edges must be an array of \[u, v\] pairs$"):
        parse_certificate(text)


# ----------------------------------------------------------- cross-validate


def _row(report, family, size):
    """The row of one family member."""
    return next(r for r in report.rows if (r.family, r.size) == (family, size))


def test_cross_validate_flags_only_the_size_two_complete_row():
    specs = [FamilySpec("complete", n) for n in range(1, 7)]
    report = cross_validate(specs)
    assert [r.size for r in report.mismatches] == [2]
    row = _row(report, "complete", 2)
    assert any("square-rule" in note for note in row.notes)
    assert row.cordial is True
    assert row.cvd == DeficiencyValue.finite(0)  # operational value is reported
    assert not report.all_match


@pytest.mark.parametrize("measure,size,wrong,note", [
    ("cordial", 6, lambda k: True, "cordiality formula True vs oracle False"),
    ("ced", 7, lambda k: DeficiencyValue.finite(1), "ced formula 1 vs oracle 0"),
    ("cvd", 7, lambda k: DeficiencyValue.infinite(InfinityReason.STRICTLY_NONCORDIAL),
     "cvd formula infinity vs oracle 0"),
], ids=["cordial", "ced", "cvd"])
def test_cross_validate_notes_each_measure_that_disagrees_with_the_search(
        monkeypatch, measure, size, wrong, note):
    # no family witness at these sizes contradicts the wrong form, so the only
    # note is the search's
    monkeypatch.setitem(REGISTRY, "mobius", REGISTRY["mobius"]._replace(**{measure: wrong}))
    row = _row(cross_validate([FamilySpec("mobius", size)]), "mobius", size)
    assert not row.match
    assert row.notes == (note,)
    assert getattr(row, measure) != wrong(size)  # the row reports the search


def test_cross_validate_checks_witnesses_and_parity():
    report = cross_validate([FamilySpec("mobius", 6), FamilySpec("mobius", 7)])
    wheels = cross_validate([FamilySpec("wheel", 7), FamilySpec("wheel", 15)],
                            max_vertices=10)
    for row in (_row(report, "mobius", 6), *wheels.rows):
        assert row.match
        assert ("ced", True) in row.witnesses and ("cvd", True) in row.witnesses
        assert "bounds: witness upper, parity obstruction lower" in row.notes
    row7 = _row(report, "mobius", 7)
    assert row7.match and ("cordial", True) in row7.witnesses


def _count_builds(monkeypatch) -> list:
    """Every member build from now on, as (family, size), counted at the family builders."""
    built = []
    for family, gen in graph_core._GENERATORS.items():
        def build(size, family=family, make=gen.build):
            built.append((family, size))
            return make(size)
        monkeypatch.setitem(graph_core._GENERATORS, family, gen._replace(build=build))
    return built


@pytest.mark.parametrize("family,size,source,witnesses,parity", [
    ("complete", 30, "formula", 1, False),  # the ced witness; cvd is infinite
    ("complete", 34, "formula", 2, False),  # the ced and cvd witnesses
    ("mobius", 10, "formula", 2, True),  # both witnesses and the parity bound
    ("wheel", 7, "both", 2, True),  # the search, both witnesses and the parity bound
])
def test_cross_validate_builds_each_member_once_per_row(monkeypatch, family, size,
                                                         source, witnesses, parity):
    built = _count_builds(monkeypatch)
    row = cross_validate([FamilySpec(family, size)], max_vertices=14).rows[0]
    assert (row.source, row.match) == (source, True)
    assert len(row.witnesses) == witnesses
    assert ("bounds: witness upper, parity obstruction lower" in row.notes) is parity
    assert built == [(family, size)]
    # released on return: no member is held, and the next build runs the builder
    assert cordial.certify._shared == {}
    FamilySpec(family, size).build()
    assert built == [(family, size)] * 2


def test_a_row_with_no_search_and_no_witness_builds_nothing(monkeypatch):
    built = _count_builds(monkeypatch)
    row = cross_validate([FamilySpec("path", 30)], max_vertices=14).rows[0]
    assert (row.source, row.match, built) == ("none", True, [])


def test_no_member_outlives_a_row_that_raises(monkeypatch):
    mobius = REGISTRY["mobius"]
    held = []

    def broken(k):
        held.append(dict(cordial.certify._shared))
        raise SelfCheckFailed("broken constructor")

    monkeypatch.setitem(REGISTRY, "mobius", mobius._replace(
        constructions={**mobius.constructions, "cvd": broken}))
    with pytest.raises(SelfCheckFailed, match="broken constructor"):
        # the complete row, first in order, shares its member with its witnesses
        cross_validate([FamilySpec("mobius", 6), FamilySpec("complete", 30)])
    assert held == [{FamilySpec("mobius", 6): FamilySpec("mobius", 6).build()}]
    assert cordial.certify._shared == {}


def test_concurrent_cross_validate_calls_report_their_own_rows():
    # the row's share is a cache: a call whose share another thread cleared
    # or replaced builds its member again and reports the same rows
    specs = [[FamilySpec("wheel", 7), FamilySpec("mobius", 6)],
             [FamilySpec("complete", 12), FamilySpec("cycle", 10)],
             [FamilySpec("mobius", 10), FamilySpec("wheel", 11)]]
    expected = [cross_validate(s, max_vertices=12) for s in specs]
    results, errors = [], []

    def run(i):
        try:
            for _ in range(40):
                results.append((i, cross_validate(specs[i], max_vertices=12)))
        except Exception as exc:  # reported below, in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i % 3,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 240 and all(r == expected[i] for i, r in results)
    assert cordial.certify._shared == {}


# one size per (family, target) in REGISTRY at which the constructor applies
_WITNESS_SIZE = {
    ("complete", "cordial"): 3,
    ("complete", "ced"): 6,
    ("complete", "cvd"): 6,
    ("cycle", "cordial"): 4,
    ("mobius", "cordial"): 4,
    ("mobius", "ced"): 6,
    ("mobius", "cvd"): 6,
    ("wheel", "cordial"): 4,
    ("wheel", "ced"): 7,
    ("wheel", "cvd"): 7,
}


@pytest.mark.parametrize(
    "family,target",
    [(family, target) for family, known in REGISTRY.items()
     for target in known.constructions],
)
def test_every_family_witness_is_checked_by_its_constructor(monkeypatch, family, target):
    # cross_validate reports each returned witness as accepted without checking
    # it again, which holds only while every constructor checks its own
    size = _WITNESS_SIZE[family, target]
    build = REGISTRY[family].constructions[target]
    assert check_certificate(build(size)).accepted

    graphs = []  # a family witness resolves its own graph: none is handed in

    def reject(cert, graph=None):
        graphs.append(graph)
        return Verdict(cert.kind != target, "forced")

    monkeypatch.setattr(cordial.certify, "check_certificate", reject)
    with pytest.raises(SelfCheckFailed):
        build(size)
    with pytest.raises(SelfCheckFailed):
        cross_validate([FamilySpec(family, size)], max_vertices=1)
    assert graphs and graphs == [None] * len(graphs)


def test_witness_adds_the_stated_repairs_and_checks_them():
    k4 = {"graph": FamilySpec("complete", 4).build()}
    # a 2:2 split of K4 has e0 = 2, e1 = 4; one same-labeled edge repairs it
    assert witness("ced", (0, 0, 1, 1), 1, repair=0, **k4).added_edges == ((0, 1),)
    # a 1:3 split has e0 = e1 = 3; one isolated zero restores friendliness
    cvd = witness("cvd", (0, 1, 1, 1), 1, family="complete", param=4)
    assert cvd.added_vertex_labels == (0,)
    with pytest.raises(SelfCheckFailed, match=r"rejected: augmented edge labels"):
        witness("ced", (0, 0, 1, 1), 1, repair=1, **k4)
    with pytest.raises(SelfCheckFailed, match="no vertex pair with induced label 1"):
        witness("ced", (0, 0), 1, repair=1, family="complete", param=2)
    with pytest.raises(SelfCheckFailed, match="malformed: .* must claim 0"):
        witness("cordial", (1, 1, 0, 0), 1, family="cycle", param=4)
    # a maker passes tuples; witness judges what it was given, never a copy
    with pytest.raises(SelfCheckFailed, match="malformed: labels must be a tuple$"):
        witness("cordial", [1, 1, 0, 0], family="cycle", param=4)


def test_cross_validate_flags_a_witness_claiming_other_than_its_form(monkeypatch):
    complete = REGISTRY["complete"]

    def one_more(n):
        # accepted: the 3:4 split of K7 has e0 = 9, e1 = 12, so a third
        # same-labeled edge still leaves the augmented labels balanced
        labels = (0,) * (n // 2) + (1,) * (n - n // 2)
        value = ced_complete(n).value + 1
        return witness("ced", labels, value, repair=0, family="complete", param=n)

    constructions = {**complete.constructions, "ced": one_more}
    monkeypatch.setitem(REGISTRY, "complete",
                        complete._replace(constructions=constructions))
    row = _row(cross_validate([FamilySpec("complete", 7)], max_vertices=1), "complete", 7)
    assert not row.match
    assert "ced witness claims 3, closed form 2" in row.notes
    assert row.ced == DeficiencyValue.finite(2)

    monkeypatch.setitem(REGISTRY, "cycle",
                        REGISTRY["cycle"]._replace(cordial=lambda n: False))
    row = _row(cross_validate([FamilySpec("cycle", 8)], max_vertices=1), "cycle", 8)
    assert not row.match
    assert "cordial witness claims 0, closed form noncordial" in row.notes


def test_cross_validate_beyond_search_bound_uses_formulas():
    report = cross_validate([FamilySpec("mobius", 20)], max_vertices=10)
    row = _row(report, "mobius", 20)
    assert row.source == "formula"
    assert row.cordial is True
    assert row.ced == DeficiencyValue.finite(0)
    assert row.match


def test_cross_validate_oracle_only_families():
    report = cross_validate([FamilySpec("path", 5), FamilySpec("ladder", 3)])
    for row in report.rows:
        assert row.source == "oracle"
        assert row.cordial is True
        assert row.match
