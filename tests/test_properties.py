"""Definitional invariants over randomized graphs and labelings."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import is_cordial, labeled_multigraphs, multigraphs

from cordial import (
    FAMILIES,
    Certificate,
    CordialError,
    DeficiencyValue,
    FamilySpec,
    MalformedCertificate,
    MultiGraph,
    ParseError,
    Verdict,
    balance,
    check_certificate,
    construct_mobius_labeling,
    mobius_ced_witness,
    mobius_cvd_witness,
    parity_obstruction,
    parse_certificate,
    parse_edge_list,
    serialize_certificate,
    solve,
)
from cordial.families import _mobius_labels


@settings(max_examples=1000)
@given(labeled_multigraphs())
def test_label_counts_partition_vertices_and_edges(gf):
    g, f = gf
    rep = balance(g, f)
    assert rep.v0 + rep.v1 == g.n
    assert rep.e0 + rep.e1 == g.m
    assert 0 <= rep.e1 <= g.m


@given(labeled_multigraphs())
def test_complement_swaps_vertex_counts_and_fixes_edge_counts(gf):
    g, f = gf
    complement = tuple(1 - b for b in f)
    rep, flipped = balance(g, f), balance(g, complement)
    assert (flipped.v0, flipped.v1) == (rep.v1, rep.v0)
    assert (flipped.e0, flipped.e1) == (rep.e0, rep.e1)
    assert is_cordial(g.edges, f) == is_cordial(g.edges, complement)


@settings(max_examples=60)
@given(multigraphs(max_n=7, max_m=14))
def test_zero_deficiency_in_either_sense_is_cordiality(g):
    res = solve(g, ("cordial", "ced", "cvd"))
    ok = res["cordial"].witness is not None
    assert (res["ced"].value == DeficiencyValue.finite(0)) == ok
    assert (res["cvd"].value == DeficiencyValue.finite(0)) == ok


@settings(max_examples=40)
@given(multigraphs(max_n=7, max_m=14))
def test_oracle_witnesses_repair_the_graph(g):
    res = solve(g, ("ced",))["ced"]
    if not res.value.is_infinite:
        w = res.witness
        repaired = MultiGraph(g.n, g.edges + w.added_edges)  # no loop, no stray id
        assert is_cordial(repaired.edges, w.labels)
    res = solve(g, ("cvd",))["cvd"]
    if not res.value.is_infinite:
        w = res.witness
        assert is_cordial(g.edges, w.labels + w.added_vertex_labels)


@settings(max_examples=40)
@given(multigraphs(max_n=8, max_m=16))
def test_parity_obstruction_is_sound(g):
    if parity_obstruction(g):
        assert solve(g, ("cordial",))["cordial"].witness is None


@settings(max_examples=300)
@given(multigraphs(max_n=10))
def test_parity_obstruction_is_exactly_the_friendly_parity_argument(g):
    # brute force over the friendly labelings: the argument holds when m is
    # even and none of them has an e1 of the parity of m/2
    parities = set()
    for k in {g.n // 2, (g.n + 1) // 2}:
        for ones in combinations(range(g.n), k):
            labels = [int(v in ones) for v in range(g.n)]
            parities.add(sum(labels[u] ^ labels[v] for u, v in g.edges) % 2)
    assert parity_obstruction(g) == (g.m % 2 == 0 and g.m // 2 % 2 not in parities)


@settings(max_examples=30)
@given(multigraphs(max_n=7, max_m=12))
def test_oracle_certificates_survive_the_wire(g):
    for res in solve(g, ("ced", "cvd")).values():
        if res.value.is_infinite:
            continue
        again = parse_certificate(serialize_certificate(res.witness))
        assert again == res.witness
        assert check_certificate(again).accepted


@settings(max_examples=500)
@given(labeled_multigraphs(max_n=6, max_m=10), st.data())
def test_a_certificate_holds_iff_its_graph_plus_its_additions_is_cordial(gf, data):
    g, f = gf
    kind = data.draw(st.sampled_from(("cordial", "ced", "cvd")))
    # mostly the graph's own vertices, and mostly no additions of the other kind
    ids = st.integers(0, g.n - 1) | st.integers(-1, g.n)
    edges = st.lists(st.tuples(ids, ids), min_size=kind == "ced", max_size=3)
    added_edges = tuple(data.draw(edges if kind == "ced" else st.just([]) | edges))
    bits = st.lists(st.integers(0, 1), min_size=kind == "cvd", max_size=3)
    added_labels = tuple(data.draw(bits if kind == "cvd" else st.just([]) | bits))
    own = {"ced": added_edges, "cvd": added_labels}.get(kind, ())
    claim = data.draw(st.sampled_from((len(own), len(own), len(own) + 1, len(own) - 1)))
    cert = Certificate(kind, f, claim, n=g.n, edges=g.edges,
                       added_edges=added_edges, added_vertex_labels=added_labels)
    # the README rule: a kind lists only its own additions, one per claimed
    # unit; an added edge is a vertex pair of the graph; the graph plus its
    # additions must have friendly vertex labels and balanced edge labels
    if claim != len(own) or len(added_edges) + len(added_labels) != len(own):
        expected = "malformed"
    elif any(u == v or not (0 <= u < g.n and 0 <= v < g.n) for u, v in added_edges):
        expected = "rejected"
    else:
        labels = f + added_labels
        edge_labels = [labels[u] ^ labels[v] for u, v in g.edges + added_edges]
        cordial = all(abs(counted.count(0) - counted.count(1)) <= 1
                      for counted in (labels, edge_labels))
        expected = "accepted" if cordial else "rejected"
    try:
        outcome = "accepted" if check_certificate(cert).accepted else "rejected"
    except MalformedCertificate:
        outcome = "malformed"
    assert outcome == expected
    # every certificate the checker judges survives the wire unchanged
    if outcome != "malformed":
        assert parse_certificate(serialize_certificate(cert)) == cert


def _held(draw, values):
    """values as a tuple, a list, or a range or bytes where one holds them."""
    forms = [tuple, list]
    if all(0 <= v < 256 for v in values):
        forms.append(bytes)
    if values and values == tuple(range(values[0], values[0] + len(values))):
        forms.append(lambda v: range(v[0], v[0] + len(v)))
    return draw(st.sampled_from(forms))(values)


def _held_pairs(draw, pairs):
    """pairs as a tuple or a list, each pair held as _held draws it."""
    return draw(st.sampled_from((tuple, list)))(_held(draw, pair) for pair in pairs)


@settings(max_examples=500)
@given(labeled_multigraphs(max_n=4, max_m=6), st.data())
def test_an_in_memory_certificate_is_malformed_or_survives_the_wire(gf, data):
    # fields and pairs drawn as tuples, lists, ranges or bytes: the checker
    # must refuse every form that JSON cannot give back equal, and judge the
    # parsed copy as it judged the original. The writer, called with no prior
    # check, refuses what the reader would refuse or read back unequal
    g, f = gf
    draw = data.draw
    kind = draw(st.sampled_from(("cordial", "ced", "cvd")))
    ids = st.integers(0, g.n - 1)
    added_edges = draw(st.lists(st.tuples(ids, ids), max_size=2)) if kind == "ced" else []
    added_labels = draw(st.lists(st.integers(0, 1), max_size=2)) if kind == "cvd" else []
    cert = Certificate(kind, _held(draw, f), len(added_edges) + len(added_labels),
                       n=g.n, edges=_held_pairs(draw, g.edges),
                       added_edges=_held_pairs(draw, added_edges),
                       added_vertex_labels=_held(draw, tuple(added_labels)))
    try:
        assert parse_certificate(serialize_certificate(cert)) == cert
    except MalformedCertificate:
        pass
    try:
        verdict = check_certificate(cert)
    except MalformedCertificate:
        return
    again = parse_certificate(serialize_certificate(cert))
    assert again == cert
    assert check_certificate(again) == verdict


@settings(max_examples=60)
@given(st.integers(3, 6), st.integers(0, 2 ** 12 - 1))
def test_graft_conserves_seam_labels_for_any_anchored_labeling(k, enc):
    bits = [(enc >> i) & 1 for i in range(2 * k)]
    bits[0] = bits[k] = 1
    big = balance(FamilySpec("mobius", k).build(), tuple(bits))
    merged = balance(FamilySpec("mobius", k + 4).build(), _mobius_labels(tuple(bits), k, k + 4))
    assert merged.v0 == big.v0 + 4
    assert merged.v1 == big.v1 + 4
    assert merged.e0 == big.e0 + 6
    assert merged.e1 == big.e1 + 6


@given(st.integers(3, 200))
def test_mobius_constructions_are_their_seed_plus_periods(k):
    if k % 4 == 2:
        for witness in (mobius_ced_witness, mobius_cvd_witness):
            assert witness(k).labels == _mobius_labels(witness(6).labels, 6, k)
    else:
        k0 = {3: 3, 0: 4, 1: 5}[k % 4]
        seed = construct_mobius_labeling(k0).labels
        assert construct_mobius_labeling(k).labels == _mobius_labels(seed, k0, k)


class _SizedBuild(Exception):
    """Raised by the spy on FamilySpec.build in place of building the member."""


@settings(max_examples=50)
@given(st.integers(10 ** 9, 10 ** 30))
def test_oversized_values_are_refused_before_work_they_would_size(big):
    """A huge param or n with a short labels, edge id, added-edge id or
    claimed_value, in memory or read back from JSON, and a huge edge-list
    header count through solve, each end in MalformedCertificate, a rejecting
    Verdict, ParseError or the search cap's CordialError. No family member is
    built and no MultiGraph build holds more than the few edges the input lists.

    The one known exception is not drawn here: labels whose count matches a
    huge family member's vertex count make the checker build that member.
    """
    k2 = dict(n=2, edges=((0, 1),))
    certs = [Certificate("cordial", (0, 1), 0, family=family, param=big)
             for family in FAMILIES]
    certs += [
        Certificate("cordial", (0, 1), 0, n=big, edges=()),
        Certificate("cordial", (0, 1), 0, n=2, edges=((0, big),)),
        Certificate("ced", (0, 1), 1, n=2, edges=((0, 1), (0, 1)), added_edges=((0, big),)),
        Certificate("ced", (0, 1), big, **k2),
        Certificate("cvd", (0, 1), big, **k2),
    ]
    runs = [lambda cert=cert: check_certificate(cert) for cert in certs]
    runs += [lambda cert=cert: check_certificate(parse_certificate(serialize_certificate(cert)))
             for cert in certs]
    runs += [lambda text=text: solve(parse_edge_list(text), ("cordial", "ced", "cvd"))
             for text in (f"{big} 0\n", f"3 {big}\n")]
    built = []  # the edge count of every MultiGraph build

    def build(spec):
        raise _SizedBuild(spec)

    def new(cls, n, edges):
        edges = tuple(edges)
        built.append(len(edges))
        return real_new(cls, n, edges)

    def unchecked(cls, n, edges):
        built.append(len(edges))  # a list or tuple, as no generator runs
        return real_unchecked(cls, n, edges)

    real_new, real_unchecked = MultiGraph.__new__, MultiGraph._unchecked.__func__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FamilySpec, "build", build)
        mp.setattr(MultiGraph, "__new__", staticmethod(new))
        mp.setattr(MultiGraph, "_unchecked", classmethod(unchecked))
        for run in runs:
            try:
                verdict = run()
            except (MalformedCertificate, ParseError):
                continue
            except CordialError as exc:  # the search cap alone; SelfCheckFailed is a bug
                if type(exc) is not CordialError or "search is capped" not in str(exc):
                    raise
                continue
            assert isinstance(verdict, Verdict) and not verdict.accepted, verdict
    assert max(built) <= 2, built
