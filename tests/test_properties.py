"""Definitional invariants over randomized graphs and labelings."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import is_cordial, labeled_multigraphs, multigraphs

from cordial import (
    Certificate,
    DeficiencyValue,
    LabeledFamilyInstance,
    MalformedCertificate,
    MultiGraph,
    VertexLabeling,
    balance,
    ced_oracle,
    check_certificate,
    construct_mobius_labeling,
    cvd_oracle,
    decide_cordial,
    mobius_ced_witness,
    mobius_cvd_witness,
    parity_obstruction,
    parse_certificate,
    serialize_certificate,
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
    complement = tuple(1 - b for b in f.labels)
    rep, flipped = balance(g, f), balance(g, VertexLabeling(complement))
    assert (flipped.v0, flipped.v1) == (rep.v1, rep.v0)
    assert (flipped.e0, flipped.e1) == (rep.e0, rep.e1)
    assert is_cordial(g.edges, f.labels) == is_cordial(g.edges, complement)


@settings(max_examples=60)
@given(multigraphs(max_n=7, max_m=14))
def test_zero_deficiency_in_either_sense_is_cordiality(g):
    ok = decide_cordial(g)[0]
    assert (ced_oracle(g).value == DeficiencyValue.finite(0)) == ok
    assert (cvd_oracle(g).value == DeficiencyValue.finite(0)) == ok


@settings(max_examples=40)
@given(multigraphs(max_n=7, max_m=14))
def test_oracle_witnesses_repair_the_graph(g):
    res = ced_oracle(g)
    if not res.value.is_infinite:
        w = res.witness
        repaired = MultiGraph(g.n, g.edges + w.added_edges)  # no loop, no stray id
        assert is_cordial(repaired.edges, w.labels)
    res = cvd_oracle(g)
    if not res.value.is_infinite:
        w = res.witness
        assert is_cordial(g.edges, w.labels + w.added_vertex_labels)


@settings(max_examples=40)
@given(multigraphs(max_n=8, max_m=16))
def test_parity_obstruction_is_sound(g):
    if parity_obstruction(g):
        assert not decide_cordial(g)[0]


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


@settings(max_examples=10)
@given(multigraphs(min_n=2, max_n=6, max_m=10))
def test_worker_count_never_changes_results(g):
    base = ced_oracle(g, workers=1)
    split = ced_oracle(g, workers=3)
    assert (base.value, base.witness, base.labelings_examined) == (
        split.value, split.witness, split.labelings_examined
    )


@settings(max_examples=30)
@given(multigraphs(max_n=7, max_m=12))
def test_oracle_certificates_survive_the_wire(g):
    for res in (ced_oracle(g), cvd_oracle(g)):
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
    cert = Certificate(kind, f.labels, claim, n=g.n, edges=g.edges,
                       added_edges=added_edges, added_vertex_labels=added_labels)
    # the README rule: a kind lists only its own additions, one per claimed
    # unit; an added edge is a vertex pair of the graph; the graph plus its
    # additions must have friendly vertex labels and balanced edge labels
    if claim != len(own) or len(added_edges) + len(added_labels) != len(own):
        expected = "malformed"
    elif any(u == v or not (0 <= u < g.n and 0 <= v < g.n) for u, v in added_edges):
        expected = "rejected"
    else:
        labels = f.labels + added_labels
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


@settings(max_examples=60)
@given(st.integers(3, 6), st.integers(0, 2 ** 12 - 1))
def test_graft_conserves_seam_labels_for_any_anchored_labeling(k, enc):
    bits = [(enc >> i) & 1 for i in range(2 * k)]
    bits[0] = bits[k] = 1
    big = LabeledFamilyInstance.build("mobius", k, bits)
    merged = LabeledFamilyInstance.build(
        "mobius", k + 4, _mobius_labels(tuple(bits), k, k + 4)
    )
    assert merged.balance.v0 == big.balance.v0 + 4
    assert merged.balance.v1 == big.balance.v1 + 4
    assert merged.balance.e0 == big.balance.e0 + 6
    assert merged.balance.e1 == big.balance.e1 + 6


@given(st.integers(3, 200))
def test_mobius_constructions_are_their_seed_plus_periods(k):
    if k % 4 == 2:
        for witness in (mobius_ced_witness, mobius_cvd_witness):
            assert witness(k).labels == _mobius_labels(witness(6).labels, 6, k)
    else:
        k0 = {3: 3, 0: 4, 1: 5}[k % 4]
        seed = construct_mobius_labeling(k0).labels
        assert construct_mobius_labeling(k).labels == _mobius_labels(seed, k0, k)
