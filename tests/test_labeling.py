"""Labelings, balance accounting, and the degree-parity obstruction."""

import pytest

from cordial import (
    BalanceReport,
    CordialError,
    FamilySpec,
    MultiGraph,
    balance,
    first_pair_with_edge_label,
    parity_obstruction,
)
from cordial.labeling import VertexLabeling


def test_vertex_labeling_is_its_bit_tuple():
    # the tuple kept for perfbench/, which balance counts as the bits it holds
    f = VertexLabeling((0, 0, 1, 1))
    assert f == (0, 0, 1, 1) and f.to_string() == "0011"
    k4 = FamilySpec("complete", 4).build()
    assert balance(k4, f) == balance(k4, (0, 0, 1, 1))


def test_balance_counts_on_k4():
    rep = balance(FamilySpec("complete", 4).build(), (0, 0, 1, 1))
    assert rep == BalanceReport(v0=2, v1=2, e0=2, e1=4)


def test_balance_counts_parallel_edges_with_multiplicity():
    g = MultiGraph(2, [(0, 1), (0, 1)])
    rep = balance(g, (0, 1))
    assert (rep.e0, rep.e1) == (0, 2)


def test_balance_rejects_length_mismatch():
    with pytest.raises(CordialError, match="^labeling has 2 bits for a graph on 3 vertices$"):
        balance(FamilySpec("complete", 3).build(), VertexLabeling((0, 1)))
    with pytest.raises(CordialError, match="^labeling has 2 bits for a graph on 1 vertices$"):
        balance(FamilySpec("complete", 1).build(), (0, 1))


def test_first_pair_with_edge_label():
    assert first_pair_with_edge_label((1, 1, 0), 0) == (0, 1)
    assert first_pair_with_edge_label((1, 1, 0), 1) == (0, 2)
    assert first_pair_with_edge_label((1, 1), 1) is None
    assert first_pair_with_edge_label((1,), 0) is None


def test_parity_odd_edge_count_is_inconclusive():
    assert parity_obstruction(FamilySpec("cycle", 5).build()) is False


def test_parity_blocks_mobius_width_6():
    # cubic on 12 vertices: a friendly labeling has 6 ones, all of odd
    # degree, so e1 is even, but balance needs e1 = 9
    assert parity_obstruction(FamilySpec("mobius", 6).build()) is True


@pytest.mark.parametrize("n", [6, 10, 14])
def test_parity_blocks_cycles_2_mod_4(n):
    # all degrees even, so e1 is always even, but balance needs e1 = n/2 odd
    assert parity_obstruction(FamilySpec("cycle", n).build()) is True


def test_parity_blocks_k4():
    assert parity_obstruction(FamilySpec("complete", 4).build()) is True


def test_parity_inconclusive_on_cordial_graphs():
    for member in (("cycle", 4), ("wheel", 4), ("mobius", 8), ("path", 6)):
        assert parity_obstruction(FamilySpec(*member).build()) is False


def test_parity_blocks_complete_5():
    # every degree is even but balance would need e1 = 5
    assert parity_obstruction(FamilySpec("complete", 5).build()) is True


def test_parity_is_not_complete():
    # K_6 has 15 edges, so the test says nothing, yet K_6 is not cordial
    assert parity_obstruction(FamilySpec("complete", 6).build()) is False
