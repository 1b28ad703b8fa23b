"""Labelings, balance accounting, and the degree-parity obstruction."""

import pytest

from cordial import (
    BalanceReport,
    LengthMismatch,
    MultiGraph,
    balance,
    complete_graph,
    cycle_graph,
    first_pair_with_edge_label,
    mobius_ladder,
    parity_obstruction,
    path_graph,
    wheel_graph,
)
from cordial.labeling import VertexLabeling


def test_labeling_validates_bits():
    # the one-field wrapper kept for perfbench/; balance counts it as its bits
    with pytest.raises(ValueError):
        VertexLabeling((0, 2, 1))
    f = VertexLabeling((0, 0, 1, 1))
    assert f.to_string() == "0011"
    assert balance(complete_graph(4), f) == balance(complete_graph(4), f.labels)


def test_balance_counts_on_k4():
    rep = balance(complete_graph(4), (0, 0, 1, 1))
    assert rep == BalanceReport(v0=2, v1=2, e0=2, e1=4)


def test_balance_counts_parallel_edges_with_multiplicity():
    g = MultiGraph(2, [(0, 1), (0, 1)])
    rep = balance(g, (0, 1))
    assert (rep.e0, rep.e1) == (0, 2)


def test_balance_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        balance(complete_graph(3), VertexLabeling((0, 1)))
    with pytest.raises(LengthMismatch):
        balance(complete_graph(1), (0, 1))


def test_first_pair_with_edge_label():
    assert first_pair_with_edge_label((1, 1, 0), 0) == (0, 1)
    assert first_pair_with_edge_label((1, 1, 0), 1) == (0, 2)
    assert first_pair_with_edge_label((1, 1), 1) is None
    assert first_pair_with_edge_label((1,), 0) is None


def test_parity_odd_edge_count_is_inconclusive():
    assert parity_obstruction(cycle_graph(5)) is False


def test_parity_blocks_mobius_width_6():
    # cubic on 12 vertices: a friendly labeling has 6 ones, all of odd
    # degree, so e1 is even, but balance needs e1 = 9
    assert parity_obstruction(mobius_ladder(6)) is True


@pytest.mark.parametrize("n", [6, 10, 14])
def test_parity_blocks_cycles_2_mod_4(n):
    # all degrees even, so e1 is always even, but balance needs e1 = n/2 odd
    assert parity_obstruction(cycle_graph(n)) is True


def test_parity_blocks_k4():
    assert parity_obstruction(complete_graph(4)) is True


def test_parity_inconclusive_on_cordial_graphs():
    for g in (cycle_graph(4), wheel_graph(4), mobius_ladder(8), path_graph(6)):
        assert parity_obstruction(g) is False


def test_parity_blocks_complete_5():
    # every degree is even but balance would need e1 = 5
    assert parity_obstruction(complete_graph(5)) is True


def test_parity_is_not_complete():
    # K_6 has 15 edges, so the test says nothing, yet K_6 is not cordial
    assert parity_obstruction(complete_graph(6)) is False
