"""Closed forms, base labelings, the period-4 induction, and family witnesses."""

import pytest

from cordial import (
    DeficiencyValue,
    FamilySpec,
    NotApplicable,
    SizeTooSmall,
    StrictlyNoncordial,
    balance,
    ced_complete,
    check_certificate,
    complete_cordial_labeling,
    complete_ced_witness,
    complete_cvd_witness,
    complete_graph,
    complete_split,
    construct_mobius_labeling,
    cvd_complete,
    cvd_complete_literal,
    cycle_cordial_labeling,
    is_cordial_complete,
    is_cordial_cycle,
    is_cordial_mobius,
    is_cordial_wheel,
    mobius_ced_witness,
    mobius_cvd_witness,
    mobius_ladder,
    wheel_cordial_labeling,
    wheel_ced_witness,
    wheel_cvd_witness,
    wheel_graph,
)
from cordial.families import _mobius_labels

# ----------------------------------------------------------- complete forms


def test_complete_split_balances_edges_when_it_exists():
    for n in range(1, 20):
        ell = complete_split(n)
        if n in (5, 8, 10, 12, 13, 15, 17, 19):
            assert ell is None
            continue
        assert ell is not None
        labels = (0,) * ell + (1,) * (n - ell)
        rep = balance(complete_graph(n), labels)
        assert abs(rep.e0 - rep.e1) <= 1
        assert rep.v1 - rep.v0 == n - 2 * ell


def test_complete_split_is_the_least_imbalance_of_every_split():
    # the reference: try every ell, keep the least (imbalance, ell) among the
    # edge-balanced splits, j = |n - 2 ell| and n - j*j in {-2, 0, 2}
    for n in range(1, 3001):
        balanced = [
            (abs(n - 2 * ell), ell) for ell in range(n + 1)
            if n - (n - 2 * ell) ** 2 in (-2, 0, 2)
        ]
        assert complete_split(n) == (min(balanced)[1] if balanced else None)


def test_ced_complete_closed_form():
    assert [ced_complete(n).value for n in range(2, 11)] == [
        0, 0, 1, 1, 2, 2, 3, 3, 4,
    ]
    with pytest.raises(SizeTooSmall):
        ced_complete(1)


def test_cvd_literal_diverges_from_operational_only_at_two():
    for n in range(1, 60):
        literal, operational = cvd_complete_literal(n), cvd_complete(n)
        if n == 2:
            assert literal == DeficiencyValue.finite(1)
            assert operational == DeficiencyValue.finite(0)
        else:
            assert literal == operational


def test_cordiality_predicates():
    assert [n for n in range(1, 9) if is_cordial_complete(n)] == [1, 2, 3]
    assert [n for n in range(3, 11) if not is_cordial_cycle(n)] == [6, 10]
    assert [k for k in range(3, 15) if not is_cordial_mobius(k)] == [6, 10, 14]
    assert [n for n in range(3, 12) if not is_cordial_wheel(n)] == [3, 7, 11]


def test_complete_witnesses():
    w = complete_ced_witness(7)
    assert w.claimed_value == 2 and w.added_edges == ((0, 1), (0, 1))
    assert check_certificate(w).accepted
    w = complete_cvd_witness(7)
    assert w.claimed_value == 2 and w.added_vertex_labels in ((0, 0), (1, 1))
    assert check_certificate(w).accepted
    with pytest.raises(StrictlyNoncordial):
        complete_cvd_witness(5)
    w = complete_cordial_labeling(3)
    assert w.kind == "cordial" and check_certificate(w).accepted
    with pytest.raises(NotApplicable):
        complete_cordial_labeling(4)


# ------------------------------------------------------------------ mobius


def counts(k: int, labels) -> tuple[int, int, int, int]:
    """(v0, v1, e0, e1) of labels on the mobius ladder of width k."""
    return tuple(balance(mobius_ladder(k), labels))


def test_base_labelings_are_friendly_with_pinned_counts():
    pinned = {3: (4, 5), 4: (6, 6), 5: (8, 7)}
    for k, (e0, e1) in pinned.items():
        labels = construct_mobius_labeling(k).labels
        v0, v1, got_e0, got_e1 = counts(k, labels)
        assert (got_e0, got_e1) == (e0, e1)
        assert abs(v0 - v1) <= 1 and abs(got_e0 - got_e1) <= 1
        # the graft anchor: a cross edge with both ends labeled 1
        assert labels[0] == 1 and labels[k] == 1


def test_base_labeling_gating():
    with pytest.raises(SizeTooSmall):
        construct_mobius_labeling(2)
    with pytest.raises(NotApplicable):
        construct_mobius_labeling(6)


def period_step(k: int, labels) -> list[int]:
    """What grafting one period onto labels of width k adds to each count."""
    merged = counts(k + 4, _mobius_labels(labels, k, k + 4))
    return [b - a for a, b in zip(counts(k, labels), merged)]


def test_graft_adds_four_to_the_width():
    merged = _mobius_labels(construct_mobius_labeling(5).labels, 5, 9)
    v0, v1, e0, e1 = counts(9, merged)
    assert abs(v0 - v1) <= 1 and abs(e0 - e1) <= 1
    assert merged == construct_mobius_labeling(9).labels


def test_graft_seams_conserve_edge_labels():
    # the two cut cycle edges keep their labels, so the counts are additive
    # and one period adds what the width-4 base labeling has on its own
    step = period_step(9, construct_mobius_labeling(9).labels)
    assert step == list(counts(4, construct_mobius_labeling(4).labels)) == [4, 4, 6, 6]


def test_graft_requires_a_unit_cross_edge():
    # labels chosen so every cross edge (i, i+3) joins a 0 and a 1: the cut
    # edges change label and the counts are no longer additive
    assert period_step(3, (0, 0, 0, 1, 1, 1)) == [4, 4, 8, 4]


def test_construct_mobius_all_admissible_widths():
    for k in range(3, 31):
        if k % 4 == 2:
            with pytest.raises(NotApplicable):
                construct_mobius_labeling(k)
            continue
        w = construct_mobius_labeling(k)
        assert (w.kind, w.family, w.param) == ("cordial", "mobius", k)
        assert check_certificate(w).accepted


def test_mobius_witnesses_have_pinned_balance():
    w = mobius_ced_witness(6)
    rep = balance(FamilySpec(w.family, w.param).build(), w.labels)
    assert (rep.e0, rep.e1) == (10, 8)
    assert rep.v0 == rep.v1
    assert check_certificate(w).accepted

    w = mobius_cvd_witness(6)
    rep = balance(FamilySpec(w.family, w.param).build(), w.labels)
    assert rep.e0 == rep.e1 == 9
    assert (rep.v0, rep.v1) == (5, 7)
    assert w.added_vertex_labels == (0,)
    assert check_certificate(w).accepted


def test_mobius_witnesses_extend_by_grafting():
    for k in (10, 14, 18):
        for w in (mobius_ced_witness(k), mobius_cvd_witness(k)):
            assert w.param == k and w.claimed_value == 1
            assert check_certificate(w).accepted


def test_mobius_witness_gating():
    with pytest.raises(NotApplicable):
        mobius_ced_witness(8)
    with pytest.raises(NotApplicable):
        mobius_cvd_witness(7)
    with pytest.raises(SizeTooSmall):
        mobius_ced_witness(2)


# ------------------------------------------------------------ cycle, wheel


def test_cycle_labeling_pattern():
    w = cycle_cordial_labeling(7)
    assert w.labels == (1, 1, 0, 0, 1, 1, 0)
    assert check_certificate(w).accepted
    with pytest.raises(NotApplicable):
        cycle_cordial_labeling(6)


def test_wheel_labeling_all_admissible_sizes():
    for n in range(3, 31):
        if n % 4 == 3:
            with pytest.raises(NotApplicable):
                wheel_cordial_labeling(n)
            continue
        w = wheel_cordial_labeling(n)
        assert check_certificate(w).accepted
        assert w.labels[n] == 0  # hub


def test_wheel_ced_witness_balance():
    w = wheel_ced_witness(7)
    assert w.labels[7] == 0
    rep = balance(wheel_graph(7), w.labels)
    assert (rep.e0, rep.e1) == (6, 8)
    assert check_certificate(w).accepted


def test_wheel_cvd_witness_balances_edges_exactly():
    for n in (7, 11, 15):
        w = wheel_cvd_witness(n)
        assert w.labels[n] == 1
        rep = balance(wheel_graph(n), w.labels)
        assert rep.e0 == rep.e1 == n
        assert w.added_vertex_labels == (0,)
        assert check_certificate(w).accepted


def test_wheel_witness_gating():
    with pytest.raises(NotApplicable):
        wheel_ced_witness(3)  # below the witness range
    with pytest.raises(NotApplicable):
        wheel_ced_witness(8)
    with pytest.raises(NotApplicable):
        wheel_cvd_witness(9)
