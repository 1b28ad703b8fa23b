"""Closed forms and constructive witnesses for the named graph families.

REGISTRY, at the end of this module, holds one FamilyDef per family name: the
closed forms, the witness constructors and the source of the lower bound.
The CLI, certify.cross_validate and the scripts read it instead of knowing
the families themselves.

Every constructor returns a certificate from certify.witness, the one place
witnesses are built and checked, so a bug here surfaces as SelfCheckFailed,
not as a wrong table entry. Formulas and constructions are independent of
the exhaustive search; agreement between the two is established by
certify.cross_validate.
"""

from __future__ import annotations

from math import isqrt
from typing import Callable, Mapping, NamedTuple

from .certify import Certificate, DeficiencyValue, InfinityReason, witness
from .errors import NotApplicable
from .graph_core import FamilySpec

# ---------------------------------------------------------------- complete


def _square_j(n: int, least: int) -> int | None:
    """Least j >= least with n - j*j in {-2, 0, 2}, or None if there is none.

    Below isqrt(n - 2) every j*j is under n - 2, so a few steps decide.
    """
    j = max(least, isqrt(max(n - 2, 0)))
    while j * j <= n + 2:
        if n - j * j in (-2, 0, 2):
            return j
        j += 1
    return None


def complete_split(n: int) -> int | None:
    """Zeros ell of the edge-balanced split of least vertex imbalance, or None.

    The split of ell zeros against n - ell ones is edge-balanced exactly when
    n - j*j lies in {-2, 0, 2} for j = n - 2*ell; that forces j to have the
    parity of n, so every such j >= 0 gives a split.
    """
    FamilySpec("complete", n)
    j = _square_j(n, 0)
    return None if j is None else (n - j) // 2


def is_cordial_complete(n: int) -> bool:
    FamilySpec("complete", n)
    return n <= 3


def ced_complete(n: int) -> DeficiencyValue:
    """Edge deficiency of the complete graph; defined for n >= 2."""
    FamilySpec("complete", n)
    if n < 2:
        raise NotApplicable("the edge deficiency formula needs at least 2 vertices")
    return DeficiencyValue.finite(n // 2 - 1)


def cvd_complete(n: int) -> DeficiencyValue:
    """Vertex deficiency via the best edge-balanced split (operational form)."""
    ell = complete_split(n)
    if ell is None:
        return DeficiencyValue.infinite(InfinityReason.STRICTLY_NONCORDIAL)
    return DeficiencyValue.finite(max(0, n - 2 * ell - 1))


def cvd_complete_literal(n: int) -> DeficiencyValue:
    """Vertex deficiency by the square rule: j - 1 when n = j*j + delta, j >= 1.

    Differs from cvd_complete at exactly one size, where the rule forces
    j = 2 while the split with j = 0 is already edge-balanced.
    """
    FamilySpec("complete", n)
    j = _square_j(n, 1)
    if j is None:
        return DeficiencyValue.infinite(InfinityReason.STRICTLY_NONCORDIAL)
    return DeficiencyValue.finite(j - 1)


def complete_cordial_labeling(n: int) -> Certificate:
    if not is_cordial_complete(n):
        raise NotApplicable(
            "complete graphs on more than 3 vertices have no cordial labeling"
        )
    labels = (0,) * (n // 2) + (1,) * (n - n // 2)
    return witness("cordial", labels, family="complete", param=n)


def complete_ced_witness(n: int) -> Certificate:
    """Balanced split plus repeated same-labeled edge additions."""
    value = ced_complete(n).value
    labels = (0,) * (n // 2) + (1,) * (n - n // 2)
    return witness("ced", labels, value, repair=0, family="complete", param=n)


def complete_cvd_witness(n: int) -> Certificate:
    """Edge-balanced split plus isolated vertices on the minority side."""
    ell = complete_split(n)
    if ell is None:
        raise NotApplicable(
            f"no edge-balanced labeling of the complete graph on {n} vertices"
        )
    labels = (0,) * ell + (1,) * (n - ell)
    return witness("cvd", labels, max(0, n - 2 * ell - 1), family="complete", param=n)


class LabeledFamilyInstance:
    """Never built: perfbench/probes.py names it only in an isinstance test
    that is always false, so it stays until that test goes."""


# ------------------------------------------------------------------ mobius

_MOBIUS_BASE_LABELS = {
    3: (1, 1, 0, 1, 0, 0),
    4: (1, 1, 0, 1, 1, 0, 0, 0),
    5: (1, 1, 1, 1, 0, 1, 0, 0, 0, 0),
}

# width-6 seeds for the deficiency witnesses; like the base labelings they
# label vertices 0 and 6 with 1, so the period-4 pattern extends them too
_MOBIUS6_CED_LABELS = (1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0)  # e0 = 10, e1 = 8
_MOBIUS6_CVD_LABELS = (1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0)  # balanced, v1 = 7


def is_cordial_mobius(k: int) -> bool:
    FamilySpec("mobius", k)
    return k % 4 != 2


def _mobius_labels(seed: tuple[int, ...], k0: int, k: int) -> tuple[int, ...]:
    """Width-k labels: the width-k0 seed followed by (k - k0) // 4 periods.

    A period grafts the width-4 base labeling in at vertex 0: 1101 goes after
    the seed's top half and 1000 after its bottom half. When vertices 0 and
    k0 are both labeled 1, the two cycle edges the graft cuts keep their
    labels, so each period adds exactly 4 zeros, 4 ones, 6 edges labeled 0
    and 6 edges labeled 1.
    """
    r = (k - k0) // 4
    return seed[:k0] + (1, 1, 0, 1) * r + seed[k0:] + (1, 0, 0, 0) * r


def construct_mobius_labeling(k: int) -> Certificate:
    """Cordial labeling for any admissible width: a base labeling plus periods."""
    if not is_cordial_mobius(k):
        raise NotApplicable("no cordial labeling exists when the width is 2 modulo 4")
    k0 = {3: 3, 0: 4, 1: 5}[k % 4]
    labels = _mobius_labels(_MOBIUS_BASE_LABELS[k0], k0, k)
    return witness("cordial", labels, family="mobius", param=k)


def _mobius_deficiency_labels(k: int, seed: tuple[int, ...]) -> tuple[int, ...]:
    """A width-6 seed extended to width k, for the widths 2 modulo 4 only."""
    if is_cordial_mobius(k):
        raise NotApplicable("the deficiency witnesses apply to widths 2 modulo 4 only")
    return _mobius_labels(seed, 6, k)


def mobius_ced_witness(k: int) -> Certificate:
    """Friendly labeling two edges apart plus one mixed edge addition."""
    labels = _mobius_deficiency_labels(k, _MOBIUS6_CED_LABELS)
    return witness("ced", labels, 1, repair=1, family="mobius", param=k)


def mobius_cvd_witness(k: int) -> Certificate:
    """Edge-balanced labeling two vertices apart plus one isolated zero."""
    labels = _mobius_deficiency_labels(k, _MOBIUS6_CVD_LABELS)
    return witness("cvd", labels, 1, family="mobius", param=k)


# ------------------------------------------------------------- cycle, wheel


def _cycle_pattern(n: int) -> tuple[int, ...]:
    """Labels 1100 repeated over n vertices."""
    return ((1, 1, 0, 0) * (n // 4 + 1))[:n]


def is_cordial_cycle(n: int) -> bool:
    FamilySpec("cycle", n)
    return n % 4 != 2


def cycle_cordial_labeling(n: int) -> Certificate:
    if not is_cordial_cycle(n):
        raise NotApplicable("no cordial labeling exists when the length is 2 modulo 4")
    return witness("cordial", _cycle_pattern(n), family="cycle", param=n)


def is_cordial_wheel(n: int) -> bool:
    FamilySpec("wheel", n)
    return n % 4 != 3


def _wheel_rim(n: int) -> tuple[int, ...]:
    # lengths 2 mod 4 need a longer leading run; the plain cycle pattern
    # would leave the spokes unable to absorb the rim imbalance
    return (1, 1) + _cycle_pattern(n - 2) if n % 4 == 2 else _cycle_pattern(n)


def wheel_cordial_labeling(n: int) -> Certificate:
    """Hub labeled 0; rim chosen so spokes rebalance the rim's edge counts."""
    if not is_cordial_wheel(n):
        raise NotApplicable("no cordial labeling exists when the rim is 3 modulo 4")
    return witness("cordial", _wheel_rim(n) + (0,), family="wheel", param=n)


def _wheel_deficiency_labels(n: int, hub: int) -> tuple[int, ...]:
    """The cycle-patterned rim, for rims 3 modulo 4 from 7 on, then the hub."""
    if is_cordial_wheel(n):
        raise NotApplicable("the deficiency witnesses apply to rims 3 modulo 4 only")
    if n < 7:
        raise NotApplicable("witness construction starts at rim length 7")
    return _cycle_pattern(n) + (hub,)


def wheel_ced_witness(n: int) -> Certificate:
    """Hub 0 over the cycle-patterned rim, repaired by one same-labeled edge."""
    labels = _wheel_deficiency_labels(n, 0)
    return witness("ced", labels, 1, repair=0, family="wheel", param=n)


def wheel_cvd_witness(n: int) -> Certificate:
    """Hub 1 balances the edges exactly; one isolated zero restores friendliness."""
    return witness("cvd", _wheel_deficiency_labels(n, 1), 1, family="wheel", param=n)


# ---------------------------------------------------------------- registry


class FamilyDef(NamedTuple):
    """What is known about one family, keyed by measure and target.

    cordial, ced and cvd are closed forms of the size, None where the family
    has none; a form may return None at sizes it does not cover.
    cvd_square_rule, set only beside a cvd form, is the literal square-rule
    form that cross-validation compares with the search in place of cvd.
    constructions maps each target to a certificate constructor, in the
    order cordial, ced, cvd; a constructor raises NotApplicable at sizes
    without a witness, and CordialError below the family's least size.
    parity_lower: the parity obstruction is the lower bound that backs the
    witnesses of noncordial members.
    """

    cordial: Callable[[int], bool] | None = None
    ced: Callable[[int], DeficiencyValue | None] | None = None
    cvd: Callable[[int], DeficiencyValue] | None = None
    cvd_square_rule: Callable[[int], DeficiencyValue] | None = None
    # one dict shared by every FamilyDef that omits it; nothing writes to it
    constructions: Mapping[str, Callable[[int], Certificate]] = {}
    parity_lower: bool = False

    def formula(self, measure: str, size: int):
        """Value of the closed form named measure at size, or None."""
        form = getattr(self, measure)
        return None if form is None else form(size)


def _one_if_noncordial(is_cordial: Callable[[int], bool]):
    # both deficiencies are 0 on cordial members and 1 on the others
    return lambda size: DeficiencyValue.finite(0 if is_cordial(size) else 1)


REGISTRY: dict[str, FamilyDef] = {
    "complete": FamilyDef(
        cordial=is_cordial_complete,
        ced=lambda n: ced_complete(n) if n >= 2 else None,
        cvd=cvd_complete,
        cvd_square_rule=cvd_complete_literal,
        constructions={
            "cordial": complete_cordial_labeling,
            "ced": complete_ced_witness,
            "cvd": complete_cvd_witness,
        },
    ),
    "cycle": FamilyDef(
        cordial=is_cordial_cycle,
        constructions={"cordial": cycle_cordial_labeling},
    ),
    "path": FamilyDef(),
    "ladder": FamilyDef(),
    "mobius": FamilyDef(
        cordial=is_cordial_mobius,
        ced=_one_if_noncordial(is_cordial_mobius),
        cvd=_one_if_noncordial(is_cordial_mobius),
        constructions={
            "cordial": construct_mobius_labeling,
            "ced": mobius_ced_witness,
            "cvd": mobius_cvd_witness,
        },
        parity_lower=True,
    ),
    "wheel": FamilyDef(
        cordial=is_cordial_wheel,
        ced=_one_if_noncordial(is_cordial_wheel),
        cvd=_one_if_noncordial(is_cordial_wheel),
        constructions={
            "cordial": wheel_cordial_labeling,
            "ced": wheel_ced_witness,
            "cvd": wheel_cvd_witness,
        },
        parity_lower=True,
    ),
}


def family_certificates(family: str, size: int) -> list[tuple[str, Certificate]]:
    """(target, certificate) for every witness the family has at this size.

    Sizes where a constructor does not apply are skipped; a size below the
    family's least raises CordialError, a failed witness SelfCheckFailed.
    """
    certs = []
    for target, build in REGISTRY[family].constructions.items():
        try:
            certs.append((target, build(size)))
        except NotApplicable:
            continue
    return certs
