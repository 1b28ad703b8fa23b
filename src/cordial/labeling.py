"""Binary vertex labelings, induced edge labels, balance accounting, and the
degree-parity noncordiality test."""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import NamedTuple

from .errors import IdOutOfRange, LengthMismatch
from .graph_core import MultiGraph


class FrozenRecord:
    """An immutable record over its __slots__ fields, for the records that
    must not be tuples: equality, hashing, repr and pickling by field value.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class VertexLabeling(FrozenRecord):
    """An assignment of one bit per vertex id, index 0 first."""

    __slots__ = ("labels",)

    def __init__(self, labels: tuple[int, ...]):
        clean = tuple(int(b) for b in labels)
        if any(b not in (0, 1) for b in clean):
            raise ValueError("labels must be bits")
        object.__setattr__(self, "labels", clean)

    @classmethod
    def from_string(cls, bits: str) -> VertexLabeling:
        if any(c not in "01" for c in bits):
            raise ValueError(f"invalid bit string {bits!r}")
        return cls(tuple(int(c) for c in bits))

    @classmethod
    def from_encoding(cls, encoding: int, n: int) -> VertexLabeling:
        # bit i of the integer is the label of vertex i
        return cls(tuple((encoding >> i) & 1 for i in range(n)))

    @property
    def encoding(self) -> int:
        return sum(b << i for i, b in enumerate(self.labels))

    def complement(self) -> VertexLabeling:
        return VertexLabeling(tuple(1 - b for b in self.labels))

    def to_string(self) -> str:
        return "".join(str(b) for b in self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> int:
        return self.labels[i]

    def __iter__(self):
        return iter(self.labels)


class BalanceReport(NamedTuple):
    """The four counts a cordiality check compares."""

    v0: int
    v1: int
    e0: int
    e1: int

    @property
    def vertex_diff(self) -> int:
        return abs(self.v0 - self.v1)

    @property
    def edge_diff(self) -> int:
        return abs(self.e0 - self.e1)


def roughly_equal(x: int, y: int) -> bool:
    """Within one of each other."""
    return abs(x - y) <= 1


def induced_edge_label(f: VertexLabeling, u: int, v: int) -> int:
    """XOR of the endpoint labels."""
    n = len(f)
    if not (0 <= u < n) or not (0 <= v < n):
        raise IdOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
    return f[u] ^ f[v]


def balance(g: MultiGraph, f: VertexLabeling | tuple[int, ...]) -> BalanceReport:
    """Exact label counts of f, a VertexLabeling or bit tuple; edges count with multiplicity."""
    if len(f) != g.n:
        raise LengthMismatch(
            f"labeling has {len(f)} bits for a graph on {g.n} vertices"
        )
    labels = f.labels if isinstance(f, VertexLabeling) else f
    v1 = sum(labels)
    e1 = sum([labels[u] ^ labels[v] for u, v in g.edges])
    return BalanceReport(v0=g.n - v1, v1=v1, e0=g.m - e1, e1=e1)


def is_friendly(g: MultiGraph, f: VertexLabeling) -> bool:
    return balance(g, f).vertex_diff <= 1


def is_cordial_labeling(g: MultiGraph, f: VertexLabeling) -> bool:
    rep = balance(g, f)
    return rep.vertex_diff <= 1 and rep.edge_diff <= 1


def first_pair_with_edge_label(f: VertexLabeling | tuple[int, ...],
                               label: int) -> tuple[int, int] | None:
    """Lexicographically smallest vertex pair whose induced label under f, a
    VertexLabeling or a bit tuple, matches."""
    pairs = combinations(range(len(f)), 2)  # in lexicographic order
    return next(((u, v) for u, v in pairs if f[u] ^ f[v] == label), None)


class ParityOutcome(Enum):
    NOT_CORDIAL_BY_PARITY = "NotCordialByParity"
    INCONCLUSIVE = "Inconclusive"


class ParityVerdict(NamedTuple):
    outcome: ParityOutcome
    detail: str
    required_parity: int | None = None
    achievable_parities: tuple[int, ...] = ()


def parity_obstruction(g: MultiGraph) -> ParityVerdict:
    """Degree-parity test for noncordiality.

    Summing induced labels edge by edge counts each vertex label deg(v) times,
    so e1 = sum of deg(v) over 1-labeled v, mod 2. With an even edge count m a
    cordial labeling must hit e1 = m/2 exactly, and friendliness pins how many
    odd-degree vertices can be labeled 1; if the required parity of e1 is
    unreachable, no cordial labeling exists. Sound but not complete.
    """
    m = g.m
    if m % 2 == 1:
        return ParityVerdict(
            ParityOutcome.INCONCLUSIVE,
            "odd edge count leaves both parities of e1 admissible",
        )
    need = (m // 2) % 2
    n_odd = sum(1 for d in g.degrees if d % 2 == 1)
    n_even = g.n - n_odd
    achievable: set[int] = set()
    for ones in {g.n // 2, (g.n + 1) // 2}:
        # ones = total 1-labeled vertices; j of them have odd degree
        j_lo = max(0, ones - n_even)
        j_hi = min(ones, n_odd)
        if j_lo > j_hi:
            continue
        achievable.add(j_lo % 2)
        if j_hi > j_lo:
            achievable.add(1 - j_lo % 2)
    parities = tuple(sorted(achievable))
    if need not in achievable:
        return ParityVerdict(
            ParityOutcome.NOT_CORDIAL_BY_PARITY,
            f"cordial needs e1 = {m // 2} (parity {need}) but friendly labelings"
            f" only reach e1 parities {parities}",
            need,
            parities,
        )
    return ParityVerdict(
        ParityOutcome.INCONCLUSIVE,
        f"required e1 parity {need} is achievable",
        need,
        parities,
    )
