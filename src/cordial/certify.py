"""Machine-checkable certificates for cordiality and deficiency upper bounds,
plus cross-validation of the closed forms against the exhaustive oracle.

A certificate proves an upper bound only: Accepted means the exhibited
labeling (plus its stated augmentation) achieves the claimed value. Matching
lower bounds come from exhaustion or the parity obstruction and are recorded
by the validation report, never assumed. witness() builds and checks every
certificate the package makes; parse_certificate reads the rest. The closed
forms, witnesses and lower-bound sources that cross_validate compares come
from families.REGISTRY.

The value types DeficiencyValue and InfinityReason, and the search cap
DEFAULT_MAX_VERTICES, live here: this is the lowest module that both oracle
and families import, so families reads them without loading the scan. json
loads only when a certificate is read or written.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain
from typing import Iterable, NamedTuple

from .errors import CordialError, MalformedCertificate, SelfCheckFailed, self_check
from .graph_core import FAMILIES, FamilySpec, MultiGraph
from .labeling import balance, first_pair_with_edge_label, parity_obstruction

# the certificate kinds, which are also the oracle's measures
MEASURES = ("cordial", "ced", "cvd")
# the largest graph the exhaustive search takes unless a caller raises it
DEFAULT_MAX_VERTICES = 24
# the one kind that may list each addition; cordial lists none
_ADDITIONS = {"added_edges": "ced", "added_vertex_labels": "cvd"}
# the running cross_validate row's spec and its member, which the row's
# witness checks read in place of a build; empty outside a row
_shared: dict[FamilySpec, MultiGraph] = {}


class InfinityReason(Enum):
    STRICTLY_NONCORDIAL = "StrictlyNoncordial"
    NO_FEASIBLE_AUGMENTATION = "NoFeasibleAugmentation"


class DeficiencyValue(NamedTuple):
    """A deficiency: a non-negative integer, or infinity (None) with a stated reason."""

    value: int | None
    reason: InfinityReason | None = None

    @classmethod
    def finite(cls, value: int) -> "DeficiencyValue":
        if value < 0:
            raise ValueError("deficiencies are non-negative")
        return cls(value, None)

    @classmethod
    def infinite(cls, reason: InfinityReason) -> "DeficiencyValue":
        return cls(None, reason)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def render(self) -> str:
        return "infinity" if self.is_infinite else str(self.value)

    def describe(self) -> str:
        if self.is_infinite:
            return f"infinity ({self.reason.value})"
        return str(self.value)


class Certificate(NamedTuple):
    """A labeling-based upper-bound witness for one graph.

    The graph is given either as a (family, param) reference, expanded by the
    generators at check time, or as an explicit (n, edges) pair; when both are
    present they must agree.
    """

    kind: str
    labels: tuple[int, ...]
    claimed_value: int
    family: str | None = None
    param: int | None = None
    n: int | None = None
    edges: tuple[tuple[int, int], ...] | None = None
    added_edges: tuple[tuple[int, int], ...] = ()
    added_vertex_labels: tuple[int, ...] = ()


class Verdict(NamedTuple):
    accepted: bool
    reason: str = ""


def _structural_check(cert: Certificate, graph: MultiGraph | None) -> MultiGraph:
    if cert.kind not in MEASURES:
        raise MalformedCertificate(f"unknown kind {cert.kind!r}")
    if _expect_int(cert.claimed_value, "claimed_value") < 0:
        raise MalformedCertificate("claimed_value must be non-negative")
    # the JSON readers' integer test, so every certificate judged here
    # serializes to JSON that parses back to it
    for key in ("param", "n"):
        if getattr(cert, key) is not None:
            _expect_int(getattr(cert, key), key)
    # labels and additions of plain ints pass in one C-level type pass, else
    # the first faulty one is named in key order; the graph build checks edges
    try:
        held = [cert.labels, *cert.added_edges, cert.added_vertex_labels]
        clean = (set(map(len, cert.added_edges)) <= {2}
                 and set(map(type, chain.from_iterable(held))) <= {int})
    except TypeError:  # a field, or an added_edges item, that is not a sequence
        clean = False
    if not clean:
        for key in ("labels", "added_edges", "added_vertex_labels"):
            try:
                values = iter(getattr(cert, key))
            except TypeError:
                raise MalformedCertificate(f"{key} must be a sequence") from None
            for value in _endpoints(values) if key == "added_edges" else values:
                _expect_int(value, key)
    for key in ("labels", "added_vertex_labels"):
        if not set(getattr(cert, key)) <= {0, 1}:
            raise MalformedCertificate(f"{key} must be bits")
    # a kind lists only its own additions, one for each unit it claims
    own = None
    for key, kind in _ADDITIONS.items():
        if kind == cert.kind:
            own = key
        elif getattr(cert, key):
            raise MalformedCertificate(f"{cert.kind} certificates may not list {key}")
    listed = len(getattr(cert, own)) if own else 0
    if listed != cert.claimed_value:
        raise MalformedCertificate(
            f"claimed_value {cert.claimed_value} != {listed} {own.replace('_', ' ')}"
            if own else f"a {cert.kind} certificate must claim 0"
        )
    # the graph reference's shape, then the label count, compared before any
    # build: the size of a family member is untrusted input
    for first, second in (("family", "param"), ("n", "edges")):
        if (getattr(cert, first) is None) != (getattr(cert, second) is None):
            raise MalformedCertificate(f"{first} and {second} must appear together")
    if cert.param is None and cert.n is None:
        raise MalformedCertificate("no graph: need (family, param) or (n, edges)")
    spec = None
    if cert.family is not None:
        if cert.family not in FAMILIES:
            raise MalformedCertificate(f"unknown family {cert.family!r}")
        try:
            spec = FamilySpec(cert.family, cert.param)
        except CordialError as exc:
            raise MalformedCertificate(f"bad family reference: {exc}") from None
    n = cert.n if spec is None else spec.vertex_count
    if len(cert.labels) != n:
        raise MalformedCertificate(
            f"{len(cert.labels)} labels for a graph on {n} vertices"
        )
    if spec is None and graph is not None and graph.n == n and graph.edges is cert.edges:
        return graph  # built from these very edges, so already validated
    by_family = None if spec is None else _shared.get(spec) or spec.build()
    if cert.n is None:
        return by_family
    try:
        by_edges = MultiGraph(cert.n, cert.edges)
    except CordialError as exc:  # a non-integer id, a loop or a stray id
        raise MalformedCertificate(f"bad explicit graph: {exc}") from None
    except (TypeError, ValueError):  # an edge MultiGraph cannot unpack
        raise MalformedCertificate("edges must be (u, v) pairs") from None
    if by_family is not None and by_family != by_edges:
        raise MalformedCertificate("family expansion disagrees with explicit edges")
    return by_edges


def _endpoints(pairs):
    """Both endpoints of every added edge; an item that is not a pair is malformed."""
    for pair in pairs:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise MalformedCertificate("added_edges must be (u, v) pairs") from None
        yield u
        yield v


def check_certificate(cert: Certificate, graph: MultiGraph | None = None) -> Verdict:
    """Accept iff the labeled graph plus its stated additions is cordial.

    ced adds the listed edges and cvd the listed isolated labeled vertices, so
    the vertex labels counted with every addition must be friendly and the
    edge labels balanced (each pair within one). A kind tests the count its
    additions repair last, and calls a failure there augmented: ced rejects
    an unfriendly labeling before a loop or an out-of-range added edge, and
    cvd rejects unbalanced edge labels before its vertex count. Structural
    breakage raises MalformedCertificate instead of rejecting. graph is used
    unbuilt only if its n and its edges object are the certificate's own. A
    family reference is built by FamilySpec.build, except the member of the
    cross_validate row that is running, which the row built once already.
    """
    g = _structural_check(cert, graph)
    f = cert.labels
    rep = balance(g, f)
    vertices, edges = [rep.v0, rep.v1], [rep.e0, rep.e1]
    for b in cert.added_vertex_labels:
        vertices[b] += 1
    bad_edge = ""
    for u, v in cert.added_edges:
        if u == v or not (0 <= u < g.n and 0 <= v < g.n):
            bad_edge = f"added edge ({u}, {v}) " + (
                "is a loop" if u == v else f"outside 0..{g.n - 1}")
            break
        edges[f[u] ^ f[v]] += 1
    tests = [("added_vertex_labels", "vertex labels not friendly", vertices),
             ("added_edges", "edge labels unbalanced", edges)]
    for key, fault, (c0, c1) in sorted(tests, key=lambda t: _ADDITIONS[t[0]] == cert.kind):
        repaired = _ADDITIONS[key] == cert.kind
        if repaired and bad_edge:
            return Verdict(False, bad_edge)
        if abs(c0 - c1) > 1:
            return Verdict(False, f"{'augmented ' * repaired}{fault} ({c0} vs {c1})")
    return Verdict(True)


def witness(kind: str, labels, value: int = 0, repair: int | None = None,
            graph: MultiGraph | None = None, **ref) -> Certificate:
    """Build a kind witness on labels and check it; every witness comes from here.

    ref is family=, param= or n=, edges=. graph, in place of ref, is a
    MultiGraph: its n and edges are the reference, and the check uses it
    unbuilt. A ced witness adds value copies of the first vertex pair whose
    induced label is repair; a cvd witness adds value isolated vertices of
    the minority label. A rejected or malformed certificate is a bug in its
    maker and raises SelfCheckFailed.
    """
    labels = tuple(labels)
    if graph is not None:
        ref = {"n": graph.n, "edges": graph.edges}
    additions = {}
    if value and kind == "ced":
        pair = first_pair_with_edge_label(labels, repair)
        self_check(pair is not None, f"no vertex pair with induced label {repair}")
        additions["added_edges"] = (pair,) * value
    elif value and kind == "cvd":
        minority = 0 if 2 * sum(labels) > len(labels) else 1
        additions["added_vertex_labels"] = (minority,) * value
    cert = Certificate(kind, labels, value, **additions, **ref)
    try:
        verdict = check_certificate(cert, graph=graph)
    except MalformedCertificate as exc:
        raise SelfCheckFailed(f"{kind} witness malformed: {exc}") from None
    self_check(verdict.accepted, f"{kind} witness rejected: {verdict.reason}")
    return cert


def _expect_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise MalformedCertificate(f"{what} must be a string")
    return value


def _expect_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedCertificate(f"{what} must be an integer")
    return value


def _expect_pairs(value, what: str) -> tuple[tuple[int, int], ...]:
    if not isinstance(value, list):
        raise MalformedCertificate(f"{what} must be an array of [u, v] pairs")
    pairs = []
    for item in value:
        if not isinstance(item, list) or len(item) != 2:
            raise MalformedCertificate(f"{what} must be an array of [u, v] pairs")
        pairs.append((_expect_int(item[0], what), _expect_int(item[1], what)))
    return tuple(pairs)


def _expect_bits(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, str) or any(c not in "01" for c in value):
        raise MalformedCertificate(f"{what} must be a bit string")
    return tuple(map(int, value))


# every JSON key in serialized order, with the reader that checks its value;
# a certificate with several faults reports the first in this order. A null
# family is read as no family reference.
_JSON_KEYS = {
    "kind": _expect_str,
    "family": lambda value, what: value if value is None else _expect_str(value, what),
    "param": _expect_int,
    "n": _expect_int,
    "edges": _expect_pairs,
    "labels": _expect_bits,
    "added_edges": _expect_pairs,
    "added_vertex_labels": _expect_bits,
    "claimed_value": _expect_int,
}


def serialize_certificate(cert: Certificate) -> str:
    """Deterministic JSON rendering; key order is fixed."""
    import json

    payload = {}
    for key, read in _JSON_KEYS.items():
        value = getattr(cert, key)
        if value is not None and _ADDITIONS.get(key, cert.kind) == cert.kind:
            payload[key] = "".join(map(str, value)) if read is _expect_bits else value
    return json.dumps(payload, indent=2) + "\n"


def parse_certificate(text: str) -> Certificate:
    """Inverse of serialize_certificate; shape problems raise MalformedCertificate."""
    import json

    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedCertificate(f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise MalformedCertificate("certificate must be a JSON object")
    unknown = sorted(set(raw) - set(_JSON_KEYS))
    if unknown:
        raise MalformedCertificate(f"unknown keys: {', '.join(unknown)}")
    if "kind" not in raw or "labels" not in raw or "claimed_value" not in raw:
        raise MalformedCertificate("kind, labels and claimed_value are required")
    return Certificate(**{key: read(raw[key], key)
                          for key, read in _JSON_KEYS.items() if key in raw})


class ValidationRow(NamedTuple):
    """One family member's consolidated values and formula-vs-search verdict."""

    family: str
    size: int
    cordial: bool | None
    ced: DeficiencyValue | None
    cvd: DeficiencyValue | None
    source: str
    match: bool
    witnesses: tuple[tuple[str, bool], ...] = ()
    notes: tuple[str, ...] = ()


class ValidationReport(NamedTuple):
    rows: tuple[ValidationRow, ...]

    @property
    def mismatches(self) -> tuple[ValidationRow, ...]:
        return tuple(r for r in self.rows if not r.match)

    @property
    def all_match(self) -> bool:
        return not self.mismatches


def _shown(value) -> str:
    """A closed-form or searched value as a mismatch note prints it."""
    return str(value) if isinstance(value, bool) else value.render()


def cross_validate(
    specs: Iterable[FamilySpec],
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> ValidationReport:
    """Compare closed forms, witnesses, and the oracle over family members.

    Formulas and witnesses come from families.REGISTRY, whose constructors
    check their own certificates and raise SelfCheckFailed on a rejection.
    A witness whose claim differs from its family's closed form (the
    operational cvd, not the square rule) makes the row a mismatch.
    The oracle side runs only for members of at most max_vertices; larger
    members keep their formula values and witness verdicts. Noncordial
    members of a family with parity_lower get the parity obstruction as their
    lower bound. Rows are sorted by (family, size) so reports are
    reproducible. A row builds its member at most once, when it searches it
    or its family has witness constructors: the search and the parity bound
    use it, and every witness's check reads it from _shared, which holds
    only the running row's member and is emptied when this returns or raises.
    """
    try:
        return ValidationReport(tuple(_rows(specs, max_vertices)))
    finally:
        _shared.clear()  # no member outlives the call


def _rows(specs: Iterable[FamilySpec], max_vertices: int):
    """cross_validate's rows, one per distinct spec, in (family, size) order."""
    # imported here: oracle and families sit above this module in the import graph
    from . import families as fam
    from . import oracle as orc

    for spec in sorted(set(specs), key=lambda s: (s.family, s.size)):
        within = spec.vertex_count <= max_vertices
        known = fam.REGISTRY[spec.family]
        # the row's own reads use g; _shared only spares its witness checks a
        # build, so a call on another thread that clears it costs a rebuild,
        # never a missing graph
        _shared.clear()
        g = None
        if within or known.constructions:
            g = _shared[spec] = spec.build()
        forms = {m: known.formula(m, spec.size) for m in MEASURES}
        # the square-rule form diverges from the operational minimum at exactly
        # one size; the divergence is what the match flag is meant to surface
        square = known.formula("cvd_square_rule", spec.size)
        notes = []
        if square is None:
            square = forms["cvd"]
        elif square != forms["cvd"]:
            notes.append(f"cvd square-rule value {square.render()} differs from"
                         f" operational value {forms['cvd'].render()}")
        found = {}
        if within:
            solved = orc.solve(g, MEASURES, max_vertices=max_vertices)
            found = {m: result.value for m, result in solved.items()}
            found["cordial"] = solved["cordial"].witness is not None
        match = True
        for m in MEASURES:
            form = square if m == "cvd" else forms[m]
            if form is not None and found.get(m, form) != form:
                match = False
                name = "cordiality" if m == "cordial" else m
                notes.append(f"{name} formula {_shown(form)} vs oracle {_shown(found[m])}")
        # accepted, since each constructor checks its own certificate; but its
        # claim must also equal the closed form it backs, and a cordial
        # witness claims 0, which only a noncordial form denies
        witnesses = []
        for kind, cert in fam.family_certificates(spec.family, spec.size):
            witnesses.append((kind, True))
            form = forms[kind]
            if form not in (None, True, DeficiencyValue.finite(cert.claimed_value)):
                match = False
                shown = "noncordial" if kind == "cordial" else form.render()
                notes.append(f"{kind} witness claims {cert.claimed_value},"
                             f" closed form {shown}")
        if known.parity_lower and not forms["cordial"] and witnesses:
            if parity_obstruction(g):
                notes.append("bounds: witness upper, parity obstruction lower")
            else:
                match = False
                notes.append("parity obstruction unexpectedly inconclusive")
        has_formula = any(form is not None for form in forms.values())
        if within:
            source = "both" if has_formula else "oracle"
        else:
            source = "formula" if has_formula else "none"
        yield ValidationRow(
            family=spec.family,
            size=spec.size,
            **{m: found.get(m, forms[m]) for m in MEASURES},
            source=source,
            match=match,
            witnesses=tuple(witnesses),
            notes=tuple(notes),
        )
