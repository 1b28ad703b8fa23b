"""Machine-checkable certificates for cordiality and deficiency upper bounds,
plus cross-validation of the closed forms against the exhaustive oracle.

A certificate proves an upper bound only: Accepted means the exhibited
labeling (plus its stated augmentation) achieves the claimed value. Matching
lower bounds come from exhaustion or the parity obstruction and are recorded
by the validation report, never assumed. witness() builds and checks every
certificate the package makes, and cordial_witnesses() issues one value-0
witness per kind from one such check; parse_certificate reads the rest. No
other module builds a Certificate (tests/test_lint.py). The closed
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

from .errors import CordialError, MalformedCertificate, SelfCheckFailed
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

    The graph is given either as a (family, param) reference, expanded by
    FamilySpec.build at check time, or as an explicit (n, edges) pair; when both are
    present they must agree. The annotations are the checker's type rule:
    labels and added_vertex_labels are tuples of ints, and added_edges and
    edges tuples of 2-tuples, so each field serializes and parses back equal.
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


_ACCEPTED = Verdict(True)
# each kind's own additions, the key it may list
_OWN = {kind: key for key, kind in _ADDITIONS.items()}
# check_certificate's two tests, (counts index, fault, repaired), in the
# order each kind runs them: the count its additions repair goes last
_TESTS = {
    kind: sorted([(0, "vertex labels not friendly", _ADDITIONS["added_vertex_labels"] == kind),
                  (1, "edge labels unbalanced", _ADDITIONS["added_edges"] == kind)],
                 key=lambda test: test[2])
    for kind in MEASURES
}


def _structural_check(cert: Certificate, graph: MultiGraph | None) -> MultiGraph:
    kind, labels, claimed, family, param, n, edges, added_edges, added_labels = cert
    if kind not in MEASURES:
        raise MalformedCertificate(f"unknown kind {kind!r}")
    if _expect_int(claimed, "claimed_value") < 0:
        raise MalformedCertificate("claimed_value must be non-negative")
    # the JSON readers' integer test, so every certificate judged here
    # serializes to JSON that parses back to it
    if param is not None:
        _expect_int(param, "param")
    if n is not None:
        _expect_int(n, "n")
    # labels and additions must be tuples of integers and of integer pairs,
    # each checked by a few C-level type passes and the first faulty one
    # named in field order; the graph step checks edges
    if type(labels) is not tuple:
        raise MalformedCertificate("labels must be a tuple")
    _expect_ints(labels, "labels")
    _expect_ints(chain.from_iterable(_tuple_pairs(added_edges, "added_edges")), "added_edges")
    if type(added_labels) is not tuple:
        raise MalformedCertificate("added_vertex_labels must be a tuple")
    _expect_ints(added_labels, "added_vertex_labels")
    if not set(labels) <= {0, 1}:
        raise MalformedCertificate("labels must be bits")
    if not set(added_labels) <= {0, 1}:
        raise MalformedCertificate("added_vertex_labels must be bits")
    # a kind lists only its own additions, one for each unit it claims
    for key, values in (("added_edges", added_edges), ("added_vertex_labels", added_labels)):
        if values and _ADDITIONS[key] != kind:
            raise MalformedCertificate(f"{kind} certificates may not list {key}")
    listed = len(added_edges) + len(added_labels)  # the other kind's are empty
    if listed != claimed:
        own = _OWN.get(kind)
        raise MalformedCertificate(
            f"claimed_value {claimed} != {listed} {own.replace('_', ' ')}"
            if own else f"a {kind} certificate must claim 0"
        )
    # the graph reference's shape, then the label count, compared before any
    # build: the size of a family member is untrusted input
    if (family is None) != (param is None):
        raise MalformedCertificate("family and param must appear together")
    if (n is None) != (edges is None):
        raise MalformedCertificate("n and edges must appear together")
    if param is None and n is None:
        raise MalformedCertificate("no graph: need (family, param) or (n, edges)")
    spec = None
    if family is not None:
        if family not in FAMILIES:
            raise MalformedCertificate(f"unknown family {family!r}")
        try:
            spec = FamilySpec(family, param)
        except CordialError as exc:
            raise MalformedCertificate(f"bad family reference: {exc}") from None
    count = n if spec is None else spec.vertex_count
    if len(labels) != count:
        raise MalformedCertificate(
            f"{len(labels)} labels for a graph on {count} vertices"
        )
    if spec is None and graph is not None and graph.n == n and graph.edges is edges:
        return graph  # built from these very edges, so already validated
    by_family = None if spec is None else _shared.get(spec) or spec.build()
    if n is None:
        return by_family
    # outside the try, which would call a shape fault a bad graph
    edges = _tuple_pairs(edges, "edges")
    try:
        by_edges = MultiGraph(n, edges)
    except CordialError as exc:  # a non-integer id, a loop or a stray id
        raise MalformedCertificate(f"bad explicit graph: {exc}") from None
    if by_family is not None and by_family != by_edges:
        raise MalformedCertificate("family expansion disagrees with explicit edges")
    return by_edges


def check_certificate(cert: Certificate, graph: MultiGraph | None = None) -> Verdict:
    """Accept iff the labeled graph plus its stated additions is cordial.

    ced adds the listed edges and cvd the listed isolated labeled vertices, so
    the vertex labels counted with every addition must be friendly and the
    edge labels balanced (each pair within one). A kind tests the count its
    additions repair last, and calls a failure there augmented: ced rejects
    an unfriendly labeling before a loop or an out-of-range added edge, and
    cvd rejects unbalanced edge labels before its vertex count. Structural
    breakage raises MalformedCertificate instead of rejecting; a field that
    is a list, a range or any other sequence in place of the tuple its
    annotation names is breakage too, and is never converted. graph is used
    unbuilt only if its n and its edges object are the certificate's own. A
    family reference is built by FamilySpec.build, except the member of the
    cross_validate row that is running, which the row built once already.
    """
    g = _structural_check(cert, graph)
    f = cert.labels
    v0, v1, e0, e1 = balance(g, f)
    vertices, edges = counts = [v0, v1], [e0, e1]
    for b in cert.added_vertex_labels:
        vertices[b] += 1
    bad_edge = ""
    for u, v in cert.added_edges:
        if u == v or not (0 <= u < g.n and 0 <= v < g.n):
            bad_edge = f"added edge ({u}, {v}) " + (
                "is a loop" if u == v else f"outside 0..{g.n - 1}")
            break
        edges[f[u] ^ f[v]] += 1
    for i, fault, repaired in _TESTS[cert.kind]:
        if repaired and bad_edge:
            return Verdict(False, bad_edge)
        c0, c1 = counts[i]
        if abs(c0 - c1) > 1:
            return Verdict(False, f"{'augmented ' * repaired}{fault} ({c0} vs {c1})")
    return _ACCEPTED


def witness(kind: str, labels, value: int = 0, repair: int | None = None,
            graph: MultiGraph | None = None, family=None, param=None) -> Certificate:
    """Build a kind witness on labels and check it; every witness comes from here.

    The graph is family=, param= or graph=, a MultiGraph: its n and edges
    are the reference, and the check uses it unbuilt. A ced witness adds
    value copies of the first vertex pair whose induced label is repair; a
    cvd witness adds value isolated vertices of the minority label. A
    rejected or malformed certificate is a bug in its maker and raises
    SelfCheckFailed.
    """
    n, edges = (None, None) if graph is None else (graph.n, graph.edges)
    added_edges = added_labels = ()
    if value and kind == "ced":
        pair = first_pair_with_edge_label(labels, repair)
        if pair is None:
            raise SelfCheckFailed(f"no vertex pair with induced label {repair}")
        added_edges = (pair,) * value
    elif value and kind == "cvd":
        minority = 0 if 2 * sum(labels) > len(labels) else 1
        added_labels = (minority,) * value
    cert = Certificate(kind, labels, value, family, param, n, edges, added_edges, added_labels)
    try:
        verdict = check_certificate(cert, graph=graph)
    except MalformedCertificate as exc:
        raise SelfCheckFailed(f"{kind} witness malformed: {exc}") from None
    if not verdict.accepted:
        raise SelfCheckFailed(f"{kind} witness rejected: {verdict.reason}")
    return cert


def cordial_witnesses(kinds, labels, graph: MultiGraph) -> tuple[Certificate, ...]:
    """witness(kind, labels, graph=graph) for each of kinds, in order, from
    one check.

    At value 0 the verdict cannot depend on the kind: no kind lists an
    addition, and the rule then reads only the labeled graph, which the
    certificates share. So the first kind's witness is checked, and every
    kind's certificate is that one under its own kind. kinds must be a
    nonempty sequence of MEASURES.
    """
    if not (kinds and set(kinds) <= set(MEASURES)):
        raise SelfCheckFailed(f"bad kinds {kinds!r}")
    cert = witness(kinds[0], labels, graph=graph)
    return tuple(cert if kind == cert.kind else cert._replace(kind=kind) for kind in kinds)


def _expect_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise MalformedCertificate(f"{what} must be a string")
    return value


def _expect_int(value, what: str) -> int:
    """value, if it is an int; a bool or any other subclass is not one."""
    if type(value) is not int:
        raise MalformedCertificate(f"{what} must be an integer")
    return value


def _expect_ints(values, what: str) -> None:
    """_expect_int on each of values, in one C-level type pass."""
    if not set(map(type, values)) <= {int}:
        raise MalformedCertificate(f"{what} must be an integer")


def _tuple_pairs(value, what: str, shape: str = "(u, v) pairs"):
    """value, if it is a tuple of 2-tuples; else MalformedCertificate."""
    if not (type(value) is tuple and set(map(type, value)) <= {tuple}
            and set(map(len, value)) <= {2}):
        raise MalformedCertificate(f"{what} must be {shape}")
    return value


def _expect_pairs(value, what: str) -> tuple[tuple[int, int], ...]:
    arrays = type(value) is list and set(map(type, value)) <= {list}
    pairs = _tuple_pairs(tuple(map(tuple, value)) if arrays else None, what,
                         "an array of [u, v] pairs")
    _expect_ints(chain.from_iterable(pairs), what)
    return pairs


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
    """Deterministic JSON rendering; key order is fixed.

    Raises MalformedCertificate unless parse_certificate reads the text back
    equal to cert, so no file it writes is refused by the reader. Like the
    reader, it neither resolves nor builds the graph.
    """
    import json

    payload = {}
    try:
        for key, read in _JSON_KEYS.items():
            value = getattr(cert, key)
            if value is not None and _ADDITIONS.get(key, cert.kind) == cert.kind:
                payload[key] = "".join(map(str, value)) if read is _expect_bits else value
        text = json.dumps(payload, indent=2) + "\n"
    except (TypeError, ValueError, RecursionError) as exc:  # no JSON form
        raise MalformedCertificate(f"not serializable as JSON: {exc}") from None
    again = parse_certificate(text)
    for key in _JSON_KEYS:
        if getattr(again, key) != getattr(cert, key):
            raise MalformedCertificate(f"{key} does not read back equal")
    return text


def _json_object(pairs) -> dict:
    """json.loads's object hook: a key given twice is malformed, not overwritten."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedCertificate(f"duplicate key: {key}")
        obj[key] = value
    return obj


def parse_certificate(text: str) -> Certificate:
    """Inverse of serialize_certificate; shape problems raise MalformedCertificate."""
    import json

    try:
        raw = json.loads(text, object_pairs_hook=_json_object)
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
