"""Replay of the certificate checker's verdicts and fault order.

The fixture tests/data/checker_faults.jsonl holds seeded in-memory
certificates of every kind, on family and explicit graph references, each
with one to three faults drawn from _FAULTS, one JSON record a line:
[faults, certificate, graph, shared, outcome]. faults names the faults
applied, in order. certificate is the nine Certificate fields in order,
encoded by _freeze: a JSON array is a tuple and {"list": [...]} a list;
every other value stands for itself. graph is null or the [n, edges] of an
explicit graph passed to check_certificate as graph=, and shared says the
certificate's edges are that graph's own edges object. outcome is
["accepted"], ["rejected", reason], or the name and message of what the
check raised. So a checker rewrite must keep every verdict, and, for a
certificate with several faults, name the same one first.

Regenerate with `PYTHONPATH=src python tests/test_checker_faults.py` only
when a verdict or a message is meant to change.
"""

import json
import random
from pathlib import Path

from cordial.certify import MEASURES, Certificate, check_certificate
from cordial.errors import CordialError
from cordial.families import family_certificates
from cordial.graph_core import FAMILIES, FamilySpec, MultiGraph
from cordial.oracle import solve

FIXTURE = Path(__file__).parent / "data" / "checker_faults.jsonl"
SEED = 30
RECORDS = 400


def _freeze(value):
    if isinstance(value, tuple):
        return [_freeze(v) for v in value]
    if isinstance(value, list):
        return {"list": [_freeze(v) for v in value]}
    return value


def _thaw(value):
    if isinstance(value, list):
        return tuple(_thaw(v) for v in value)
    if isinstance(value, dict):
        return [_thaw(v) for v in value["list"]]
    return value


def _outcome(cert, graph):
    try:
        verdict = check_certificate(cert, graph=graph)
    except Exception as exc:  # the type and message are what is pinned
        return [type(exc).__name__, str(exc)]
    return ["accepted"] if verdict.accepted else ["rejected", verdict.reason]


def _set_label(labels, value, rng):
    if not labels:
        return (value,)
    i = rng.randrange(len(labels))
    return labels[:i] + (value,) + labels[i + 1:]


def _n(cert):
    return len(cert.labels) or 1


def _pair(rng, n):
    return tuple(rng.sample(range(n), 2)) if n > 1 else (0, 1)


# name -> f(cert, rng) -> the certificate with that fault
_FAULTS = {
    "kind unknown": lambda c, r: c._replace(kind="cordiality"),
    "kind other": lambda c, r: c._replace(kind=r.choice([k for k in MEASURES if k != c.kind])),
    "kind not a str": lambda c, r: c._replace(kind=0),
    "claim negative": lambda c, r: c._replace(claimed_value=-1),
    "claim bool": lambda c, r: c._replace(claimed_value=True),
    "claim float": lambda c, r: c._replace(claimed_value=float(c.claimed_value)),
    "claim one more": lambda c, r: c._replace(claimed_value=c.claimed_value + 1),
    "claim str": lambda c, r: c._replace(claimed_value=str(c.claimed_value)),
    "param bool": lambda c, r: c._replace(param=True),
    "param float": lambda c, r: c._replace(param=2.0),
    "param negative": lambda c, r: c._replace(param=-3),
    "param one more": lambda c, r: c._replace(param=(c.param or 0) + 1),
    "param none": lambda c, r: c._replace(param=None),
    "family unknown": lambda c, r: c._replace(family="star"),
    "family other": lambda c, r: c._replace(family=r.choice(FAMILIES)),
    "family none": lambda c, r: c._replace(family=None),
    "family added": lambda c, r: c._replace(family="complete", param=_n(c)),
    "n bool": lambda c, r: c._replace(n=False),
    "n float": lambda c, r: c._replace(n=float(_n(c))),
    "n negative": lambda c, r: c._replace(n=-1),
    "n one more": lambda c, r: c._replace(n=(c.n or 0) + 1),
    "n none": lambda c, r: c._replace(n=None),
    "no graph": lambda c, r: c._replace(family=None, param=None, n=None, edges=None),
    "edges none": lambda c, r: c._replace(edges=None),
    "edges list": lambda c, r: c._replace(edges=list(c.edges or ())),
    "edges triple": lambda c, r: c._replace(edges=(c.edges or ()) + ((0, 1, 2),)),
    "edges loop": lambda c, r: c._replace(edges=(c.edges or ()) + ((0, 0),)),
    "edges out of range": lambda c, r: c._replace(edges=(c.edges or ()) + ((0, _n(c)),)),
    "edges float id": lambda c, r: c._replace(edges=(c.edges or ()) + ((0.0, 1),)),
    "edges one more": lambda c, r: c._replace(edges=(c.edges or ()) + (_pair(r, _n(c)),)),
    "edges one less": lambda c, r: c._replace(edges=(c.edges or ((0, 1),))[1:]),
    "edges added": lambda c, r: c._replace(n=_n(c), edges=(_pair(r, _n(c)),)),
    "labels list": lambda c, r: c._replace(labels=list(c.labels)),
    "labels str": lambda c, r: c._replace(labels="".join(map(str, c.labels))),
    "labels a two": lambda c, r: c._replace(labels=_set_label(c.labels, 2, r)),
    "labels a bool": lambda c, r: c._replace(labels=_set_label(c.labels, True, r)),
    "labels a float": lambda c, r: c._replace(labels=_set_label(c.labels, 1.0, r)),
    "labels a bit flipped": lambda c, r: c._replace(labels=_set_label(c.labels, r.randint(0, 1), r)),
    "labels all zero": lambda c, r: c._replace(labels=(0,) * len(c.labels)),
    "labels shuffled": lambda c, r: c._replace(labels=tuple(r.sample(c.labels, len(c.labels)))),
    "labels one less": lambda c, r: c._replace(labels=c.labels[1:]),
    "labels one more": lambda c, r: c._replace(labels=c.labels + (0,)),
    "added edge loop": lambda c, r: c._replace(added_edges=c.added_edges + ((1, 1),)),
    "added edge out of range": lambda c, r: c._replace(added_edges=((0, _n(c) + 2),) + c.added_edges),
    "added edge triple": lambda c, r: c._replace(added_edges=c.added_edges + ((0, 1, 1),)),
    "added edge float": lambda c, r: c._replace(added_edges=c.added_edges + ((0, 1.0),)),
    "added edges list": lambda c, r: c._replace(added_edges=list(c.added_edges)),
    "added edge one more": lambda c, r: c._replace(added_edges=c.added_edges + (_pair(r, _n(c)),)),
    "added edge one less": lambda c, r: c._replace(added_edges=c.added_edges[1:]),
    "added label two": lambda c, r: c._replace(added_vertex_labels=c.added_vertex_labels + (2,)),
    "added label bool": lambda c, r: c._replace(added_vertex_labels=(False,) + c.added_vertex_labels),
    "added labels list": lambda c, r: c._replace(added_vertex_labels=list(c.added_vertex_labels)),
    "added label one more": lambda c, r: c._replace(added_vertex_labels=c.added_vertex_labels + (r.randint(0, 1),)),
    "added label one less": lambda c, r: c._replace(added_vertex_labels=c.added_vertex_labels[1:]),
}


# the faults that replace a field by a value of another type
_RETYPE = {name for name in _FAULTS if name.endswith((" list", " str", " none")) or name == "no graph"}


def _bases(rng):
    """Checked certificates to break: family witnesses, scan witnesses on
    seeded multigraphs, and both with the other reference added."""
    family_certs = []
    for family in FAMILIES:
        for size in range(1, 11):
            try:
                if FamilySpec(family, size).vertex_count > 10:
                    continue
            except CordialError:  # below the family's least size
                continue
            family_certs += [cert for _, cert in family_certificates(family, size)]
    while True:
        if rng.random() < 0.5:
            cert = rng.choice(family_certs)
            if rng.random() < 0.25:  # the agreeing explicit graph as well
                g = FamilySpec(cert.family, cert.param).build()
                cert = cert._replace(n=g.n, edges=g.edges)
            yield cert, None
            continue
        n = rng.randint(2, 8)
        g = MultiGraph(n, [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 12))])
        kind = rng.choice(MEASURES)
        cert = solve(g, (kind,))[kind].witness
        if cert is None:  # an infinite measure: a labeling that claims 0
            cert = Certificate(kind, tuple(rng.randint(0, 1) for _ in range(n)), 0,
                               n=n, edges=g.edges)
        yield cert, g if rng.random() < 0.5 else None


def records():
    rng = random.Random(SEED)
    bases = _bases(rng)
    for _ in range(RECORDS):
        cert, g = next(bases)
        faults = rng.sample(sorted(_FAULTS), rng.randint(1, 3))
        # a fault that changes a field's type goes after those that edit it
        faults.sort(key=lambda name: name in _RETYPE)
        for fault in faults:
            cert = _FAULTS[fault](cert, rng)
        shared = g is not None and cert.edges is g.edges
        graph = None if g is None else [g.n, _freeze(g.edges)]
        yield [faults, _freeze(tuple(cert)), graph, shared, _outcome(cert, g)]


def test_the_checker_keeps_every_verdict_and_fault_order():
    lines = FIXTURE.read_text().splitlines()
    assert len(lines) == RECORDS
    kinds, refs = set(), set()
    for line in lines:
        faults, fields, graph, shared, outcome = json.loads(line)
        cert = Certificate(*_thaw(fields))
        g = None
        if graph is not None:
            g = MultiGraph(graph[0], _thaw(graph[1]))
            if shared:
                cert = cert._replace(edges=g.edges)
        assert _outcome(cert, g) == outcome, (faults, line)
        kinds.add(cert.kind)
        refs.add((cert.family is None, cert.n is None))
    assert set(MEASURES) <= kinds and {(True, False), (False, True), (False, False)} <= refs


if __name__ == "__main__":
    with FIXTURE.open("w") as out:
        for record in records():
            out.write(json.dumps(record, separators=(",", ":")) + "\n")
