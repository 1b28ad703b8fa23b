"""Family members, multigraph canonicalization, the edge-list format, and the
contract every record type keeps."""

import ast
import copy
import os
import pickle
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import labeled_multigraphs, multigraphs

import cordial
from cordial import (
    FAMILIES,
    MIN_SIZE,
    DeficiencyValue,
    FamilySpec,
    IdOutOfRange,
    InfinityReason,
    LoopRejected,
    MultiGraph,
    ParseError,
    SizeTooSmall,
    balance,
    check_certificate,
    complete_ced_witness,
    cross_validate,
    parse_edge_list,
    solve,
)
from cordial import certify, errors, families, graph_core, labeling, oracle
from cordial.families import REGISTRY


def test_complete_graph_shape():
    g = FamilySpec("complete", 5).build()
    assert g.n == 5 and g.m == 10
    assert g.degrees == (4, 4, 4, 4, 4)


def test_cycle_graph_shape():
    g = FamilySpec("cycle", 6).build()
    assert g.n == 6 and g.m == 6
    assert set(g.degrees) == {2}


def test_path_graph_shape():
    g = FamilySpec("path", 5).build()
    assert g.m == 4
    assert sorted(g.degrees) == [1, 1, 2, 2, 2]
    assert FamilySpec("path", 1).build().m == 0


def test_ladder_graph_shape():
    g = FamilySpec("ladder", 4).build()
    assert g.n == 8 and g.m == 10
    assert sorted(g.degrees) == [2, 2, 2, 2, 3, 3, 3, 3]


def test_mobius_ladder_is_cubic():
    g = FamilySpec("mobius", 5).build()
    assert g.n == 10 and g.m == 15
    assert set(g.degrees) == {3}
    assert (2, 7) in g.edges  # cross edge (i, i+k)


def test_wheel_graph_shape():
    g = FamilySpec("wheel", 6).build()
    assert g.n == 7 and g.m == 12
    assert g.degrees[6] == 6  # hub is the last vertex
    assert set(g.degrees[:6]) == {3}


def test_edges_are_canonicalized():
    a = MultiGraph(4, [(2, 1), (3, 0), (1, 2)])
    b = MultiGraph(4, [(1, 2), (1, 2), (0, 3)])
    assert a == b
    assert a.edges == ((0, 3), (1, 2), (1, 2))


def test_parallel_edges_kept_with_multiplicity():
    g = MultiGraph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 3
    assert g.degrees == (3, 3)


def test_loop_rejected():
    with pytest.raises(LoopRejected):
        MultiGraph(3, [(1, 1)])


def test_out_of_range_rejected():
    with pytest.raises(IdOutOfRange):
        MultiGraph(3, [(0, 3)])


def test_malformed_pairs_rejected_and_any_pairs_accepted():
    with pytest.raises(ValueError):
        MultiGraph(3, [(0, 1, 2)])
    with pytest.raises(TypeError):
        MultiGraph(3, [5])
    g = MultiGraph(3, ([2, 0] for _ in range(2)))
    assert g.edges == ((0, 2), (0, 2)) and all(type(e) is tuple for e in g.edges)


@pytest.mark.parametrize("n,edges,error,message", [
    (3, [(0.5, 2)], IdOutOfRange, "edge (0.5, 2): vertex ids must be integers"),
    (3, [(True, 2)], IdOutOfRange, "edge (True, 2): vertex ids must be integers"),
    # the type test comes before the loop test, though True == 1
    (3, [(True, 1)], IdOutOfRange, "edge (True, 1): vertex ids must be integers"),
    (3, [(0, 2), (2, 1.0)], IdOutOfRange, "edge (2, 1.0): vertex ids must be integers"),
    (2.5, [], SizeTooSmall, "vertex count must be an integer, got 2.5"),
    (True, [], SizeTooSmall, "vertex count must be an integer, got True"),
], ids=["float-id", "bool-id", "bool-loop", "later-float-id", "float-n", "bool-n"])
def test_non_integer_ids_and_counts_are_refused(n, edges, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        MultiGraph(n, edges)


def test_every_generator_builds_what_the_checked_constructor_builds():
    # the family builders skip MultiGraph's checks, so their edges must be exactly
    # the valid ones, in any order and either orientation
    rng = random.Random(21)
    for family in FAMILIES:
        for size in range(MIN_SIZE[family], 61):
            g = FamilySpec(family, size).build()
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
            rng.shuffle(edges)
            assert MultiGraph(g.n, edges) == g, (family, size)


# every family to at least the largest size the perfbench validate workload
# builds: complete graphs to 200, Mobius ladders to 400, wheels and cycles to 300
@pytest.mark.parametrize("family,top", [
    ("complete", 200), ("mobius", 400), ("wheel", 300), ("cycle", 300),
    ("path", 300), ("ladder", 300),
])
def test_generators_emit_canonical_sorted_edges(family, top):
    # MultiGraph._simple wraps the builder's pairs as they come, as the
    # pairs of a simple graph, so they must also be distinct
    for size in range(MIN_SIZE[family], top + 1):
        edges = FamilySpec(family, size).build().edges
        assert all(u < v for u, v in edges), (family, size)
        assert edges == tuple(sorted(set(edges))), (family, size)


def test_alternating_family_builds_are_never_stale():
    # every FamilySpec.build runs its builder afresh; cycle 9 and path 9
    # differ only in the family, wheel 8 in both family and size
    rim = [(i, (i + 1) % 8) for i in range(8)]
    fresh = {("cycle", 9): MultiGraph(9, [(i, (i + 1) % 9) for i in range(9)]),
             ("path", 9): MultiGraph(9, [(i, i + 1) for i in range(8)]),
             ("wheel", 8): MultiGraph(9, rim + [(i, 8) for i in range(8)])}
    for _ in range(3):
        for member, g in fresh.items():
            assert FamilySpec(*member).build() == g, member


def test_each_build_is_a_new_graph():
    # nothing keeps a member between builds, so a member lives only as long
    # as its callers hold it
    for family in FAMILIES:
        size = MIN_SIZE[family] + 4
        first, second = FamilySpec(family, size).build(), FamilySpec(family, size).build()
        assert first is not second and first.edges is not second.edges
        assert first == second, family


def test_negative_vertex_count_is_refused():
    with pytest.raises(SizeTooSmall, match="^vertex count must be non-negative$"):
        MultiGraph(-1, ())


@pytest.mark.parametrize("family", sorted(MIN_SIZE))
def test_family_minimum_sizes(family):
    FamilySpec(family, MIN_SIZE[family]).build()
    with pytest.raises(SizeTooSmall):
        FamilySpec(family, MIN_SIZE[family] - 1)


@given(
    st.sampled_from(FAMILIES).flatmap(
        lambda f: st.tuples(st.just(f), st.integers(MIN_SIZE[f], 60))
    )
)
def test_family_counts_match_the_built_member(member):
    spec = FamilySpec(*member)
    g = spec.build()
    assert (spec.vertex_count, spec.edge_count) == (g.n, g.m)


def test_package_exports_resolve_and_are_not_modules():
    assert len(set(cordial.__all__)) == len(cordial.__all__)
    for name in cordial.__all__:
        assert not isinstance(getattr(cordial, name), ModuleType), name


def test_the_lazy_namespace_binds_what_the_submodules_define():
    # the package imports a submodule on first access to one of its names;
    # any submodule that holds an exported name holds the same object
    namespace = {}
    exec("from cordial import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cordial.__all__)
    assert set(cordial.__all__) <= set(dir(cordial))
    submodules = [certify, errors, families, graph_core, labeling, oracle]
    for name in set(cordial.__all__) - {"__version__"}:
        held = [getattr(module, name) for module in submodules if hasattr(module, name)]
        assert held and all(value is getattr(cordial, name) for value in held), name
    for name in ("DeficiencyValue", "InfinityReason", "DEFAULT_MAX_VERTICES"):
        assert getattr(oracle, name) is getattr(certify, name)


def test_an_unknown_name_is_no_attribute_so_submodules_still_import():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        cordial.nope
    # a fresh interpreter, where graph_core is not loaded before the import
    src = str(Path(cordial.__file__).resolve().parent.parent)
    code = "from cordial import graph_core; print(graph_core.__name__)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.stdout == "cordial.graph_core\n", proc.stderr


_ROOT = Path(__file__).resolve().parents[1]


def _references(paths, imports=False):
    """(path, top, name) for every name each top-level statement top of
    paths loads, reads as an attribute or spells as a string (and, with
    imports, imports), outside the names top defines."""
    for path in paths:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = getattr(top, "targets", None) or [getattr(top, "target", None)]
            own = {getattr(top, "name", None), *(getattr(t, "id", None) for t in targets)}
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                elif imports and isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name not in own:
                    yield path, top, name


def _program_references() -> set[str]:
    """Every name the package (but its __init__), the scripts and perfbench
    load, read as an attribute or spell as a string, outside the top-level
    definition of that same name."""
    paths = [p for p in (_ROOT / "src" / "cordial").glob("*.py") if p.name != "__init__.py"]
    paths += [*(_ROOT / "scripts").glob("*.py"), *(_ROOT / "perfbench").glob("*.py")]
    return {name for _, _, name in _references(paths)}


def test_every_export_has_a_caller_outside_the_tests():
    # the Python API is no contract: a name only the tests call is not exported
    unused = set(cordial.__all__) - {"__version__"} - _program_references()
    assert not unused, sorted(unused)


# the API from before solve, which only perfbench/ still calls or names
_LEGACY = {"decide_cordial", "ced_oracle", "cvd_oracle", "VertexLabeling",
           "LabeledFamilyInstance"}


def test_the_package_and_the_scripts_name_the_old_api_only_where_it_is_defined():
    # so deleting these names touches no other package code: decide_cordial
    # returns a VertexLabeling, which oracle imports; nothing else names them
    # outside their own definitions, imports and exported names included
    allowed = {("oracle", "decide_cordial"), ("oracle", "ImportFrom")}
    paths = [*(_ROOT / "src" / "cordial").glob("*.py"), *(_ROOT / "scripts").glob("*.py")]
    found = [
        f"{path.name}:{top.lineno} names {word}"
        for path, top, name in _references(paths, imports=True)
        for word in set(re.findall(r"\w+", name)) & _LEGACY
        if word != "VertexLabeling"
        or (path.stem, getattr(top, "name", type(top).__name__)) not in allowed
    ]
    assert not found, found
    assert not _LEGACY & set(cordial.__all__)
    # perfbench/ still calls or names every one of them
    assert all(any(hasattr(m, name) for m in (families, labeling, oracle)) for name in _LEGACY)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        FamilySpec("hypercube", 3)


def test_non_integer_sizes_are_refused():
    for size in (2.5, True, "3"):
        with pytest.raises(SizeTooSmall, match=f"^complete size must be an integer, got {size!r}$"):
            FamilySpec("complete", size)
    # the CLI prints this message for a size below the minimum
    with pytest.raises(SizeTooSmall, match="^cycle requires size >= 3$"):
        FamilySpec("cycle", 1)


def test_edge_list_round_trip():
    g = FamilySpec("mobius", 4).build()
    text = f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)
    assert parse_edge_list(text) == g


@given(multigraphs(min_n=0, max_n=12, max_m=40))
def test_parsed_graph_equals_the_checked_build(g):
    # the parser builds without MultiGraph's checks, so it must order and sort
    # the pairs as MultiGraph does; the text lists each edge flipped, in reverse
    text = f"{g.n} {g.m}\n" + "".join(f"{v} {u}\n" for u, v in reversed(g.edges))
    assert parse_edge_list(text) == MultiGraph(g.n, g.edges)


def _assert_table_recounts(g, labels):
    """g's pair table, m, degrees and balance against per-edge counts over
    g.edges, which never read the table."""
    counts = sorted(Counter(g.edges).items())
    assert g.pairs == tuple(pair for pair, _ in counts)
    assert g.repeats == tuple((i, c - 1) for i, (_, c) in enumerate(counts) if c > 1)
    assert g.mu == max((c for _, c in counts), default=0)
    # a simple graph's pair tuple is its edge tuple
    assert (g.pairs == g.edges) == (not g.repeats)
    assert g.m == len(g.edges) == sum(c for _, c in counts)
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    assert g.degrees == tuple(deg)
    e1 = sum(1 for u, v in g.edges if labels[u] != labels[v])
    v1 = labels.count(1)
    assert balance(g, labels) == (g.n - v1, v1, g.m - e1, e1)


@given(labeled_multigraphs(min_n=0, max_n=12, max_m=60))
def test_the_pair_table_matches_a_per_edge_recount(labeled):
    g, labels = labeled
    text = f"{g.n} {g.m}\n" + "".join(f"{v} {u}\n" for u, v in reversed(g.edges))
    for built in (g, parse_edge_list(text)):
        _assert_table_recounts(built, labels)


def test_the_pair_table_of_every_family_member_and_the_edge_cases():
    rng = random.Random(12)
    graphs = [FamilySpec(family, size).build()
              for family in FAMILIES for size in range(MIN_SIZE[family], 61)]
    graphs += [MultiGraph(0, ()), MultiGraph(1, ()), parse_edge_list("0 0\n"),
               parse_edge_list("1 0\n"), MultiGraph(2, [(1, 0)] * 3)]
    # the 33,001-parallel-edge star of the oracle's four-byte-lane test
    star = [(0, 4)] * 33001 + [(v, 4) for v in (1, 2, 3) for _ in range(11000)]
    graphs.append(MultiGraph(5, star))
    for g in graphs:
        _assert_table_recounts(g, tuple(rng.randrange(2) for _ in range(g.n)))
    assert graphs[-1].repeats == ((0, 33000), (1, 10999), (2, 10999), (3, 10999))
    assert graphs[-1].mu == 33001


def test_parse_accepts_comments_anywhere():
    text = "# fixture\n3 2\n0 1\n# interior comment\n1 2\n"
    g = parse_edge_list(text)
    assert g.n == 3 and g.m == 2


def test_parse_rejects_missing_edges():
    with pytest.raises(ParseError, match="2 edge lines"):
        parse_edge_list("3 2\n0 1\n")


def test_parse_rejects_extra_edges():
    with pytest.raises(ParseError):
        parse_edge_list("3 1\n0 1\n1 2\n")


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("")


def test_parse_rejects_negative_header_counts_and_bad_edge_lines():
    with pytest.raises(ParseError, match="^line 1: header counts must be non-negative$"):
        parse_edge_list("-1 0\n")
    with pytest.raises(ParseError, match="^line 2: expected edge line 'u v'$"):
        parse_edge_list("2 1\n0 1 1\n")
    # ids and counts are ASCII decimal digits after an optional '-', though
    # int() reads each of these
    for text in ("12 1\n1_0 2\n", "3 1\n+1 2\n", "4 1\n\u0663 1\n", "3 1\n0 1\t\n"):
        with pytest.raises(ParseError, match="^line 2: vertex ids must be integers$"):
            parse_edge_list(text)
    for text in ("+3 0\n", "1_0 0\n"):
        with pytest.raises(ParseError, match="^line 1: header counts must be integers$"):
            parse_edge_list(text)
    assert parse_edge_list("# any text: +1_0 \u0663\n3 1\n-0 2\n").edges == ((0, 2),)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("3 2\n0 1\nx y\n")
    assert exc.value.line_no == 3
    assert "line 3" in str(exc.value)


def test_parse_loop_and_range_report_line():
    with pytest.raises(LoopRejected, match="line 2"):
        parse_edge_list("3 1\n2 2\n")
    with pytest.raises(IdOutOfRange, match="line 2"):
        parse_edge_list("3 1\n0 7\n")


def _records():
    """One instance of every record type."""
    g = FamilySpec("complete", 5).build()
    report = cross_validate([FamilySpec("mobius", 6)])
    cert = complete_ced_witness(6)
    return [
        g,
        FamilySpec("mobius", 6),
        DeficiencyValue.infinite(InfinityReason.STRICTLY_NONCORDIAL),
        balance(g, (0, 0, 1, 1, 1)),
        cert,
        check_certificate(cert),
        solve(g, ("cvd",))["cvd"],
        report.rows[0],
        report,
        REGISTRY["cycle"],
        REGISTRY["path"],  # the default constructions
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_pickle_copy_hash_and_refuse_assignment(record):
    cls = type(record)
    fields = getattr(cls, "_fields", None) or cls.__slots__
    try:
        key = hash(record)
    except TypeError:  # a record that holds a dict, as FamilyDef does
        key = None
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is cls and twin == record
        assert key is None or hash(twin) == key
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(record, fields[0]))
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__qualname__}({shown})"


def test_replace_derives_a_checked_variant():
    g = FamilySpec("complete", 3).build()
    assert g._replace(edges=((2, 1),)) == MultiGraph(3, [(1, 2)])
    with pytest.raises(LoopRejected):
        g._replace(edges=((1, 1),))
    assert FamilySpec("cycle", 5)._replace(size=6) == FamilySpec("cycle", 6)
    with pytest.raises(SizeTooSmall):
        FamilySpec("cycle", 5)._replace(size=2)
