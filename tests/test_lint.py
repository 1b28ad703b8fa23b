"""Source rules checked on the package and the scripts by their syntax trees.

These run under python -O as well, where a runtime invariant kept in an
assert would be stripped without a trace.
"""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = sorted((_ROOT / "src" / "cordial").glob("*.py"))
_SCRIPTS = sorted((_ROOT / "scripts").glob("*.py"))

# errors < graph_core < labeling < certify < {oracle, families} < cli
_LAYER = {"errors": 0, "graph_core": 1, "labeling": 2, "certify": 3,
          "oracle": 4, "families": 4, "cli": 5}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_no_assert_statement_in_the_package_or_the_scripts():
    # the -O run of the suite cannot see an invariant that -O stripped
    found = [f"{path.name}:{node.lineno}" for path in _PACKAGE + _SCRIPTS
             for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_private_name_is_imported_from_another_package_module():
    # a module's _names are its own: a name another module needs is public
    found = [f"{path.name}:{node.lineno}: {alias.name}" for path in _PACKAGE
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names if alias.name.startswith("_")]
    assert not found, found


def test_module_level_imports_follow_the_layer_order():
    # a module imports at load time only the modules below it, so a command
    # loads no layer it does not run. __init__ is lazy, and a test checks it
    # loads no submodule; an import inside a function body is not checked
    found = []
    for path in _PACKAGE:
        if path.stem == "__init__":
            continue
        own = _LAYER.get(path.stem)
        if own is None:
            found.append(f"{path.name}: not in the layer order")
            continue
        nodes = list(_tree(path).body)  # every statement outside a function runs at import
        while nodes:
            node = nodes.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                found += [f"{path.name}: .{t}" for t in targets if _LAYER.get(t, own) >= own]
            nodes.extend(ast.iter_child_nodes(node))
    assert not found, sorted(found)


def test_only_certify_makes_a_certificate():
    # a certificate is made only by certify's witness makers, which check it,
    # or by its JSON reader; so no script or other package module may call
    # Certificate(...) or copy a record with ._replace(...)
    found = []
    for path in _PACKAGE + _SCRIPTS:
        if path.parent.name == "cordial" and path.stem == "certify":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in ("Certificate", "_replace"):
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, found
