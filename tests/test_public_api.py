"""Guard against a test-only library surface.

Every public top-level function or class in ``src/osb``, and every public
method or property of a public class, must be reachable from a use outside
the tests: from module-level code in ``src/osb``, from ``scripts/`` or
``perfbench/``, or from an identifier the README names in a code span.  A
definition counts as used only if something reachable refers to it, so code
that only other unused code calls is reported too.  The package's re-exports
in ``__init__.py`` and module-level imports are not uses.

Methods are matched by name, through attribute references only: ``x.name``
where ``x`` is not an imported module (``np.zeros`` is not a use of a
method ``zeros``), or the last part of a dotted name inside a string (the
tracer's ``"Matrix.digest"``).  A class reaches its bases, decorators, fields
and underscore methods, which Python calls implicitly or only the class
calls, but not its public methods.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "osb"
_IDENT = re.compile(r"[A-Za-z_]\w*")
_DOTTED_TAIL = re.compile(r"\.([A-Za-z_]\w*)")


def _module_aliases(tree) -> set:
    """Names that a file binds to modules: ``import a.b as c`` and
    ``from . import mod``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            out.update(a.asname or a.name for a in node.names)
    return out


def _refs(modules, *nodes) -> set:
    """What ``nodes`` refer to: every name, attribute and identifier inside a
    string constant; and, prefixed with ".", each attribute of something
    other than a module in ``modules`` and each dotted tail in a string."""
    out = set()
    for sub in (s for node in nodes for s in ast.walk(node)):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
            if not (isinstance(sub.value, ast.Name) and sub.value.id in modules):
                out.add("." + sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(_IDENT.findall(sub.value))
            out.update("." + tail for tail in _DOTTED_TAIL.findall(sub.value))
    return out


def _readme_refs() -> set:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    names = {name for span in spans for name in _IDENT.findall(span)}
    return names | {"." + name for name in names}


def _outside_refs() -> set:
    """Uses in ``scripts/`` and ``perfbench/``: any identifier in any file,
    and the method references of the Python files."""
    out = set()
    for path in sorted((ROOT / "scripts").glob("*")) + sorted((ROOT / "perfbench").glob("*")):
        if path.is_file():
            text = path.read_text(encoding="utf-8")
            out |= set(_IDENT.findall(text))
            if path.suffix == ".py":
                tree = ast.parse(text)
                out |= {r for r in _refs(_module_aliases(tree), tree) if r.startswith(".")}
    return out


def unused_public_names() -> list:
    defs = {}  # name, or ".method", -> what its definitions refer to
    checked = {}  # "module.name" or "module.Class.method" -> key in defs
    roots = _readme_refs() | _outside_refs()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = _module_aliases(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[node.name] = _refs(modules, node) - {node.name}
                if not node.name.startswith("_"):
                    checked[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(
                    m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.startswith("_")]
                rest = [m for m in node.body if m not in methods]
                defs[node.name] = _refs(modules, *node.bases, *node.decorator_list, *rest)
                for m in methods:
                    # same-named methods of different classes share one entry
                    key = "." + m.name
                    defs[key] = defs.get(key, set()) | _refs(modules, m)
                if not node.name.startswith("_"):
                    checked[f"{path.stem}.{node.name}"] = node.name
                    for m in methods:
                        checked[f"{path.stem}.{node.name}.{m.name}"] = "." + m.name
            elif isinstance(node, ast.Assign) and all(
                    isinstance(t, ast.Name) for t in node.targets):
                # a module constant or alias is used only if something uses it
                for target in node.targets:
                    defs[target.id] = _refs(modules, node.value)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _refs(modules, node)
    reached, frontier = set(), roots & defs.keys()
    while frontier:
        reached |= frontier
        frontier = set().union(*(defs[key] for key in frontier)) & defs.keys() - reached
    return sorted(label for label, key in checked.items() if key not in reached)


def test_every_public_definition_has_a_use_outside_the_tests():
    unused = unused_public_names()
    assert not unused, "public names that only tests use: " + ", ".join(unused)
