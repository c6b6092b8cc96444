"""Guard against a test-only library surface.

Every public top-level function or class in ``src/osb`` must be reachable
from a use outside the tests: from module-level code in ``src/osb``, from
``scripts/`` or ``perfbench/``, or from an identifier the README names in a
code span.  A definition counts as used only if something reachable refers
to it, so code that only other unused code calls is reported too.  The
package's re-exports in ``__init__.py`` and module-level imports are not
uses.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "osb"
_IDENT = re.compile(r"[A-Za-z_]\w*")


def _names(node) -> set:
    """Every identifier that ``node`` refers to: names, attributes and the
    identifiers inside string constants."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(_IDENT.findall(sub.value))
    return out


def _readme_names() -> set:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return {name for span in spans for name in _IDENT.findall(span)}


def unused_public_names() -> list:
    defs = {}  # name -> identifiers its definition refers to
    checked = {}  # public function or class name -> module
    roots = _readme_names()
    for path in sorted((ROOT / "scripts").glob("*")) + sorted((ROOT / "perfbench").glob("*")):
        if path.is_file():
            roots |= set(_IDENT.findall(path.read_text(encoding="utf-8")))
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[node.name] = _names(node) - {node.name}
                if not node.name.startswith("_"):
                    checked[node.name] = path.stem
            elif isinstance(node, ast.Assign) and all(
                    isinstance(t, ast.Name) for t in node.targets):
                # a module constant or alias is used only if something uses it
                for target in node.targets:
                    defs[target.id] = _names(node.value)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names(node)
    reached, frontier = set(), roots & defs.keys()
    while frontier:
        reached |= frontier
        frontier = set().union(*(defs[name] for name in frontier)) & defs.keys() - reached
    return sorted(f"{module}.{name}" for name, module in checked.items()
                  if name not in reached)


def test_every_public_definition_has_a_use_outside_the_tests():
    unused = unused_public_names()
    assert not unused, "public names that only tests use: " + ", ".join(unused)
