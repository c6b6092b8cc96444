"""Guard against a test-only library surface.

Every top-level function, constant or public class in ``src/osb``, private
ones included, and every public method or property of a public class, must
be reachable from a use outside the tests: from module-level code in
``src/osb``, from the code of ``scripts/*.py`` or ``perfbench/*.py``
(docstrings, comments and other files do not count), or from an identifier
the README names in a code span.
A definition counts as used only if something reachable refers to it, so
code that only other unused code calls is reported too.  The package's
re-exports in ``__init__.py`` and module-level imports are not uses.
Definitions of one name in different modules share one entry, as methods do,
and dunder names such as ``__version__`` are left out.

Methods are matched by name, through attribute references only: ``x.name``
where ``x`` is not an imported module (``np.zeros`` is not a use of a
method ``zeros``), or the last part of a dotted name inside a string (the
tracer's ``"Matrix.digest"``).  A class reaches its bases, decorators, fields
and underscore methods, which Python calls implicitly or only the class
calls, but not its public methods.

The same holds for options: every parameter with a default of a public
function or method, and every field with a default of a public dataclass,
must be passed, by keyword or by position, by some call in ``src/osb``,
``scripts/`` or ``perfbench/``.  Calls are matched by name as above; a
definition with no such call at all is left to the first check.
"""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "osb"
_IDENT = re.compile(r"[A-Za-z_]\w*")
_DOTTED_TAIL = re.compile(r"\.([A-Za-z_]\w*)")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _parse_code(path: Path):
    """The module's syntax tree with every docstring removed."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef) + _DEFS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                node.body = node.body[1:] or [ast.Pass()]
    return tree


def _outside_trees() -> list:
    paths = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return [_parse_code(path) for path in paths]


def _outside_refs() -> set:
    """Uses in the code of ``scripts/`` and ``perfbench/``."""
    return set().union(*(_refs(_module_aliases(tree), tree) for tree in _outside_trees()))


def _src_trees() -> list:
    return [(path.stem, _parse_code(path)) for path in sorted(SRC.glob("*.py"))]


def unused_public_names() -> list:
    defs = {}  # name, or ".method", -> what its definitions refer to
    checked = {}  # "module.name" or "module.Class.method" -> key in defs

    def define(stem, name, refs):
        defs[name] = defs.get(name, set()) | refs
        if not (name.startswith("__") and name.endswith("__")):
            checked[f"{stem}.{name}"] = name

    roots = _readme_refs() | _outside_refs()
    for stem, tree in _src_trees():
        modules = _module_aliases(tree)
        for node in tree.body:
            if isinstance(node, _DEFS):
                define(stem, node.name, _refs(modules, node) - {node.name})
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body
                           if isinstance(m, _DEFS) and not m.name.startswith("_")]
                rest = [m for m in node.body if m not in methods]
                defs[node.name] = _refs(modules, *node.bases, *node.decorator_list, *rest)
                for m in methods:
                    # same-named methods of different classes share one entry
                    key = "." + m.name
                    defs[key] = defs.get(key, set()) | _refs(modules, m)
                if not node.name.startswith("_"):
                    checked[f"{stem}.{node.name}"] = node.name
                    for m in methods:
                        checked[f"{stem}.{node.name}.{m.name}"] = "." + m.name
            elif isinstance(node, ast.Assign) and all(
                    isinstance(t, (ast.Name, ast.Tuple)) for t in node.targets):
                # a module constant or alias is used only if something uses it
                for target in (n for t in node.targets for n in ast.walk(t)):
                    if isinstance(target, ast.Name):
                        define(stem, target.id, _refs(modules, node.value))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _refs(modules, node)
    reached, frontier = set(), roots & defs.keys()
    while frontier:
        reached |= frontier
        frontier = set().union(*(defs[key] for key in frontier)) & defs.keys() - reached
    return sorted(label for label, key in checked.items() if key not in reached)


# ---------------------------------------------------------------------------
# options


def _decorator_names(node) -> set:
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _params(fn, method: bool):
    """(positional names in order, names with a default) of a def; a
    method's leading self or cls is dropped."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional[1:] if method else positional, defaulted


def _class_params(node):
    """A class's call signature: its dataclass fields, or its __init__."""
    if "dataclass" in _decorator_names(node):
        fields = [s for s in node.body
                  if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
        return ([s.target.id for s in fields],
                [s.target.id for s in fields if s.value is not None])
    init = next((m for m in node.body if isinstance(m, _DEFS) and m.name == "__init__"), None)
    return _params(init, True) if init else ([], [])


def public_signatures() -> dict:
    """label -> (call name, method?, positional names, defaulted names) for
    every public function, class and method with a parameter or field that
    has a default."""
    out = {}
    for stem, tree in _src_trees():
        for node in tree.body:
            if not isinstance(node, _DEFS + (ast.ClassDef,)) or node.name.startswith("_"):
                continue
            if isinstance(node, _DEFS):
                out[f"{stem}.{node.name}"] = (node.name, False, *_params(node, False))
            elif isinstance(node, ast.ClassDef):
                out[f"{stem}.{node.name}"] = (node.name, False, *_class_params(node))
                for m in node.body:
                    if isinstance(m, _DEFS) and not m.name.startswith("_"):
                        out[f"{stem}.{node.name}.{m.name}"] = (m.name, True, *_params(m, True))
    return {label: sig for label, sig in out.items() if sig[3]}


def _calls():
    """(name, is attribute call, positional count, keywords) of every call
    outside the tests; the count is None for a call with a * argument, and
    the keywords hold None for a ** argument."""
    trees = [tree for _, tree in _src_trees()] + _outside_trees()
    for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        if isinstance(call.func, ast.Name):
            name, attribute = call.func.id, False
        elif isinstance(call.func, ast.Attribute):
            name, attribute = call.func.attr, True
        else:
            continue
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        yield (name, attribute, None if starred else len(call.args),
               {k.arg for k in call.keywords})


def unset_options() -> list:
    """"label(name)" for each parameter or field with a default that no
    call outside the tests passes, among the definitions such calls reach."""
    calls = list(_calls())
    out = []
    for label, (name, method, positional, defaulted) in public_signatures().items():
        matching = [c for c in calls if c[0] == name and (c[1] or not method)]
        if not matching:
            continue
        given = set()
        for _, _, count, keywords in matching:
            if count is None or None in keywords:  # f(*args) or f(**kwargs)
                given |= set(defaulted)
            given |= set(positional[:count]) | keywords
        out += [f"{label}({p})" for p in defaulted if p not in given]
    return sorted(out)


def test_every_public_definition_has_a_use_outside_the_tests():
    unused = unused_public_names()
    assert not unused, "names that only tests use: " + ", ".join(unused)


def test_every_option_is_set_outside_the_tests():
    unset = unset_options()
    assert not unset, "options that only tests set: " + ", ".join(unset)


def test_line_counter_skips_comments_docstrings_and_blanks(tmp_path):
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "scripts" / "src_lines.py")
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    path = tmp_path / "m.py"
    path.write_text('"""Module\ndocstring."""\n\n# a comment\nx = 1  # trailing\n\n'
                    'def f():\n    """Doc."""\n    return ("a"\n            "b")\n')
    # x = 1, def f():, and the two lines of the return statement
    assert src_lines.code_lines(path) == 4
