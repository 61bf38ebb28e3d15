"""Every function, class and method in src/geowidth is reached from code that runs.

The roots are what a user or a measurement runs: the command line (``cli.py`` and
``__main__.py``), the demos, the benchmark (``bench/gwbench/`` and ``bench/run.py``)
and the acceptance criteria.  The walk is transitive: a definition that is reached
adds the references in its own body.  Importing any geowidth module runs
``__init__.py``, which imports every module, so the module-level code of each
module counts as reached; the imports in ``__init__.py`` only re-export, and an
import binds a name without using it.

Rules:

* a function or class is reached by its name, or by an attribute of that name;
* a method is reached only by an attribute of its name (``h.at``, never a local
  variable ``at``); a dunder method is reached with its class and is never flagged;
* an identifier string in ``bench/gwbench`` counts as a name, since ``tracing.py``
  wraps functions and methods through ``getattr`` by their names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "geowidth"

#: qualified name -> why it stays although nothing reaches it; one reason per entry
ALLOWED: dict = {}


def definitions(module: str, source: str):
    """(qualified name, kind, name, owner, refs) of each def and class in the source, and the refs of the
    code outside them.  kind is "function", "class", "method" or "dunder"; owner is a method's class;
    refs is (names read, attributes read) by the definition's own body, nested definitions excluded."""
    found, top = [], (set(), set())

    def walk(node, refs, path, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                is_class = isinstance(child, ast.ClassDef)
                dunder = child.name.startswith("__") and child.name.endswith("__")
                kind = "class" if is_class else "function" if not in_class else "dunder" if dunder else "method"
                own = (set(), set())
                found.append((".".join([*path, child.name]), kind, child.name, ".".join(path), own))
                walk(child, own, [*path, child.name], is_class)
                continue
            if isinstance(child, ast.Name):
                refs[0].add(child.id)
            elif isinstance(child, ast.Attribute):
                refs[1].add(child.attr)
            walk(child, refs, path, in_class)

    walk(ast.parse(source), top, [module], False)
    return found, top


def unreached(modules: dict, roots, bench) -> list:
    """Qualified names of the definitions in ``modules`` ({module name: source}) that no reference reaches,
    starting from every reference in the ``roots`` sources and every identifier string in the ``bench``
    sources."""
    defs, names, attrs = [], set(), set()
    for module, source in modules.items():
        found, (n, a) = definitions(module, source)
        defs += found
        names |= n
        attrs |= a
    for source in roots:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    for source in bench:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
                attrs.add(node.value)
    reached, grew = set(), True
    while grew:
        grew = False
        for qualname, kind, name, owner, (n, a) in defs:
            if qualname in reached:
                continue
            if kind == "dunder":
                hit = owner in reached
            elif kind == "method":
                hit = name in attrs
            else:
                hit = name in names or name in attrs
            if hit:
                reached.add(qualname)
                names |= n
                attrs |= a
                grew = True
    return [qualname for qualname, kind, *_ in defs if kind != "dunder" and qualname not in reached]


def test_src_holds_only_what_something_reaches():
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    roots = [ROOT / "bench" / "run.py", ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "demos").glob("*.py"))]
    bench = sorted((ROOT / "bench" / "gwbench").glob("*.py"))
    assert {"cli", "__main__"} <= set(modules) and len(roots) > 2 and bench
    flagged = unreached(modules, [p.read_text() for p in roots + bench], [p.read_text() for p in bench])
    unused = [q for q in flagged if q not in ALLOWED]
    assert not unused, f"defined in src/geowidth and reached by nothing: {', '.join(unused)}"
    stale = [q for q in ALLOWED if q not in flagged]
    assert not stale, f"allowed, but reached or gone: {', '.join(stale)}"


# the scanner on planted source text ------------------------------------------

PLANTED = '''
class Map:
    def __init__(self):
        self.k = helper()

    def at(self, x):
        return x

    def wrapped(self):
        return 0


def helper():
    return 1


def unused():
    return 2


def track(xs):
    at = [x for x in xs]
    return at, Map()
'''


def test_planted_unused_function_is_flagged():
    assert "m.unused" in unreached({"m": PLANTED}, ["from m import track\ntrack([])"], [])


def test_planted_method_named_like_a_local_variable_is_flagged():
    flagged = unreached({"m": PLANTED}, ["import m\nm.track([])"], [])
    assert "m.Map.at" in flagged
    assert "m.Map" not in flagged and "m.helper" not in flagged  # reached through Map() and its __init__


def test_planted_method_named_by_a_bench_string_is_not_flagged():
    bench = 'import m\nmethod(m.Map, "wrapped", "m.wrapped")'
    flagged = unreached({"m": PLANTED}, [bench], [bench])
    assert "m.Map.wrapped" not in flagged
    assert "m.Map.at" in flagged and "m.unused" in flagged
