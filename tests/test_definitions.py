"""Every function, method and class defined in src/arcmult is used in src/arcmult.

A function or class counts as used when its name appears anywhere in the
package as a Name, an Attribute or an import alias.  A method counts as used
only where its name appears as an Attribute or an import alias: a bare Name
of the same spelling is a local variable or another function, never the
method.  A use inside a definition of the same name does not count, so a
method that only delegates to its namesake, or a function that only calls
itself, has no caller.  The check is by name only, so it misses an orphan
that shares its name with a used definition, but it catches code that only
tests reach."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arcmult"

#: Definitions kept without a caller in the package, and why.
UNCALLED = {
    "reparametrize": "ROADMAP item 17 reads the chains of phi(t^n) through it; item 3(a) keeps it for item 17",
}


def _package_sources():
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def _unused_definitions(sources=None):
    """{name: file} of the definitions that no use in the sources, {file: text}, reaches;
    the package's modules by default."""
    defined, functions, names, attributes = {}, set(), set(), set()

    def walk(node, filename, enclosing):
        for child in ast.iter_child_nodes(node):
            inner = enclosing
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(child.name, filename)
                if isinstance(child, ast.ClassDef) or not isinstance(node, ast.ClassDef):
                    functions.add(child.name)
                inner = enclosing | {child.name}
            elif isinstance(child, ast.Name) and child.id not in enclosing:
                names.add(child.id)
            elif isinstance(child, ast.Attribute) and child.attr not in enclosing:
                attributes.add(child.attr)
            elif isinstance(child, ast.alias):
                attributes.update({child.name, child.asname} - enclosing)
            walk(child, filename, inner)

    for filename, text in (_package_sources() if sources is None else sources).items():
        walk(ast.parse(text), filename, frozenset())
    used = attributes | (names & functions)
    return {name: path for name, path in defined.items() if name not in used}


def test_every_definition_is_used_in_the_package():
    orphans = {
        name: path
        for name, path in _unused_definitions().items()
        if name not in UNCALLED and not (name.startswith("__") and name.endswith("__"))
    }
    assert orphans == {}


def test_every_exception_is_still_defined_and_uncalled():
    assert {name for name in UNCALLED if name in _unused_definitions()} == set(UNCALLED)


DELEGATION_SOURCE = """
class Arc:
    def lift(self):
        return Series().lift()

    def shift(self):
        return self.lift()


class Series:
    def lift(self):
        return Arc().lift()


def countdown(n):
    return countdown(n - 1) if n else helper()


def helper():
    return 0
"""


def test_a_use_inside_its_namesake_is_no_use():
    # `lift` is read from `shift`, so it counts; `shift` has no reader, and
    # `countdown` reads only itself, so neither counts, while `helper` is read
    # from `countdown`.  Without `shift`, the two `lift`s delegate to each
    # other only, as the two `reparametrize` methods do.
    assert _unused_definitions({"delegation.py": DELEGATION_SOURCE}) == {
        "shift": "delegation.py",
        "countdown": "delegation.py",
    }
    alone = DELEGATION_SOURCE.replace("    def shift(self):\n        return self.lift()\n", "")
    assert _unused_definitions({"delegation.py": alone}) == {"lift": "delegation.py", "countdown": "delegation.py"}



def test_no_module_generates_code_at_import():
    # Every CLI run pays for its imports, so records are plain classes: no module
    # imports dataclasses, whose decorator compiles methods, nor calls exec or eval.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [f"{path.name} imports {a.name}" for a in node.names if a.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
                found.append(f"{path.name} imports from {node.module}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("exec", "eval"):
                found.append(f"{path.name} calls {node.func.id}")
    assert found == []
