"""Every function, method and class defined in src/arcmult is used in src/arcmult.

A function or class counts as used when its name appears anywhere in the
package as a Name, an Attribute or an import alias.  A method counts as used
only where its name appears as an Attribute or an import alias: a bare Name
of the same spelling is a local variable or another function, never the
method.  The check is by name only, so it misses an orphan that shares its
name with a used definition, but it catches code that only tests reach."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arcmult"

#: Definitions kept without a caller in the package, and why.
UNCALLED = {
    "evaluate": "README names it the reference route for `translate`",
    "render": "public API that README documents and round-trips",
    "weighted_transform": "waits for ROADMAP item 17's derivation of rho",
}


def _unused_definitions():
    """{name: file} of the definitions that no use in the package reaches."""
    defined, functions, names, attributes = {}, set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {
            id(item)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, path.name)
                if id(node) not in methods:
                    functions.add(node.name)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                attributes.update((node.name, node.asname))
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
