"""Every function, method and class defined in src/arcmult is used in src/arcmult.

A definition counts as used when its name appears anywhere in the package as
a Name, an Attribute or an import alias.  The check is by name only, so it
misses an orphan that shares its name with a used definition, but it catches
code that only tests reach."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arcmult"

#: Definitions kept without a caller in the package, and why.
UNCALLED = {
    "evaluate": "README names it the reference route for `translate`",
    "order_lower_bound": "a test reference: the precision rules and `reference_generator_orders` read it",
    "render": "public API that README documents and round-trips",
    "weighted_transform": "waits for ROADMAP item 3's derivation of rho",
}


def _definitions_and_uses():
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, path.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name, node.asname))
    return defined, used


def test_every_definition_is_used_in_the_package():
    defined, used = _definitions_and_uses()
    orphans = {
        name: path
        for name, path in defined.items()
        if name not in used and name not in UNCALLED
        and not (name.startswith("__") and name.endswith("__"))
    }
    assert orphans == {}


def test_every_exception_is_still_defined_and_uncalled():
    defined, used = _definitions_and_uses()
    assert {name for name in UNCALLED if name in defined and name not in used} == set(UNCALLED)
