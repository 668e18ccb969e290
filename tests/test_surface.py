"""No code without a caller: every public function, class and method of the
package is referenced by the package itself, a demo or a perfbench script.

Names that only tests reach belong in tests/oracles.py. The scan is by name
(ast Name, Attribute and import alias nodes), so it catches a public name
that nothing outside tests mentions; it cannot tell two same-named methods
apart.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "conical_lab"

# the documented binary formats (README, "Binary formats") are public API
# for files, not for the program
ALLOWED = {"write_gridfunction", "read_gridfunction", "CoefficientField.to_file"}


def _caller_files():
    yield from sorted(PACKAGE.glob("*.py"))
    yield from sorted((ROOT / "demos").glob("*.py"))
    yield from (p for p in sorted((ROOT / "perfbench").glob("*.py"))
                if not p.name.startswith("test_"))


def _referenced_names():
    names = set()
    for path in _caller_files():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
                if node.asname:
                    names.add(node.asname)
    return names


def _public_definitions(path):
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_name_has_a_caller():
    referenced = _referenced_names()
    uncalled = [f"{path.stem}.{qual}" for path in sorted(PACKAGE.glob("*.py"))
                for qual, name in _public_definitions(path)
                if name not in referenced and qual not in ALLOWED]
    assert uncalled == []
