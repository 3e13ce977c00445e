"""Every definition in `src/normalforms` has a reference in the package.

The scan reads the source with `ast`.  It lists each top-level function and
class of every module, and each method of those classes, leaving out the
dunders, which Python calls itself.  A definition counts as referenced when
its name appears as a name or as an attribute anywhere in the package
outside `__init__.py`, which only re-exports.  The check goes by bare name,
so a definition whose name is also used for something else (another
definition, a local variable, an attribute of another type) counts as
referenced.  A helper that only the tests use belongs in
`tests/map_helpers.py`, not in the package.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "normalforms"

# called by argparse on a bad command line, never by name
ALLOWED = {"cli._Parser.error"}


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each top-level function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield f"{node.name}.{sub.name}", sub.name


def unreferenced(source: Path = SOURCE):
    """module.qualified_name of every definition nothing in the package references."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(source.glob("*.py"))}
    used = set()
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(
        f"{stem}.{qualified}"
        for stem, tree in trees.items()
        for qualified, name in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__")) and name not in used
    )


def test_every_definition_is_referenced_in_the_package():
    assert [name for name in unreferenced() if name not in ALLOWED] == []


def test_every_allowed_name_is_still_unreferenced():
    # an allowlist entry that gained a reference, or left, would hide nothing
    assert ALLOWED <= set(unreferenced())
