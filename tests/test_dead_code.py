"""Every definition in `src/normalforms` has a reference in the package.

The scan reads the source with `ast`.  It lists each top-level function and
class of every module, and each method of those classes, leaving out the
dunders, which Python calls itself.  References are looked for anywhere in
the package outside `__init__.py`, which only re-exports:

* a top-level function or class counts as referenced when its name appears
  as a name or as an attribute;
* a method or property counts only through an attribute access
  (``x.name``), so a local variable or a top-level function of the same
  name hides nothing;
* a class or static method counts only as ``Class.name`` or
  ``Subclass.name``, for a subclass defined in the package, or as
  ``cls.name`` inside the body of one of those classes, so a method of the
  same name on another class hides nothing.

An arithmetic dunder (``__add__``, ``__neg__``, ``__rmul__ = __mul__``, ...)
is listed too, always: an operator on a polynomial type calls it, and the
scan cannot tell that operator from one on a number.  So each one the
package keeps is in ``ALLOWED`` with the program path that calls it.

A helper that only the tests use belongs in `tests/map_helpers.py`, not in
the package.
"""

import ast
import textwrap
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "normalforms"

# each name the scan lists that the package keeps, with who calls it
ALLOWED = {
    "cli._Parser.error": "argparse, on a bad command line",
    "__init__.__getattr__": "the import system, for a name the package does not bind (PEP 562)",
    "polyalg.HomPolyMap.__sub__": "ode.pushforward_residuals, for g_k minus the re-applied term of a verify",
    "polyalg.HomPoly.__sub__": "polyalg.HomPolyMap.__sub__, once per component",
}

_ARITHMETIC = {
    f"__{op}__"
    for name in ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "pow", "lshift", "rshift", "and", "xor", "or")
    for op in (name, "r" + name, "i" + name)
} | {"__neg__", "__pos__", "__abs__", "__invert__"}

_CLASS_LEVEL = {"classmethod", "staticmethod"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _arithmetic_dunders(cls: ast.ClassDef):
    """Each arithmetic dunder the class body defines or assigns."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name in _ARITHMETIC:
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name) and t.id in _ARITHMETIC)


def _is_class_level(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id in _CLASS_LEVEL for d in node.decorator_list)


def _families(classes):
    """Each class name mapped to itself and every class of the package that
    derives from it, directly or not."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)] for node in classes}

    def ancestors(name):
        out = {name}
        for base in bases.get(name, ()):
            out |= ancestors(base)
        return out

    family = {name: set() for name in bases}
    for name in bases:
        for ancestor in ancestors(name) & set(bases):
            family[ancestor].add(name)
    return family


def unreferenced(source: Path = SOURCE):
    """module.qualified_name of every definition nothing in the package references."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(source.glob("*.py"))}
    names, attrs = set(), set()
    owned = set()  # (class, attribute) of each `Class.attribute`, and of `cls.attribute` in the class body
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id != "cls":
                    owned.add((node.value.id, node.attr))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in ast.walk(cls):
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cls":
                        owned.add((cls.name, node.attr))
    family = _families([node for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)])

    def referenced(cls: ast.ClassDef, method: ast.FunctionDef) -> bool:
        if not _is_class_level(method):
            return method.name in attrs
        return any((owner, method.name) in owned for owner in family[cls.name])

    out = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in names and node.name not in attrs:
                out.append(f"{stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out.extend(
                    f"{stem}.{node.name}.{sub.name}"
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not _is_dunder(sub.name) and not referenced(node, sub)
                )
                out.extend(f"{stem}.{node.name}.{name}" for name in _arithmetic_dunders(node))
    return sorted(out)


def test_every_definition_is_referenced_in_the_package():
    assert [name for name in unreferenced() if name not in ALLOWED] == []


def test_every_allowed_name_is_still_unreferenced():
    # an allowlist entry that gained a reference, or left, would hide nothing
    assert set(ALLOWED) <= set(unreferenced())
    assert all(ALLOWED.values())


def test_every_arithmetic_dunder_is_listed(tmp_path):
    (tmp_path / "numbers.py").write_text(
        textwrap.dedent(
            '''
            class Number:
                def __init__(self, value):
                    self.value = value

                def __add__(self, other):
                    return Number(self.value + other.value)

                def __neg__(self):
                    return Number(-self.value)

                def __eq__(self, other):
                    return self.value == other.value

                def __repr__(self):
                    return f"Number({self.value})"

                __radd__ = __add__


            TOTAL = Number(1) + -Number(2) == Number(-1)
            '''
        ),
        encoding="utf-8",
    )
    # the operators reach __add__ and __neg__, but only an allowlist entry can
    # say so; equality and the text form are not arithmetic
    assert unreferenced(tmp_path) == ["numbers.Number.__add__", "numbers.Number.__neg__", "numbers.Number.__radd__"]


def test_a_method_is_not_referenced_through_a_same_named_one(tmp_path):
    (tmp_path / "shapes.py").write_text(
        textwrap.dedent(
            '''
            class Base:
                @classmethod
                def make(cls):
                    return cls.build()

                @classmethod
                def build(cls):
                    return cls()

                @staticmethod
                def origin():
                    return 0

                def area(self):
                    return 0

                def scale(self):
                    return 1


            class Square(Base):
                pass


            class Packing:
                def make(self):
                    return 1

                def area(self):
                    return self.make()


            def scale():
                return 2


            def run(area):
                return Square.origin() + Packing().area() + area + scale()


            TOTAL = run(0)
            '''
        ),
        encoding="utf-8",
    )
    # `self.make` reaches an instance method, the name `scale` a function:
    # neither is `Base.make` or `Base.scale`.  `Base.build` is reached as
    # `cls.build` in Base, `Base.origin` through its subclass and `Base.area`
    # as an attribute
    assert unreferenced(tmp_path) == ["shapes.Base.make", "shapes.Base.scale"]
