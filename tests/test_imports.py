"""Every module of the package and of its tests uses each name it imports,
only `optdeg.groebner` imports `_eliminate`, only `optdeg.rings` reads the
packed monomial layout, and a polynomial has one representation.

A stdlib-`ast` check in place of a linter: it collects the names each
import statement binds and the names the module reads anywhere, and reports
the imported names never read.  The package's `__init__.py` re-exports what
it imports, and `from __future__` imports bind nothing, so both are skipped.

The packed layout of a MonomialPacker is the one definition of a ring's
monomial order, so no package module but `rings.py` reads a private
attribute of a packer, its field constants WIDTH and VMASK, or a tuple
sort key `.key` of a ring.

A polynomial's terms are keyed by packed monomials, so outside `rings.py`
no package module converts between exponent tuples and packed values,
except at the few sites that read single exponents (EXPONENT_READS): it
reads no `pack`, `unpack`, `poly_from_terms`, `monomial` or `sorted_terms`
of anything, called or not.

A Groebner basis is finished on one path: the package calls `_autoreduce`
only in the finishing that groebner_basis hands its GroebnerBasis, and no
module but `groebner.py` constructs a GroebnerBasis.

Rational functions are held, never computed with: RationalFunction defines
no arithmetic operator and no derivative, and the tower Jacobian rank is
read off polynomial rows with no recursion of its own (no function of
`towers.py` calls itself).

A rational field element is an int whenever it is integral, and int / int
is a float, so no package module but `fields.py`, where `fraction` forms
every quotient, uses true division `/`.

No definition outlives its last use: every module-level function and
class of the package is referenced somewhere in the package outside its
own definition (by name, as an attribute or in an import), or exported by
the package's `__init__.py`.

Coefficient arithmetic has one home: outside `fields.py` and `rings.py`
no package module reads a field's arithmetic methods (`add`, `sub`, `mul`,
`neg`, `inv`, `div`, `is_zero` of a name `fld` or `field`, or of an
attribute `.field`); the kernel works on plain ints, and the one echelon
routine is `matrices._rank`.
"""

import ast
from pathlib import Path

import pytest

from optdeg import GREVLEX, OrderSpec, RingContext
from optdeg.rings import MonomialPacker

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "optdeg"
MODULES = (sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))


def _imported(tree):
    """The names the import statements of the tree bind, with the names
    they import (from __future__ left out)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(((a.asname or a.name).split(".")[0], a.name)
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, a.name) for a in node.names)
    return imported


def _unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(_imported(tree)) - used)


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom math import comb, gcd\nprint(gcd(4, 6))\n"
    assert _unused_imports(source) == ["comb", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "groebner.py"],
                         ids=lambda p: p.name)
def test_only_groebner_imports_eliminate(path):
    """Every saturation is one groebner._rabinowitsch run, so no other
    module imports the block-order elimination it runs on."""
    assert "_eliminate" not in _imported(ast.parse(path.read_text())).values()


def _layout_names():
    """The private attributes of packers of each order kind and of their
    class, WIDTH and VMASK."""
    names = {"WIDTH", "VMASK"}
    names.update(a for a in vars(MonomialPacker)
                 if a.startswith("_") and not a.startswith("__"))
    for order in (GREVLEX, OrderSpec("block", ("y",))):
        packer = RingContext(("x", "y"), order=order).packer()
        names.update(a for a in vars(packer) if a.startswith("_"))
    return names


LAYOUT = _layout_names()


def _layout_reads(source):
    """The attributes of LAYOUT, and `key`, that the source reads."""
    return sorted({node.attr for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and (node.attr in LAYOUT or node.attr == "key")})


def test_the_check_sees_a_layout_read():
    assert {"_layout", "_deg_shifts", "_blocks"} <= LAYOUT
    source = ("shift = packer._layout[0] + packer.WIDTH\n"
              "rank = sorted(exps, key=ring.key)\n")
    assert _layout_reads(source) == ["WIDTH", "_layout", "key"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.parent == PACKAGE
                                  and p.name != "rings.py"],
                         ids=lambda p: p.name)
def test_only_rings_reads_the_packed_layout(path):
    assert _layout_reads(path.read_text()) == []


CONVERSIONS = {"pack", "unpack", "poly_from_terms", "monomial", "sorted_terms"}
# (module, function) -> the conversions it may read: the Hilbert numerator
# of the leads, _saturand's monomial case and formatting
EXPONENT_READS = {
    ("groebner.py", "lead_exponents"): {"unpack"},
    ("groebner.py", "_buchberger"): {"unpack"},
    ("groebner.py", "_saturand"): {"monomial"},
    ("parsing.py", "format_polynomial"): {"sorted_terms"},
}


def _conversions(source):
    """(function, attribute) for each read of a CONVERSIONS attribute, the
    function being the innermost one around it (None at module level)."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in CONVERSIONS:
            found.add((function, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)
    visit(ast.parse(source), None)
    return sorted(found, key=str)


def test_the_check_sees_a_conversion():
    source = ("def f(ring, e):\n"
              "    unpack = ring.packer().unpack\n"
              "    return ring.poly_from_terms({unpack(e): 1})\n"
              "ONE = ring.packer().pack((0, 0))\n")
    assert _conversions(source) == [
        ("f", "poly_from_terms"), ("f", "unpack"), (None, "pack")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.parent == PACKAGE
                                  and p.name != "rings.py"],
                         ids=lambda p: p.name)
def test_only_the_exponent_reads_convert_outside_rings(path):
    for function, attr in _conversions(path.read_text()):
        assert attr in EXPONENT_READS.get((path.name, function), ()), \
            f"{path.name}: {function} reads .{attr}"


def _call_sites(source, name):
    """The chain of functions around each call of `name`, called by its
    bare name or as an attribute (() at module level)."""
    found = []

    def visit(node, chain):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            chain += (node.name,)
        if isinstance(node, ast.Call):
            called = node.func
            if (isinstance(called, ast.Name) and called.id == name
                    or isinstance(called, ast.Attribute)
                    and called.attr == name):
                found.append(chain)
        for child in ast.iter_child_nodes(node):
            visit(child, chain)
    visit(ast.parse(source), ())
    return found


def test_the_check_sees_a_call_site():
    source = ("def f(kernel):\n"
              "    def g():\n"
              "        return groebner._autoreduce(*kernel)\n"
              "    return _autoreduce, g\n"
              "_autoreduce()\n")
    assert _call_sites(source, "_autoreduce") == [("f", "g"), ()]


def test_one_finishing_path():
    sites = [(path.name, chain) for path in MODULES if path.parent == PACKAGE
             for chain in _call_sites(path.read_text(), "_autoreduce")]
    assert sites == [("groebner.py", ("groebner_basis", "finish"))]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "groebner.py"],
                         ids=lambda p: p.name)
def test_only_groebner_constructs_a_basis(path):
    assert _call_sites(path.read_text(), "GroebnerBasis") == []


def _methods(source, cls):
    """The names of the functions the class `cls` defines in its body."""
    (node,) = [n for n in ast.walk(ast.parse(source))
               if isinstance(n, ast.ClassDef) and n.name == cls]
    return {n.name for n in node.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_rational_functions_have_no_arithmetic():
    methods = _methods((PACKAGE / "rings.py").read_text(), "RationalFunction")
    assert "__init__" in methods
    assert not methods & {"__add__", "__sub__", "__mul__", "__truediv__",
                          "__neg__", "derivative"}


def _recursive(source):
    """The functions of the module that call themselves, by name or as an
    attribute, directly or from a function nested in them."""
    tree = ast.parse(source)
    names = {n.name for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return sorted(name for name in names
                  if any(name in chain for chain in _call_sites(source, name)))


def test_the_check_sees_a_recursive_function():
    source = ("def det(m):\n"
              "    return m[0] if len(m) == 1 else det(m[1:])\n"
              "def f(x):\n"
              "    def g():\n"
              "        return self.f(x)\n"
              "    return g\n"
              "def h():\n"
              "    return det([1])\n")
    assert _recursive(source) == ["det", "f"]


def test_towers_define_no_recursive_function():
    assert _recursive((PACKAGE / "towers.py").read_text()) == []


def _true_divisions(source):
    """The line numbers of the source's true divisions, `/` and `/=`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div))


def test_the_check_sees_a_true_division():
    source = ("half = a / 2\n"
              "whole = a // 2\n"
              "x /= b\n"
              "text = '1/2'\n")
    assert _true_divisions(source) == [1, 3]


@pytest.mark.parametrize("path", [p for p in MODULES if p.parent == PACKAGE
                                  and p.name != "fields.py"],
                         ids=lambda p: p.name)
def test_no_true_division_outside_fields(path):
    assert _true_divisions(path.read_text()) == []


FIELD_ARITHMETIC = {"add", "sub", "mul", "neg", "inv", "div", "is_zero"}


def _field_arithmetic(source):
    """The line numbers of the source's reads of FIELD_ARITHMETIC on `fld`,
    `field` or an attribute `.field`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in FIELD_ARITHMETIC:
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id in ("fld", "field")
                    or isinstance(owner, ast.Attribute)
                    and owner.attr == "field"):
                found.append(node.lineno)
    return sorted(found)


def test_the_check_sees_field_arithmetic():
    source = ("sub, mul = fld.sub, fld.mul\n"
              "c = field.inv(a)\n"
              "if ring.field.is_zero(c):\n"
              "    pass\n"
              "q = fld.fraction(1, 2)\n"
              "s = ideals.add(x)\n")
    assert _field_arithmetic(source) == [1, 1, 2, 3]


@pytest.mark.parametrize("path", [p for p in MODULES if p.parent == PACKAGE
                                  and p.name not in ("fields.py", "rings.py")],
                         ids=lambda p: p.name)
def test_no_field_arithmetic_outside_fields_and_rings(path):
    assert _field_arithmetic(path.read_text()) == []


def _unreferenced(sources, exported=()):
    """The module-level functions and classes of the modules `sources`
    ({name: source}) that no module references outside their own
    definition, as (module, name), leaving out the names `exported`."""
    defined, used = [], set()

    def visit(node, inside):
        if isinstance(node, ast.Name) and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((module, node.name))
                visit(node, {node.name})
            else:
                visit(node, set())
    return sorted(d for d in defined
                  if d[1] not in used and d[1] not in exported)


def test_the_check_sees_an_unreferenced_definition():
    sources = {
        "a.py": ("def used():\n    return 1\n"
                 "def recursive(n):\n    return recursive(n - 1)\n"
                 "class Alone:\n    def me(self):\n        return Alone\n"
                 "def shown():\n    pass\n"),
        "b.py": ("from .a import used\n"
                 "def attribute():\n    return a.used()\n"
                 "def caller():\n    return attribute()\n"),
    }
    assert _unreferenced(sources, ("shown",)) == [
        ("a.py", "Alone"), ("a.py", "recursive"), ("b.py", "caller")]


def test_every_definition_is_used_or_exported():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = set(_imported(init))
    sources = {p.name: p.read_text() for p in MODULES
               if p.parent == PACKAGE}
    assert _unreferenced(sources, exported) == []
