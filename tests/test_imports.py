"""Every name a package module imports is used in that module, every
function, method and property the package defines is referenced in it,
every name a package module binds at module level is read in the package,
every attribute a package class sets on ``self`` is read in the package,
and every definition the shared test helpers make is referenced by some
test or benchmark file."""

import ast
import pathlib
from collections import Counter

import pytest

import litmusdiff

MODULES = sorted(pathlib.Path(litmusdiff.__file__).parent.glob("*.py"))
TESTS = pathlib.Path(__file__).resolve().parent
TEST_HELPERS = [TESTS / name for name in
                ("support.py", "naive_oracle.py", "interleaving_oracle.py",
                 "reference_reader.py")]

# Definitions that no program path calls, each with the test file that
# calls it: the brute-force oracle projects its candidates with
# final_state, tests write expected outcomes with Outcome.from_dict, the
# generator tests pin each family's size, the reference validator and
# the random asm tests list a thread's definitions with defined_registers,
# and the reference validator finds a thread by its id with
# LitmusTest.thread.
CALLED_ONLY_FROM_TESTS = {
    "final_state": "naive_oracle.py",
    "from_dict": "test_difftest.py",
    "combination_count": "test_testgen.py",
    "defined_registers": "test_litmus.py",
    "thread": "reference_reader.py",
}
# Module-level names that no package module reads, each with the test file
# that reads it: the brute-force oracle keeps its own acquire and release
# sets of the SWP family, spelled out rather than derived from ASM_FORMS.
READ_ONLY_FROM_TESTS = {
    "SWP_ACQUIRE": "naive_oracle.py",
    "SWP_RELEASE": "naive_oracle.py",
}
# Attributes a package class sets on ``self`` that no package module reads,
# each with the test file that reads it: the reader tests pin the position
# a ParseError carries.
SET_ONLY_FOR_TESTS = {
    "ParseError.line": "test_syntax.py",
    "ParseError.column": "test_syntax.py",
}


def unused_imports(source):
    """Imported names that no expression in ``source`` reads and that its
    ``__all__`` does not export; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_scanner_finds_unused_names():
    source = "\n".join([
        "from __future__ import annotations",
        "import os, os.path as osp",
        "from a import b, c as d, e",
        "__all__ = ['e']",
        "print(b)",
    ])
    assert unused_imports(source) == ["d", "os", "osp"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def references(tree):
    """How often each name is read as a variable or an attribute, imported
    by name, or exported by ``__all__`` in ``tree``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            found.update(ast.literal_eval(node.value))
    return found


def method_references(tree):
    """How often each name is called as an attribute (``x.name(...)``) in
    ``tree``, and how often each ``(class, name)`` is read as
    ``Class.name``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            found[node.func.attr] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found[node.value.id, node.attr] += 1
    return found


def is_property(node):
    """Whether the function ``node`` is decorated as a property."""
    return any(getattr(d, "id", getattr(d, "attr", "")).endswith("property")
               for d in node.decorator_list)


def dead_definitions(sources, readers=()):
    """Functions, methods and properties defined in ``sources`` that nothing
    outside their own body, in ``sources`` or ``readers``, references.
    Dunder methods are exempt.  A plain method counts as referenced only
    where it is called or read off its own class; a function or property
    goes by name, so a variable or attribute of the same name anywhere
    counts as a reference."""
    trees = [ast.parse(source) for source in sources]
    every = [*trees, *map(ast.parse, readers)]
    total = sum(map(references, every), Counter())
    calls = sum(map(method_references, every), Counter())

    def dead(node, owner):
        if owner is None or is_property(node):
            return total[node.name] == references(node)[node.name]
        own = method_references(node)
        keys = (node.name, (owner, node.name))
        return sum(calls[k] for k in keys) == sum(own[k] for k in keys)

    found = []
    for tree in trees:
        owners = {id(item): node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for item in node.body}
        found += [
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and dead(node, owners.get(id(node)))]
    return sorted(found)


def test_scanner_finds_dead_definitions():
    source = "\n".join([
        "from m import used",
        "__all__ = ['exported']",
        "def exported(): pass",
        "def recursive(n): return recursive(n - 1)",
        "def caller(): return helper()",
        "def helper(): pass",
        "class C:",
        "    def __init__(self): pass",
        "    @property",
        "    def size(self): return 0",
        "    def method(self): return self.size",
    ])
    assert dead_definitions([source, "def used(): pass"]) \
        == ["caller", "method", "recursive"]
    assert dead_definitions([source], ["caller()", "used()", "C().method()"]) \
        == ["recursive"]
    # A plain method goes by calls and reads off its own class: neither an
    # attribute of another object nor a variable of its name refers to it.
    assert dead_definitions([source], ["caller()", "used()", "x.method",
                                       "D.method", "method = C().size"]) \
        == ["method", "recursive"]
    assert dead_definitions([source], ["caller()", "used()", "f(C.method)"]) \
        == ["recursive"]


def test_every_definition_is_referenced():
    assert dead_definitions(path.read_text() for path in MODULES) \
        == sorted(CALLED_ONLY_FROM_TESTS)
    for name, caller in CALLED_ONLY_FROM_TESTS.items():
        assert name in (TESTS / caller).read_text(), (name, caller)


def test_every_test_helper_is_referenced():
    readers = [path for path in (*TESTS.glob("*.py"),
                                 *(TESTS.parent / "perfbench").glob("*.py"))
               if path not in TEST_HELPERS]
    assert dead_definitions([path.read_text() for path in TEST_HELPERS],
                            [path.read_text() for path in readers]) == []


def bound_names(tree):
    """Names that the top-level assignments and class definitions of
    ``tree`` bind, dunder names aside."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names += [n.id for target in targets for n in ast.walk(target)
                      if isinstance(n, ast.Name)]
    return [name for name in names
            if not (name.startswith("__") and name.endswith("__"))]


def reads(tree):
    """How often each name is read as a variable or an attribute, or
    imported by name, in ``tree``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
    return found


def dead_module_names(sources):
    """Module-level names bound in ``sources`` that nothing reads: a
    private one (leading underscore) in its own source, a public one in
    any of them.  The scan goes by name, like ``dead_definitions``."""
    trees = [ast.parse(source) for source in sources]
    own = [reads(tree) for tree in trees]
    total = sum(own, Counter())
    return sorted(
        name for tree, found in zip(trees, own) for name in bound_names(tree)
        if not (found if name.startswith("_") else total)[name])


def test_scanner_finds_dead_module_names():
    source = "\n".join([
        "import os",
        "_used, _unused = 1, 2",
        "PUBLIC: int = _used",
        "LEFT = os.sep",
        "__version__ = '1'",
        "class Shape: pass",
        "class Kept: pass",
        "print(Kept, [LEFT for _ in ()])",
    ])
    assert dead_module_names([source]) == ["PUBLIC", "Shape", "_unused"]
    # a public name counts as read in any module, a private one only in
    # its own
    assert dead_module_names([source, "from m import PUBLIC\n_unused"]) \
        == ["Shape", "_unused"]


def test_every_module_level_name_is_read():
    assert dead_module_names(path.read_text() for path in MODULES) \
        == sorted(READ_ONLY_FROM_TESTS)
    for name, reader in READ_ONLY_FROM_TESTS.items():
        assert name in (TESTS / reader).read_text(), (name, reader)


def unread_attributes(sources):
    """``Class.attribute`` for each attribute that a method of a class in
    ``sources`` sets on ``self`` and that nothing in ``sources`` reads.
    The scan goes by name, like ``dead_definitions``: a read of an
    attribute of that name off any object counts, and an augmented
    assignment (``self.n += 1``) counts as a store alone."""
    trees = [ast.parse(source) for source in sources]
    loaded = {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    found = set()
    for tree in trees:
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                found.update(
                    f"{cls.name}.{node.attr}" for node in ast.walk(cls)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self" and node.attr not in loaded)
    return sorted(found)


def test_scanner_finds_unread_attributes():
    source = "\n".join([
        "class Pair:",
        "    def __init__(self, a, b):",
        "        self.first, self.second = a, b",
        "        self.count = 0",
        "        self.kept = []",
        "    def bump(self):",
        "        self.count += 1",
        "        self.kept.append(self)",
        "class Other:",
        "    def __init__(self, pair):",
        "        pair.extra = 1",
        "        self.first = pair",
        "print(Pair(1, 2).second)",
    ])
    assert unread_attributes([source]) \
        == ["Other.first", "Pair.count", "Pair.first"]
    # a read in any of the sources counts, off any object
    assert unread_attributes([source, "f(x.first)"]) == ["Pair.count"]


def test_every_attribute_set_on_self_is_read():
    assert unread_attributes(path.read_text() for path in MODULES) \
        == sorted(SET_ONLY_FOR_TESTS)
    for name, reader in SET_ONLY_FOR_TESTS.items():
        attribute = name.split(".")[1]
        assert f".{attribute}" in (TESTS / reader).read_text(), (name, reader)
