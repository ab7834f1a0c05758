"""Every function and method in ``src/pwvae`` has a caller in ``src/``: no API that only tests call.

The reference check skips dunder methods, which Python calls through
syntax, so no class may define an arithmetic operator unless it is
listed with a reason: the source calls ops by name.  Every name a
module exports in ``__all__`` is also defined there, so a deleted
definition cannot linger as a stale export.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pwvae"

# Definitions that may stay without a caller in src/, and why.
ALLOWED = {
    # perfbench traces it by name, so it goes with the change that edits
    # the benchmark (ROADMAP open item 2).
    ("nvdm", "elbo"),
    # The piecewise density, which only the quadrature oracles in tests
    # call; importance-weighted perplexity (ROADMAP open item 6) gives it a
    # caller.
    ("piecewise", "pdf_rows"),
}


# Arithmetic operator dunders, binary (plain, reflected and in-place) and unary.
_BINARY = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow", "lshift", "rshift", "and", "xor", "or")
OPERATORS = {f"__{prefix}{op}__" for op in _BINARY for prefix in ("", "r", "i")} | {"__neg__", "__pos__", "__abs__", "__invert__"}

# (module, "Class.__operator__") a class in src/pwvae may define, and why.
ALLOWED_OPERATORS: dict[tuple[str, str], str] = {}


def _definitions_and_references():
    """(module, qualified name) of every top-level function and non-dunder method, and every name referenced anywhere."""
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((path.stem, node.name))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (item.name.startswith("__") and item.name.endswith("__")):
                        defined.append((path.stem, f"{node.name}.{item.name}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_definition_has_a_reference_in_src():
    defined, referenced = _definitions_and_references()
    unreferenced = {(module, name) for module, name in defined if name.rsplit(".", 1)[-1] not in referenced}
    assert unreferenced - ALLOWED == set(), "defined in src/pwvae but referenced nowhere in src/"


def test_every_allowed_definition_still_exists_without_a_reference():
    """An entry leaves the allow-list once its definition goes or gains a caller."""
    defined, referenced = _definitions_and_references()
    assert ALLOWED <= set(defined)
    assert not {name for _, name in ALLOWED} & referenced


def test_no_class_defines_an_arithmetic_operator():
    """Protocol dunders (``__init__``, ``__float__``, ``__eq__``, ``__enter__`` and the like) are not operators and may stay."""
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    names = [item.name] if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) else []
                    if isinstance(item, (ast.Assign, ast.AnnAssign)):
                        names = [t.id for t in (item.targets if isinstance(item, ast.Assign) else [item.target]) if isinstance(t, ast.Name)]
                    defined |= {(path.stem, f"{node.name}.{name}") for name in names if name in OPERATORS}
    assert defined - set(ALLOWED_OPERATORS) == set(), "arithmetic operator defined in src/pwvae"
    assert set(ALLOWED_OPERATORS) <= defined, "an allowed operator is no longer defined"


def _exports_and_bindings(tree):
    """The strings in a module's top-level ``__all__``, and every name its top level binds."""
    exports, bound = [], set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                exports = [ast.literal_eval(element) for element in node.value.elts]
    return exports, bound


def test_every_exported_name_is_defined():
    stale = set()
    for path in sorted(SRC.glob("*.py")):
        exports, bound = _exports_and_bindings(ast.parse(path.read_text(encoding="utf-8")))
        stale |= {(path.stem, name) for name in exports if name not in bound}
    assert stale == set(), "named in __all__ but defined nowhere in the module"


def test_only_custom_op_records_on_the_tape():
    """Every taped op, in ``tensor`` or elsewhere, is one ``custom_op``: no other function calls ``tensor._record``."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_record":
                        callers.add((path.stem, func.name))
    assert callers == {("tensor", "custom_op")}
