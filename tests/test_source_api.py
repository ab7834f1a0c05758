"""Every function and method in ``src/pwvae`` has a caller in ``src/``: no API that only tests call."""

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
