"""Checks over the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "sepll"

# called from outside the package only, by the benchmark harness in perfbench/
CALLED_FROM_OUTSIDE = {"read_triplets", "read_mapping", "verify_manifest", "majority_vote"}


def _is_click_command(fn: ast.FunctionDef) -> bool:
    for decorator in fn.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def uncalled_functions(source: Path) -> set[str]:
    """Functions and methods defined under ``source`` whose name is never loaded
    there (as a name or an attribute), dunders and click commands aside."""
    defined, loaded = set(), set()
    for path in sorted(source.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")) and not _is_click_command(node):
                    defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return defined - loaded


def test_every_function_in_src_has_a_caller_in_src():
    assert uncalled_functions(SOURCE) == CALLED_FROM_OUTSIDE


def unused_imports(source: Path) -> set[str]:
    """``module:name`` for each name a module under ``source`` imports and never
    loads, ``from __future__`` imports and lines marked ``# noqa: F401`` aside."""
    unused = set()
    for path in sorted(source.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        imported, loaded = set(), set()
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if "# noqa: F401" in lines[node.lineno - 1]:
                    continue
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
        unused |= {f"{path.stem}:{name}" for name in imported - loaded}
    return unused


def test_no_module_in_src_imports_a_name_it_does_not_use():
    assert unused_imports(SOURCE) == set()


def modules_loading(source: Path, attrs: set[str]) -> dict[str, set[str]]:
    """Each name in ``attrs`` -> the modules under ``source`` that load it, bare or as an attribute."""
    found: dict[str, set[str]] = {attr: set() for attr in attrs}
    for path in sorted(source.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(getattr(node, "ctx", None), ast.Load) and name in attrs:
                found[name].add(path.stem)
    return found


def test_only_the_model_reads_where_the_first_layer_and_the_lf_path_sit_in_theta():
    assert modules_loading(SOURCE, {"first_size", "lf_slice"}) == {"first_size": {"model"}, "lf_slice": {"model"}}


def test_only_text_tokenizes_texts_and_the_lf_engine_only_its_terms():
    # a split is tokenized once, by text.tokenize_split through SplitSet.tokens;
    # lf_engine tokenizes LF terms, and encoder only re-exports the name
    assert modules_loading(SOURCE, {"tokenize", "tokenize_split"}) == {
        "tokenize": {"text", "lf_engine"},
        "tokenize_split": {"data"},
    }
