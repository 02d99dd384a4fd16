"""Package-wide checks: the public namespace and library-wide rules."""

import ast
import re
from pathlib import Path

import satcycles
import satcycles.cli
from satcycles import crossings, errors, exactflow, melnikov, model, poincare

ROOT = Path(__file__).resolve().parents[1]
MODULES = (model, exactflow, poincare, crossings, melnikov, errors)


def test_library_code_has_no_assert_statements():
    # library logic raises typed errors; an assert vanishes under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "satcycles").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_all_is_the_union_of_the_module_lists():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert sorted(satcycles.__all__) == sorted(["__version__", *declared])
    for module in MODULES:
        for name in module.__all__:
            assert getattr(satcycles, name) is getattr(module, name)


def test_every_name_the_benchmark_reads_resolves():
    text = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bsc\.(\w+(?:\.\w+)*)", text))
    assert {"Params", "lambda_of_x", "solve_crossing_system", "cli.main"} <= names
    for dotted in sorted(names):
        obj = satcycles
        for part in dotted.split("."):
            obj = getattr(obj, part)


def test_every_top_level_definition_is_named_in_the_package():
    # a helper that only tests use does not ship: each top-level function or
    # class is referenced, or listed in an __all__, in src/ outside its own
    # definition
    defined, named = [], set()
    for path in sorted((ROOT / "src" / "satcycles").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if own:
                defined.append((path.stem, own))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    name = sub.value
                else:
                    continue
                if name != own:
                    named.add(name)
    assert [f"{module}.{name}" for module, name in defined if name not in named] == []
