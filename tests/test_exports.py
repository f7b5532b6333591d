"""Each riscov module's __all__ names exactly its public functions and classes.

perfbench/spans.py wraps the functions a module lists in __all__, so a name
listed there that no longer exists breaks the traced benchmark pass, and a
public function left out of it is never traced.  The README's library
example must keep importing.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import riscov

MODULES = sorted(m.name for m in pkgutil.iter_modules(riscov.__path__)
                 if m.name != "__main__")


def _public_definitions(module) -> set[str]:
    return {name for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__}


def test_every_module_is_checked():
    assert MODULES == ["analytic", "cli", "fading", "geometry", "jets", "mcsim",
                       "powerdist", "specfun"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"riscov.{name}")
    listed = module.__all__
    assert len(listed) == len(set(listed))
    missing = [n for n in listed if not hasattr(module, n)]
    assert not missing, f"riscov.{name}.__all__ names undefined {missing}"
    assert set(listed) == _public_definitions(module)


def test_package_reexports_only_public_names():
    exported = {name for name, obj in vars(riscov).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    public = set().union(*(importlib.import_module(f"riscov.{n}").__all__ for n in MODULES))
    assert exported <= public


def test_readme_library_example_imports():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python", 1)[1]
    example = example.split("```", 1)[0]
    tree = ast.parse(example)
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})
