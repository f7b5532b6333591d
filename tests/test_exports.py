"""Each riscov module's __all__ names exactly its public functions and classes.

perfbench/spans.py wraps the functions a module lists in __all__, so a name
listed there that no longer exists breaks the traced benchmark pass, and a
public function left out of it is never traced.  The README's library
example must keep importing, and importing riscov must not load scipy.
Each refusal message is raised from one place, so an input rule has one
owner that every other entry point calls.
"""

import ast
import collections
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import riscov
from riscov.analytic import SystemParams, coverage_nearest

ROOT = Path(__file__).resolve().parents[1]

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
    readme = (ROOT / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python", 1)[1]
    example = example.split("```", 1)[0]
    tree = ast.parse(example)
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})


_SIMULATE_THEN_EVALUATE = """
import sys
import riscov, riscov.cli, riscov.mcsim
from riscov.analytic import SystemParams, coverage_nearest
from riscov.geometry import Window

assert riscov.cli.main(["list-scenarios"]) == 0
params = SystemParams.default(n_elements=4)
for strategy, forced in (("fixed", True), ("nearest", None)):
    cfg = riscov.mcsim.McConfig(trials=100, seed=7, params=params, window=Window(300.0))
    assert riscov.mcsim.simulate_sinr(cfg, strategy, forced_ris=forced).n == 100
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print("scipy.integrate" in sys.modules)
print(repr(coverage_nearest(SystemParams.default(p=0.9), 1.0)))
print("scipy.integrate" in sys.modules)
"""


def test_simulating_never_loads_scipy_until_an_analytic_call():
    """The CLI and the simulator run on numpy alone; scipy loads on first analytic use."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _SIMULATE_THEN_EVALUATE], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    *_, scipy_modules, before, value, after = proc.stdout.splitlines()
    assert scipy_modules == "[]"
    assert before == "False"
    assert after == "True"
    assert float(value) == coverage_nearest(SystemParams.default(p=0.9), 1.0)


def _literal_text(node) -> str:
    """The literal parts of a message expression: string constants, f-string text, sums."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_literal_text(part) for part in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _literal_text(node.left) + _literal_text(node.right)
    return ""


def test_each_refusal_message_is_raised_from_one_place():
    """Two raise sites of one message are one input rule written twice, which can drift."""
    sites = collections.defaultdict(list)
    for path in sorted((ROOT / "src" / "riscov").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                message = _literal_text(node.exc.args[0])
                if message:
                    sites[message].append(f"{path.name}:{node.lineno}")
    assert len(sites) > 50
    assert {message: where for message, where in sites.items() if len(where) > 1} == {}


def _handled_names(handler: ast.ExceptHandler) -> set[str]:
    """The exception class names an except clause names, alone or in a tuple."""
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {node.id for node in types if isinstance(node, ast.Name)}


def test_overflow_is_caught_only_by_the_out_of_range_owner():
    """One function turns an OverflowError into a refusal, fading._in_range; a second
    except OverflowError is the out-of-range rule written twice, with its own wording."""
    sites = []
    for path in sorted((ROOT / "src" / "riscov").glob("*.py")):
        tree = ast.parse(path.read_text())
        # each node's innermost enclosing function: ast.walk visits outer functions first
        owner = {id(node): f"{path.stem}.{func.name}" for func in ast.walk(tree)
                 if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(func)}
        sites += [owner.get(id(node), f"{path.stem} (module level)") for node in ast.walk(tree)
                  if isinstance(node, ast.ExceptHandler)
                  and "OverflowError" in _handled_names(node)]
    assert sites == ["fading._in_range"]
