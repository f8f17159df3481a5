"""The README's module map names only what its modules define: every
backticked call such as `copula_sample(corr, ...)` in the row of
`densum.X`, other than a Python builtin, must be an attribute of densum.X,
so a renamed or deleted function cannot survive in the documentation."""

import builtins
import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
MAP_ROW = re.compile(r"^\| `(densum\.\w+)` \| (.*) \|$", re.MULTILINE)
CALL = re.compile(r"`([A-Za-z_][\w.]*)\(")
ROWS = MAP_ROW.findall(README.read_text(encoding="utf-8"))


def test_the_module_map_covers_every_module():
    package = Path(importlib.import_module("densum").__file__).parent
    modules = {f"densum.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__"}
    assert {module for module, _ in ROWS} == modules


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, row in ROWS for name in CALL.findall(row)
     if not hasattr(builtins, name)],  # `float()` is Python's own
)
def test_module_map_calls_exist(module, name):
    target = importlib.import_module(module)
    for part in name.split("."):
        assert hasattr(target, part), f"README names `{name}(` under {module}, which has no {part}"
        target = getattr(target, part)
