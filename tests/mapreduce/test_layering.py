"""Layering: the MPC substrate sits below the execution and experiment layers.

The drivers under ``repro.core`` account rounds through ``repro.mapreduce``;
sweep backends, the distributed coordinator and the Figure-1 experiments
are built on top of both.  An import in the other direction — including a
lazy one inside a function body — would tie the model's accounting to how
sweeps happen to be executed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.mapreduce

PACKAGE_DIR = Path(repro.mapreduce.__file__).parent
FORBIDDEN = ("repro.backends", "repro.distributed", "repro.experiments")


def imported_modules(source: str) -> list[str]:
    """Absolute names of every module a ``repro.mapreduce`` module imports."""
    package = ["repro", "mapreduce"]
    names: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join([*base, *([node.module] if node.module else [])])
            names.append(module)
            # ``from .. import backends`` names the submodule in the alias.
            names.extend(f"{module}.{alias.name}" for alias in node.names)
    return names


def higher_layer_imports(source: str) -> list[str]:
    return [
        name
        for name in imported_modules(source)
        if any(name == layer or name.startswith(layer + ".") for layer in FORBIDDEN)
    ]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda path: path.name
)
def test_mapreduce_imports_no_higher_layer(path):
    offending = higher_layer_imports(path.read_text(encoding="utf-8"))
    assert offending == [], f"{path.name} imports {offending}"


@pytest.mark.parametrize(
    "source",
    [
        "from ..backends import run_sweep",
        "from .. import distributed",
        "def lazy():\n    from ..experiments.figure1 import mis_experiment",
        "import repro.backends.sweep",
    ],
)
def test_detects_each_spelling_of_an_upward_import(source):
    assert higher_layer_imports(source)

