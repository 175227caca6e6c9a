"""The package is layered: each module imports only modules that come
before it in ``LAYERS``, so no layer depends on one built on top of it."""

import ast
import pathlib

import pytest

import qreset

LAYERS = (
    "cmatrix",
    "reset_core",
    "observables",
    "twospin",
    "trajectories",
    "serialize",
    "sweep",
    "cli",
)
SRC = pathlib.Path(qreset.__file__).parent


def package_imports(module: str) -> set[str]:
    """Names of the qreset modules that ``module`` imports."""
    out = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:  # from .x import y
                out.add(node.module.split(".")[0])
            else:  # from . import x
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qreset."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("qreset.")
            )
    return out


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_both_relative_import_forms_are_parsed():
    # sweep has "from . import twospin" and "from .reset_core import ..."
    assert {"twospin", "reset_core"} <= package_imports("sweep")


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_earlier_layers(module):
    earlier = set(LAYERS[: LAYERS.index(module)])
    imports = package_imports(module)
    assert imports <= earlier, f"{module} imports later layers {sorted(imports - earlier)}"
