"""Module boundaries of ``prescurv``: no module of the package imports a
private name (one with a leading underscore) from another, so that each
module's representation choices stay behind its public API, and every
name a module imports is read there, so a deletion leaves no dead
import behind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prescurv"


def private_imports(path: Path) -> list[str]:
    """``module.name`` of each private name that ``path`` imports from a
    sibling module, or reads as an attribute of an imported sibling."""
    tree = ast.parse(path.read_text(), str(path))
    found, siblings = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith(
                "prescurv")):
            source = (node.module or "").removeprefix("prescurv").lstrip(".")
            for alias in node.names:
                name = f"{source}.{alias.name}".lstrip(".")
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append(name)
                siblings[alias.asname or alias.name] = name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("prescurv.") and alias.asname:
                    siblings[alias.asname] = alias.name.removeprefix("prescurv.")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append(f"{siblings[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_private_imports_across_modules(path):
    assert private_imports(path) == []


def test_detects_a_private_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from .energy import Problem, _fourier_solver\n"
                      "from . import energy as en\n"
                      "import prescurv.spectral as sp\n"
                      "x = en._band_order, en.__doc__, sp._quad\n")
    assert sorted(private_imports(module)) == ["energy._band_order", "energy._fourier_solver",
                                               "spectral._quad"]


def unread_imports(path: Path) -> list[str]:
    """Each name that ``path`` binds by ``import`` or ``from ... import``
    (``__future__`` excepted) and never reads: as a name, or as the root
    of an attribute chain such as ``scipy.sparse.linalg``."""
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_read(path):
    assert unread_imports(path) == []


def test_detects_an_unread_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import math\nimport scipy.sparse\nimport numpy as np\n"
                      "from typing import Optional, Union\nfrom .energy import Problem\n"
                      "x: Optional[int] = np.pi + scipy.sparse.eye(1)\n")
    assert unread_imports(module) == ["math", "Union", "Problem"]


def imports_spatial(path: Path) -> bool:
    """Whether ``path`` reaches ``scipy.spatial``: by ``import``, by
    ``from ... import`` of the package or of a name in it, or as an
    attribute of an imported ``scipy``."""
    def spatial(name: str) -> bool:
        return name == "scipy.spatial" or name.startswith("scipy.spatial.")

    tree = ast.parse(path.read_text(), str(path))
    scipy_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if spatial(alias.name):
                    return True
                if alias.name == "scipy" or (alias.name.startswith("scipy.")
                                             and not alias.asname):
                    scipy_names.add(alias.asname or "scipy")
        elif isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            if spatial(module) or any(spatial(f"{module}.{a.name}") for a in node.names):
                return True
    return any(isinstance(node, ast.Attribute) and node.attr == "spatial"
               and isinstance(node.value, ast.Name) and node.value.id in scipy_names
               for node in ast.walk(tree))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_only_domain_measures_distance(path):
    # domain owns the cylinder's seam, so it alone builds k-d trees:
    # every distance in the package is the mesh's own
    assert imports_spatial(path) == (path.stem == "domain")


@pytest.mark.parametrize("source", [
    "import scipy.spatial", "import scipy.spatial.distance as d",
    "from scipy.spatial import cKDTree", "from scipy import spatial",
    "from scipy.spatial.distance import cdist", "import scipy as sc\nsc.spatial.KDTree",
    "import scipy.sparse\nscipy.spatial.KDTree"])
def test_detects_a_spatial_import(tmp_path, source):
    module = tmp_path / "module.py"
    module.write_text(source + "\n")
    assert imports_spatial(module)


def test_other_scipy_imports_pass(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import scipy.sparse as sp\nfrom scipy.linalg import solve\n"
                      "from . import spatial\nsp.spatial\n")
    assert not imports_spatial(module)
