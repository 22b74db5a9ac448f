"""The package root: every public name resolves lazily to its module's object."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sspread


def test_public_names_are_their_modules_objects():
    for name in sspread.__all__:
        obj = getattr(sspread, name)
        if name != "__version__":
            assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(sspread.__all__) <= set(dir(sspread))


def test_star_import_binds_every_public_name():
    scope: dict = {}
    exec("from sspread import *", scope)
    assert all(scope[name] is getattr(sspread, name) for name in sspread.__all__)


def test_readme_names_every_public_name():
    # the documented API: each export appears in README.md as a code span
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    missing = [name for name in sspread.__all__ if f"`{name}`" not in readme]
    assert missing == []


def test_unknown_name_and_submodule_import():
    with pytest.raises(AttributeError, match="nope"):
        sspread.nope  # noqa: B018
    from sspread import harness
    assert harness is sys.modules["sspread.harness"]


def test_bare_import_loads_only_the_errors():
    src = str(Path(sspread.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    probe = ("import json, sys, sspread\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('sspread'))))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=60, env=env, check=True)
    assert json.loads(out.stdout) == ["sspread", "sspread.errors"]


def test_lapack_is_reached_only_through_linalg():
    # one doorway: no module but linalg calls numpy.linalg's eigensolvers,
    # SVD or QR, or names numpy's gufunc module; norm runs no LAPACK factorization
    solvers = {"eigh", "eigvalsh", "svd", "qr"}
    found = []
    for path in sorted(Path(sspread.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                owner = ast.unparse(node.value)
                bad = node.attr == "_umath_linalg" or (
                    node.attr in solvers and owner in ("np.linalg", "numpy.linalg"))
            elif isinstance(node, ast.Name):
                bad = node.id == "_umath_linalg"
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.name for a in node.names}
                module = getattr(node, "module", None) or ""
                bad = "_umath_linalg" in f"{module} {names}" or (
                    module == "numpy.linalg" and bool(solvers & names))
            else:
                bad = False
            if bad:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []
