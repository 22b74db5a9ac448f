"""The package root: every public name resolves lazily to its module's object."""

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
