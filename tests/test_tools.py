"""The repository's tools, run as scripts."""

import subprocess
import sys
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"


def _run_digests(cwd: Path) -> subprocess.CompletedProcess:
    # -X importtime lists on stderr every module the run imports
    return subprocess.run([sys.executable, "-X", "importtime", str(DIGESTS)], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_report_digests_refuses_a_directory_outside_every_checkout(tmp_path):
    assert not any((p / "src" / "sspread").exists() for p in (tmp_path, *tmp_path.parents))
    run = _run_digests(tmp_path)
    assert (run.returncode, run.stdout) == (2, "")
    lines = run.stderr.splitlines()
    assert lines[-1].startswith("report_digests: no directory from ")
    imported = {line.rsplit("|", 1)[-1].strip() for line in lines
                if line.startswith("import time:")}
    assert imported and not {name.split(".")[0] for name in imported} & {"numpy", "sspread"}


def test_report_digests_digests_the_checkout_of_the_working_directory(tmp_path):
    # a stand-in checkout whose package announces itself and stops: the run
    # imports it, not the package of the checkout that holds the tool
    package = tmp_path / "src" / "sspread"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "import sys\nprint('stand-in', __file__, file=sys.stderr)\nsys.exit(7)\n")
    inside = tmp_path / "some" / "dir"
    inside.mkdir(parents=True)
    run = _run_digests(inside)
    assert run.returncode == 7
    assert f"stand-in {package / '__init__.py'}" in run.stderr
