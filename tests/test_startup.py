"""Start-up: what importing the package and its CLI loads, and what it sets.

Each check runs in a fresh interpreter, since this process has loaded numpy
long before any test runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _env(**overrides) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    env.update(overrides)
    return env


def _python(code: str, **env) -> list[str]:
    """The lines a fresh interpreter prints running ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_env(**env), capture_output=True, text=True, check=True
    )
    return proc.stdout.split()


def test_the_package_root_loads_no_numpy():
    assert _python("import sys, liesphere; print('numpy' in sys.modules)") == ["False"]


@pytest.mark.parametrize(
    "code, env, expected",
    [
        # the CLI asks for one OpenBLAS thread before numpy loads
        ("import liesphere.cli", {}, "1"),
        # a value the user set wins
        ("import liesphere.cli", {"OPENBLAS_NUM_THREADS": "2"}, "2"),
        # a library importer keeps numpy's default
        ("import liesphere.ribaucour", {}, "None"),
        # and so does a process that loaded numpy first
        ("import numpy, liesphere.cli", {}, "None"),
    ],
)
def test_only_the_cli_sets_openblas_threads(code, env, expected):
    print_var = "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _python(f"{code}; {print_var}", **env) == [expected]


def test_the_cli_starts_no_blas_threads():
    # numpy's OpenBLAS starts a thread per usable CPU on import, unless told one
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs Linux with at least two usable CPUs")
    code = (
        "import os, liesphere.cli\n"
        "maps = open('/proc/self/maps', encoding='utf-8', errors='replace').read()\n"
        "print('openblas' in maps.lower(), len(os.listdir('/proc/self/task')))"
    )
    openblas, threads = _python(code)
    if openblas != "True":
        pytest.skip("numpy is not linked against OpenBLAS")
    assert threads == "1"


def _cli_run(cwd: Path, **env) -> tuple[str, str, dict]:
    cwd.mkdir()
    scene = ROOT / "scenes" / "demoulin_dual_2d.json"
    argv = ["demoulin", "--dual", "--scene", str(scene), "--grid", "12x12", "--out", "out"]
    proc = subprocess.run(
        [sys.executable, "-m", "liesphere.cli", *argv], cwd=cwd, env=_env(**env),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    files = {p.name: p.read_bytes() for p in sorted((cwd / "out").iterdir())}
    return proc.stdout, proc.stderr, files


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # demoulin's connection operators and Bianchi check hold the engine's only
    # BLAS calls, the stacked 2x2 products
    one = _cli_run(tmp_path / "one")
    two = _cli_run(tmp_path / "two", OPENBLAS_NUM_THREADS="2")
    assert one[2] and one == two
