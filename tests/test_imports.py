"""Every name a ``netlsm`` module imports is used in that module, only
``_util`` imports :mod:`csv`, no handler swallows every error, and netlsm
starts, and runs every command, without importing :mod:`scipy.optimize`.

The check parses each module with :mod:`ast`: an imported name is used when a
``Name`` node (the head of any attribute chain) refers to it.  Exempt are the
package re-exports in ``__init__.py`` and import statements marked
``# noqa: F401``.  One module reads and writes CSV, so that the network and
transplant files share one reader, one float parser and one writer.  A
handler that catches everything (bare, ``Exception`` or ``BaseException``)
must re-raise, so that bad input surfaces as the error it is, not as a
recorded failure.  A command loads :mod:`scipy.sparse` only if it builds a
Cox design, and none loads :mod:`scipy.linalg`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "netlsm"


def unused_imports(source, reexports=False):
    """Sorted ``(line, name)`` of imported names that ``source`` never uses.

    With ``reexports``, relative ``from . import`` names are exempt, as in a
    package ``__init__``.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        if isinstance(node, ast.ImportFrom) and (
            node.module == "__future__" or (reexports and node.level > 0)
        ):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(source, reexports=path.name == "__init__.py") == []


def test_checker_flags_unused_and_honours_exemptions():
    source = (
        "import os\n"
        "import numpy as np\n"
        "import xml.dom\n"
        "from math import pi, tau\n"
        "from json import dumps  # noqa: F401\n"
        "from .model import (\n"
        "    fit,\n"
        ")\n"
        "x = np.zeros(1) + tau\n"
        "y = xml.dom\n"
    )
    assert unused_imports(source) == [(1, "os"), (4, "pi"), (6, "fit")]
    assert unused_imports(source, reexports=True) == [(1, "os"), (4, "pi")]
    assert len(MODULES) >= 10


def imported_modules(source):
    """Top-level names of the absolute imports in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_util_imports_csv():
    users = [p.name for p in MODULES if "csv" in imported_modules(p.read_text(encoding="utf-8"))]
    assert users == ["_util.py"]
    source = "import csv as c\nfrom os import path\nfrom . import csv\n"
    assert imported_modules(source) == {"csv", "os"}


CATCH_ALL = {"Exception", "BaseException"}


def catch_all_handlers(source):
    """Sorted lines of the ``except`` clauses in ``source`` that catch every
    error (bare, or naming ``Exception`` or ``BaseException``, alone or in a
    tuple) and do not end in a bare ``raise``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if not any(t is None or isinstance(t, ast.Name) and t.id in CATCH_ALL for t in caught):
            continue
        last = node.body[-1]
        if not (isinstance(last, ast.Raise) and last.exc is None):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_catch_all_handlers(path):
    assert catch_all_handlers(path.read_text(encoding="utf-8")) == []


def test_catch_all_checker_flags_handlers_that_do_not_reraise():
    source = (
        "try:\n"
        "    pass\n"
        "except Exception:\n"  # 3
        "    pass\n"
        "except (ValueError, BaseException) as exc:\n"  # 5
        "    raise RuntimeError() from exc\n"
        "except:\n"  # 7
        "    x = 1\n"
        "try:\n"
        "    pass\n"
        "except BaseException:\n"
        "    cleanup()\n"
        "    raise\n"
        "except (KeyError, ValueError):\n"
        "    pass\n"
        "except:\n"
        "    raise\n"
    )
    assert catch_all_handlers(source) == [3, 5, 7]


def fresh_python(code):
    """The stdout of ``code`` run in a new interpreter that imports this checkout's netlsm."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Python layers of SciPy and numpy that no LSM command needs: scipy.optimize,
# and what scipy.linalg and scipy.sparse share, the array-API layer and the
# numpy.testing (unittest) it imports
UNNEEDED = ["scipy.optimize", "scipy.sparse", "scipy.linalg", "scipy._lib._array_api",
            "numpy.testing"]


def test_netlsm_starts_without_scipy_optimize():
    # those packages would add ~45 MB and ~0.35 s to every process; a later
    # import of them shares the compiled modules netlsm loaded
    out = fresh_python(
        "import sys\n"
        "import netlsm.cli\n"
        f"print(*[m in sys.modules for m in {UNNEEDED!r}])\n"
        "import scipy.optimize\n"
        "from scipy.optimize import _lbfgsb, _zeros\n"
        "print(_lbfgsb is netlsm.model._lbfgsb is scipy.optimize._lbfgsb_py._lbfgsb)\n"
        "print(_zeros is netlsm.survival._zeros is scipy.optimize._zeros_py._zeros)\n"
        "print(abs(scipy.optimize.brentq(lambda x: x * x - 2.0, 0.0, 2.0) - 2.0 ** 0.5) < 1e-11)\n"
        "import scipy.linalg\n"
        "print(scipy.linalg.lapack._flapack is netlsm.model._flapack)\n"
        "print(scipy.linalg.lu_factor([[2.0, 1.0], [1.0, 3.0]])[1].tolist() == [0, 1])\n"
    )
    assert out.split() == ["False"] * len(UNNEEDED) + ["True"] * 5


# every command, run in order in one process, and the SciPy packages loaded
# once it has run: the network commands build no Cox design, so they load
# neither scipy.sparse nor scipy.linalg; the first Cox design (pipeline's)
# loads scipy.sparse; nothing loads scipy.linalg or scipy.optimize, only the
# compiled modules netlsm calls
COMMANDS = [
    (["simulate-network", "--n-d", "8", "--n-r", "8", "--seed", "5", "--out", "a"], []),
    (["simulate-network", "--n-d", "8", "--n-r", "8", "--seed", "6", "--out", "b"], []),
    (["fit", "--net", "a", "--restarts", "1", "--out", "fit"], []),
    (["eval", "--train-net", "a", "--test-net", "b", "--out", "eval"], []),
    (["table1", "--reps", "1", "--restarts", "0", "--out", "table1"], []),
    (["simulate-transplants", "--n", "1000", "--seed", "0", "--out", "tx"], []),
    (["pipeline", "--seeds", "1", "--n", "1000", "--min-count", "5", "--restarts", "0",
      "--out", "pipe"], ["scipy.sparse"]),
    (["coxph", "--data", "tx/train.csv", "--min-count", "5", "--tune", "--out", "cox"],
     ["scipy.sparse"]),
]


def test_no_command_imports_scipy_optimize(tmp_path):
    out = fresh_python(
        "import os, sys\n"
        "from netlsm.cli import main\n"
        f"os.chdir({str(tmp_path)!r})\n"
        f"for argv in {[argv for argv, _ in COMMANDS]!r}:\n"
        "    assert main(argv + ['--allow-nonconverged']) == 0, argv\n"
        "    print(argv[0], *[m for m in ['scipy.sparse', 'scipy.linalg'] if m in sys.modules],\n"
        "          *sorted(m for m in sys.modules if m.startswith('scipy.optimize')), sep=',')\n"
    )
    assert [line.split(",") for line in out.splitlines()] == [
        [argv[0], *packages, "scipy.optimize._lbfgsb", "scipy.optimize._zeros"]
        for argv, packages in COMMANDS
    ]
    assert all((tmp_path / argv[-1] / "manifest.json").is_file() for argv, _ in COMMANDS)
