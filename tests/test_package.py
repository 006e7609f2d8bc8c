"""The package runs each module on first read: its stubs, its public names and what each process runs.

Each child process below tells a module that has run from a stub by
``type(module)``, which reads no attribute of it and so runs nothing.  It
also reports which of the standard modules in ``HEAVY`` it has loaded:
``dataclasses`` brings ``inspect``, ``ast``, ``dis`` and ``tokenize`` with it.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import adjinv

PACKAGE = Path(adjinv.__file__).parent
EXAMPLE1, EXAMPLE2 = (str(PACKAGE / "data" / f"example{k}.mat") for k in (1, 2))

HEAVY = ("dataclasses", "inspect")
# Prints, as the last line, the package's modules that have run, and those of HEAVY the process has loaded, as one
# JSON list.
REPORT = ("import json, sys, types; print(json.dumps(sorted(n[7:] for n, m in list(sys.modules.items())"
          " if n.startswith('adjinv.') and type(m) is types.ModuleType)"
          f" + [n for n in {HEAVY!r} if n in sys.modules]))")


def _python(*args: str, path: Path = PACKAGE.parent) -> subprocess.CompletedProcess:
    """A fresh interpreter run with the command-line arguments ``args``, importing adjinv from ``path``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(path), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def _child(code: str, *args: str, path: Path = PACKAGE.parent) -> subprocess.CompletedProcess:
    """A fresh interpreter running ``code`` with ``args`` as its argv, importing adjinv from ``path``."""
    return _python("-c", code, *args, path=path)


def _modules_run(code: str, *args: str) -> set[str]:
    done = _child(f"{code}\n{REPORT}", *args)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _command_runs(*argv: str) -> set[str]:
    """The modules a ``python -m adjinv`` process with these arguments runs."""
    code = ("import runpy, sys\nsys.argv[0] = 'adjinv'\ntry:\n"
            "    runpy.run_module('adjinv', run_name='__main__', alter_sys=True)\nexcept SystemExit as exit:\n"
            "    assert exit.code == 0, exit.code")
    return _modules_run(code, *argv)


def test_importing_the_package_runs_no_module():
    assert _modules_run("import adjinv") == set()


def test_importing_the_package_leaves_the_command_line_unimported():
    done = _child("import sys, adjinv; print('adjinv.cli' in sys.modules, hasattr(adjinv, 'cli'))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "False False\n", "")


def test_python_m_adjinv_cli_runs_the_command_line_once():
    # runpy warns on stderr, and runs the module a second time, when the
    # module it is asked to run as __main__ is already in sys.modules.
    done = _python("-m", "adjinv.cli", "rank", EXAMPLE1)
    assert (done.returncode, done.stdout, done.stderr) == (0, "3\n", "")


def test_the_benchmark_setup_runs_only_the_reader():
    # perfbench's setup: import the package, then parse matrix texts.  The
    # reader runs no kernel module and loads neither dataclasses nor inspect.
    code = "import adjinv; adjinv.parse_matrix_text(open(sys.argv[1]).read())"
    assert _modules_run(f"import sys; {code}", EXAMPLE1) == {"scalars", "matrices", "matrix_io"}


@pytest.mark.parametrize("argv, unread", [
    (["rank", EXAMPLE1], {"pinv", "drazin", "solvers", "verify", "golden", "dataclasses"}),
    (["drazin", EXAMPLE2], {"pinv", "solvers", "verify", "golden"}),
    (["pinv", EXAMPLE1], {"solvers", "verify", "golden"}),
    (["charpoly", EXAMPLE2], {"pinv", "drazin", "solvers", "verify", "golden", "dataclasses"}),
    (["solve-lsq", EXAMPLE1, "--rhs", "1 2 3 1"], {"pinv", "drazin", "verify", "golden"}),
    (["solve-drazin", EXAMPLE2, "--rhs", "1 2 3 1"], {"pinv", "drazin", "verify", "golden"}),
])
def test_a_command_runs_none_of_the_modules_it_does_not_read(argv, unread):
    ran = _command_runs(*argv)
    assert "cli" in ran and not ran & unread


# The process entry point, with gc.freeze replaced by a report of the package's modules that have run.
FREEZE = ("import gc, sys, types\nimport adjinv.cli\n"
          "gc.freeze = lambda: print(sorted(n[7:] for n, m in list(sys.modules.items())"
          " if n.startswith('adjinv.') and type(m) is types.ModuleType))\n"
          "sys.argv[0] = 'adjinv'\nsys.exit(adjinv.cli.main())")


@pytest.mark.parametrize("argv, module", [
    (["rank", EXAMPLE1], "elimination"),
    (["pinv", EXAMPLE1], "pinv"),
    (["verify", EXAMPLE1], "verify"),
])
def test_the_entry_point_freezes_once_the_kernel_and_the_command_module_have_run(argv, module):
    done = _child(FREEZE, *argv)
    assert (done.returncode, done.stderr) == (0, "")
    frozen, *printed = done.stdout.splitlines()  # frozen first, once, then the command's output
    assert {"elimination", module} <= set(ast.literal_eval(frozen))
    assert printed and not any(line.startswith("[") for line in printed)


def test_every_public_name_resolves_to_its_module():
    for name in adjinv.__all__:
        value = getattr(adjinv, name)
        assert getattr(sys.modules[f"adjinv.{adjinv._HOME[name]}"], name) is value
    namespace = {}
    exec("from adjinv import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(adjinv.__all__)
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        adjinv.nonesuch


def test_dir_lists_the_public_names_and_the_modules():
    assert set(adjinv.__all__) | set(adjinv._MODULES) <= set(dir(adjinv))


def test_a_module_that_has_run_is_a_plain_module():
    for name in adjinv._MODULES:
        module = sys.modules[f"adjinv.{name}"]
        vars(module)
        assert type(module) is types.ModuleType and getattr(adjinv, name) is module


def test_each_module_comes_before_the_modules_it_copies_names_from():
    # In sys.modules: a walker that patches each module in turn, as the
    # benchmark's tracer does, has then run every module before patching
    # what it copies.
    done = _child("import json, sys, adjinv; print(json.dumps(list(sys.modules)))")
    order = {name[7:]: k for k, name in enumerate(n for n in json.loads(done.stdout) if n.startswith("adjinv."))}
    assert set(order) == {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__", "cli"}
    for name, k in order.items():
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        sources = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1}
        assert all(order[source] > k for source in sources - {None}), name


RACE = """
import sys, threading, types
sys.setswitchinterval(1e-6)
import adjinv
barrier, got, errors = threading.Barrier(8), [], []

def read():
    barrier.wait()
    try:
        got.append((adjinv.mp_inverse, adjinv.pinv.projector_p))
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=read) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
print(sum(t.is_alive() for t in threads), len(got), len(set(got)), errors,
      type(sys.modules["adjinv.pinv"]) is types.ModuleType)
"""


@pytest.mark.parametrize("attempt", range(5))
def test_threads_racing_on_the_first_read_get_the_same_objects(attempt):
    done = _child(RACE)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "0 8 1 [] True\n"


FAILING = """
import sys, types
import adjinv
stub = sys.modules["adjinv.golden"]
for _ in range(3):
    try:
        stub.run_all
    except RuntimeError as exc:
        print(exc, type(stub).__name__, "run_all" in types.ModuleType.__getattribute__(stub, "__dict__"))
print(adjinv.mp_inverse.__name__)
"""


def test_a_module_whose_run_raises_raises_on_every_read(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "adjinv")
    with open(tmp_path / "adjinv" / "golden.py", "a", encoding="utf-8") as golden:
        golden.write("\nraise RuntimeError('golden failed')\n")
    done = _child(FAILING, path=tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "golden failed _Stub False\n" * 3 + "mp_inverse\n"
