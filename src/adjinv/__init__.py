"""Exact generalized matrix inverses and Cramer-style solvers.

Moore-Penrose inverses, Drazin and group inverses, their projectors, and
least squares / singular-system solutions, all computed over exact Gaussian
rationals through adjugate-analogue minor sums, with independent oracles and
defining-equation checkers to validate every result.

Importing the package runs none of its modules.  Each submodule a process
may leave unread is put in ``sys.modules`` and bound on the package as a
stub, and the first read of any attribute of the stub (``__dict__`` and
``__spec__`` included) runs the module in it; from then on it is a plain
:class:`types.ModuleType`, so later reads cost nothing extra.  A public
name such as ``adjinv.mp_inverse`` is read off its module when it is asked
for (PEP 562), so a process runs only the modules it reads:
``python -m adjinv rank`` never runs ``pinv``, ``solvers``, ``verify`` or
``golden``.  The stubs sit in ``sys.modules`` from the start because
callers look modules up there without importing them
(``sys.modules["adjinv.pinv"]``, or a walk over every module), and a stub
answers them as the module would.  The stubs are registered in the order
of ``_MODULES``, each module before those it copies names from, so a walk
over ``sys.modules`` that patches each module in turn has run every module
before it patches what that module copies.

The command line, :mod:`adjinv.cli`, is not a stub: every process that
imports it (the ``adjinv`` script, ``python -m adjinv`` and
``python -m adjinv.cli``) runs it at once, so a stub would defer nothing.
It loads as a plain submodule when it is imported, which is also what lets
``python -m adjinv.cli`` run it as ``__main__`` once: runpy warns about a
module it finds in ``sys.modules`` before it runs it, and runs it a second
time.

The first read is safe from any number of threads: it holds the module's
lock while the module runs, so a racing thread waits and then reads the
finished module, and the running thread itself re-enters the lock.  A run
that raises leaves the stub as it was before the run, and the next read
runs the module again (and raises again).
"""

import sys
from _thread import RLock  # threading's own RLock, without importing threading
from importlib.util import find_spec, module_from_spec
from types import ModuleType

__version__ = "0.1.0"

# The public names, by the module that defines them.
_PUBLIC = {
    "scalars": ("ONE", "ZERO", "Scalar", "ScalarParseError", "parse_scalar"),
    "matrices": ("Matrix", "column_vector", "conjugate_transpose", "hstack", "multiply", "power", "rank",
                 "replace_column", "replace_row", "row_vector"),
    "index_sets": ("enumerate_containing", "enumerate_k_subsets"),
    "minors": ("adjugate", "char_poly_coeffs", "det", "minor", "principal_minor_sum"),
    "pinv": ("PinvResult", "ZeroMatrixError", "mp_inverse", "mp_inverse_columns", "mp_inverse_rows",
             "projector_p", "projector_q"),
    "drazin": ("DrazinResult", "GroupInverseError", "drazin_inverse", "drazin_times_a", "group_inverse",
               "index_of"),
    "solvers": ("SolveReport", "drazin_solve", "lsq_solve", "lsq_solve_row_system"),
    "verify": ("VerifyReport", "check_drazin", "check_penrose", "oracle_drazin", "oracle_pinv",
               "range_membership"),
    "matrix_io": ("MatrixFormatError", "OutputFormat", "format_matrix", "format_output", "format_scalar",
                  "parse_matrix_file", "parse_matrix_text"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_HOME)

# Every submodule but cli, each before the modules it copies names from with
# ``from .module import name`` (tests/test_package.py checks the order).
_MODULES = ("golden", "verify", "solvers", "pinv", "drazin", "minors", "matrix_io", "matrices",
            "index_sets", "_parallel", "elimination", "scalars")


class _Stub(ModuleType):
    """A submodule that has not run: the first read of any attribute runs it, under its lock."""

    def __getattribute__(self, attr):
        spec = ModuleType.__getattribute__(self, "__spec__")
        state = spec.loader_state
        with state["lock"]:
            if type(self) is _Stub and not state["loading"]:
                state["loading"] = True
                namespace = ModuleType.__getattribute__(self, "__dict__")
                before = dict(namespace)
                try:
                    spec.loader.exec_module(self)
                except BaseException:
                    namespace.clear()
                    namespace.update(before)
                    raise
                finally:
                    state["loading"] = False
                self.__class__ = ModuleType
        return ModuleType.__getattribute__(self, attr)


def _stub(name: str) -> ModuleType:
    spec = find_spec(f"{__name__}.{name}")
    spec.loader_state = {"lock": RLock(), "loading": False}
    module = module_from_spec(spec)
    module.__class__ = _Stub
    sys.modules[spec.name] = module
    return module


globals().update((name, _stub(name)) for name in _MODULES)


def __getattr__(name: str):
    """The public name ``name``, read off the module that defines it (PEP 562)."""
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[home], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
