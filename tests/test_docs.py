"""Every cross-reference in the package's docstrings and comments names something that exists.

A reference is ``:role:`target``` for the roles func, class, meth and mod.
As in Sphinx, a target resolves relative to the module that names it
first, then as an absolute dotted name: the longest prefix that imports
is the module, and the rest is read off it by ``getattr``.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import adjinv

REFERENCE = re.compile(r":(func|class|meth|mod):`([^`]+)`")
SOURCES = sorted(Path(adjinv.__file__).parent.glob("*.py"))


def _resolve(name: str):
    """The object the dotted ``name`` names, or None."""
    parts = name.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ImportError:
            continue
        for attr in parts[k:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def _resolves(module: str, role: str, target: str) -> bool:
    """True when ``target``, named in ``module``, is the kind of object ``role`` refers to."""
    kind = {"mod": inspect.ismodule, "class": inspect.isclass}.get(role, callable)
    return any(obj is not None and kind(obj) for obj in (_resolve(f"{module}.{target}"), _resolve(target)))


def _unresolved(path: Path) -> tuple[list[str], int]:
    """The references in the source at ``path`` that do not resolve, and how many it holds."""
    module = "adjinv" if path.stem == "__init__" else f"adjinv.{path.stem}"
    references = REFERENCE.findall(path.read_text(encoding="utf-8"))
    bad = [f":{role}:`{target}`" for role, target in references if not _resolves(module, role, target)]
    return bad, len(references)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_reference_resolves(path):
    bad, _ = _unresolved(path)
    assert bad == [], f"{path.name}: unresolved {bad}"


def test_references_are_found():
    assert sum(_unresolved(path)[1] for path in SOURCES) >= 100


@pytest.mark.parametrize("role, target, resolves", [
    ("func", "adjinv.elimination.eliminate", True),
    ("func", "eliminate", True),  # relative to adjinv.elimination
    ("class", "Elimination", True),
    ("meth", "adjinv.minors.Ledger.quotient", True),
    ("mod", "adjinv.drazin", True),
    ("func", "adjinv.elimination._no_such_kernel", False),
    ("mod", "adjinv.elimination.eliminate", False),  # a function, not a module
    ("class", "eliminate", False),  # a function, not a class
])
def test_the_resolver_tells_names_apart(role, target, resolves):
    assert _resolves("adjinv.elimination", role, target) == resolves
