"""Every cross-reference in the package's docstrings and comments, and in README.md, names something that exists.

A reference is ``:role:`target``` for the roles func, class, meth and mod.
As in Sphinx, a target resolves relative to the module that names it
first, then as an absolute dotted name: the longest prefix that imports
is the module, and the rest is read off it by ``getattr``.  In README.md a
reference is an inline code span that is a dotted name rooted at one of the
package's modules, as ``module.name``, ``adjinv.module`` or
``adjinv.module.name``, maybe followed by a call's arguments; it resolves
as an absolute name under ``adjinv``.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import adjinv

REFERENCE = re.compile(r":(func|class|meth|mod):`([^`]+)`")
SOURCES = sorted(Path(adjinv.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"
_MODULES = "|".join(path.stem for path in SOURCES if not path.stem.startswith("__"))
README_REFERENCE = re.compile(rf"(?:adjinv\.(?:{_MODULES})|(?:{_MODULES})\.\w+)(?:\.\w+)*(?=\(|$)")


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


def _readme_references(text: str) -> list[str]:
    """The dotted names of the package that the inline code spans of ``text`` hold, fenced blocks left out."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.DOTALL | re.MULTILINE)
    spans = (span.replace("\n", " ") for span in re.findall(r"`([^`]+)`", text))
    return [match[0] for match in map(README_REFERENCE.match, spans) if match]


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


def test_every_readme_reference_resolves():
    references = _readme_references(README.read_text(encoding="utf-8"))
    bad = [name for name in references if _resolve(name if name.startswith("adjinv.") else f"adjinv.{name}") is None]
    assert len(references) >= 40 and bad == [], f"README.md: unresolved {bad}"


def test_readme_references_are_the_package_names_in_code_spans():
    text = ("`minors.adjugate` and `adjinv.minors.skeleton_ledger(a, b=None)`, not `Ledger.quotient`,\n"
            "`adjinv.cli`, `decimal.Decimal` or `pinv` alone, nor\n```\n`drazin.fenced`\n```\nbut `solvers.\nlsq_solve`")
    assert _readme_references(text) == ["minors.adjugate", "adjinv.minors.skeleton_ledger", "adjinv.cli"]
