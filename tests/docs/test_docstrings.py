"""Docstring coverage (ruff D1xx equivalent) for the documented subsystems.

CI runs ``ruff check`` with ``pydocstyle`` D1 rules over
``src/repro/core``, ``src/repro/observability``, ``src/repro/perf``,
``src/repro/methods``, ``src/repro/runtime`` and ``src/repro/service``
(see ``pyproject.toml``);
ruff is not available in every environment, so this AST-based check keeps
the same guarantee enforceable by the plain test suite: every public
module, class, function and method in those packages carries a docstring.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
PACKAGES = ("core", "observability", "perf", "methods", "runtime", "service")


def _public_defs(path: Path):
    """Yield ``(qualname, node)`` for every def that D1xx would flag."""
    tree = ast.parse(path.read_text())
    yield "<module>", tree
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
            for sub in node.body:
                # D107 (__init__) is ignored: constructor parameters are
                # documented in the numpydoc class docstring instead.
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub


MODULES = sorted(
    p for pkg in PACKAGES for p in (SRC / pkg).rglob("*.py")
)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_public_api_is_documented(module):
    if module.name == "__init__.py" and not module.read_text().strip():
        pytest.skip("empty package marker")
    missing = [
        name for name, node in _public_defs(module)
        if ast.get_docstring(node) is None
    ]
    assert not missing, f"{module}: missing docstrings on {missing}"
