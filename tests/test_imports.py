"""Every module-level import in the library is used in its module.

`__init__.py` exists to re-export names, and `from __future__` imports
change how a module compiles, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vebflow"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return ["%s (line %d)" % (name, line) for name, line in bound.items() if name not in used]


def test_the_check_sees_unused_imports():
    source = "from __future__ import annotations\nimport os\nimport os.path as p\nfrom a import b, c\nc()\n"
    assert _unused_imports(source) == ["os (line 2)", "p (line 3)", "b (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []
